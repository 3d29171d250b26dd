//! Command line of the benchmark.
//!
//! ```text
//! mts-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mts-benchmark run [--seed 11] [--out benchmark/out] [--quick]
//! mts-benchmark compare A.json B.json
//! ```

use mts_benchmark::compare;
use mts_benchmark::harness::{layer_report, measure, run_all, Reps, END_TO_END};
use mts_benchmark::json;
use mts_benchmark::report;
use mts_benchmark::spans::Tracer;
use mts_benchmark::workloads::{Check, Kind, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  mts-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
      one workload; the last line of stdout is one JSON result
  mts-benchmark run [--seed 11] [--out benchmark/out] [--quick]
      all workloads, layer probes and the traced pass; writes results.json and trace.json
  mts-benchmark compare A.json B.json
      B against A, per workload and end-to-end metric: ok / worse / unresolved";

/// `--flag value` pairs and bare `--flag`s of one subcommand.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(flag) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            let value = if bare.contains(&flag) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{flag} needs a value"))?
                        .clone(),
                )
            };
            out.push((flag.to_string(), value));
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        match self.0.iter().find(|(f, _)| f == flag) {
            None => Ok(None),
            Some((_, v)) => v
                .as_deref()
                .and_then(|v| v.parse().ok())
                .map(Some)
                .ok_or_else(|| format!("--{flag}: bad value")),
        }
    }

    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(f, _)| !known.contains(&f.as_str())) {
            Some((f, _)) => Err(format!("unknown flag --{f}")),
            None => Ok(()),
        }
    }
}

fn report_failed(workload: &str, checks: &[Check]) {
    for c in checks.iter().filter(|c| !c.ok) {
        eprintln!("{workload}: CHECK FAILED {}: {}", c.name, c.detail);
    }
}

/// Contract mode: one workload, one JSON object as the last line.
fn one_workload(flags: &Flags) -> Result<bool, String> {
    flags.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = flags.get("workload")?.ok_or("--workload is required")?;
    let kind = Kind::from_name(&name).ok_or_else(|| {
        let known: Vec<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        format!("unknown workload {name:?}; one of {}", known.join(", "))
    })?;
    let seed: u64 = flags.get("seed")?.unwrap_or(11);
    let seconds: f64 = flags
        .get("seconds")?
        .unwrap_or(f64::from(report::RUN_SECONDS));
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let (attempted, failed, metrics) = match flags.get::<u8>("trace")?.unwrap_or(0) {
        0 => {
            let m = measure(kind, seed, Scale::FULL, Reps::Seconds(seconds))?;
            report_failed(&name, &m.checks);
            eprintln!(
                "{name}: sim_digest {:016x}, {} ops per rep, wall_s of each timed rep {:?}",
                m.sim_digest, m.ops, m.metrics["wall_s"].samples
            );
            let metrics = END_TO_END
                .iter()
                .map(|d| (d.name.to_string(), m.metrics[d.name].median, d.unit))
                .collect();
            (m.attempted, m.failed, metrics)
        }
        1 => {
            // Fixed work; `--seconds` does not stretch it.
            let r = layer_report(kind, seed, &mut Tracer::new())?;
            report_failed(&name, &r.checks);
            (r.attempted, r.failed, r.metrics)
        }
        _ => return Err("--trace must be 0 or 1".to_string()),
    };
    println!("{}", report::contract_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

/// Stand-alone mode: everything, with files.
fn run_everything(flags: &Flags) -> Result<bool, String> {
    flags.only(&["seed", "out", "quick"])?;
    let seed: u64 = flags.get("seed")?.unwrap_or(11);
    let out: PathBuf = flags
        .get("out")?
        .unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let quick = flags.has("quick");
    let all = run_all(seed, quick, |step| eprintln!("{step} ..."))?;
    print!(
        "{}",
        report::table(quick, &all.measured, &all.traced, &all.layers)
    );

    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let write = |file: &str, text: String| {
        let path = out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write(
        "results.json",
        report::results_json(seed, quick, &all.measured, &all.traced, &all.layers).pretty(),
    )?;
    write("trace.json", all.tracer.to_json().compact())?;
    let failed = all.failed();
    if failed > 0 {
        eprintln!("{failed} repetitions failed their checks");
    }
    Ok(failed == 0)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let load = |p: &String| {
        let text = std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{p}: {e}"))
    };
    let c = compare::compare(&load(a)?, &load(b)?)?;
    print!("{}", compare::render(&c));
    Ok(c.all_ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Flags::parse(&args[1..], &["quick"]).and_then(|f| run_everything(&f)),
        Some("compare") => compare_files(&args[1..]),
        Some(a) if a.starts_with("--") && a != "--help" => {
            Flags::parse(&args, &[]).and_then(|f| one_workload(&f))
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mts-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
