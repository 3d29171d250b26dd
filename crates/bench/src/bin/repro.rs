//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--out DIR] [--trace-out FILE] [--metrics-out FILE] [TARGET...]
//! ```
//!
//! Prints aligned tables to stdout and writes CSV files under `--out`
//! (default `results/`); `--quick` scales measurement windows down ~8x for
//! a fast smoke pass. [`TARGETS`] is the list of targets — the usage text,
//! `all` and the unknown-target error are derived from it — and
//! `EXPERIMENTS.md` says what each one reproduces. Every table and CSV is
//! simulated-time-only and byte-deterministic for a given seed. Exits 1
//! when a target's self-check or an output file fails, 2 on a usage error.

use mts_bench::figures::{
    fig5_panel, fig6_csv, fig6_panel, isolation_matrix, pktsize_sweep, render_fig6, vf_count_table,
    Fig5Panel, Fig6Panel, ReproOpts,
};
use mts_bench::slo;
use mts_core::delta::ConfigDelta;
use mts_core::perfiso;
use mts_core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_core::survey;
use mts_core::workloads::Workload;
use mts_core::{overlay, Controller};
use mts_fuzz::deltas::{check_equiv, step_checked};
use mts_host::ResourceMode;
use mts_nic::PfId;
use mts_sim::Time;
use mts_telemetry::{MediationAuditor, Recorder, Telemetry};
use mts_vswitch::DatapathKind;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// What every target gets: the command line, minus the target names.
struct Ctx {
    quick: bool,
    out: PathBuf,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
}

/// One `repro` target. A target prints its tables, writes its files and
/// returns `Err` when a self-check or a write failed.
struct Target {
    name: &'static str,
    about: &'static str,
    /// Whether `repro all` runs it.
    in_all: bool,
    run: fn(&Ctx) -> Result<(), String>,
}

const TARGETS: &[Target] = &[
    Target {
        name: "verify",
        about: "static isolation verifier, incremental-vs-full churn, level diffs (self-checking)",
        in_all: true,
        run: run_verify,
    },
    Target {
        name: "fuzz",
        about: "fixed-seed fuzz campaign and crasher-corpus replay (self-checking)",
        in_all: true,
        run: run_fuzz,
    },
    Target {
        name: "faults",
        about: "blast-radius and recovery panel (self-checking); exports a traced cell on request",
        in_all: true,
        run: run_faults,
    },
    Target {
        name: "slo",
        about: "noisy-neighbour SLO matrix, billing accuracy, cycle conservation (self-checking)",
        in_all: true,
        run: run_slo,
    },
    Target {
        name: "table1",
        about: "Table 1: design survey of virtual switches",
        in_all: true,
        run: run_table1,
    },
    Target {
        name: "vfcount",
        about: "Sec. 3.2 VF budget",
        in_all: true,
        run: |_| {
            println!("{}", vf_count_table());
            Ok(())
        },
    },
    Target {
        name: "isolation",
        about: "Sec. 2.3 attack/isolation matrix",
        in_all: true,
        run: |_| {
            println!("{}", isolation_matrix());
            Ok(())
        },
    },
    Target {
        name: "fig5",
        about: "Fig. 5: throughput, latency and resources per level",
        in_all: true,
        run: run_fig5,
    },
    Target {
        name: "pktsize",
        about: "Sec. 4.2 latency vs packet size",
        in_all: true,
        run: |ctx| {
            let rep = pktsize_sweep(ctx.opts());
            println!("{}", rep.render_latency());
            ctx.csv("pktsize_latency.csv", &rep.to_csv())
        },
    },
    Target {
        name: "fig6",
        about: "Fig. 6: iperf, Apache and Memcached per level",
        in_all: true,
        run: run_fig6,
    },
    Target {
        name: "overlay",
        about: "Sec. 3.2 VXLAN overlay round trip on Level-2",
        in_all: true,
        run: run_overlay,
    },
    // Not in `all`: it exists for its exporter files, and `faults` writes
    // the same --trace-out/--metrics-out paths.
    Target {
        name: "trace",
        about: "telemetry run: mediation audit (self-checking), Chrome trace, Prometheus metrics",
        in_all: false,
        run: run_trace,
    },
];

/// The rows `repro all` runs, in order.
fn in_all() -> impl Iterator<Item = &'static Target> {
    TARGETS.iter().filter(|t| t.in_all)
}

fn usage() -> String {
    let mut out = String::from(
        "usage: repro [--quick] [--out DIR] [--trace-out FILE] [--metrics-out FILE] \
         [TARGET...]\n\ntargets (default: all):\n",
    );
    for t in TARGETS {
        out.push_str(&format!("  {:<10} {}\n", t.name, t.about));
    }
    let all: Vec<&str> = in_all().map(|t| t.name).collect();
    out.push_str(&format!("  {:<10} {}\n", "all", all.join(" ")));
    out
}

/// Parses the command line into the context and the targets to run, in
/// order, with `all` expanded. Nothing runs if any name is unknown.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<(Ctx, Vec<&'static Target>), String> {
    let mut ctx = Ctx {
        quick: false,
        out: PathBuf::from("results"),
        trace_out: None,
        metrics_out: None,
    };
    let mut names = Vec::new();
    while let Some(a) = args.next() {
        let mut path = || {
            let p = args.next().map(PathBuf::from);
            p.ok_or(format!("{a} requires a path argument"))
        };
        match a.as_str() {
            "--quick" => ctx.quick = true,
            "--out" => ctx.out = path()?,
            "--trace-out" => ctx.trace_out = Some(path()?),
            "--metrics-out" => ctx.metrics_out = Some(path()?),
            _ => names.push(a),
        }
    }
    if names.is_empty() {
        // Exporter flags without an explicit target imply the run that
        // produces them.
        let exporting = ctx.trace_out.is_some() || ctx.metrics_out.is_some();
        names.push(if exporting { "trace" } else { "all" }.to_string());
    }
    let mut targets = Vec::new();
    for name in &names {
        if name == "all" {
            targets.extend(in_all());
        } else {
            let found = TARGETS.iter().find(|t| t.name == name);
            targets.push(found.ok_or(format!("unknown target: {name}"))?);
        }
    }
    Ok((ctx, targets))
}

fn main() -> ExitCode {
    let (ctx, targets) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("repro: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "repro: scale={} reps={} -> {}",
        ctx.opts().scale,
        ctx.opts().reps,
        ctx.out.display()
    );
    for t in targets {
        if let Err(e) = (t.run)(&ctx) {
            eprintln!("repro: {} FAILED:\n  {e}", t.name);
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

impl Ctx {
    /// Measurement windows and repetitions of the figure panels.
    fn opts(&self) -> ReproOpts {
        if self.quick {
            ReproOpts::quick()
        } else {
            ReproOpts::default()
        }
    }

    /// Writes one CSV under `--out`.
    fn csv(&self, name: &str, content: &str) -> Result<(), String> {
        save(&self.out.join(name), content)
    }
}

/// Writes one output file, creating its directory.
fn save(path: &Path, content: &str) -> Result<(), String> {
    fs::create_dir_all(path.parent().unwrap_or(Path::new("")))
        .and_then(|()| fs::write(path, content))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("  wrote {}", path.display());
    Ok(())
}

/// `Ok` when no self-check failed, else every failure, one per line.
fn verdict(failures: Vec<String>) -> Result<(), String> {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n  "))
    }
}

/// Writes a telemetry-enabled run's trace (Chrome trace-event JSON plus a
/// `.jsonl` sibling) and metrics (Prometheus text plus `.jsonl`) to the
/// paths the exporter flags name.
fn export_telemetry(ctx: &Ctx, rec: &Recorder) -> Result<(), String> {
    if let Some(p) = &ctx.trace_out {
        save(p, &rec.trace.to_chrome_trace())?;
        save(&p.with_extension("jsonl"), &rec.trace.to_jsonl())?;
    }
    if let Some(p) = &ctx.metrics_out {
        save(p, &rec.metrics.render_prometheus())?;
        save(&p.with_extension("jsonl"), &rec.metrics.render_jsonl())?;
    }
    Ok(())
}

/// Fails a traced run that outgrew a telemetry log cap: its audit and its
/// exports cover only the part of the run that fitted. Silent when whole.
fn untruncated(journey_hops: u64, trace_events: u64) -> Result<(), String> {
    if journey_hops == 0 && trace_events == 0 {
        return Ok(());
    }
    println!(
        "telemetry truncated: {journey_hops} journey hops and {trace_events} trace events \
         fell past the log caps and were not recorded"
    );
    Err("telemetry logs truncated: audit and exports cover a partial run".to_string())
}

/// The Level-2 (two compartments, kernel, isolated cores) deployment the
/// `trace`, `overlay` and traced `faults` runs share.
fn level2_spec(scenario: Scenario) -> DeploymentSpec {
    DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        scenario,
    )
}

fn run_table1(_: &Ctx) -> Result<(), String> {
    println!("== Table 1: design characteristics of virtual switches ==");
    println!("{}", survey::render_table());
    println!(
        "monolithic: {:.0}%  co-located: {:.0}%  split kernel/user: {:.0}%\n",
        survey::monolithic_fraction() * 100.0,
        survey::colocated_fraction() * 100.0,
        survey::split_processing_fraction() * 100.0
    );
    Ok(())
}

fn run_fig5(ctx: &Ctx) -> Result<(), String> {
    for panel in Fig5Panel::ALL {
        let (tput, lat, res) = fig5_panel(panel, ctx.opts());
        println!("{}", tput.render_throughput());
        println!("{}", lat.render_latency());
        println!("{}", res.render_resources());
        let tag = panel.label().split(' ').next().unwrap_or("row");
        ctx.csv(&format!("fig5_{tag}_throughput.csv"), &tput.to_csv())?;
        ctx.csv(&format!("fig5_{tag}_latency.csv"), &lat.to_csv())?;
    }
    Ok(())
}

fn run_fig6(ctx: &Ctx) -> Result<(), String> {
    for row in Fig5Panel::ALL {
        for workload in Workload::ALL {
            let panel = Fig6Panel { row, workload };
            let rows = fig6_panel(panel, ctx.opts());
            println!("{}", render_fig6(panel.name(), workload, &rows));
            let tag = format!(
                "fig6_{}_{}",
                row.label().split(' ').next().unwrap_or("row"),
                workload.label()
            );
            ctx.csv(&format!("{tag}.csv"), &fig6_csv(&rows))?;
        }
    }
    Ok(())
}

/// The observability showcase: a Level-2 v2v run with full telemetry,
/// mediation audit, and the trace/metrics exporters.
fn run_trace(ctx: &Ctx) -> Result<(), String> {
    let spec = level2_spec(Scenario::V2v);
    let d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 1);
    w.sink.window = (Time::ZERO, Time::MAX);
    w.telemetry = Telemetry::enabled();
    let mut e = Sim::new();
    let horizon = if ctx.quick { 2_000_000 } else { 10_000_000 };
    let flows = w.tenant_flows();
    start_udp_generator(&mut e, flows, 50_000.0, 64, Time::from_nanos(horizon));
    e.run_until(&mut w, Time::from_nanos(horizon * 3));

    let rec = w.telemetry.recorder().ok_or("telemetry not recording")?;
    let report = MediationAuditor::sriov().audit(rec);
    println!("== frame-journey trace (Level-2 v2v, kernel, isolated) ==");
    println!(
        "frames: sent {}  received {}  journeys {}  trace events {}",
        w.sink.sent,
        w.sink.received,
        rec.journeys.len(),
        rec.trace.len()
    );
    println!(
        "mediation audit: {} tenant segments checked, {} skipped, {} violations",
        report.checked,
        report.skipped,
        report.violations.len()
    );
    for v in report.violations.iter().take(5) {
        println!("  VIOLATION frame {}: {}", v.frame, v.reason);
    }
    if !report.ok() {
        return Err("complete-mediation audit failed".to_string());
    }
    export_telemetry(ctx, rec)?;
    untruncated(report.journey_hops_truncated, report.trace_events_truncated)
}

/// VXLAN overlay round trip (Sec. 3.2) on Level-2.
fn run_overlay(_: &Ctx) -> Result<(), String> {
    let spec = level2_spec(Scenario::P2v);
    let mut d = Controller::build(spec, 2).map_err(|e| e.to_string())?;
    let cfg = overlay::OverlayConfig::default();
    overlay::install_overlay_rules(&mut d, cfg).map_err(|e| format!("overlay rules: {e:?}"))?;
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 1);
    w.sink.window = (Time::ZERO, Time::MAX);
    let mut e = Sim::new();
    let flows: Vec<_> = w
        .tenant_flows()
        .into_iter()
        .zip(&w.plan.tenants)
        .map(|((dmac, ip), t)| (dmac, ip, cfg.vni(t.index)))
        .collect();
    overlay::start_overlay_generator(
        &mut e,
        flows,
        cfg,
        100_000.0,
        256,
        Time::from_nanos(20_000_000),
    );
    e.run_until(&mut w, Time::from_nanos(60_000_000));
    println!("== VXLAN overlay (Sec 3.2) ==");
    println!(
        "sent {}  received {}  p50 {:.1} us  per-tenant {:?}",
        w.sink.sent,
        w.sink.received,
        w.sink.latency.percentile(50.0) as f64 / 1e3,
        w.sink.per_flow
    );
    Ok(())
}

/// The blast-radius and recovery panel (`ROBUSTNESS.md`), with the
/// acceptance claims checked inline. With exporter flags, also runs a
/// traced Level-2 crash-and-recover cell and writes its trace/metrics.
fn run_faults(ctx: &Ctx) -> Result<(), String> {
    use mts_faults::{blast_radius_panel, experiment, FaultOpts};
    use mts_sim::Dur;

    let opts = if ctx.quick {
        FaultOpts {
            rate_pps: 100_000.0,
            run_for: Dur::millis(15),
            fault_at: Time::from_nanos(5_000_000),
            drain: Dur::millis(12),
            ..FaultOpts::default()
        }
    } else {
        FaultOpts::default()
    };
    let cells = blast_radius_panel(opts).map_err(|e| e.to_string())?;
    println!("{}", experiment::render(&cells));
    ctx.csv("faults_blast_radius.csv", &experiment::to_csv(&cells))?;

    let mut failures = Vec::new();
    let mut check = |ok: bool, what: &str| {
        if !ok {
            failures.push(what.to_string());
        }
    };
    for c in &cells {
        check(
            c.drop_sum_ok,
            &format!("accounting identity broken: {} / {}", c.config, c.fault),
        );
        if let Some(v) = c.isocheck_violations {
            check(
                v == 0,
                &format!(
                    "post-recovery isocheck violations: {} / {}",
                    c.config, c.fault
                ),
            );
        }
    }
    for c in cells.iter().filter(|c| c.fault == "crash") {
        if c.config.contains("L2") {
            check(
                c.affected == vec![0, 2],
                "L2 compartment kill must affect exactly compartment 0's tenants",
            );
            check(
                c.offered[1] == c.delivered[1] && c.offered[3] == c.delivered[3],
                "L2 compartment kill must lose zero frames of the other compartment",
            );
            check(c.recover.is_some(), "L2 crash must be recovered");
        } else {
            check(
                c.affected == vec![0, 1, 2, 3],
                &format!(
                    "{}: shared-vswitch crash must affect every tenant",
                    c.config
                ),
            );
        }
    }
    verdict(failures)?;
    println!(
        "faults: {} cells clean; L2 compartment kill contained to one compartment, \
         accounting identity held everywhere",
        cells.len()
    );

    // Exporters: replay the Level-2 crash-and-recover cell with telemetry
    // enabled and write its trace and metrics (same flags as `trace`).
    if ctx.trace_out.is_some() || ctx.metrics_out.is_some() {
        let w = mts_faults::run_traced(
            level2_spec(Scenario::P2v),
            mts_faults::FaultCase::Crash,
            opts,
        )
        .map_err(|e| format!("traced run: {e}"))?;
        let rec = w.telemetry.recorder().ok_or("telemetry not recording")?;
        export_telemetry(ctx, rec)?;
        untruncated(rec.journeys.truncated(), rec.trace.truncated())?;
    }
    Ok(())
}

/// The `mts-slo` panel (`OBSERVABILITY.md`): SLO matrix, billing accuracy
/// and cycle conservation, with every headline claim self-checked.
fn run_slo(ctx: &Ctx) -> Result<(), String> {
    let panel = slo::run_slo_panel(ctx.quick).map_err(|e| e.to_string())?;
    println!("{}", perfiso::render_matrix(&panel.cells));
    println!("{}", slo::render_accuracy(&panel.accuracy));
    println!("{}", slo::render_conservation(&panel.conservation));
    ctx.csv("slo_matrix.csv", &slo::matrix_csv(&panel.cells))?;
    ctx.csv(
        "slo_billing_accuracy.csv",
        &slo::accuracy_csv(&panel.accuracy),
    )?;
    ctx.csv(
        "slo_conservation.csv",
        &slo::conservation_csv(&panel.conservation),
    )?;
    verdict(panel.self_check())?;
    println!(
        "slo: {} matrix cells, {} configs; conservation exact everywhere, \
         all self-checks passed",
        panel.cells.len(),
        panel.conservation.len()
    );
    Ok(())
}

/// The static verification suite: every shipped compartmentalized
/// configuration must verify clean, every seeded misconfiguration must be
/// detected with a counterexample witness, the incremental verifier must
/// stay byte-identical to the from-scratch one under churn, and hardening
/// must not regress reachability against the Baseline.
fn run_verify(_: &Ctx) -> Result<(), String> {
    println!("== static verification (mts-isocheck) ==");
    let reports = mts_isocheck::verify_shipped().map_err(|e| e.to_string())?;
    let mut failures = Vec::new();
    for r in &reports {
        println!("{r}");
        if !r.informational && !r.is_clean() {
            failures.push(format!("shipped configuration {} is not clean", r.label));
        }
    }
    println!("== negative controls: seeded misconfigurations ==");
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    );
    let mut detected = 0usize;
    for mc in mts_isocheck::Misconfig::ALL {
        let seeded = Controller::deploy(spec)
            .map_err(|e| e.to_string())
            .and_then(|mut d| {
                let what = mc.seed(&mut d).map_err(|e| e.to_string())?;
                let r = mts_isocheck::verify(&d).map_err(|e| e.to_string())?;
                Ok((what, r))
            });
        match seeded {
            Ok((what, r)) => {
                println!("-- seeded {}: {what}", mc.label());
                println!("{r}");
                if mc.detected_in(&r) {
                    detected += 1;
                } else {
                    failures.push(format!(
                        "seeded misconfiguration '{}' NOT detected",
                        mc.label()
                    ));
                }
            }
            Err(e) => failures.push(format!("cannot seed '{}': {e}", mc.label())),
        }
    }
    println!("== delta equivalence: incremental vs from-scratch verifier ==");
    let mut churn_deltas = 0usize;
    for churn_spec in mts_isocheck::shipped_matrix() {
        match churn_one(churn_spec) {
            Ok(n) => {
                println!(
                    "  {}: {n} deltas, byte-identical throughout",
                    churn_spec.label()
                );
                churn_deltas += n;
            }
            Err(e) => failures.push(format!("delta equivalence on {}: {e}", churn_spec.label())),
        }
    }
    for mc in mts_isocheck::Misconfig::ALL {
        match misconfig_delta_control(mc, spec) {
            Ok(()) => println!(
                "  {} via delta: detected incrementally, byte-identical",
                mc.label()
            ),
            Err(e) => failures.push(format!("delta control '{}': {e}", mc.label())),
        }
    }
    println!("== cross-level differential reachability (Baseline vs hardened) ==");
    let diffed = run_level_diffs().unwrap_or_else(|e| {
        failures.push(format!("level diff: {e}"));
        0
    });
    verdict(failures)?;
    println!(
        "verify: {} shipped configurations clean; {detected}/{} seeded \
         misconfigurations detected with witnesses; {churn_deltas} churn \
         deltas byte-identical incrementally; {diffed} level diffs free of \
         regressions",
        reports.len(),
        mts_isocheck::Misconfig::ALL.len()
    );
    Ok(())
}

/// The fuzzing gate: a fixed-seed deterministic campaign over the wire,
/// fault-plan, delta-stream, and reconciliation surfaces plus both live
/// injection modes, then a full replay of the committed crasher corpus.
/// Fails on any invariant violation, corpus replay failure, or an empty
/// corpus.
fn run_fuzz(ctx: &Ctx) -> Result<(), String> {
    println!("== deterministic fuzz campaign (mts-fuzz) ==");
    let cfg = mts_fuzz::FuzzConfig {
        seed: 0xF022,
        budget: if ctx.quick {
            mts_fuzz::Budget::quick()
        } else {
            mts_fuzz::Budget::full()
        },
    };
    let report = mts_fuzz::run_campaign(&cfg);
    println!("{report}");
    ctx.csv("fuzz_campaign.csv", &report.to_csv())?;
    let mut failures = Vec::new();
    if !report.clean() {
        failures.push("campaign found invariant violations".to_string());
    }

    println!("== pinned crasher corpus replay ==");
    match mts_fuzz::corpus::load_all() {
        Ok(cases) if cases.is_empty() => failures.push("committed corpus is empty".to_string()),
        Ok(cases) => {
            for case in &cases {
                match mts_fuzz::corpus::replay(case) {
                    Ok(()) => println!("  {case}: green"),
                    Err(e) => failures.push(format!("corpus replay: {e}")),
                }
            }
            println!("fuzz: {} corpus cases replayed", cases.len());
        }
        Err(e) => failures.push(format!("corpus load: {e}")),
    }
    verdict(failures)
}

/// Drives a scripted configuration churn against one shipped deployment —
/// pipeline wipe, rule-by-rule reinstall, static-MAC removal and
/// reinstall, VEB flush, filter-list replacement, liveness flaps — applying
/// each [`ConfigDelta`] to the devices and to an incremental checker, with
/// a byte-identity check against the from-scratch verifier after every
/// delta. Returns the number of deltas applied.
fn churn_one(spec: DeploymentSpec) -> Result<usize, String> {
    let mut d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut checker =
        mts_isocheck::IncrementalChecker::of_deployment(&d).map_err(|e| e.to_string())?;
    check_equiv(&mut checker, &d, "construction")?;

    // Crash-shaped churn: wipe vswitch 0's pipeline, then reinstall the
    // dumped rules one by one, as supervisor recovery + reconciliation do.
    let dump = d.vswitches[0].sw.dump_rules();
    let mut script: Vec<_> = ConfigDelta::rebuild(0, dump).collect();
    // Static-MAC churn on PF 0.
    let pf0 = d.nic.pf(PfId(0)).map_err(|e| e.to_string())?;
    if let Some(&(vlan, mac, port)) = pf0.static_macs().first() {
        script.push(ConfigDelta::StaticRemoved { pf: 0, vlan, mac });
        script.push(ConfigDelta::StaticInstalled {
            pf: 0,
            vlan,
            mac,
            port,
        });
    }
    // VEB flush (statics rebuilt from VF configs), the same filter list
    // set again (the wholesale-set path and the dead-filter warning
    // bookkeeping), and liveness flaps, which carry no configuration and
    // must not move the verdict.
    let filters = pf0.filters().to_vec();
    script.extend([
        ConfigDelta::VebFlushed { pf: 0 },
        ConfigDelta::FiltersSet { pf: 0, filters },
        ConfigDelta::VswitchDown { vswitch: 0 },
        ConfigDelta::VswitchUp { vswitch: 0 },
    ]);
    for delta in &script {
        step_checked(&mut d, &mut checker, delta)?;
    }
    Ok(script.len())
}

/// Seeds one canonical misconfiguration through the *delta* path: its
/// [`mts_isocheck::Misconfig::delta`] is applied to the devices and to an
/// incremental checker, and the incremental verdict must both match the
/// full verifier byte-for-byte and contain the misconfiguration's
/// characteristic detection.
fn misconfig_delta_control(
    mc: mts_isocheck::Misconfig,
    spec: DeploymentSpec,
) -> Result<(), String> {
    let mut d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut checker =
        mts_isocheck::IncrementalChecker::of_deployment(&d).map_err(|e| e.to_string())?;
    let delta = mc.delta(&d).map_err(|e| e.to_string())?;
    step_checked(&mut d, &mut checker, &delta)?;
    let inc_report = checker.report().map_err(|e| e.to_string())?;
    if !mc.detected_in(&inc_report) {
        return Err(format!(
            "incremental verdict missed seeded '{}'",
            mc.label()
        ));
    }
    Ok(())
}

/// Cross-level differential reachability: every shipped hardened
/// configuration against the Baseline of the same datapath, resource mode
/// and scenario. Hardening must only remove, mediate, or structurally
/// relocate paths — any `REGRESSION-LOST` / `REGRESSION-GAINED` verdict
/// fails the run. Returns the number of level pairs diffed.
fn run_level_diffs() -> Result<usize, String> {
    let mut pairs = 0usize;
    for spec in mts_isocheck::shipped_matrix() {
        let base_spec = DeploymentSpec::mts(
            SecurityLevel::Baseline,
            spec.datapath,
            spec.resource_mode,
            spec.scenario,
        );
        let base = Controller::deploy(base_spec).map_err(|e| e.to_string())?;
        let hard = Controller::deploy(spec).map_err(|e| e.to_string())?;
        let diff = mts_isocheck::diff_levels(&base, &hard).map_err(|e| e.to_string())?;
        println!("{diff}");
        if !diff.is_clean() {
            return Err(format!(
                "regression diffing {} against {}",
                base_spec.label(),
                spec.label()
            ));
        }
        pairs += 1;
    }
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(args: &[&str]) -> Result<Vec<&'static str>, String> {
        let (_, targets) = parse_args(args.iter().map(|a| a.to_string()))?;
        Ok(targets.iter().map(|t| t.name).collect())
    }

    #[test]
    fn target_table_is_unique_documented_and_what_ci_runs() {
        let experiments = include_str!("../../../../EXPERIMENTS.md");
        for (i, t) in TARGETS.iter().enumerate() {
            assert_ne!(t.name, "all", "`all` is derived, not a row");
            let dup = TARGETS[..i].iter().any(|u| u.name == t.name);
            assert!(!dup, "duplicate target {}", t.name);
            let cmd = format!("`repro {}`", t.name);
            assert!(experiments.contains(&cmd), "EXPERIMENTS.md lacks {cmd}");
        }
        let ci = include_str!("../../../../.github/workflows/ci.yml");
        let ci_targets: Vec<&str> = ci
            .lines()
            .filter_map(|l| l.trim().strip_prefix("- target: "))
            .collect();
        assert!(!ci_targets.is_empty(), "ci.yml has no target matrix");
        assert_eq!(names(&ci_targets).unwrap(), ci_targets);
    }

    #[test]
    fn all_is_the_in_all_rows_once_each_and_a_typo_runs_nothing() {
        let all: Vec<&str> = in_all().map(|t| t.name).collect();
        assert_eq!(names(&["all"]).unwrap(), all);
        assert_eq!(names(&[]).unwrap(), all);
        assert_eq!(names(&["--trace-out", "t.json"]).unwrap(), ["trace"]);
        assert_eq!(names(&["--quick", "slo", "fig5"]).unwrap(), ["slo", "fig5"]);
        let typo = names(&["fig5", "nosuchtarget"]).unwrap_err();
        assert_eq!(typo, "unknown target: nosuchtarget");
        assert_eq!(names(&["--quik"]).unwrap_err(), "unknown target: --quik");
        assert!(names(&["--out"]).is_err());
    }
}
