//! `BENCHMARK.json` and the harness agree: every workload and metric the
//! file names is emitted under exactly that name, and nothing else is.

use mts_benchmark::harness::{layer_report, run_all, END_TO_END};
use mts_benchmark::json::{self, Value};
use mts_benchmark::spans::Tracer;
use mts_benchmark::workloads::Kind;
use mts_benchmark::{compare, report};
use std::collections::BTreeSet;
use std::path::Path;

fn committed_manifest() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn names(list: &Value) -> Vec<String> {
    list.items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect()
}

#[test]
fn the_committed_file_is_the_one_the_code_describes() {
    let (committed, described) = (committed_manifest(), report::manifest());
    assert_eq!(
        committed,
        described,
        "BENCHMARK.json is out of date; the code describes:\n{}",
        described.pretty()
    );
}

#[test]
fn the_file_is_inside_the_contracts_limits() {
    let m = committed_manifest();
    let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let well_formed = |name: &str| {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name.len() <= 64
    };
    let mut seen = BTreeSet::new();
    for list in ["workloads", "end_to_end", "per_layer"] {
        for name in names(m.get(list).unwrap()) {
            assert!(well_formed(&name), "bad name {name:?}");
            assert!(seen.insert(name.clone()), "{name} is used twice");
        }
    }
    for list in ["end_to_end", "per_layer"] {
        for metric in m.get(list).unwrap().items() {
            let unit = metric.get("unit").and_then(Value::as_str).unwrap();
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit:?}"
            );
            let better = metric.get("better").and_then(Value::as_str).unwrap();
            assert!(better == "lower" || better == "higher");
        }
    }
    for w in m.get("workloads").unwrap().items() {
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {} chars",
            why.len()
        );
    }
    let e2e = m.get("end_to_end").unwrap().items();
    assert!((1..=16).contains(&e2e.len()));
    assert!((1..=128).contains(&m.get("per_layer").unwrap().items().len()));
    assert!((2..=8).contains(&m.get("workloads").unwrap().items().len()));
    for metric in e2e {
        let bound = metric.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let setup = e2e
        .iter()
        .find(|metric| metric.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let largest = e2e
        .iter()
        .filter_map(|metric| metric.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
    let seconds = m.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

/// The `--quick` smoke mode: a twentieth of the work, once, through the same
/// code as a full run. Checks what a full run would: that every check
/// passes, and that what is emitted is what `BENCHMARK.json` names.
#[test]
fn a_quick_run_passes_every_check_and_emits_exactly_the_listed_names() {
    let manifest = committed_manifest();
    let all = run_all(11, true, |_| {}).expect("the quick run completes");
    for m in &all.measured {
        let failed: Vec<_> = m.checks.iter().filter(|c| !c.ok).collect();
        assert!(failed.is_empty(), "{}: {failed:?}", m.kind.name());
        assert!(m.checks.len() >= 2, "{}: checks ran", m.kind.name());
    }
    for t in &all.traced {
        let failed: Vec<_> = t.checks.iter().filter(|c| !c.ok).collect();
        assert!(failed.is_empty(), "{} traced: {failed:?}", t.kind.name());
    }
    assert_eq!(all.failed(), 0);

    let results = report::results_json(11, true, &all.measured, &all.traced, &all.layers);
    let results = json::parse(&results.pretty()).expect("results.json parses back");
    assert_eq!(results.get("comparable"), Some(&Value::Bool(false)));
    assert!(report::table(true, &all.measured, &all.traced, &all.layers).starts_with("QUICK RUN"));

    // Workloads and end-to-end metrics, by name and in order.
    let workloads = results.get("workloads").unwrap();
    assert_eq!(names(workloads), names(manifest.get("workloads").unwrap()));
    let listed_e2e = names(manifest.get("end_to_end").unwrap());
    for w in workloads.items() {
        let emitted: Vec<&str> = w
            .get("end_to_end")
            .unwrap()
            .members()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(emitted, listed_e2e);
        for (name, metric) in w.get("end_to_end").unwrap().members() {
            let value = metric.get("value").and_then(Value::as_f64).unwrap();
            assert!(value > 0.0, "{name} must never read 0, got {value}");
        }
    }

    // Per-layer metrics: the probes plus each workload's traced pass.
    let listed: BTreeSet<String> = names(manifest.get("per_layer").unwrap())
        .into_iter()
        .collect();
    let probes: BTreeSet<String> = all.layers.iter().map(|l| l.0.to_string()).collect();
    for t in &all.traced {
        let mut emitted = probes.clone();
        for (name, _) in &t.metrics {
            assert!(emitted.insert(name.clone()), "{name} is emitted twice");
        }
        assert_eq!(emitted, listed, "{}", t.kind.name());
    }

    // The traced pass: per-kind shares sum to the stepped wall.
    for t in all.traced.iter().filter(|t| t.kind != Kind::VerifyChurn) {
        let shares: f64 = t
            .metrics
            .iter()
            .filter(|(name, _)| name.starts_with("trace.") && name.ends_with(".share"))
            .map(|(_, v)| v)
            .sum();
        assert!(
            (shares - 1.0).abs() < 0.02,
            "{}: shares sum to {shares}",
            t.kind.name()
        );
        let overhead = t
            .metrics
            .iter()
            .find(|(name, _)| name == "trace.overhead_ratio")
            .unwrap()
            .1;
        assert!(
            overhead > 0.0,
            "{}: overhead ratio {overhead}",
            t.kind.name()
        );
    }
    let trace = json::parse(&all.tracer.to_json().compact()).expect("trace.json parses back");
    assert_eq!(
        trace.get("workloads").unwrap().items().len(),
        1 + Kind::ALL.len()
    );

    // The two workloads do isolate the fast and the slow path.
    let hit_ratio = |kind: Kind| {
        let t = all.traced.iter().find(|t| t.kind == kind).unwrap();
        t.metrics
            .iter()
            .find(|(name, _)| name == "vswitch.hit_ratio")
            .unwrap()
            .1
    };
    assert!(hit_ratio(Kind::UdpFast) > 0.999);
    assert!(hit_ratio(Kind::MegaflowChurn) < 0.01);

    // A quick result is refused by `compare`.
    assert!(compare::compare(&results, &results).is_err());
    // Marked comparable, a result compares `ok` with itself everywhere.
    let Value::Obj(mut members) = results else {
        unreachable!()
    };
    for (k, v) in &mut members {
        if k == "comparable" {
            *v = Value::Bool(true);
        }
    }
    let full = Value::Obj(members);
    let same = compare::compare(&full, &full).expect("comparable");
    assert_eq!(same.rows.len(), Kind::ALL.len() * END_TO_END.len());
    assert!(same.all_ok(), "{}", compare::render(&same));
}

/// Contract mode with `--trace 1` prints one value per listed per-layer
/// metric, in order, and nothing else.
#[test]
fn a_layer_report_lists_exactly_the_per_layer_metrics() {
    let manifest = committed_manifest();
    let r = layer_report(Kind::VerifyChurn, 11, &mut Tracer::new()).expect("the report completes");
    let emitted: Vec<String> = r.metrics.iter().map(|m| m.0.clone()).collect();
    assert_eq!(emitted, names(manifest.get("per_layer").unwrap()));
    assert_eq!(r.failed, 0, "{:?}", r.checks);
    let line = json::parse(&report::contract_line(r.attempted, r.failed, &r.metrics)).unwrap();
    let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
}
