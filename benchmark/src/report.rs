//! Rendering: `results.json`, the stdout table, and the one-line result
//! the benchmark contract asks for.

use crate::harness::{per_layer_defs, LayerDef, Measured, Traced, END_TO_END};
use crate::json::Value;
use crate::layers::LayerMetric;
use crate::stats::Summary;
use crate::workloads::Check;
use std::fmt::Write as _;

/// Schema tag of `results.json`.
pub const SCHEMA: &str = "mts-benchmark-v1";

fn summary_json(s: &Summary, unit: &str) -> Value {
    Value::obj([
        ("value", Value::Num(s.median)),
        ("unit", Value::str(unit)),
        ("n", Value::Num(s.n as f64)),
        ("min", Value::Num(s.min)),
        ("q1", Value::Num(s.q1)),
        ("q3", Value::Num(s.q3)),
        ("mad", Value::Num(s.mad)),
        ("samples", Value::nums(&s.samples)),
    ])
}

fn checks_json(checks: &[Check]) -> Value {
    Value::Arr(
        checks
            .iter()
            .map(|c| {
                Value::obj([
                    ("name", Value::str(c.name)),
                    ("ok", Value::Bool(c.ok)),
                    ("detail", Value::str(c.detail.as_str())),
                ])
            })
            .collect(),
    )
}

fn unit_of(defs: &[LayerDef], name: &str) -> &'static str {
    defs.iter().find(|d| d.0 == name).map_or("", |d| d.1)
}

/// The `results.json` document of a stand-alone run.
pub fn results_json(
    seed: u64,
    quick: bool,
    measured: &[Measured],
    traced: &[Traced],
    layers: &[LayerMetric],
) -> Value {
    let defs = per_layer_defs();
    let workloads = measured.iter().map(|m| {
        let metrics = END_TO_END
            .iter()
            .map(|d| (d.name, summary_json(&m.metrics[d.name], d.unit)));
        let layer = traced
            .iter()
            .find(|t| t.kind == m.kind)
            .map(|t| {
                Value::obj(t.metrics.iter().map(|(name, v)| {
                    let unit = unit_of(&defs, name);
                    (
                        name.as_str(),
                        Value::obj([("value", Value::Num(*v)), ("unit", Value::str(unit))]),
                    )
                }))
            })
            .unwrap_or(Value::Null);
        Value::obj([
            ("name", Value::str(m.kind.name())),
            ("why", Value::str(m.kind.why())),
            ("op", Value::str(m.kind.op())),
            ("ops_per_rep", Value::Num(m.ops as f64)),
            ("attempted", Value::Num(m.attempted as f64)),
            ("failed", Value::Num(m.failed as f64)),
            (
                "failed_share",
                Value::Num(m.failed as f64 / m.attempted.max(1) as f64),
            ),
            ("sim_digest", Value::str(format!("{:016x}", m.sim_digest))),
            ("end_to_end", Value::obj(metrics)),
            (
                "diagnostics",
                Value::obj([
                    ("calibration_ns", summary_json(&m.calibration_ns, "ns")),
                    ("wall_norm", Value::Num(m.wall_norm)),
                ]),
            ),
            ("checks", checks_json(&m.checks)),
            ("per_layer", layer),
        ])
    });
    Value::obj([
        ("schema", Value::str(SCHEMA)),
        // A `--quick` run does a twentieth of the work once: its numbers
        // say the harness works, not how fast the simulator is.
        ("comparable", Value::Bool(!quick)),
        ("seed", Value::Num(seed as f64)),
        ("workloads", Value::Arr(workloads.collect())),
        (
            "per_layer",
            Value::obj(layers.iter().map(|(name, v, unit)| {
                (
                    *name,
                    Value::obj([("value", Value::Num(*v)), ("unit", Value::str(*unit))]),
                )
            })),
        ),
    ])
}

/// The stdout table: every metric by name, with its unit.
pub fn table(
    quick: bool,
    measured: &[Measured],
    traced: &[Traced],
    layers: &[LayerMetric],
) -> String {
    let defs = per_layer_defs();
    let mut out = String::new();
    if quick {
        out.push_str("QUICK RUN: 1/20 work, 1 repetition. Not comparable with anything.\n\n");
    }
    for m in measured {
        let _ = writeln!(
            out,
            "== {} ({} {}s per rep; {} reps, {} failed; sim_digest {:016x})",
            m.kind.name(),
            m.ops,
            m.kind.op(),
            m.attempted,
            m.failed,
            m.sim_digest
        );
        for d in END_TO_END {
            let s = &m.metrics[d.name];
            let _ = writeln!(
                out,
                "  {:<22} {:>16.6} {:<6} min {:<14.6} q1..q3 {:.6}..{:.6}  mad {:.6}  n {}",
                d.name, s.median, d.unit, s.min, s.q1, s.q3, s.mad, s.n
            );
        }
        let _ = writeln!(
            out,
            "  {:<22} {:>16.6} {:<6} (failed reps / attempted)",
            "failed_share",
            m.failed as f64 / m.attempted.max(1) as f64,
            "ratio"
        );
        let _ = writeln!(
            out,
            "  {:<22} {:>16.1} {:<6} (wall_s / calibration loop of {:.1} ns per event)",
            "wall_norm", m.wall_norm, "ratio", m.calibration_ns.median
        );
        for c in m.checks.iter().filter(|c| !c.ok) {
            let _ = writeln!(out, "  CHECK FAILED {}: {}", c.name, c.detail);
        }
        if let Some(t) = traced.iter().find(|t| t.kind == m.kind) {
            for (name, v) in &t.metrics {
                let _ = writeln!(out, "    {:<30} {:>18.4} {}", name, v, unit_of(&defs, name));
            }
            for c in t.checks.iter().filter(|c| !c.ok) {
                let _ = writeln!(out, "  TRACED CHECK FAILED {}: {}", c.name, c.detail);
            }
        }
        out.push('\n');
    }
    if !layers.is_empty() {
        out.push_str("== layer probes (median of 5 batches)\n");
        for (name, v, unit) in layers {
            let _ = writeln!(out, "    {name:<30} {v:>18.4} {unit}");
        }
    }
    out
}

/// The last line of standard output in contract mode.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|(name, v, unit)| {
                (
                    name.as_str(),
                    Value::obj([("value", Value::Num(*v)), ("unit", Value::str(*unit))]),
                )
            })),
        ),
    ])
    .compact()
}

/// Seconds one contract-mode run measures for (`run_seconds`).
pub const RUN_SECONDS: u32 = 10;

/// The `BENCHMARK.json` this code describes: the command, the workloads
/// with their reasons, and every metric by name with unit, direction and
/// bound. `tests/manifest.rs` holds the committed file to it.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.into_iter().map(Value::str).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Value::Arr(
                crate::workloads::Kind::ALL
                    .iter()
                    .map(|k| {
                        Value::obj([("name", Value::str(k.name())), ("why", Value::str(k.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|d| {
                        Value::obj([
                            ("name", Value::str(d.name)),
                            ("unit", Value::str(d.unit)),
                            ("better", Value::str(d.better.as_str())),
                            ("bound", Value::Num(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                per_layer_defs()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Value::obj([
                            ("name", Value::str(name)),
                            ("unit", Value::str(unit)),
                            ("better", Value::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}
