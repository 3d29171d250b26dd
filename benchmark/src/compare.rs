//! `compare A.json B.json`: per workload and end-to-end metric, whether B
//! is no worse than A by more than the metric's bound.

use crate::harness::{Better, EndToEnd, END_TO_END};
use crate::json::Value;
use crate::stats::Summary;
use std::fmt::Write as _;

/// The outcome for one workload and metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B's median is within the bound of A's (or better).
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// The spread between the quartiles of a side exceeds the bound and the
    /// repetitions of the two sides interleave: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges metric `def` of one workload: `a` is the parent, `b` the change.
pub fn judge(def: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    // How much worse B is, in the metric's own unit (negative: better).
    let worse_by = match def.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    // The same amount bounds the medians' distance and each side's spread.
    let allowed = (def.bound * a.median.abs()).max(def.floor);
    let beats = |x: &Summary, y: &Summary| {
        // Every repetition of x better than every repetition of y.
        let (x_lo, x_hi) = bounds(&x.samples);
        let (y_lo, y_hi) = bounds(&y.samples);
        match def.better {
            Better::Lower => x_hi < y_lo,
            Better::Higher => x_lo > y_hi,
        }
    };
    // Noise matters only while the two sides' repetitions interleave.
    let noisy = [a, b].iter().any(|s| s.q3 - s.q1 > allowed);
    if noisy && !beats(a, b) && !beats(b, a) {
        Verdict::Unresolved
    } else if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn bounds(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), x| {
            (lo.min(*x), hi.max(*x))
        })
}

fn summary_of(metric: &Value) -> Option<Summary> {
    let samples: Vec<f64> = metric
        .get("samples")?
        .items()
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (!samples.is_empty()).then(|| Summary::of(samples))
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    pub verdict: Verdict,
}

/// A whole comparison.
#[derive(Clone, Debug, Default)]
pub struct Comparison {
    pub rows: Vec<Row>,
    /// Workloads whose `sim_digest` differs although the seed is the same:
    /// B changed what is simulated, not only how fast.
    pub digest_changed: Vec<String>,
}

impl Comparison {
    /// Every row `ok` and no simulated result changed.
    pub fn all_ok(&self) -> bool {
        self.digest_changed.is_empty() && self.rows.iter().all(|r| r.verdict == Verdict::Ok)
    }
}

/// Compares two `results.json` documents. Errors when a side is not a
/// comparable result of this benchmark, or when the sides differ in
/// workloads.
pub fn compare(a: &Value, b: &Value) -> Result<Comparison, String> {
    for (side, doc) in [("A", a), ("B", b)] {
        if doc.get("schema").and_then(Value::as_str) != Some(crate::report::SCHEMA) {
            return Err(format!(
                "{side} is not a {} document",
                crate::report::SCHEMA
            ));
        }
        if doc.get("comparable").and_then(Value::as_bool) != Some(true) {
            return Err(format!("{side} is a --quick run: not comparable"));
        }
    }
    let workloads = |doc: &Value| {
        doc.get("workloads")
            .map(Value::items)
            .unwrap_or_default()
            .to_vec()
    };
    let (wa, wb) = (workloads(a), workloads(b));
    let name = |w: &Value| {
        w.get("name")
            .and_then(Value::as_str)
            .unwrap_or("")
            .to_string()
    };
    if wa.iter().map(name).ne(wb.iter().map(name)) {
        return Err("A and B list different workloads".to_string());
    }
    let mut out = Comparison::default();
    for (x, y) in wa.iter().zip(&wb) {
        for def in &END_TO_END {
            let get = |w: &Value| {
                w.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(summary_of)
                    .ok_or_else(|| format!("{}: no samples for {}", name(w), def.name))
            };
            let (sa, sb) = (get(x)?, get(y)?);
            out.rows.push(Row {
                workload: name(x),
                metric: def.name,
                a: sa.median,
                b: sb.median,
                verdict: judge(def, &sa, &sb),
            });
        }
        let digest = |w: &Value| {
            w.get("sim_digest")
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        if a.get("seed") == b.get("seed") && digest(x) != digest(y) {
            out.digest_changed.push(name(x));
        }
    }
    Ok(out)
}

/// The comparison as a table.
pub fn render(c: &Comparison) -> String {
    let mut out = format!(
        "{:<26} {:<20} {:>16} {:>16} {:>9}  verdict\n",
        "workload", "metric", "A", "B", "B vs A"
    );
    for r in &c.rows {
        let change = if r.a == 0.0 {
            0.0
        } else {
            (r.b - r.a) / r.a * 100.0
        };
        let _ = writeln!(
            out,
            "{:<26} {:<20} {:>16.6} {:>16.6} {:>+8.2}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            change,
            r.verdict.as_str()
        );
    }
    for w in &c.digest_changed {
        let _ = writeln!(
            out,
            "{w}: sim_digest differs for the same seed: B changed simulated results"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(name: &'static str) -> &'static EndToEnd {
        END_TO_END.iter().find(|d| d.name == name).unwrap()
    }

    fn s(v: &[f64]) -> Summary {
        Summary::of(v.to_vec())
    }

    #[test]
    fn steady_sides_are_judged_by_their_medians() {
        let wall = def("wall_s");
        let a = s(&[2.00, 2.01, 2.02, 2.01, 2.00]);
        assert_eq!(
            judge(wall, &a, &s(&[2.10, 2.11, 2.12, 2.11, 2.10])),
            Verdict::Ok
        );
        assert_eq!(
            judge(wall, &a, &s(&[2.60, 2.61, 2.62, 2.61, 2.60])),
            Verdict::Worse
        );
        assert_eq!(
            judge(wall, &a, &s(&[1.50, 1.51, 1.52, 1.51, 1.50])),
            Verdict::Ok
        );
        // Higher is better for throughput.
        let ops = def("ops_per_s");
        let a = s(&[100.0, 101.0, 100.5]);
        assert_eq!(judge(ops, &a, &s(&[70.0, 71.0, 70.5])), Verdict::Worse);
        assert_eq!(judge(ops, &a, &s(&[120.0, 121.0, 120.5])), Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved_unless_one_side_beats_the_other_outright() {
        let wall = def("wall_s");
        let noisy_a = s(&[2.0, 2.6, 2.1, 2.9, 2.2]);
        assert_eq!(
            judge(wall, &noisy_a, &s(&[2.1, 2.5, 2.2, 2.8, 2.3])),
            Verdict::Unresolved
        );
        // Every repetition of B below every repetition of A.
        assert_eq!(
            judge(wall, &noisy_a, &s(&[1.0, 1.9, 1.2, 1.5, 1.1])),
            Verdict::Ok
        );
        // Every repetition of A below every repetition of B.
        assert_eq!(
            judge(wall, &noisy_a, &s(&[3.0, 3.9, 3.2, 3.5, 3.1])),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_are_held_to_their_tight_bounds() {
        let allocs = def("allocs_per_op");
        let a = Summary::exact(5.384);
        assert_eq!(judge(allocs, &a, &Summary::exact(5.384)), Verdict::Ok);
        assert_eq!(judge(allocs, &a, &Summary::exact(5.43)), Verdict::Ok);
        assert_eq!(judge(allocs, &a, &Summary::exact(5.45)), Verdict::Worse);
    }

    #[test]
    fn setup_has_a_two_millisecond_floor() {
        let setup = def("setup_s");
        let a = s(&[0.0003, 0.0004, 0.0003, 0.0009, 0.0003]);
        // Three times slower, noisy, and still only 0.6 ms worse.
        assert_eq!(
            judge(setup, &a, &s(&[0.0009, 0.0015, 0.0009, 0.0008, 0.0009])),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &a, &s(&[0.0040, 0.0041, 0.0040, 0.0042, 0.0040])),
            Verdict::Worse
        );
        // Above the floor the 25 % bound applies.
        let slow = s(&[0.100, 0.101, 0.100, 0.102, 0.100]);
        assert_eq!(
            judge(setup, &slow, &s(&[0.120, 0.121, 0.120, 0.122, 0.120])),
            Verdict::Ok
        );
        assert_eq!(
            judge(setup, &slow, &s(&[0.130, 0.131, 0.130, 0.132, 0.130])),
            Verdict::Worse
        );
    }
}
