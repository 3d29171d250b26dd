//! Spans recorded by the harness around its calls into the simulator.
//!
//! A span carries a name, start, end, parent and workload id. Spans stay in
//! memory and are written to `out/trace.json` when the benchmark ends. One
//! traced pass fires millions of engine events, so per workload only the
//! first [`RAW_CAP`] spans are kept raw; every span feeds the per-name
//! aggregates.

use crate::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// Raw spans kept per workload.
pub const RAW_CAP: usize = 50_000;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Position among the workload's spans in open order; parents refer to
    /// it. Raw spans are stored in close order, children first.
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `id` of the enclosing span.
    pub parent: Option<u32>,
    pub workload: u16,
}

/// Per-name totals over all spans of one workload. A span's self time is
/// its duration minus the part of that interval its child spans cover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    /// Index among the workload's spans (counted even past the raw cap).
    index: u32,
    child_ns: u64,
}

/// The in-memory span store of one benchmark process.
pub struct Tracer {
    t0: Instant,
    workloads: Vec<String>,
    raw: Vec<Vec<Span>>,
    seen: Vec<u32>,
    aggs: Vec<BTreeMap<&'static str, Agg>>,
    stack: Vec<Open>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            workloads: Vec::new(),
            raw: Vec::new(),
            seen: Vec::new(),
            aggs: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Starts a workload; later spans belong to it.
    pub fn begin_workload(&mut self, name: &str) {
        assert!(self.stack.is_empty(), "workload changed inside a span");
        self.workloads.push(name.to_string());
        self.raw.push(Vec::new());
        self.seen.push(0);
        self.aggs.push(BTreeMap::new());
    }

    fn current(&self) -> usize {
        self.workloads
            .len()
            .checked_sub(1)
            .expect("begin_workload comes first")
    }

    /// Opens a span under the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let now = self.now_ns();
        self.open_at(name, now);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let now = self.now_ns();
        self.close_at(now);
    }

    fn open_at(&mut self, name: &'static str, start_ns: u64) {
        let w = self.current();
        let index = self.seen[w];
        self.seen[w] += 1;
        self.stack.push(Open {
            name,
            start_ns,
            index,
            child_ns: 0,
        });
    }

    fn close_at(&mut self, end_ns: u64) {
        let o = self.stack.pop().expect("close without open");
        let parent = self.stack.last().map(|p| p.index);
        self.record(o.name, o.start_ns, end_ns, parent, o.index, o.child_ns);
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        self.open(name);
        let out = f(self);
        self.close();
        out
    }

    /// Records a childless span under the innermost open span from
    /// timestamps the caller took with [`Tracer::now_ns`]: the hot path of
    /// the stepped engine loop, which must not pay for the stack.
    pub fn leaf(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        let w = self.current();
        let index = self.seen[w];
        self.seen[w] += 1;
        let parent = self.stack.last().map(|p| p.index);
        self.record(name, start_ns, end_ns, parent, index, 0);
    }

    fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        index: u32,
        child_ns: u64,
    ) {
        let w = self.current();
        let dur = end_ns - start_ns;
        if let Some(p) = self.stack.last_mut() {
            // One thread: the children of a span never overlap, so their
            // cover is the sum of their durations.
            p.child_ns += dur;
        }
        let a = self.aggs[w].entry(name).or_default();
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur - child_ns.min(dur);
        if (index as usize) < RAW_CAP {
            self.raw[w].push(Span {
                id: index,
                name,
                start_ns,
                end_ns,
                parent,
                workload: w as u16,
            });
        }
    }

    /// Per-name aggregates of the current workload.
    pub fn aggregates(&self) -> &BTreeMap<&'static str, Agg> {
        &self.aggs[self.current()]
    }

    /// Everything recorded, as the `trace.json` document.
    pub fn to_json(&self) -> Value {
        let workloads = self.workloads.iter().enumerate().map(|(w, name)| {
            let aggs = self.aggs[w].iter().map(|(k, a)| {
                (
                    *k,
                    Value::obj([
                        ("count", Value::Num(a.count as f64)),
                        ("total_ns", Value::Num(a.total_ns as f64)),
                        ("self_ns", Value::Num(a.self_ns as f64)),
                    ]),
                )
            });
            let spans = self.raw[w].iter().map(|s| {
                Value::Arr(vec![
                    Value::Num(f64::from(s.id)),
                    Value::str(s.name),
                    Value::Num(s.start_ns as f64),
                    Value::Num(s.end_ns as f64),
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ])
            });
            Value::obj([
                ("id", Value::Num(w as f64)),
                ("workload", Value::str(name.as_str())),
                ("spans_seen", Value::Num(f64::from(self.seen[w]))),
                ("aggregates", Value::obj(aggs)),
                (
                    "span_fields",
                    Value::str("id, name, start_ns, end_ns, parent"),
                ),
                ("spans", Value::Arr(spans.collect())),
            ])
        });
        Value::obj([
            ("schema", Value::str("mts-benchmark-trace-v1")),
            ("raw_cap_per_workload", Value::Num(RAW_CAP as f64)),
            ("workloads", Value::Arr(workloads.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new();
        t.begin_workload("w");
        t.open_at("root", 0);
        t.leaf("a", 10, 30);
        t.open_at("b", 40);
        t.leaf("b.inner", 50, 60);
        t.close_at(90);
        t.close_at(100);
        let self_ns = |name| t.aggregates()[name].self_ns;
        assert_eq!(
            [
                self_ns("root"),
                self_ns("a"),
                self_ns("b"),
                self_ns("b.inner")
            ],
            [30, 20, 40, 10]
        );
        assert_eq!(t.aggregates()["root"].total_ns, 100);
        // Children are stored before their parents and name them by id.
        let raw: Vec<_> = t.raw[0].iter().map(|s| (s.name, s.id, s.parent)).collect();
        assert_eq!(
            raw,
            [
                ("a", 1, Some(0)),
                ("b.inner", 3, Some(2)),
                ("b", 2, Some(0)),
                ("root", 0, None)
            ]
        );
    }

    #[test]
    fn tracer_nests_aggregates_and_caps_raw_spans() {
        let mut t = Tracer::new();
        t.begin_workload("w");
        t.span("outer", |t| {
            t.span("inner", |_| std::hint::black_box(0));
            let a = t.now_ns();
            let b = t.now_ns();
            t.leaf("step", a, b);
        });
        let aggs = t.aggregates().clone();
        assert_eq!(aggs["outer"].count, 1);
        assert_eq!(aggs["inner"].count, 1);
        assert_eq!(aggs["step"].count, 1);
        assert_eq!(
            aggs["outer"].self_ns,
            aggs["outer"].total_ns - aggs["inner"].total_ns - aggs["step"].total_ns
        );

        t.begin_workload("many");
        for _ in 0..RAW_CAP + 10 {
            t.leaf("step", 1, 2);
        }
        assert_eq!(t.raw[1].len(), RAW_CAP);
        assert_eq!(t.aggregates()["step"].count, (RAW_CAP + 10) as u64);
        assert!(crate::json::parse(&t.to_json().compact()).is_ok());
    }
}
