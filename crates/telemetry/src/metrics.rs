//! A deterministic registry of named, labelled metrics.
//!
//! Three metric kinds, mirroring the Prometheus data model:
//!
//! - **counters** — monotonically increasing `u64` (frames forwarded,
//!   drops by cause, cache misses);
//! - **gauges** — last-write-wins `f64` (ring occupancy high-water mark,
//!   configured rate);
//! - **histograms** — [`mts_sim::Histogram`] distributions (per-hop
//!   latency in simulated nanoseconds).
//!
//! A series is its name plus label pairs whose values are typed
//! [`Label`]s — a static string or a number — so an update neither formats
//! a number nor copies a string. A kind keeps its series as slots in
//! first-seen order, found through a hash index over the name and the label
//! values: one probe plus an equality check, and nothing is allocated once a
//! series exists. Strings are made only at export, where the slots are
//! sorted by their rendered `(name, sorted label pairs)` key, so every
//! exporter byte is a pure function of the recorded values and never of the
//! index's hash order. No wall-clock time is ever read; timestamps come
//! from the simulation's [`mts_sim::Time`].

use std::fmt::{self, Write};
use std::hash::Hasher;

use mts_sim::{FastHashMap, FastHasher, Histogram};

use crate::arena::Chunked;
use crate::json::escape_json_into;

/// A label value. `Num` renders in decimal, so a `Str` holding a canonical
/// decimal (`"7"`, not `"07"`) names the same value as the `Num` it reads
/// as: the registry canonicalises it to that `Num`, and the two can never
/// export as two series.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Label {
    Str(&'static str),
    Num(u64),
}

impl Label {
    fn canonical(self) -> Label {
        if let Label::Str(s) = self {
            // `parse` also takes `+7` and `07`, which render unlike 7.
            let canonical = s == "0" || !s.starts_with(['0', '+']);
            if let (true, Ok(n)) = (canonical, s.parse()) {
                return Label::Num(n);
            }
        }
        self
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Str(s) => f.write_str(s),
            Label::Num(n) => write!(f, "{n}"),
        }
    }
}

type Labels<'a> = &'a [(&'static str, Label)];

/// A series' rendered key, built only at export: metric name plus sorted
/// `label=value` pairs. Its derived order is the exporters' series order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct SeriesKey {
    name: String,
    labels: Vec<(String, String)>,
}

impl SeriesKey {
    fn new(name: &str, labels: Labels) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        SeriesKey {
            name: name.to_string(),
            labels,
        }
    }
    /// Append `name<suffix>{k="v",…}` in the Prometheus text format, with
    /// `extra` merged in at its sorted position; no braces without labels.
    fn write_prom(&self, out: &mut String, suffix: &str, extra: Option<(&str, &str)>) {
        out.push_str(&self.name);
        out.push_str(suffix);
        let mut lead = '{';
        let mut put = |out: &mut String, k: &str, v: &str| {
            out.push(lead);
            lead = ',';
            out.push_str(k);
            out.push_str("=\"");
            for ch in v.chars() {
                match ch {
                    '\\' => out.push_str("\\\\"),
                    '"' => out.push_str("\\\""),
                    '\n' => out.push_str("\\n"),
                    c => out.push(c),
                }
            }
            out.push('"');
        };
        let mut extra = extra;
        for (k, v) in &self.labels {
            if let Some((ek, ev)) = extra.filter(|e| *e < (k.as_str(), v.as_str())) {
                put(out, ek, ev);
                extra = None;
            }
            put(out, k, v);
        }
        if let Some((ek, ev)) = extra {
            put(out, ek, ev);
        }
        if lead == ',' {
            out.push('}');
        }
    }

    /// Append `"name":"…","labels":{…}` for the JSONL export.
    fn write_json(&self, out: &mut String) {
        out.push_str("\"name\":\"");
        escape_json_into(out, &self.name);
        out.push_str("\",\"labels\":{");
        for (i, (k, v)) in self.labels.iter().enumerate() {
            out.push_str(if i > 0 { ",\"" } else { "\"" });
            escape_json_into(out, k);
            out.push_str("\":\"");
            escape_json_into(out, v);
            out.push('"');
        }
        out.push('}');
    }
}

/// Label sets up to this size are sorted on the stack.
const INLINE_LABELS: usize = 8;

/// Hands `f` the labels canonicalised and sorted: the same slice for any
/// order of the same pairs.
fn with_sorted<R>(labels: Labels, f: impl FnOnce(Labels) -> R) -> R {
    let mut inline = [("", Label::Num(0)); INLINE_LABELS];
    let mut spilled = Vec::new();
    let sorted = match inline.get_mut(..labels.len()) {
        Some(buf) => buf,
        None => {
            spilled.resize(labels.len(), ("", Label::Num(0)));
            &mut spilled[..]
        }
    };
    for (slot, &(k, v)) in sorted.iter_mut().zip(labels) {
        *slot = (k, v.canonical());
    }
    sorted.sort_unstable();
    f(sorted)
}

/// The index hash of a series: its name and its sorted label values. Keys
/// are left to the equality check.
fn hash_of(name: &str, sorted: Labels) -> u64 {
    let mut h = FastHasher::default();
    h.write(name.as_bytes());
    for (_, v) in sorted {
        match *v {
            Label::Str(s) => h.write(s.as_bytes()),
            Label::Num(n) => h.write_u64(n),
        }
    }
    h.finish()
}

/// One series: its identity, its value, and the next slot of equal hash.
#[derive(Debug)]
struct Slot<V> {
    name: &'static str,
    sorted: Box<[(&'static str, Label)]>,
    next: Option<u32>,
    value: V,
}

/// Series per storage chunk: a few dozen series fill a kind, and a chunk
/// is never copied to grow.
const SERIES_CHUNK: usize = 16;

/// The series of one metric kind, in first-seen order.
#[derive(Debug, Default)]
struct Series<V> {
    slots: Chunked<Slot<V>, SERIES_CHUNK>,
    /// Series hash to the last slot with that hash; equal hashes chain
    /// through `Slot::next`. Only ever probed, never iterated.
    index: FastHashMap<u64, u32>,
}

impl<V> Series<V> {
    fn find(&self, hash: u64, name: &str, sorted: Labels) -> Option<usize> {
        let mut at = self.index.get(&hash).copied();
        while let Some(i) = at {
            let slot = &self.slots[i as usize];
            if slot.name == name && *slot.sorted == *sorted {
                return Some(i as usize);
            }
            at = slot.next;
        }
        None
    }

    /// Applies `change` to the series' value, created with `init` on first
    /// sight.
    fn update(
        &mut self,
        name: &'static str,
        labels: Labels,
        init: impl FnOnce() -> V,
        change: impl FnOnce(&mut V),
    ) {
        with_sorted(labels, |sorted| {
            let hash = hash_of(name, sorted);
            let i = match self.find(hash, name, sorted) {
                Some(i) => i,
                None => {
                    let i = self.slots.len();
                    self.slots.push(Slot {
                        name,
                        sorted: sorted.into(),
                        next: self.index.insert(hash, i as u32),
                        value: init(),
                    });
                    i
                }
            };
            change(&mut self.slots[i].value);
        });
    }

    fn get(&self, name: &str, labels: Labels) -> Option<&V> {
        with_sorted(labels, |sorted| {
            let i = self.find(hash_of(name, sorted), name, sorted)?;
            Some(&self.slots[i].value)
        })
    }

    /// Every series with its rendered key, in the exporters' order.
    fn sorted(&self) -> Vec<(SeriesKey, &V)> {
        let mut keyed: Vec<(SeriesKey, &V)> = self
            .slots
            .iter()
            .map(|s| (SeriesKey::new(s.name, &s.sorted), &s.value))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed
    }
}

/// Registry of counters, gauges and histograms.
#[derive(Default, Debug)]
pub struct MetricsRegistry {
    counters: Series<u64>,
    gauges: Series<f64>,
    histograms: Series<Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `v` to the counter `name` with the given labels.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, v: u64) {
        self.counters.update(name, labels, || 0, |c| *c += v);
    }

    /// Increment the counter by one.
    pub fn counter_inc(&mut self, name: &'static str, labels: Labels) {
        self.counter_add(name, labels, 1);
    }

    /// Set the gauge `name` to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: f64) {
        self.gauges.update(name, labels, || v, |g| *g = v);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value
    /// (high-water-mark semantics).
    pub fn gauge_max(&mut self, name: &'static str, labels: Labels, v: f64) {
        let raise = |g: &mut f64| {
            if v > *g {
                *g = v;
            }
        };
        self.gauges
            .update(name, labels, || f64::NEG_INFINITY, raise);
    }

    /// Record `v` into the histogram `name`.
    pub fn observe(&mut self, name: &'static str, labels: Labels, v: u64) {
        let record = |h: &mut Histogram| h.record(v);
        self.histograms
            .update(name, labels, Histogram::default, record);
    }

    /// Current value of a counter series (0 if never touched).
    pub fn counter_value(&self, name: &str, labels: Labels) -> u64 {
        self.counters.get(name, labels).copied().unwrap_or(0)
    }

    /// Sum of every counter series sharing `name`, regardless of labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        let named = self.counters.slots.iter().filter(|s| s.name == name);
        named.map(|s| s.value).sum()
    }

    /// Access a histogram series, if it exists.
    pub fn histogram(&self, name: &str, labels: Labels) -> Option<&Histogram> {
        self.histograms.get(name, labels)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.slots.len() + self.gauges.slots.len() + self.histograms.slots.len() == 0
    }

    /// Render the registry in the Prometheus text exposition format.
    ///
    /// Counters become `# TYPE <name> counter` series; gauges `gauge`;
    /// histograms render as Prometheus *histograms*: cumulative
    /// `<name>_bucket{le="..."}` series over the fixed decade bounds in
    /// [`BUCKET_BOUNDS_NS`] plus `+Inf`, followed by quantile series
    /// (0.5/0.9/0.99/0.999 — the SLO tail included) and `_sum`/`_count`.
    /// The quantiles come from the HDR-style log-bucketed histogram, so
    /// they are bucket midpoints, not exact inputs. Output is
    /// byte-for-byte deterministic for a given registry state.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let (counters, gauges) = (self.counters.sorted(), self.gauges.sorted());
        let histograms = self.histograms.sorted();
        let mut family = Family::default();
        for (key, v) in &counters {
            family.header(&mut out, key, "counter");
            key.write_prom(&mut out, "", None);
            let _ = writeln!(out, " {v}");
        }
        for (key, v) in &gauges {
            family.header(&mut out, key, "gauge");
            key.write_prom(&mut out, "", None);
            out.push(' ');
            write_f64(&mut out, **v);
            out.push('\n');
        }
        for (key, h) in &histograms {
            family.header(&mut out, key, "histogram");
            for bound in BUCKET_BOUNDS_NS {
                let le = bound.to_string();
                key.write_prom(&mut out, "_bucket", Some(("le", &le)));
                let _ = writeln!(out, " {}", h.count_le(bound));
            }
            key.write_prom(&mut out, "_bucket", Some(("le", "+Inf")));
            let _ = writeln!(out, " {}", h.count());
            for (q, label) in [
                (0.5_f64, "0.5"),
                (0.9, "0.9"),
                (0.99, "0.99"),
                (0.999, "0.999"),
            ] {
                key.write_prom(&mut out, "", Some(("quantile", label)));
                let _ = writeln!(out, " {}", h.percentile(q * 100.0));
            }
            let sum = (h.mean() * h.count() as f64).round() as u64;
            key.write_prom(&mut out, "_sum", None);
            let _ = writeln!(out, " {sum}");
            key.write_prom(&mut out, "_count", None);
            let _ = writeln!(out, " {}", h.count());
        }
        out
    }

    /// Render the registry as JSON Lines: one self-describing object per
    /// series, `jq`/pandas-friendly. Label keys appear in sorted order, so
    /// the output — including the
    /// cycle-attribution labels `layer`/`tenant`/`attribution` — is
    /// byte-for-byte deterministic.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (key, v) in &self.counters.sorted() {
            out.push_str("{\"kind\":\"counter\",");
            key.write_json(&mut out);
            let _ = writeln!(out, ",\"value\":{v}}}");
        }
        for (key, v) in &self.gauges.sorted() {
            out.push_str("{\"kind\":\"gauge\",");
            key.write_json(&mut out);
            out.push_str(",\"value\":");
            write_f64(&mut out, **v);
            out.push_str("}\n");
        }
        for (key, h) in &self.histograms.sorted() {
            let s = h.summary();
            out.push_str("{\"kind\":\"histogram\",");
            key.write_json(&mut out);
            let _ = writeln!(
                out,
                ",\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\"max\":{}}}",
                s.count, s.min, s.p50, s.p90, s.p99, s.p999, s.max
            );
        }
        out
    }
}

/// Emits `# TYPE <name> <kind>` once per run of equally named series.
#[derive(Default)]
struct Family<'a> {
    last: Option<(&'a str, &'static str)>,
}

impl<'a> Family<'a> {
    fn header(&mut self, out: &mut String, key: &'a SeriesKey, kind: &'static str) {
        if self.last != Some((key.name.as_str(), kind)) {
            let _ = writeln!(out, "# TYPE {} {kind}", key.name);
            self.last = Some((key.name.as_str(), kind));
        }
    }
}

/// The fixed `le` bounds (ns) for Prometheus `_bucket` series: decades
/// from 100 ns to 1 s — a frame's journey through the simulated DUT fits
/// this range at every security level.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Format an f64 without scientific notation surprises: integers render
/// bare ("3"), fractions keep their shortest round-trip form.
fn write_f64(out: &mut String, v: f64) {
    let _ = if v.fract() == 0.0 && v.abs() < 1e15 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

#[cfg(test)]
mod tests {
    use super::Label::{Num, Str};
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("frames_total", &[("tenant", Num(0))]);
        m.counter_add("frames_total", &[("tenant", Num(0))], 2);
        m.counter_inc("frames_total", &[("tenant", Num(1))]);
        assert_eq!(m.counter_value("frames_total", &[("tenant", Num(0))]), 3);
        assert_eq!(m.counter_value("frames_total", &[("tenant", Num(1))]), 1);
        assert_eq!(m.counter_total("frames_total"), 4);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("x", &[("b", Num(2)), ("a", Str("one"))]);
        m.counter_inc("x", &[("a", Str("one")), ("b", Num(2))]);
        assert_eq!(m.counter_value("x", &[("a", Str("one")), ("b", Num(2))]), 2);
    }

    #[test]
    fn a_decimal_string_and_its_number_are_one_series() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("x", &[("tenant", Str("7"))]);
        m.counter_inc("x", &[("tenant", Num(7))]);
        m.gauge_max("g", &[("port", Num(0))], 1.0);
        m.gauge_max("g", &[("port", Str("0"))], 2.0);
        m.observe("h", &[("vf", Str("18446744073709551615"))], 1);
        m.observe("h", &[("vf", Num(u64::MAX))], 1);
        assert_eq!(m.counter_value("x", &[("tenant", Num(7))]), 2);
        assert_eq!(m.counter_value("x", &[("tenant", Str("7"))]), 2);
        assert_eq!(
            m.histogram("h", &[("vf", Num(u64::MAX))])
                .map(|h| h.count()),
            Some(2)
        );
        let text = m.render_prometheus();
        assert!(text.contains("x{tenant=\"7\"} 2\n"), "{text}");
        assert!(text.contains("g{port=\"0\"} 2\n"), "{text}");
        assert_eq!(m.render_jsonl().lines().count(), 3);
        // Strings that only look numeric render unlike any number: their
        // own series.
        for s in ["07", "", "+7", "18446744073709551616"] {
            m.counter_inc("y", &[("k", Str(s))]);
        }
        m.counter_inc("y", &[("k", Num(7))]);
        assert_eq!(m.counter_value("y", &[("k", Str("07"))]), 1);
        assert_eq!(m.render_jsonl().lines().count(), 8);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_typed() {
        let mut m = MetricsRegistry::new();
        m.counter_add("mts_drops_total", &[("cause", Str("nic-spoof"))], 7);
        m.gauge_set("mts_ring_occupancy", &[("vswitch", Num(0))], 12.0);
        m.observe("mts_hop_ns", &[("hop", Str("nic"))], 640);
        m.observe("mts_hop_ns", &[("hop", Str("nic"))], 640);
        let text = m.render_prometheus();
        let again = m.render_prometheus();
        assert_eq!(text, again);
        assert!(text.contains("# TYPE mts_drops_total counter"));
        assert!(text.contains("mts_drops_total{cause=\"nic-spoof\"} 7"));
        assert!(text.contains("# TYPE mts_ring_occupancy gauge"));
        assert!(text.contains("mts_ring_occupancy{vswitch=\"0\"} 12"));
        assert!(text.contains("# TYPE mts_hop_ns histogram"));
        assert!(text.contains("mts_hop_ns_count{hop=\"nic\"} 2"));
        // Cumulative buckets: both 640 ns observations are ≤ 1 µs.
        assert!(text.contains("mts_hop_ns_bucket{hop=\"nic\",le=\"100\"} 0"));
        assert!(text.contains("mts_hop_ns_bucket{hop=\"nic\",le=\"1000\"} 2"));
        assert!(text.contains("mts_hop_ns_bucket{hop=\"nic\",le=\"+Inf\"} 2"));
        // The SLO tail quantile is rendered alongside the buckets.
        assert!(text.contains("mts_hop_ns{hop=\"nic\",quantile=\"0.999\"}"));
    }

    #[test]
    fn jsonl_orders_attribution_labels_deterministically() {
        let mut m = MetricsRegistry::new();
        // Insert with shuffled label order: the canonical (sorted) order
        // must come out regardless.
        m.counter_add(
            "mts_cycles_ns_total",
            &[
                ("tenant", Num(0)),
                ("layer", Str("vswitch")),
                ("attribution", Str("exact")),
            ],
            640,
        );
        m.observe(
            "mts_cycles_grant_ns",
            &[
                ("attribution", Str("exact")),
                ("tenant", Num(0)),
                ("layer", Str("vswitch")),
            ],
            640,
        );
        let text = m.render_jsonl();
        assert_eq!(text, m.render_jsonl(), "rendering must be idempotent");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(
            "\"labels\":{\"attribution\":\"exact\",\"layer\":\"vswitch\",\"tenant\":\"0\"}"
        ));
        assert!(lines[0].contains("\"kind\":\"counter\""));
        assert!(lines[0].contains("\"value\":640"));
        assert!(lines[1].contains("\"kind\":\"histogram\""));
        assert!(lines[1].contains(
            "\"labels\":{\"attribution\":\"exact\",\"layer\":\"vswitch\",\"tenant\":\"0\"}"
        ));
        assert!(lines[1].contains("\"count\":1"));
        assert!(lines[1].contains("\"p999\":"));
    }

    #[test]
    fn wide_label_sets_spill_and_still_canonicalize() {
        const KEYS: [&str; INLINE_LABELS + 2] = [
            "k00", "k01", "k02", "k03", "k04", "k05", "k06", "k07", "k08", "k09",
        ];
        let fwd: Vec<(&str, Label)> = (0..).zip(KEYS).map(|(i, k)| (k, Num(i))).collect();
        let rev: Vec<(&str, Label)> = fwd.iter().rev().copied().collect();
        let mut m = MetricsRegistry::new();
        m.counter_inc("wide", &fwd);
        m.counter_inc("wide", &rev);
        m.counter_inc("wide", &fwd[1..]);
        assert_eq!(m.counter_value("wide", &rev), 2);
        assert_eq!(m.counter_total("wide"), 3);
    }

    #[test]
    fn gauge_max_keeps_high_water_mark() {
        let mut m = MetricsRegistry::new();
        m.gauge_max("hwm", &[], 3.0);
        m.gauge_max("hwm", &[], 9.0);
        m.gauge_max("hwm", &[], 5.0);
        assert!(m.render_prometheus().contains("hwm 9"));
    }
}
