//! Differential test: the hop arenas and the sorted series stores against
//! the semantics they replaced.
//!
//! The reference below is the storage this crate started with, kept as
//! plainly as it can be written — a `Vec` of owned events, one `Vec` of
//! hops per frame in a `BTreeMap`, series in `BTreeMap`s under owned
//! keys, exporters that `format!` a `String` per event, argument and
//! label and `join` them. Seeded random hop streams and metric updates go
//! through both; every read and every rendered byte must agree. The
//! reference keys a series by its *rendered* labels, so a typed `Num(7)`
//! and a `Str("7")` under one key must land in one registry series too.

use std::collections::BTreeMap;

use mts_sim::{DetRng, Dur, Histogram, Time};
use mts_telemetry::trace::track;
use mts_telemetry::Label::{self, Num, Str};
use mts_telemetry::{
    DropCause, Hop, JourneyLog, MetricsRegistry, NicEndpoint, Recorder, TraceLog, BUCKET_BOUNDS_NS,
};

// ---------------------------------------------------------------- reference

#[derive(Default)]
struct RefLogs {
    trace: Vec<(u64, Time, Hop, Option<Dur>)>,
    trace_cap: usize,
    trace_truncated: u64,
    journeys: BTreeMap<u64, Vec<(Time, Hop)>>,
    journey_cap: usize,
    journey_truncated: u64,
}

impl RefLogs {
    fn hop_timed(&mut self, frame: u64, at: Time, hop: Hop, dur: Option<Dur>) {
        if self.trace.len() >= self.trace_cap {
            self.trace_truncated += 1;
        } else {
            self.trace.push((frame, at, hop, dur));
        }
        if let Some(hops) = self.journeys.get_mut(&frame) {
            hops.push((at, hop));
        } else if self.journeys.len() >= self.journey_cap {
            self.journey_truncated += 1;
        } else {
            self.journeys.insert(frame, vec![(at, hop)]);
        }
    }

    /// `(name, cat, pid, tid, rendered args)` of one event.
    fn event(frame: u64, hop: Hop) -> (&'static str, &'static str, u32, u32, String) {
        let mut args = vec![format!("\"frame\":{frame}")];
        let (name, cat, pid, tid) = match hop {
            Hop::WireIngress { pf } => ("wire.ingress", "wire", track::WIRE, u32::from(pf)),
            Hop::WireEgress { pf } => ("wire.egress", "wire", track::WIRE, u32::from(pf)),
            Hop::NicSwitch {
                pf,
                from,
                to,
                hairpin,
            } => {
                args.push(format!("\"from\":\"{}\"", endpoint(from)));
                args.push(format!("\"to\":\"{}\"", endpoint(to)));
                args.push(format!("\"hairpin\":{}", u8::from(hairpin)));
                ("nic.switch", "nic", track::NIC, u32::from(pf))
            }
            Hop::VswitchRecv { vswitch, port } => (
                "vswitch.recv",
                "vswitch",
                track::VSWITCH_BASE + u32::from(vswitch),
                port,
            ),
            Hop::VswitchForward {
                vswitch,
                cache_hit,
                outputs,
            } => {
                args.push(format!("\"cache_hit\":{}", u8::from(cache_hit)));
                args.push(format!("\"outputs\":{outputs}"));
                (
                    "vswitch.forward",
                    "vswitch",
                    track::VSWITCH_BASE + u32::from(vswitch),
                    0,
                )
            }
            Hop::TenantRx { tenant, side } => (
                "tenant.rx",
                "tenant",
                track::TENANT_BASE + u32::from(tenant),
                u32::from(side),
            ),
            Hop::TenantTx { tenant, side } => (
                "tenant.tx",
                "tenant",
                track::TENANT_BASE + u32::from(tenant),
                u32::from(side),
            ),
            Hop::Drop { cause } => {
                args.push(format!("\"cause\":\"{}\"", cause.as_str()));
                ("frame.drop", "drop", track::NIC, 0)
            }
        };
        (name, cat, pid, tid, format!("{{{}}}", args.join(",")))
    }

    fn chrome_trace(&self) -> String {
        let events: Vec<String> = self
            .trace
            .iter()
            .map(|&(frame, at, hop, dur)| {
                let (name, cat, pid, tid, args) = Self::event(frame, hop);
                let ts = micros(at.as_nanos());
                let head = format!("{{\"name\":\"{name}\",\"cat\":\"{cat}\"");
                let tail = format!("\"pid\":{pid},\"tid\":{tid},\"args\":{args}}}");
                match dur {
                    Some(d) => {
                        let dur = micros(d.as_nanos());
                        format!("{head},\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},{tail}")
                    }
                    None => format!("{head},\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},{tail}"),
                }
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
            events.join(",\n")
        )
    }

    fn jsonl(&self) -> String {
        let mut out = String::new();
        for &(frame, at, hop, dur) in &self.trace {
            let (name, cat, pid, tid, args) = Self::event(frame, hop);
            let dur = dur.map_or(String::new(), |d| format!(",\"dur_ns\":{}", d.as_nanos()));
            out += &format!(
                "{{\"t_ns\":{},\"name\":\"{name}\",\"cat\":\"{cat}\",\"pid\":{pid},\
                 \"tid\":{tid}{dur},\"args\":{args}}}\n",
                at.as_nanos()
            );
        }
        out
    }
}

fn endpoint(e: NicEndpoint) -> String {
    match e {
        NicEndpoint::Wire => "wire".to_string(),
        NicEndpoint::Pf => "pf".to_string(),
        NicEndpoint::TenantVf { tenant } => format!("tenant-vf:{tenant}"),
        NicEndpoint::VswitchVf { vswitch } => format!("vswitch-vf:{vswitch}"),
    }
}

fn micros(ns: u64) -> String {
    match ns % 1_000 {
        0 => format!("{}", ns / 1_000),
        frac => format!("{}.{frac:03}", ns / 1_000),
    }
}

type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, Label)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

#[derive(Default)]
struct RefMetrics {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    histograms: BTreeMap<Key, Histogram>,
}

impl RefMetrics {
    fn render_prometheus(&self) -> String {
        fn series(k: &Key, suffix: &str, extra: Option<(&str, &str)>) -> String {
            let mut labels = k.1.clone();
            labels.extend(extra.map(|(k, v)| (k.to_string(), v.to_string())));
            labels.sort();
            let body: Vec<String> = labels
                .iter()
                .map(|(k, v)| {
                    let v = v
                        .replace('\\', "\\\\")
                        .replace('"', "\\\"")
                        .replace('\n', "\\n");
                    format!("{k}=\"{v}\"")
                })
                .collect();
            match body.is_empty() {
                true => format!("{}{suffix}", k.0),
                false => format!("{}{suffix}{{{}}}", k.0, body.join(",")),
            }
        }
        let mut out = String::new();
        let typed = |out: &mut String, last: &mut String, k: &Key, kind: &str| {
            if *last != k.0 {
                *out += &format!("# TYPE {} {kind}\n", k.0);
                last.clone_from(&k.0);
            }
        };
        let mut last = String::new();
        for (k, v) in &self.counters {
            typed(&mut out, &mut last, k, "counter");
            out += &format!("{} {v}\n", series(k, "", None));
        }
        last.clear();
        for (k, v) in &self.gauges {
            typed(&mut out, &mut last, k, "gauge");
            out += &format!("{} {}\n", series(k, "", None), float(*v));
        }
        last.clear();
        for (k, h) in &self.histograms {
            typed(&mut out, &mut last, k, "histogram");
            for bound in BUCKET_BOUNDS_NS {
                let le = bound.to_string();
                let line = series(k, "_bucket", Some(("le", &le)));
                out += &format!("{line} {}\n", h.count_le(bound));
            }
            let inf = series(k, "_bucket", Some(("le", "+Inf")));
            out += &format!("{inf} {}\n", h.count());
            for q in [0.5_f64, 0.9, 0.99, 0.999] {
                let line = series(k, "", Some(("quantile", &float(q))));
                out += &format!("{line} {}\n", h.percentile(q * 100.0));
            }
            let sum = (h.mean() * h.count() as f64).round() as u64;
            out += &format!("{} {sum}\n", series(k, "_sum", None));
            out += &format!("{} {}\n", series(k, "_count", None), h.count());
        }
        out
    }

    fn render_jsonl(&self) -> String {
        fn head(kind: &str, k: &Key) -> String {
            let labels: Vec<String> =
                k.1.iter()
                    .map(|(k, v)| format!("\"{}\":\"{}\"", escape(k), escape(v)))
                    .collect();
            format!(
                "{{\"kind\":\"{kind}\",\"name\":\"{}\",\"labels\":{{{}}}",
                escape(&k.0),
                labels.join(",")
            )
        }
        let mut out = String::new();
        for (k, v) in &self.counters {
            out += &format!("{},\"value\":{v}}}\n", head("counter", k));
        }
        for (k, v) in &self.gauges {
            out += &format!("{},\"value\":{}}}\n", head("gauge", k), float(*v));
        }
        for (k, h) in &self.histograms {
            let s = h.summary();
            out += &format!(
                "{},\"count\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"p999\":{},\
                 \"max\":{}}}\n",
                head("histogram", k),
                s.count,
                s.min,
                s.p50,
                s.p90,
                s.p99,
                s.p999,
                s.max
            );
        }
        out
    }
}

fn float(v: f64) -> String {
    match v.fract() == 0.0 && v.abs() < 1e15 {
        true => format!("{}", v as i64),
        false => format!("{v}"),
    }
}

fn escape(s: &str) -> String {
    let mut out = String::new();
    for ch in s.chars() {
        match ch {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            '\n' => out += "\\n",
            '\r' => out += "\\r",
            '\t' => out += "\\t",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out
}

// --------------------------------------------------------------- generators

fn random_endpoint(rng: &mut DetRng) -> NicEndpoint {
    match rng.below(4) {
        0 => NicEndpoint::Wire,
        1 => NicEndpoint::Pf,
        2 => NicEndpoint::TenantVf {
            tenant: rng.below(256) as u8,
        },
        _ => NicEndpoint::VswitchVf {
            vswitch: rng.below(256) as u8,
        },
    }
}

fn random_hop(rng: &mut DetRng) -> Hop {
    let small = |rng: &mut DetRng| rng.below(256) as u8;
    match rng.below(8) {
        0 => Hop::WireIngress { pf: small(rng) },
        1 => Hop::NicSwitch {
            pf: small(rng),
            from: random_endpoint(rng),
            to: random_endpoint(rng),
            hairpin: rng.chance(0.5),
        },
        2 => Hop::VswitchRecv {
            vswitch: small(rng),
            port: rng.below(1 << 32) as u32,
        },
        3 => Hop::VswitchForward {
            vswitch: small(rng),
            cache_hit: rng.chance(0.5),
            outputs: small(rng),
        },
        4 => Hop::TenantRx {
            tenant: small(rng),
            side: small(rng),
        },
        5 => Hop::TenantTx {
            tenant: small(rng),
            side: small(rng),
        },
        6 => Hop::WireEgress { pf: small(rng) },
        _ => Hop::Drop {
            cause: DropCause::ALL[rng.index(DropCause::ALL.len())],
        },
    }
}

fn shuffled<T: Copy>(rng: &mut DetRng, items: &[T]) -> Vec<T> {
    let mut v = items.to_vec();
    for i in (1..v.len()).rev() {
        v.swap(i, rng.index(i + 1));
    }
    v
}

// -------------------------------------------------------------------- tests

/// One random hop stream through a recorder with the given caps
/// (`usize::MAX` = the defaults) and through the reference.
fn hop_case(seed: u64, trace_cap: usize, journey_cap: usize) {
    let mut rng = DetRng::new(seed);
    let mut rec = Recorder::new();
    if trace_cap != usize::MAX {
        rec.trace = TraceLog::with_cap(trace_cap);
        rec.journeys = JourneyLog::with_cap(journey_cap);
    }
    let mut reference = RefLogs {
        trace_cap: trace_cap.min(4_000_000),
        journey_cap: journey_cap.min(1_000_000),
        ..RefLogs::default()
    };

    // Few frames, interleaved, ids neither dense nor ascending.
    let frames: Vec<u64> = (0..6).map(|_| rng.below(1 << 40)).collect();
    let mut now = 0u64;
    for _ in 0..rng.between(1, 120) {
        let frame = frames[rng.index(frames.len())];
        now += rng.below(3_000);
        let at = Time::from_nanos(now);
        let hop = random_hop(&mut rng);
        let dur = match rng.below(4) {
            0 => Some(Dur::ZERO),
            1 => Some(Dur::nanos(rng.below(5_000))),
            2 => Some(Dur::nanos(u64::MAX / 2 + rng.below(1 << 20))),
            _ => None,
        };
        match dur {
            None if rng.chance(0.5) => rec.hop(frame, at, hop),
            _ => rec.hop_timed(frame, at, hop, dur),
        }
        reference.hop_timed(frame, at, hop, dur);
    }

    let ctx = format!("seed {seed}, caps {trace_cap}/{journey_cap}");
    assert_eq!(rec.trace.len(), reference.trace.len(), "{ctx}");
    assert_eq!(rec.trace.truncated(), reference.trace_truncated, "{ctx}");
    assert_eq!(rec.trace.is_empty(), reference.trace.is_empty(), "{ctx}");
    assert_eq!(
        rec.trace.to_chrome_trace(),
        reference.chrome_trace(),
        "{ctx}"
    );
    assert_eq!(rec.trace.to_jsonl(), reference.jsonl(), "{ctx}");

    assert_eq!(rec.journeys.len(), reference.journeys.len(), "{ctx}");
    assert_eq!(
        rec.journeys.truncated(),
        reference.journey_truncated,
        "{ctx}"
    );
    let recorded: Vec<(u64, Vec<(Time, Hop)>)> = rec
        .journeys
        .iter()
        .map(|j| (j.frame, j.hops().map(|h| (h.at, h.hop)).collect()))
        .collect();
    let expected: Vec<(u64, Vec<(Time, Hop)>)> = reference.journeys.clone().into_iter().collect();
    assert_eq!(recorded, expected, "{ctx}");
    for &frame in &frames {
        let got = rec.journeys.get(frame);
        let want = reference.journeys.get(&frame);
        assert_eq!(got.map(|j| j.frame), want.map(|_| frame), "{ctx}");
        assert_eq!(
            got.map(|j| j.hops().map(|h| (h.at, h.hop)).collect::<Vec<_>>()),
            want.cloned(),
            "{ctx}"
        );
        let dropped =
            |hops: &Vec<(Time, Hop)>| hops.iter().any(|(_, hop)| matches!(hop, Hop::Drop { .. }));
        assert_eq!(got.map(|j| j.dropped()), want.map(dropped), "{ctx}");
    }
}

#[test]
fn hop_streams_match_the_reference() {
    for seed in 0..300 {
        let mut rng = DetRng::new(seed).derive("caps");
        hop_case(seed, usize::MAX, usize::MAX);
        hop_case(seed, rng.between(1, 3) as usize, rng.between(1, 3) as usize);
    }
}

const NAMES: [&str; 4] = ["mts_a_total", "mts_a", "mts_b_ns", "odd \"name\"\n"];
const KEYS: [&str; 11] = [
    "tenant", "layer", "le", "zone", "vswitch", "port", "pf", "hairpin", "cause", "kind", "result",
];
const VALUES: [Label; 15] = [
    Str("0"),
    Num(0),
    Str("1"),
    Num(1),
    Str("7"),
    Num(7),
    Str("07"),
    Num(u64::MAX),
    Str("18446744073709551616"),
    Str(""),
    Str("vswitch"),
    Str("q\"uote"),
    Str("back\\slash"),
    Str("new\nline\ttab"),
    Str("\u{1}ctl"),
];

/// A random label set — possibly empty, now and then wider than the
/// registry sorts on the stack — in random order.
fn random_labels(rng: &mut DetRng) -> Vec<(&'static str, Label)> {
    let keys = shuffled(rng, &KEYS);
    let n = match rng.chance(0.2) {
        true => 9 + rng.index(KEYS.len() - 8),
        false => rng.index(5),
    };
    keys[..n]
        .iter()
        .map(|&k| (k, VALUES[rng.index(VALUES.len())]))
        .collect()
}

/// The same value in the other variant where it has one: `Num(7)` for
/// `Str("7")` and back.
fn twin(v: Label) -> Label {
    match v {
        Str("0") => Num(0),
        Str("1") => Num(1),
        Str("7") => Num(7),
        Num(0) => Str("0"),
        Num(1) => Str("1"),
        Num(7) => Str("7"),
        v => v,
    }
}

fn metrics_case(seed: u64) {
    let mut rng = DetRng::new(seed).derive("metrics");
    let mut m = MetricsRegistry::new();
    let mut reference = RefMetrics::default();
    assert!(m.is_empty());
    let mut touched: Vec<(&'static str, Vec<(&'static str, Label)>)> = Vec::new();

    for _ in 0..rng.between(1, 150) {
        // Half the updates revisit a series under another label order,
        // with some values in their other variant.
        let (name, labels) = match touched.is_empty() || rng.chance(0.5) {
            true => (NAMES[rng.index(NAMES.len())], random_labels(&mut rng)),
            false => {
                let (name, labels) = &touched[rng.index(touched.len())];
                let mut labels = shuffled(&mut rng, labels);
                for (_, v) in &mut labels {
                    if rng.chance(0.5) {
                        *v = twin(*v);
                    }
                }
                (*name, labels)
            }
        };
        let k = key(name, &labels);
        let v = rng.below(2_000_000_000);
        match rng.below(5) {
            0 => {
                m.counter_add(name, &labels, v);
                *reference.counters.entry(k).or_insert(0) += v;
            }
            1 => {
                m.counter_inc(name, &labels);
                *reference.counters.entry(k).or_insert(0) += 1;
            }
            2 => {
                let g = v as f64 / 8.0;
                m.gauge_set(name, &labels, g);
                reference.gauges.insert(k, g);
            }
            3 => {
                let g = v as f64 - 1e9;
                m.gauge_max(name, &labels, g);
                let slot = reference.gauges.entry(k).or_insert(f64::NEG_INFINITY);
                *slot = slot.max(g);
            }
            _ => {
                m.observe(name, &labels, v);
                reference.histograms.entry(k).or_default().record(v);
            }
        }
        touched.push((name, labels));
    }

    let ctx = format!("seed {seed}");
    assert!(!m.is_empty(), "{ctx}");
    for (name, labels) in &touched {
        let k = key(name, labels);
        let asked = shuffled(&mut rng, labels);
        assert_eq!(
            m.counter_value(name, &asked),
            reference.counters.get(&k).copied().unwrap_or(0),
            "{ctx}: {name} {asked:?}"
        );
        let (got, want) = (m.histogram(name, &asked), reference.histograms.get(&k));
        assert_eq!(got.is_some(), want.is_some(), "{ctx}: {name} {asked:?}");
        if let (Some(got), Some(want)) = (got, want) {
            assert_eq!(got.summary(), want.summary(), "{ctx}: {name} {asked:?}");
        }
    }
    for name in NAMES {
        let named = reference.counters.iter().filter(|(k, _)| k.0 == name);
        let total: u64 = named.map(|(_, v)| v).sum();
        assert_eq!(m.counter_total(name), total, "{ctx}: {name}");
    }
    assert_eq!(
        m.render_prometheus(),
        reference.render_prometheus(),
        "{ctx}"
    );
    assert_eq!(m.render_jsonl(), reference.render_jsonl(), "{ctx}");
}

#[test]
fn metric_updates_match_the_reference() {
    for seed in 0..300 {
        metrics_case(seed);
    }
}
