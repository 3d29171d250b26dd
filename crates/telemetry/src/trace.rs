//! Structured trace events and their exporters.
//!
//! Events carry simulated timestamps ([`mts_sim::Time`]) and optional
//! durations ([`mts_sim::Dur`]). Two export formats:
//!
//! - **Chrome trace-event JSON** ([`TraceLog::to_chrome_trace`]) — load
//!   the file in [Perfetto](https://ui.perfetto.dev) or
//!   `chrome://tracing`. Events with a duration render as slices
//!   (`"ph":"X"`), instantaneous ones as instants (`"ph":"i"`). The
//!   `pid` groups a component (NIC, vswitch N, tenant N) and `tid` a
//!   subunit within it, so each vswitch gets its own timeline row.
//! - **JSONL** ([`TraceLog::to_jsonl`]) — one self-describing JSON
//!   object per line for ad-hoc `jq`/pandas processing.
//!
//! Both renderings are byte-for-byte deterministic for a given log.

use std::fmt::Write;
use std::num::NonZeroU64;

use mts_sim::{Dur, Time};

use crate::arena::Chunked;
use crate::journey::{Hop, NicEndpoint};
use crate::json::escape_json_into;

/// An argument value attached to a trace event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ArgValue {
    U64(u64),
    Str(&'static str),
    /// Rendered as the endpoint's label string (`"tenant-vf:3"`).
    Endpoint(NicEndpoint),
}

/// Stable pid values for the Chrome-trace process grouping.
pub mod track {
    /// The wire / traffic generators.
    pub const WIRE: u32 = 1;
    /// The SR-IOV NIC (embedded switch, DMA, hairpin).
    pub const NIC: u32 = 2;
    /// vswitch VM `i` → pid `VSWITCH_BASE + i`.
    pub const VSWITCH_BASE: u32 = 100;
    /// Tenant VM `i` → pid `TENANT_BASE + i`.
    pub const TENANT_BASE: u32 = 200;
}

/// One structured trace event, as the exporters render it. The log does
/// not store these: [`TraceLog::iter`] derives each from a 32-byte hop
/// record at export time, on the stack.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEvent {
    /// Simulated start time.
    pub at: Time,
    /// Event name, e.g. `"vswitch.forward"`.
    pub name: &'static str,
    /// Category for trace-viewer filtering: `wire|nic|vswitch|tenant|drop`.
    pub cat: &'static str,
    /// Process id in the trace viewer (see [`track`]).
    pub pid: u32,
    /// Thread id within the process (e.g. core index, port).
    pub tid: u32,
    /// `Some` renders a complete slice; `None` renders an instant.
    pub dur: Option<Dur>,
    /// Key/value payload shown in the viewer's args pane, `None`s skipped
    /// (the widest hop, `nic.switch`, has four).
    pub args: [Option<(&'static str, ArgValue)>; 4],
}

/// What [`TraceLog`] keeps per hop. `dur` is nanoseconds plus one, so the
/// record stays 32 bytes; a slice of `Dur::MAX` renders 1 ns short.
#[derive(Clone, Copy, Debug)]
struct TraceRecord {
    frame: u64,
    at: Time,
    dur: Option<NonZeroU64>,
    hop: Hop,
}

impl TraceRecord {
    /// The hop's trace-viewer placement and argument list.
    fn event(&self) -> TraceEvent {
        let arg = |k, v| Some((k, v));
        let flag = |k, b: bool| Some((k, ArgValue::U64(u64::from(b))));
        let mut args = [arg("frame", ArgValue::U64(self.frame)), None, None, None];
        let (cat, pid, tid) = match self.hop {
            Hop::WireIngress { pf } | Hop::WireEgress { pf } => {
                ("wire", track::WIRE, u32::from(pf))
            }
            Hop::NicSwitch {
                pf,
                from,
                to,
                hairpin,
            } => {
                args[1] = arg("from", ArgValue::Endpoint(from));
                args[2] = arg("to", ArgValue::Endpoint(to));
                args[3] = flag("hairpin", hairpin);
                ("nic", track::NIC, u32::from(pf))
            }
            Hop::VswitchRecv { vswitch, port } => {
                ("vswitch", track::VSWITCH_BASE + u32::from(vswitch), port)
            }
            Hop::VswitchForward {
                vswitch,
                cache_hit,
                outputs,
            } => {
                args[1] = flag("cache_hit", cache_hit);
                args[2] = arg("outputs", ArgValue::U64(u64::from(outputs)));
                ("vswitch", track::VSWITCH_BASE + u32::from(vswitch), 0)
            }
            Hop::TenantRx { tenant, side } | Hop::TenantTx { tenant, side } => (
                "tenant",
                track::TENANT_BASE + u32::from(tenant),
                u32::from(side),
            ),
            Hop::Drop { cause } => {
                args[1] = arg("cause", ArgValue::Str(cause.as_str()));
                ("drop", track::NIC, 0)
            }
        };
        TraceEvent {
            at: self.at,
            name: self.hop.name(),
            cat,
            pid,
            tid,
            dur: self.dur.map(|d| Dur::nanos(d.get() - 1)),
            args,
        }
    }
}

/// An append-only log of hop records with a size cap.
#[derive(Debug)]
pub struct TraceLog {
    records: Chunked<TraceRecord>,
    cap: usize,
    truncated: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        TraceLog {
            records: Chunked::default(),
            cap: 4_000_000,
            truncated: 0,
        }
    }
}

impl TraceLog {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_cap(cap: usize) -> Self {
        TraceLog {
            cap,
            ..Self::default()
        }
    }

    /// Append frame `frame`'s `hop` at simulated time `at`; `dur` makes
    /// the event a slice. Past the cap the hop is counted, not stored.
    pub fn record(&mut self, frame: u64, at: Time, hop: Hop, dur: Option<Dur>) {
        if self.records.len() >= self.cap {
            self.truncated += 1;
            return;
        }
        self.records.push(TraceRecord {
            frame,
            at,
            dur: dur.map(|d| NonZeroU64::MIN.saturating_add(d.as_nanos())),
            hop,
        });
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that were NOT recorded because the cap was hit.
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// The recorded events, in recording order.
    pub fn iter(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.records.iter().map(TraceRecord::event)
    }

    /// Render as a Chrome trace-event JSON document.
    pub fn to_chrome_trace(&self) -> String {
        chrome_trace(self.iter())
    }

    /// Render as JSON Lines: one object per event.
    pub fn to_jsonl(&self) -> String {
        jsonl(self.iter())
    }
}

/// Render `events` as a Chrome trace-event JSON document.
///
/// Timestamps are microseconds with nanosecond precision kept as a
/// three-decimal fraction (the format's `ts` is a double).
pub fn chrome_trace(events: impl Iterator<Item = TraceEvent>) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, ev) in events.enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        write_name_cat(&mut out, "{\"name\":\"", &ev);
        match ev.dur {
            Some(d) => {
                out.push_str("\",\"ph\":\"X\",\"ts\":");
                write_us(&mut out, ev.at.as_nanos());
                out.push_str(",\"dur\":");
                write_us(&mut out, d.as_nanos());
            }
            None => {
                out.push_str("\",\"ph\":\"i\",\"s\":\"t\",\"ts\":");
                write_us(&mut out, ev.at.as_nanos());
            }
        }
        let _ = write!(out, ",\"pid\":{},\"tid\":{}", ev.pid, ev.tid);
        write_args(&mut out, &ev);
    }
    out.push_str("\n]}\n");
    out
}

/// Render `events` as JSON Lines: one object per event.
pub fn jsonl(events: impl Iterator<Item = TraceEvent>) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(out, "{{\"t_ns\":{}", ev.at.as_nanos());
        write_name_cat(&mut out, ",\"name\":\"", &ev);
        let _ = write!(out, "\",\"pid\":{},\"tid\":{}", ev.pid, ev.tid);
        if let Some(d) = ev.dur {
            let _ = write!(out, ",\"dur_ns\":{}", d.as_nanos());
        }
        write_args(&mut out, &ev);
        out.push('\n');
    }
    out
}

/// `<lead><name>","cat":"<cat>` — the closing quote is the caller's.
fn write_name_cat(out: &mut String, lead: &str, ev: &TraceEvent) {
    out.push_str(lead);
    escape_json_into(out, ev.name);
    out.push_str("\",\"cat\":\"");
    escape_json_into(out, ev.cat);
}

/// `,"args":{…}}` — closes the event object.
fn write_args(out: &mut String, ev: &TraceEvent) {
    out.push_str(",\"args\":{");
    for (i, (k, v)) in ev.args.iter().flatten().enumerate() {
        out.push_str(if i > 0 { ",\"" } else { "\"" });
        escape_json_into(out, k);
        out.push_str("\":");
        match v {
            ArgValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            ArgValue::Str(s) => {
                out.push('"');
                escape_json_into(out, s);
                out.push('"');
            }
            ArgValue::Endpoint(ep) => {
                let _ = write!(out, "\"{ep}\"");
            }
        }
    }
    out.push_str("}}");
}

/// Nanoseconds as microseconds, the fraction kept only when non-zero.
fn write_us(out: &mut String, ns: u64) {
    let (whole, frac) = (ns / 1_000, ns % 1_000);
    let _ = if frac == 0 {
        write!(out, "{whole}")
    } else {
        write!(out, "{whole}.{frac:03}")
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DropCause;

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.record(
            42,
            Time::from_nanos(1_500),
            Hop::VswitchForward {
                vswitch: 0,
                cache_hit: true,
                outputs: 1,
            },
            Some(Dur::nanos(250)),
        );
        let cause = DropCause::NicSpoof;
        log.record(42, Time::from_nanos(2_000), Hop::Drop { cause }, None);
        log
    }

    #[test]
    fn chrome_trace_shape() {
        let text = sample_log().to_chrome_trace();
        assert!(text.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":1.500"));
        assert!(text.contains("\"dur\":0.250"));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"cause\":\"nic-spoof\""));
        assert!(text.trim_end().ends_with("]}"));
    }

    #[test]
    fn jsonl_one_object_per_line() {
        let text = sample_log().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"t_ns\":1500,"));
        assert!(lines[1].contains("\"name\":\"frame.drop\""));
    }

    #[test]
    fn cap_truncates() {
        let mut log = TraceLog::with_cap(1);
        for _ in 0..3 {
            log.record(1, Time::ZERO, Hop::WireIngress { pf: 0 }, None);
        }
        assert_eq!(log.len(), 1);
        assert_eq!(log.truncated(), 2);
    }

    #[test]
    fn records_are_32_bytes_and_keep_zero_apart_from_no_duration() {
        assert_eq!(std::mem::size_of::<TraceRecord>(), 32);
        let mut log = TraceLog::new();
        for dur in [None, Some(Dur::ZERO), Some(Dur::nanos(1 << 62))] {
            log.record(1, Time::ZERO, Hop::WireIngress { pf: 0 }, dur);
        }
        let durs: Vec<Option<Dur>> = log.iter().map(|ev| ev.dur).collect();
        assert_eq!(durs, [None, Some(Dur::ZERO), Some(Dur::nanos(1 << 62))]);
    }
}
