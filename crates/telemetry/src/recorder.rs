//! The telemetry sink carried by the simulation `World`.
//!
//! [`Telemetry`] is an `Option`-dispatched handle: disabled, it is a
//! single `None` check on every instrumentation site — no allocation,
//! no formatting, no branches beyond the early-out — so uninstrumented
//! runs (benchmarks, figure reproduction) pay nothing measurable.
//! Enabled, it owns a [`Recorder`] bundling the metrics registry, the
//! trace log and the per-frame journey log.

use mts_sim::{Dur, Time};

use crate::journey::{Hop, JourneyLog};
use crate::metrics::MetricsRegistry;
use crate::trace::TraceLog;

/// The live recording state behind an enabled [`Telemetry`].
#[derive(Debug, Default)]
pub struct Recorder {
    pub metrics: MetricsRegistry,
    pub trace: TraceLog,
    pub journeys: JourneyLog,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one hop of a frame's journey and mirror it into the trace
    /// log as an event on the owning component's timeline.
    pub fn hop(&mut self, frame: u64, at: Time, hop: Hop) {
        self.hop_timed(frame, at, hop, None);
    }

    /// Like [`Recorder::hop`], with a duration: the trace event renders
    /// as a slice covering `dur` (e.g. vswitch processing cost).
    ///
    /// Two fixed-size records are appended and nothing is formatted: the
    /// event's name, track and argument strings are derived from the hop
    /// when the trace is exported.
    pub fn hop_timed(&mut self, frame: u64, at: Time, hop: Hop, dur: Option<Dur>) {
        self.trace.record(frame, at, hop, dur);
        self.journeys.record(frame, at, hop);
    }
}

/// The handle embedded in the simulation `World`.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Option<Box<Recorder>>,
}

impl Telemetry {
    /// A no-op sink: every instrumentation site short-circuits.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A live sink recording metrics, traces and journeys.
    ///
    /// One allocation: the box of empty containers. The harness calls this
    /// during set-up, so nothing may be pre-registered or pre-sized here —
    /// chunks, series and histograms appear on first use, inside the run.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Box::default()),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Mutable access for instrumentation sites:
    /// `if let Some(rec) = world.telemetry.rec() { ... }`.
    #[inline]
    pub fn rec(&mut self) -> Option<&mut Recorder> {
        self.inner.as_deref_mut()
    }

    /// Shared access for exporters and assertions after a run.
    pub fn recorder(&self) -> Option<&Recorder> {
        self.inner.as_deref()
    }

    /// Consume the handle, yielding the recorder if one was live.
    pub fn take(self) -> Option<Recorder> {
        self.inner.map(|b| *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::track;
    use crate::DropCause;

    #[test]
    fn disabled_sink_is_inert() {
        let mut t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(t.rec().is_none());
        assert!(t.recorder().is_none());
        assert!(t.take().is_none());
    }

    #[test]
    fn enabled_sink_records_hops_everywhere() {
        let mut t = Telemetry::enabled();
        assert!(t.is_enabled());
        let rec = t.rec().unwrap();
        rec.hop(
            11,
            Time::from_nanos(100),
            Hop::TenantTx { tenant: 2, side: 1 },
        );
        rec.hop(
            11,
            Time::from_nanos(150),
            Hop::Drop {
                cause: DropCause::VswitchRing,
            },
        );
        let rec = t.recorder().unwrap();
        assert_eq!(rec.trace.len(), 2);
        assert_eq!(rec.journeys.len(), 1);
        let j = rec.journeys.get(11).unwrap();
        assert!(j.dropped());
        let jsonl = rec.trace.to_jsonl();
        assert!(jsonl.contains("\"cause\":\"vswitch-ring\""));
        assert!(jsonl.contains(&format!("\"pid\":{}", track::TENANT_BASE + 2)));
    }
}
