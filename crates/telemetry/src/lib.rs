//! Deterministic observability for the MTS simulator.
//!
//! The paper's core security argument is *complete mediation*: every
//! tenant↔tenant and tenant↔host frame must traverse the SR-IOV embedded
//! switch **and** a vswitch VM. Aggregate throughput numbers cannot show
//! whether that actually happened — this crate makes the path of every
//! frame observable:
//!
//! - [`metrics`] — a registry of named, labelled counters, gauges and
//!   histograms (reusing [`mts_sim::Histogram`]), timestamped with
//!   simulated [`mts_sim::Time`], never wall clock, so instrumented runs
//!   stay bit-for-bit deterministic. Exports Prometheus text format.
//! - [`journey`] — per-frame *journey* records: the ordered hops a frame
//!   took (VF ingress → embedded-switch verdict → vswitch table/cache →
//!   egress or drop).
//! - [`audit`] — the [`MediationAuditor`], which consumes journeys and
//!   checks the complete-mediation invariant, turning the paper's
//!   security property into a runtime-checkable observable.
//! - [`trace`] — structured trace events exported as Chrome trace-event
//!   JSON (openable in Perfetto / `chrome://tracing`) and as JSONL.
//! - [`DropCause`] — the typed vocabulary of frame-drop reasons, feeding
//!   per-cause counters.
//!
//! The whole layer is carried by [`Telemetry`], an `Option`-dispatched
//! sink that is a single branch (and no allocation) when disabled, so
//! uninstrumented runs pay nothing. See `OBSERVABILITY.md` at the repo
//! root for the event taxonomy and exporter formats.

mod arena;
pub mod audit;
pub mod drop_cause;
pub mod journey;
mod json;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use audit::{MediationAuditor, MediationReport, MediationViolation};
pub use drop_cause::DropCause;
pub use journey::{Hop, Journey, JourneyHop, JourneyLog, NicEndpoint};
pub use metrics::{Label, MetricsRegistry, BUCKET_BOUNDS_NS};
pub use recorder::{Recorder, Telemetry};
pub use trace::{TraceEvent, TraceLog};
