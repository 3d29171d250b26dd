//! `mts-faults` — deterministic fault injection and blast-radius/recovery
//! experiments for the MTS reproduction.
//!
//! The paper's security levels buy *fault containment* as well as
//! isolation: a vswitch crash under Level-2 takes down one compartment's
//! tenants, not the host's whole dataplane. This crate makes that claim
//! measurable:
//!
//! - [`plan`] — a typed fault-plan DSL ([`FaultPlan`]): vswitch-VM
//!   crashes (optionally crash-looping), hangs, CPU slowdowns, NIC VEB
//!   table flushes, flow-table wipes and partial rule loss, physical link
//!   flaps, vhost stalls, and controller-channel loss, each pinned to a
//!   simulated-time instant. Plans can be built programmatically or
//!   parsed from a compact text form (`@10ms crash vswitch=0`).
//! - [`inject`](mod@inject) — schedules a plan into the discrete-event engine. All
//!   randomness (partial rule loss) draws from the world's dedicated
//!   `fault_rng` stream, so fault runs are bit-reproducible and an empty
//!   plan leaves the traffic byte-identical to a fault-free run.
//! - [`experiment`] — the blast-radius panel: per security level × fault
//!   type, which tenants lost frames, the typed fault-drop counts, time
//!   to detect and to recover (via the `mts-core` supervisor +
//!   reconciliation), restart attempts, throughput delta against a clean
//!   run, the offered = delivered + Σ(typed drops) accounting check, and
//!   a post-recovery `mts-isocheck` verification.
//!
//! Recovery itself lives in `mts-core` ([`mts_core::supervisor`],
//! [`mts_core::reconcile`](mod@mts_core::reconcile)); this crate injects the faults and measures
//! the response. See `ROBUSTNESS.md` for the experiment design and the
//! expected containment results.

pub mod experiment;
pub mod inject;
pub mod plan;

pub use experiment::{
    blast_radius_panel, render, run_cell, run_traced, BlastCell, FaultCase, FaultOpts,
};
pub use inject::{inject, schedule};
pub use plan::{DurParseError, FaultEvent, FaultKind, FaultPlan, PlanParseError, PlanReason};
