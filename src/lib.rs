//! MTS: Bringing Multi-Tenancy to Virtual Networking — facade crate.
//!
//! This crate re-exports the full reproduction stack so applications can
//! depend on a single crate. See the README for an architecture overview and
//! `DESIGN.md` for the system inventory.
//!
//! The layering, bottom-up:
//!
//! - [`sim`] — deterministic discrete-event engine, CPU/link models, stats.
//! - [`net`] — packet model and wire formats (Ethernet, VLAN, IPv4, …).
//! - [`nic`] — SR-IOV NIC with an embedded VEB L2 switch.
//! - [`vswitch`] — OpenFlow-style flow-table virtual switch (OvS analogue).
//! - [`host`] — VMs, vhost channels, Linux bridge, resource accounting.
//! - [`tcp`] — a Reno TCP stack for the workload evaluation.
//! - [`apps`] — iperf / HTTP / Memcached workload applications.
//! - [`telemetry`] — deterministic metrics, frame-journey tracing and the
//!   complete-mediation auditor (see `OBSERVABILITY.md`).
//! - [`core`] — the MTS architecture itself: security levels, deployment
//!   builder, controller, testbed and attack validation.
//! - [`isocheck`] — static header-space verification of isolation and
//!   complete mediation over deployed configurations (see
//!   `VERIFICATION.md`).
//! - [`faults`] — deterministic fault injection and the blast-radius /
//!   recovery experiments over the security levels (see
//!   `ROBUSTNESS.md`).
//! - [`fuzz`] — deterministic structured fuzzing of the untrusted planes
//!   (wire codec, fault plans, config deltas, reconciliation) with a
//!   replayable crasher corpus.
//!
//! # Examples
//!
//! Deploy Level-1 and measure the p2v scenario end to end:
//!
//! ```
//! use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
//! use mts::core::testbed::{RunOpts, Testbed};
//! use mts::host::ResourceMode;
//! use mts::sim::Dur;
//! use mts::vswitch::DatapathKind;
//!
//! let spec = DeploymentSpec::mts(
//!     SecurityLevel::Level1,
//!     DatapathKind::Kernel,
//!     ResourceMode::Isolated,
//!     Scenario::P2v,
//! );
//! let opts = RunOpts {
//!     rate_pps: 50_000.0,
//!     wire_len: 64,
//!     warmup: Dur::millis(2),
//!     measure: Dur::millis(8),
//!     seed: 1,
//! };
//! let m = Testbed::new(spec).run(opts).expect("runs");
//! assert!(m.loss() < 0.01);
//! assert!(m.per_flow.iter().all(|&c| c > 0));
//! ```

pub use mts_apps as apps;
pub use mts_core as core;
pub use mts_faults as faults;
pub use mts_fuzz as fuzz;
pub use mts_host as host;
pub use mts_isocheck as isocheck;
pub use mts_net as net;
pub use mts_nic as nic;
pub use mts_sim as sim;
pub use mts_tcp as tcp;
pub use mts_telemetry as telemetry;
pub use mts_vswitch as vswitch;
