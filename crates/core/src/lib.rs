//! The MTS architecture: security levels, deployment building, the
//! controller, the measurement testbed and the security validation.
//!
//! This crate is the paper's primary contribution, implemented over the
//! substrates in the sibling crates:
//!
//! - [`spec`] — security levels (Baseline / Level-1 / Level-2 / Level-3),
//!   traffic scenarios (p2p / p2v / v2v), resource modes and the
//!   [`spec::DeploymentSpec`] tying them together.
//! - [`vfplan`] — VF, VLAN, MAC and IP allocation (paper Sec. 3.2,
//!   including the VF-count arithmetic).
//! - [`controller`] — the logically-centralized controller: computes the
//!   desired SR-IOV NIC state (VF configs, anti-spoofing, wildcard
//!   filters) and the ingress/egress chain flow rules of Fig. 3 for each
//!   vswitch, as data, and deploys by converging an empty topology to it.
//! - [`runtime`] — the packet-pipeline runtime binding vswitches, tenant
//!   VMs, vhost channels and the NIC to simulated CPU cores and links.
//! - [`testbed`] — the two-server measurement harness (load generator,
//!   sink, passive tap) reproducing the Sec. 4 methodology.
//! - [`workloads`] — the TCP workload harness reproducing Sec. 5 (iperf,
//!   Apache/ApacheBench, Memcached/memslap).
//! - [`attacks`] — attack scenarios validating the isolation properties of
//!   each security level (Sec. 2.2/2.3).
//! - [`billing`] — per-tenant CPU/memory/I/O accounting (Sec. 6), driven
//!   by the cycle meters with an enforced conservation identity.
//! - [`meters`] — per-tenant cycle-attribution meters across every layer
//!   a frame touches (NIC VEB, vswitch, vhost, host kernel, overlay,
//!   tenant VM) — the `mts-slo` substrate.
//! - [`overlay`] — VXLAN overlay rules and generators (Sec. 3.2).
//! - [`perfiso`] — the noisy-neighbor performance-isolation experiments
//!   (single-victim result and the per-level SLO matrix).
//! - [`delta`] — configuration changes as data: `ConfigDelta::apply` is
//!   the only code that programs a NIC or a vswitch, and a world's log of
//!   applied deltas feeds the incremental verifier.
//! - [`reconcile`](mod@reconcile) — the desired dataplane state, computed
//!   by the controller, applied by the converge pass at deploy and,
//!   idempotently, after faults.
//! - [`supervisor`] — the vswitch-VM watchdog: heartbeat failure
//!   detection, capped exponential-backoff restarts, degraded-mode
//!   fallback (see `mts-faults`).
//! - [`survey`] — the Table 1 vswitch design survey as queryable data.
//! - [`results`] — measurement types, table formatting and CSV export.

pub mod attacks;
pub mod billing;
pub mod controller;
pub mod delta;
pub mod meters;
pub mod overlay;
pub mod perfiso;
pub mod reconcile;
pub mod results;
pub mod runtime;
pub mod spec;
pub mod supervisor;
pub mod survey;
pub mod tcphost;
pub mod testbed;
pub mod vfplan;
pub mod workloads;

pub use attacks::{Attack, AttackOutcome, IsolationReport};
pub use billing::{bill, billing_accuracy, BillingAccuracy, BillingReport, TenantBill};
pub use controller::Controller;
pub use delta::{ConfigDelta, DeltaLog};
pub use meters::{Attribution, CycleMeters, Layer};
/// The simulator's deterministic hash maps, for crates that reach
/// `mts-sim` only through this one: `benchmark/Cargo.lock` pins every
/// crate's dependency list, so `mts-isocheck` cannot name `mts-sim` itself.
pub use mts_sim::hash::{FastHashMap, FastHashSet};
pub use overlay::OverlayConfig;
pub use perfiso::{noisy_matrix, NoisyOpts, SloCell};
pub use reconcile::{reconcile, DesiredConfig, ReconcileReport};
pub use results::{LatencySummary, Measurement, ThroughputReport};
pub use spec::{DeploymentSpec, ResourceMode, Scenario, SecurityLevel};
pub use supervisor::{start_supervisor, RecoveryEvent, RecoveryKind, Supervisor, SupervisorCfg};
pub use testbed::Testbed;
pub use vfplan::{AddressPlan, VfBudget};
pub use workloads::{Workload, WorkloadResult};
