//! `mts-isocheck` — static isolation and complete-mediation verification.
//!
//! A header-space-style symbolic reachability analysis over a composed MTS
//! deployment (Thimmaraju et al., *MTS: Bringing Multi-Tenancy to Virtual
//! Networking*, USENIX ATC 2019). The verifier extracts the NIC VEB state
//! (VST VLANs, anti-spoofing, static MACs, wildcard security filters) and
//! the vswitch flow pipelines from a built [`Deployment`], atomizes every
//! header field over the finitely many values the configuration references,
//! and pushes symbolic packet classes from every source — each tenant VM
//! and the external wire — through the NIC ⇄ vswitch graph to a fixed
//! point.
//!
//! Verdicts:
//!
//! * **Isolation** — no tenant's frames reach another tenant's VM without
//!   passing a vswitch ([`ViolationKind::CrossTenantReach`]), the host OS
//!   is unreachable from tenants ([`ViolationKind::HostReach`]), and
//!   sources cannot be spoofed ([`ViolationKind::SpoofableSource`]).
//! * **Complete mediation** — all tenant VM traffic is forced through the
//!   vswitch layer ([`ViolationKind::UnmediatedPeerReach`],
//!   [`ViolationKind::UnmediatedEgress`],
//!   [`ViolationKind::UnmediatedIngress`],
//!   [`ViolationKind::EnvelopeBreach`]).
//! * **Hygiene warnings** — dead and shadowed flow rules / NIC filters and
//!   unreachable VFs, with concrete example headers where meaningful.
//!
//! Every violation carries a [`Witness`]: a concrete counterexample header
//! replayed hop-by-hop through the same transfer functions. The model and
//! its assumptions (untagged external injection, learned-entry
//! over-approximation, VXLAN truncation) are documented in
//! `VERIFICATION.md`; the dynamic counterpart is the runtime
//! `MediationAuditor` in `mts-telemetry`.
//!
//! [`Deployment`]: mts_core::controller::Deployment

pub mod diff;
pub mod engine;
pub mod header;
pub mod incremental;
pub mod misconfig;
pub mod model;
pub mod report;

pub use diff::{diff_levels, diff_models, Divergence, DivergenceKind, Endpoint, LevelDiff};
pub use engine::{analyze, Loc, Source};
pub use header::{ConcreteHeader, Cube, DomainOverflow, Domains, HeaderSet};
pub use incremental::{IncrStats, IncrementalChecker};
pub use misconfig::Misconfig;
pub use model::{Model, VfRole};
pub use report::{Stats, VerifyReport, Violation, ViolationKind, Warning, WarningKind, Witness};

use mts_core::controller::{Controller, DeployError, Deployment};
use mts_core::{DeploymentSpec, Scenario, SecurityLevel};
use std::fmt;

/// Errors from [`verify_spec`].
#[derive(Debug)]
pub enum VerifyError {
    /// The deployment could not be built.
    Deploy(DeployError),
    /// The deployment references more values than the analysis domains
    /// hold.
    Domain(DomainOverflow),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Deploy(e) => write!(f, "deploy: {e}"),
            VerifyError::Domain(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Statically verifies a built deployment.
pub fn verify(d: &Deployment) -> Result<VerifyReport, DomainOverflow> {
    Ok(analyze(&Model::of(d)?))
}

/// Statically verifies the *live* state of a runtime world — the
/// post-recovery pre-flight check: after a supervisor restart plus
/// controller reconciliation, the recovered NIC + vswitch configuration
/// must re-establish the same isolation verdicts as the original
/// deployment (see `mts-faults`).
pub fn verify_world(w: &mts_core::runtime::World) -> Result<VerifyReport, DomainOverflow> {
    Ok(analyze(&Model::of_world(w)?))
}

/// Builds a deployment from a spec (as the Sec. 4 testbed does) and
/// verifies it.
pub fn verify_spec(spec: DeploymentSpec) -> Result<VerifyReport, VerifyError> {
    let d = Controller::deploy(spec).map_err(VerifyError::Deploy)?;
    verify(&d).map_err(VerifyError::Domain)
}

/// The shipped compartmentalized configurations: Level-1 and Level-2 (2 and
/// 4 compartments) across every traffic scenario. Combinations the
/// controller itself rejects (v2v with 4 compartments, like the paper's
/// testbed) are omitted.
pub fn shipped_matrix() -> Vec<DeploymentSpec> {
    let mut out = Vec::new();
    for scenario in Scenario::ALL {
        for level in [
            SecurityLevel::Level1,
            SecurityLevel::Level2 { compartments: 2 },
            SecurityLevel::Level2 { compartments: 4 },
        ] {
            let spec = DeploymentSpec::mts(
                level,
                mts_vswitch::DatapathKind::Kernel,
                mts_core::ResourceMode::Shared,
                scenario,
            );
            if Controller::deploy(spec).is_ok() {
                out.push(spec);
            }
        }
    }
    out
}

/// Verifies every shipped compartmentalized configuration, returning the
/// per-deployment reports.
pub fn verify_shipped() -> Result<Vec<VerifyReport>, VerifyError> {
    shipped_matrix().into_iter().map(verify_spec).collect()
}
