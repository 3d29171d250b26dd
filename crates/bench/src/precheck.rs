//! Static pre-flight verification of deployments before simulation.
//!
//! Every deployment the reproduction harness is about to simulate is first
//! built by the same deploy function the run uses and passed through the
//! `mts-isocheck` header-space analysis: a compartmentalized configuration
//! that fails isolation or complete mediation aborts the run *before* a
//! single packet moves, with the verifier's counterexample in the panic
//! message. Baseline configurations are analyzed informationally only
//! (they share one datapath by design and have no mediation guarantee to
//! verify; see `VERIFICATION.md`).
//!
//! Nothing is remembered between calls: a verdict costs well under a
//! millisecond at the figures' tenant counts, and a spec is only the same
//! deployment as another if every field and the deploy function agree.

use mts_core::controller::{DeployError, Deployment};
use mts_core::spec::DeploymentSpec;

/// Builds a deployment from a spec: `Controller::deploy` (Sec. 4 runs) or
/// `Controller::deploy_workload` (Sec. 5 runs).
pub type DeployFn = fn(DeploymentSpec) -> Result<Deployment, DeployError>;

/// Statically verifies isolation and complete mediation for the deployment
/// `deploy` builds from `spec`.
///
/// Returns `Err` with a rendered report if the configuration is
/// compartmentalized and the analysis finds a violation, or if the analysis
/// itself cannot run (domain overflow).
pub fn precheck(spec: DeploymentSpec, deploy: DeployFn) -> Result<(), String> {
    // An undeployable spec is not a verification failure: the simulation
    // path reports the same deploy error and skips the configuration.
    let Ok(d) = deploy(spec) else {
        return Ok(());
    };
    let label = spec.label();
    let report = mts_isocheck::verify(&d)
        .map_err(|e| format!("{label}: static verification could not run: {e}"))?;
    if !report.informational && !report.is_clean() {
        return Err(format!("static verification failed for {label}:\n{report}"));
    }
    Ok(())
}

/// [`precheck`], panicking on failure: the harness must not start a
/// simulation on a configuration that fails static verification.
pub fn precheck_or_panic(spec: DeploymentSpec, deploy: DeployFn) {
    if let Err(e) = precheck(spec, deploy) {
        panic!("{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::Fig5Panel;
    use mts_core::controller::Controller;
    use mts_core::spec::{Scenario, SecurityLevel};
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn level1(scenario: Scenario) -> DeploymentSpec {
        DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            scenario,
        )
    }

    /// What `fig5`, `pktsize` and `fig6` simulate, through both deploy
    /// paths (they use one each).
    #[test]
    fn every_figure_deployment_passes_through_both_deploy_paths() {
        for row in [Fig5Panel::Shared, Fig5Panel::Isolated, Fig5Panel::Dpdk] {
            for scenario in Scenario::ALL {
                for spec in row.matrix(scenario) {
                    precheck(spec, Controller::deploy).unwrap();
                    precheck(spec, Controller::deploy_workload).unwrap();
                }
            }
        }
    }

    /// Two specs with the same label are different deployments: a verdict
    /// on one says nothing about the other.
    #[test]
    fn a_passing_spec_does_not_vouch_for_another_with_its_label() {
        let small = DeploymentSpec {
            tenants: 4,
            ..level1(Scenario::P2p)
        };
        let large = DeploymentSpec {
            tenants: 16,
            ..level1(Scenario::P2v)
        };
        assert_eq!(small.label(), large.label());
        precheck(small, Controller::deploy).unwrap();
        let err = precheck(large, Controller::deploy).unwrap_err();
        assert!(err.contains("could not run"), "{err}");
    }

    #[test]
    fn baseline_is_not_blocked() {
        let spec =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        precheck(spec, Controller::deploy).unwrap();
    }
}
