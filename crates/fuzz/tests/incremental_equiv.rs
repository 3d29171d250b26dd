//! Differential equivalence of the incremental checker against the
//! from-scratch verifier, under delta streams.
//!
//! The streams are the control-plane fuzz surface's ([`mts_fuzz::deltas`]):
//! every operation builds deltas that one helper applies to the real
//! deployment's devices (the ground truth) and to an [`IncrementalChecker`],
//! and the incremental verdict must render byte-for-byte identical to
//! `verify()` run from scratch after every delta (at the boundary of an
//! operation that is one logical reconfiguration of several deltas) —
//! including operations that deliberately break isolation, where both
//! verifiers must report the same violations with the same witnesses.

use mts_core::controller::Controller;
use mts_core::delta::ConfigDelta;
use mts_core::{DeploymentSpec, ResourceMode, Scenario, SecurityLevel};
use mts_fuzz::deltas::{check_equiv, fresh_value_op, step_checked};
use mts_isocheck::{IncrementalChecker, Misconfig};
use mts_sim::DetRng;
use mts_vswitch::DatapathKind;

/// Twelve fixed-seed streams of twelve operations each, one shipped
/// configuration after another.
#[test]
fn incremental_matches_full_after_every_delta() {
    let cases = 12;
    assert!(cases >= mts_isocheck::shipped_matrix().len() as u64);
    let stats = mts_fuzz::deltas::fuzz(&mut DetRng::new(0x1e_9017), cases);
    assert_eq!(stats.cases, cases);
    assert!(stats.crashers.is_empty(), "{:?}", stats.crashers);
}

/// Each kind of fresh value, on every shipped configuration.
#[test]
fn fresh_values_rebuild_the_atoms_and_stay_identical() {
    for spec in mts_isocheck::shipped_matrix() {
        let mut d = Controller::deploy(spec).expect("deploy");
        let mut checker = IncrementalChecker::of_deployment(&d).expect("checker");
        for kind in 0..3 {
            if let Err(e) = fresh_value_op(&mut d, &mut checker, 0, kind, 0x42, 50) {
                panic!("{}: {e}", spec.label());
            }
        }
    }
}

/// Negative control: a VLAN-reuse misconfiguration injected *as a delta*
/// mid-run must surface as a cross-tenant-reach violation in the
/// incremental verdict, stay byte-identical to the full verifier while
/// the violation is present, and survive further churn.
#[test]
fn vlan_reuse_via_delta_mid_run_is_detected_and_identical() {
    // The same configuration `repro verify` seeds misconfigurations into.
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    );
    let mut d = Controller::deploy(spec).expect("deploy");
    let mut checker = IncrementalChecker::of_deployment(&d).expect("checker");
    check_equiv(&mut checker, &d, "construction").unwrap();
    let mut step = |d: &mut _, delta| step_checked(d, &mut checker, &delta).unwrap();

    // Benign churn prefix.
    let pf = d.plan.tenants[0].vf[0].0.pf.0;
    step(&mut d, ConfigDelta::VebFlushed { pf });
    step(&mut d, ConfigDelta::VswitchDown { vswitch: 0 });
    step(&mut d, ConfigDelta::VswitchUp { vswitch: 0 });

    // The misconfiguration, as the delta that seeds it, then churn after
    // the violation: a full wipe and reinstall of vswitch 0.
    let reuse = Misconfig::VlanReuse.delta(&d).expect("vlan reuse");
    step(&mut d, reuse);
    let reuse_verdict = checker.report().expect("report");
    let mut step = |d: &mut _, delta| step_checked(d, &mut checker, &delta).unwrap();
    for delta in ConfigDelta::rebuild(0, d.vswitches[0].sw.dump_rules()) {
        step(&mut d, delta);
    }
    let churned_verdict = checker.report().expect("report");
    for (verdict, when) in [
        (reuse_verdict, "once injected"),
        (churned_verdict, "after churn"),
    ] {
        assert!(
            Misconfig::VlanReuse.detected_in(&verdict),
            "incremental verdict missed the injected VLAN reuse {when}:\n{verdict}"
        );
    }
}
