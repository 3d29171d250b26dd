//! The PR's acceptance experiments, as tests: containment across
//! security levels, the drop-accounting identity under every fault
//! scenario, recovery with capped backoff, reconciliation idempotency on
//! the live world, and a clean post-recovery isolation check.

use mts_core::reconcile;
use mts_core::runtime::{RuntimeCfg, Sim, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_core::supervisor::RecoveryKind;
use mts_core::Controller;
use mts_faults::experiment::panel_specs;
use mts_faults::{inject, run_cell, run_traced, FaultCase, FaultOpts};
use mts_host::ResourceMode;
use mts_sim::{Dur, Time};
use mts_vswitch::DatapathKind;

fn opts() -> FaultOpts {
    FaultOpts {
        rate_pps: 100_000.0,
        run_for: Dur::millis(20),
        fault_at: Time::from_nanos(6_000_000),
        drain: Dur::millis(15),
        ..FaultOpts::default()
    }
}

fn l2() -> DeploymentSpec {
    DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    )
}

fn l1() -> DeploymentSpec {
    DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    )
}

fn baseline() -> DeploymentSpec {
    DeploymentSpec::baseline(
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        2,
        Scenario::P2v,
    )
}

/// The headline containment claim: killing compartment 0's vswitch VM
/// under Level-2 loses zero frames of the other compartment's tenants,
/// while Baseline and Level-1 (one shared vswitch VM) lose everyone's.
#[test]
fn compartment_kill_blast_radius_shrinks_with_level() {
    let l2_cell = run_cell(l2(), FaultCase::Crash, opts()).expect("l2");
    assert_eq!(
        l2_cell.affected,
        vec![0, 2],
        "L2 blast radius must be exactly compartment 0: {l2_cell}"
    );
    assert_eq!(l2_cell.offered[1], l2_cell.delivered[1]);
    assert_eq!(l2_cell.offered[3], l2_cell.delivered[3]);

    for spec in [baseline(), l1()] {
        let cell = run_cell(spec, FaultCase::Crash, opts()).expect("runs");
        assert_eq!(
            cell.affected,
            vec![0, 1, 2, 3],
            "{}: one vswitch VM serves everyone, so everyone is hit: {cell}",
            cell.config
        );
    }
}

/// `offered = delivered + Σ(typed drops)` holds under *every* fault
/// scenario and every configuration (`>=` for the flooding VEB flush,
/// where unknown-unicast copies multiply the frame count).
#[test]
fn drop_accounting_identity_holds_under_every_fault() {
    for case in FaultCase::ALL {
        for spec in [baseline(), l1(), l2()] {
            let cell = run_cell(spec, case, opts()).expect("runs");
            assert!(
                cell.drop_sum_ok,
                "accounting identity violated for {} under {}: {cell}",
                cell.config, cell.fault
            );
        }
    }
}

/// The supervisor detects the crash, retries with capped exponential
/// backoff, gives up into per-tenant degraded mode only after the retry
/// budget, and never panics the world.
#[test]
fn crashloop_recovers_with_bounded_retries() {
    let cell = run_cell(l2(), FaultCase::CrashLoop, opts()).expect("runs");
    // Two forced restart failures, then success: 3 attempts, recovered.
    assert_eq!(cell.attempts, 3, "{cell}");
    assert!(cell.recover.is_some(), "{cell}");
    assert!(cell.degraded.is_empty(), "recovered, not degraded: {cell}");
    // Detection precedes recovery; both happened after the fault.
    let (d, r) = (
        cell.detect.expect("detected"),
        cell.recover.expect("recovered"),
    );
    assert!(d <= r, "{cell}");
    // Backoff is capped: even two failures resolve well within the run.
    assert!(r < Dur::millis(25), "recovery took {r:?}: {cell}");
}

/// Recovery while the controller channel is down must wait for the
/// channel — and still complete once it returns.
#[test]
fn recovery_waits_out_controller_loss() {
    let o = opts();
    let with_loss = run_cell(l2(), FaultCase::ControllerLossDuringCrash, o).expect("runs");
    let without = run_cell(l2(), FaultCase::Crash, o).expect("runs");
    let (slow, fast) = (
        with_loss.recover.expect("recovers after channel returns"),
        without.recover.expect("recovers"),
    );
    // The channel is down 10ms; recovery cannot beat that.
    assert!(
        slow >= Dur::millis(10),
        "recovered during channel loss: {slow:?}"
    );
    assert!(slow > fast, "controller loss must delay recovery");
    assert!(with_loss.drop_sum_ok);
}

/// After any recovery, the live world passes the static isolation
/// verifier with zero violations, and a second reconciliation pass is a
/// no-op (idempotency on the real post-fault state, not a toy world).
#[test]
fn recovered_world_is_verified_and_reconciliation_is_idempotent() {
    for case in [
        FaultCase::Crash,
        FaultCase::WipeFlows,
        FaultCase::LoseRules,
        FaultCase::FlushVeb,
    ] {
        let cell = run_cell(l2(), case, opts()).expect("runs");
        assert_eq!(
            cell.isocheck_violations,
            Some(0),
            "post-recovery isolation check failed under {}: {cell}",
            cell.fault
        );
    }

    // Idempotency on a live recovered world: rebuild the same scenario
    // end-state and reconcile twice more by hand.
    use mts_core::runtime::start_udp_generator;
    use mts_core::supervisor::{start_supervisor, SupervisorCfg};

    let spec = l2();
    let d = Controller::deploy(spec).expect("deploys");
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 1);
    let mut e = Sim::new();
    let end = Time::ZERO + Dur::millis(20);
    start_supervisor(
        &mut w,
        &mut e,
        SupervisorCfg {
            reconcile_every: Some(Dur::millis(5)),
            until: end,
            ..SupervisorCfg::default()
        },
    );
    let flows = w.tenant_flows();
    start_udp_generator(&mut e, flows, 50_000.0, 64, end);
    inject::schedule(&FaultCase::Crash.plan(Time::from_nanos(5_000_000)), &mut e);
    e.run_until(&mut w, end);
    e.clear();

    let sup = w.supervisor.as_ref().expect("supervisor present");
    assert!(
        sup.log.iter().any(|ev| ev.kind == RecoveryKind::Recovered),
        "scenario must have recovered"
    );
    let again = reconcile(&mut w);
    assert_eq!(again.churn(), 0, "second pass must be a no-op: {again}");
    let third = reconcile(&mut w);
    assert_eq!(third.churn(), 0, "third pass must be a no-op: {third}");
}

/// Replays `w`'s drained delta log through `ConfigDelta::apply` onto a
/// fresh deploy of its spec; the devices must read back equal to `w`'s
/// (statics, filters, VFs and rules in order).
fn assert_log_replays(w: &mut World, what: &str) {
    let mut d = Controller::deploy(w.spec).expect("deploys");
    for (seq, delta) in w.deltas.drain() {
        let replayed = delta.apply(&mut d.nic, |i| d.vswitches.get_mut(i).map(|v| &mut v.sw));
        assert!(
            replayed.is_ok(),
            "{what}: delta {seq} ({delta}): {replayed:?}"
        );
    }
    let faulted = reconcile::observed(&w.nic, w.vswitches.iter().map(|vs| &vs.inst.sw));
    let replayed = reconcile::observed(&d.nic, d.vswitches.iter().map(|v| &v.sw));
    assert!(
        replayed == faulted,
        "{what}: the replayed log diverges from the devices"
    );
}

/// The delta log is the operations the devices ran, for every blast-radius
/// cell: right after the fault is injected, before anything repairs it,
/// and after the whole run with its recovery.
#[test]
fn the_delta_log_replays_onto_a_fresh_deploy_as_the_faulted_devices() {
    for case in FaultCase::ALL {
        for spec in panel_specs() {
            let what = format!("{} under {}", spec.label(), case.label());
            let d = Controller::deploy(spec).expect("deploys");
            let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 1);
            let mut e = Sim::new();
            for ev in case.plan(Time::ZERO).events {
                inject(&mut w, &mut e, ev.kind);
            }
            assert_log_replays(&mut w, &format!("{what}, injected"));
            let mut w = run_traced(spec, case, opts()).expect("runs");
            assert_log_replays(&mut w, &format!("{what}, recovered"));
        }
    }
}

/// The link flap hits the shared physical layer: no security level can
/// contain it, and the panel must report that honestly (all tenants
/// affected even under L2).
#[test]
fn link_flap_is_uncontainable_by_design() {
    let cell = run_cell(l2(), FaultCase::LinkFlap, opts()).expect("runs");
    assert_eq!(cell.affected, vec![0, 1, 2, 3], "{cell}");
    assert!(cell.drop_sum_ok, "{cell}");
}

/// A vhost stall delays frames but loses none: zero-loss row.
#[test]
fn vhost_stall_is_lossless() {
    let cell = run_cell(l2(), FaultCase::VhostStall, opts()).expect("runs");
    assert!(
        cell.affected.is_empty(),
        "stall must delay, not drop: {cell}"
    );
    assert!(cell.drop_sum_ok, "{cell}");
}
