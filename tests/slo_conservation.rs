//! The cycle-conservation identity, end to end: at every security level,
//! what the biller attributes plus what it declares unattributable equals
//! the core scheduler's measured vswitch cycle total — *exactly*, in
//! integer nanoseconds, with no tolerance. The same identity must survive
//! a vswitch crash with supervisor recovery, because billing that drifts
//! under faults is billing that can be gamed by inducing faults. Each
//! tenant's VM meter is held to the core ledger the same way.

use mts::core::controller::Controller;
use mts::core::meters::Layer;
use mts::core::runtime::{start_udp_generator, Charge, RuntimeCfg, Sim, World};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::core::{bill, billing_accuracy};
use mts::faults::{run_traced, FaultCase, FaultOpts};
use mts::host::ResourceMode;
use mts::sim::{Dur, Time};
use mts::vswitch::DatapathKind;

fn every_level() -> Vec<DeploymentSpec> {
    vec![
        DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v),
        DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        ),
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        ),
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        ),
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        ),
    ]
}

fn run_udp(spec: DeploymentSpec, seed: u64) -> World {
    let d = Controller::deploy(spec).expect("deployable");
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), seed);
    let mut e = Sim::new();
    w.sink.window = (Time::ZERO, Time::MAX);
    let flows = w.tenant_flows();
    start_udp_generator(&mut e, flows, 150_000.0, 128, Time::from_nanos(5_000_000));
    e.run_until(&mut w, Time::from_nanos(12_000_000));
    w
}

/// The conservation identity, asserted exactly on a settled world.
fn assert_conserved(w: &World, what: &str) {
    let report = bill(w);
    let measured = w.measured_vswitch_cpu();
    assert_eq!(
        report.total_cpu() + report.unattributed_cpu,
        measured,
        "{what}: billed + unattributed != measured"
    );
    assert!(report.conserved, "{what}: report must self-mark conserved");
    assert_eq!(
        w.meters.layer_total(Layer::Vswitch),
        measured,
        "{what}: vswitch cycle meter disagrees with the core ledger"
    );
    assert_eq!(
        w.meters.layer_total(Layer::NicVeb),
        w.nic.veb_busy_total(),
        "{what}: NIC VEB meter disagrees with the NIC's own ledger"
    );
    // Tenant-VM work is metered by the same grant the core ledger records,
    // under the user id of the core serving each rx side.
    for t in 0..w.tenants.len() {
        let mut ledger = Dur::ZERO;
        for side in 0..2 {
            let user = Charge::TenantVm { t, side }.user();
            for core in w.cores.iter() {
                ledger += core.busy_for(user);
            }
        }
        assert_eq!(
            w.meters.layer_truth(Layer::TenantVm, t),
            ledger,
            "{what}: tenant {t}'s VM meter disagrees with the core ledger"
        );
    }
    assert!(
        w.meters.layer_total(Layer::TenantVm) > Dur::ZERO,
        "{what}: vacuous — no tenant VM did any work"
    );
    assert!(
        w.meters.internally_consistent(),
        "{what}: meters lost cycles internally"
    );
    assert!(
        measured > Dur::ZERO,
        "{what}: vacuous — the workload never exercised a vswitch"
    );
}

#[test]
fn conservation_holds_at_every_security_level() {
    for spec in every_level() {
        let w = run_udp(spec, 5);
        assert_conserved(&w, &spec.label());
    }
}

#[test]
fn conservation_is_exact_not_approximate() {
    // Proportional apportionment (shared Level-1) is where rounding would
    // leak: four tenants share one vswitch, so naive floating-point splits
    // lose nanoseconds. The integer largest-remainder split must not.
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    );
    let w = run_udp(spec, 6);
    let report = bill(&w);
    assert_eq!(report.unattributed_cpu, Dur::ZERO);
    let billed_ns: u64 = report
        .tenants
        .iter()
        .map(|t| t.vswitch_cpu.as_nanos())
        .sum();
    assert_eq!(billed_ns, w.measured_vswitch_cpu().as_nanos());
}

#[test]
fn attribution_exactness_improves_with_level() {
    let base = billing_accuracy(&run_udp(every_level()[0], 5));
    let l2 = billing_accuracy(&run_udp(every_level()[4], 5));
    assert_eq!(base.attributed_fraction, 0.0);
    assert!((l2.attributed_fraction - 1.0).abs() < 1e-12);
    assert!(l2.tenants.iter().all(|t| t.exact));
    assert!(l2.max_rel_error() < 1e-12);
}

#[test]
fn conservation_survives_vswitch_crash_and_recovery() {
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let opts = FaultOpts {
        rate_pps: 150_000.0,
        wire_len: 128,
        run_for: Dur::millis(15),
        fault_at: Time::from_nanos(5_000_000),
        drain: Dur::millis(12),
        seed: 5,
    };
    let w = run_traced(spec, FaultCase::Crash, opts).expect("deployable");
    // The compartment-0 vswitch died mid-run and the supervisor restarted
    // it; every cycle it burned before, during detection, and after the
    // restart must still be conserved.
    assert_conserved(&w, "L2 crash+recover");
}

#[test]
fn conservation_holds_under_fault_at_every_level() {
    for spec in every_level() {
        let opts = FaultOpts {
            rate_pps: 100_000.0,
            wire_len: 64,
            run_for: Dur::millis(12),
            fault_at: Time::from_nanos(4_000_000),
            drain: Dur::millis(10),
            seed: 7,
        };
        let w = run_traced(spec, FaultCase::Crash, opts).expect("deployable");
        assert_conserved(&w, &format!("{} under crash", spec.label()));
    }
}
