//! Failure injection: the datapath degrades gracefully, never panics, and
//! failures stay contained to the tenant they hit.

use mts::core::controller::Controller;
use mts::core::reconcile;
use mts::core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::faults::{inject, FaultKind};
use mts::host::ResourceMode;
use mts::net::MacAddr;
use mts::sim::Time;
use mts::telemetry::DropCause;
use mts::vswitch::DatapathKind;
use std::net::Ipv4Addr;

fn build(level: SecurityLevel) -> (World, Sim, Vec<(MacAddr, Ipv4Addr)>) {
    let spec = DeploymentSpec::mts(
        level,
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let d = Controller::deploy(spec).expect("deploys");
    let cfg = RuntimeCfg::for_spec(&spec);
    let mut w = World::new(d, cfg, 31);
    w.sink.window = (Time::ZERO, Time::MAX);
    let flows = w.tenant_flows();
    (w, Sim::new(), flows)
}

#[test]
fn hot_unplugging_a_tenant_vf_only_kills_that_tenant() {
    let (mut w, mut e, flows) = build(SecurityLevel::Level2 { compartments: 2 });
    start_udp_generator(&mut e, flows, 40_000.0, 64, Time::from_nanos(20_000_000));
    // At t = 8 ms, tenant 0's VF disappears (VM crash / hot-unplug).
    e.schedule_at(Time::from_nanos(8_000_000), |w: &mut World, _e| {
        let (vf, _) = w.plan.tenants[0].vf[0];
        w.vf_owner.remove(&(vf.pf.0, vf.vf.0));
    });
    e.run_until(&mut w, Time::from_nanos(40_000_000));

    // Tenant 0 received roughly the first 8 ms worth; the others the full
    // 20 ms worth (10 kpps each).
    let t0 = w.sink.per_flow[0];
    let t1 = w.sink.per_flow[1];
    assert!(t0 < 110, "tenant 0 should stop around 80 frames: {t0}");
    assert!(t1 > 180, "tenant 1 must be unaffected: {t1}");
    assert!(w.sink.per_flow[2] > 180 && w.sink.per_flow[3] > 180);
    // The loss is visible and attributed.
    assert!(w.drops.get(&DropCause::VfUnclaimed).copied().unwrap_or(0) > 0);
}

#[test]
fn wiping_one_compartments_rules_does_not_touch_the_other() {
    let (mut w, mut e, flows) = build(SecurityLevel::Level2 { compartments: 2 });
    start_udp_generator(&mut e, flows, 40_000.0, 64, Time::from_nanos(20_000_000));
    // At t = 5 ms, compartment 0's controller connection "dies" and its
    // tables are wiped (fail-closed: no rules, no forwarding).
    e.schedule_at(Time::from_nanos(5_000_000), |w: &mut World, e| {
        inject(w, e, FaultKind::WipeFlows { vswitch: 0 });
    });
    e.run_until(&mut w, Time::from_nanos(40_000_000));

    // Compartment 0 serves tenants 0 and 2; compartment 1 serves 1 and 3.
    assert!(
        w.sink.per_flow[0] < 70,
        "t0 fails closed: {:?}",
        w.sink.per_flow
    );
    assert!(
        w.sink.per_flow[2] < 70,
        "t2 fails closed: {:?}",
        w.sink.per_flow
    );
    assert!(
        w.sink.per_flow[1] > 180,
        "t1 unaffected: {:?}",
        w.sink.per_flow
    );
    assert!(
        w.sink.per_flow[3] > 180,
        "t3 unaffected: {:?}",
        w.sink.per_flow
    );
}

#[test]
fn rule_reinstallation_recovers_forwarding() {
    let (mut w, mut e, flows) = build(SecurityLevel::Level1);
    start_udp_generator(&mut e, flows, 40_000.0, 64, Time::from_nanos(30_000_000));
    // Wipe at 5 ms; the controller reconciles at 15 ms.
    e.schedule_at(Time::from_nanos(5_000_000), |w: &mut World, e| {
        inject(w, e, FaultKind::WipeFlows { vswitch: 0 });
    });
    e.schedule_at(Time::from_nanos(15_000_000), |w: &mut World, _e| {
        let r = reconcile(w);
        assert_eq!(r.vswitches_rebuilt, 1, "{r}");
        assert!(!w.vswitches[0].rules_dirty);
    });
    e.run_until(&mut w, Time::from_nanos(50_000_000));

    // Roughly: 5 ms up + 10 ms down + 15 ms up = 2/3 of 30 ms delivered.
    let total: u64 = w.sink.per_flow.iter().sum();
    assert!(
        (550..=950).contains(&total),
        "recovery pattern off: {total} ({:?})",
        w.sink.per_flow
    );
    // And every tenant resumed after reconciliation.
    assert!(
        w.sink.per_flow.iter().all(|&c| c > 100),
        "{:?}",
        w.sink.per_flow
    );
}

#[test]
fn zero_rate_and_empty_flow_lists_are_noops() {
    let (mut w, mut e, flows) = build(SecurityLevel::Level1);
    start_udp_generator(
        &mut e,
        Vec::new(),
        40_000.0,
        64,
        Time::from_nanos(1_000_000),
    );
    start_udp_generator(&mut e, flows, 0.0, 64, Time::from_nanos(1_000_000));
    e.run_until(&mut w, Time::from_nanos(5_000_000));
    assert_eq!(w.sink.sent, 0);
    assert_eq!(w.sink.received, 0);
}
