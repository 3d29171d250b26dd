//! Telemetry integration: enabling the recorder never perturbs the
//! simulation, typed drop causes reconcile across all three views, and the
//! complete-mediation audit holds on every SR-IOV deployment level.

use mts::core::controller::Controller;
use mts::core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::faults::{run_traced, FaultCase, FaultOpts};
use mts::host::ResourceMode;
use mts::net::MacAddr;
use mts::sim::Time;
use mts::telemetry::{DropCause, Label, MediationAuditor, Telemetry};
use mts::vswitch::DatapathKind;
use std::net::Ipv4Addr;

fn build(
    level: SecurityLevel,
    scenario: Scenario,
    telemetry: bool,
) -> (World, Sim, Vec<(MacAddr, Ipv4Addr)>) {
    let spec = DeploymentSpec::mts(
        level,
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        scenario,
    );
    let d = Controller::deploy(spec).expect("deploys");
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 7);
    w.sink.window = (Time::ZERO, Time::MAX);
    if telemetry {
        w.telemetry = Telemetry::enabled();
    }
    let flows = w.tenant_flows();
    (w, Sim::new(), flows)
}

fn run(w: &mut World, e: &mut Sim, flows: Vec<(MacAddr, Ipv4Addr)>) {
    start_udp_generator(e, flows, 80_000.0, 64, Time::from_nanos(5_000_000));
    e.run_until(w, Time::from_nanos(15_000_000));
}

/// The recorder is an observer: running with it enabled must leave every
/// simulation-visible result bit-identical to a run with it disabled.
#[test]
fn telemetry_on_is_bit_identical_to_off() {
    let level = SecurityLevel::Level2 { compartments: 2 };
    let (mut off, mut e_off, flows_off) = build(level, Scenario::V2v, false);
    let (mut on, mut e_on, flows_on) = build(level, Scenario::V2v, true);
    run(&mut off, &mut e_off, flows_off);
    run(&mut on, &mut e_on, flows_on);

    assert_eq!(off.sink.sent, on.sink.sent);
    assert_eq!(off.sink.received, on.sink.received);
    assert_eq!(off.sink.per_flow, on.sink.per_flow);
    assert_eq!(off.drops, on.drops);
    assert_eq!(off.sink.latency.count(), on.sink.latency.count());
    assert_eq!(
        off.sink.latency.mean().to_bits(),
        on.sink.latency.mean().to_bits()
    );
    assert_eq!(
        off.sink.latency.percentile(99.0),
        on.sink.latency.percentile(99.0)
    );
    // And the enabled run actually recorded something.
    let rec = on.telemetry.recorder().expect("enabled");
    assert!(!rec.journeys.is_empty());
    assert!(!rec.trace.is_empty());
    assert!(!rec.metrics.is_empty());
}

/// Drops reconcile across all three views: `World::total_drops()`, the
/// per-cause `World::drops` map, and the `mts_drops_total` counter family.
#[test]
fn drop_totals_match_per_cause_counters() {
    let level = SecurityLevel::Level2 { compartments: 2 };
    let (mut w, mut e, flows) = build(level, Scenario::P2v, true);
    // Hot-unplug tenant 0's VF mid-run so VfUnclaimed drops accumulate.
    e.schedule_at(Time::from_nanos(2_000_000), |w: &mut World, _e| {
        let (vf, _) = w.plan.tenants[0].vf[0];
        w.vf_owner.remove(&(vf.pf.0, vf.vf.0));
    });
    run(&mut w, &mut e, flows);

    assert!(w.drops.get(&DropCause::VfUnclaimed).copied().unwrap_or(0) > 0);
    let per_cause_sum: u64 = w.drops.values().sum();
    assert_eq!(w.total_drops(), per_cause_sum);

    let rec = w.telemetry.recorder().expect("enabled");
    assert_eq!(rec.metrics.counter_total("mts_drops_total"), per_cause_sum);
    for (cause, n) in &w.drops {
        assert_eq!(
            rec.metrics
                .counter_value("mts_drops_total", &[("cause", Label::Str(cause.as_str()))]),
            *n,
            "counter for {cause} out of sync"
        );
    }
}

/// OBSERVABILITY.md's drop-cause list is the operator's key to
/// `mts_drops_total{cause=…}`; a cause added to the enum must be added there.
#[test]
fn every_drop_cause_is_documented() {
    let doc = include_str!("../OBSERVABILITY.md");
    for cause in DropCause::ALL {
        assert!(
            doc.contains(&format!("`{cause}`")),
            "OBSERVABILITY.md does not list drop cause `{cause}`"
        );
    }
}

/// OBSERVABILITY.md's metrics table is the operator's key to the
/// Prometheus export; a series the code starts emitting must be added there.
#[test]
fn every_emitted_metric_is_documented() {
    let doc = include_str!("../OBSERVABILITY.md");
    let table = doc
        .split("\n## Metrics\n")
        .nth(1)
        .and_then(|rest| rest.split("\n## ").next())
        .expect("OBSERVABILITY.md has a Metrics section");
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    for case in [FaultCase::Crash, FaultCase::CrashLoop] {
        let w = run_traced(spec, case, FaultOpts::default()).expect("deploys");
        let prom = w
            .telemetry
            .recorder()
            .expect("traced")
            .metrics
            .render_prometheus();
        let names: Vec<&str> = prom
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert!(names.len() > 10, "{case:?} emitted only {names:?}");
        for name in names {
            assert!(
                table.contains(&format!("`{name}`")),
                "OBSERVABILITY.md's metrics table does not list `{name}` ({case:?})"
            );
        }
    }
}

/// Complete mediation holds at every SR-IOV level: each delivered tenant
/// frame crossed the embedded switch and at least one vswitch.
#[test]
fn mediation_audit_passes_on_all_sriov_levels() {
    for (level, scenario) in [
        (SecurityLevel::Level1, Scenario::V2v),
        (SecurityLevel::Level2 { compartments: 2 }, Scenario::V2v),
        // Four compartments leave one tenant each, so pair-wise v2v does not
        // apply; p2v still crosses the VEB and every per-compartment vswitch.
        (SecurityLevel::Level2 { compartments: 4 }, Scenario::P2v),
    ] {
        let (mut w, mut e, flows) = build(level, scenario, true);
        run(&mut w, &mut e, flows);
        assert!(w.sink.received > 0, "{level:?} delivered nothing");
        let rec = w.telemetry.recorder().expect("enabled");
        let report = MediationAuditor::sriov().audit(rec);
        assert!(report.checked > 0, "{level:?} audited no segments");
        assert!(report.ok(), "{level:?} violations: {:?}", report.violations);
        assert!(report.complete(), "{level:?} audited a partial log");
    }
}
