//! Exporter oracle: a short traced world must render all four telemetry
//! exports byte for byte as committed under `results/golden/telemetry/`.
//!
//! `crates/telemetry/tests/golden.rs` pins the formats on hand-built
//! input; this pins what the runtime's instrumentation sites actually
//! record — hop order, track placement, argument strings, label sets — so
//! a change to the storage under the exporters shows up as a diff here.
//!
//! One test only: frame ids come from a process-wide counter and appear in
//! the trace, so a second frame-producing test in this binary would shift
//! them.
//!
//! To re-bless after an *intentional* output change:
//!
//! ```text
//! MTS_BLESS=1 cargo test --test telemetry_golden
//! ```

use mts::core::controller::Controller;
use mts::core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::host::ResourceMode;
use mts::sim::Time;
use mts::telemetry::{DropCause, Telemetry};
use mts::vswitch::DatapathKind;
use std::fs;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/golden/telemetry")
}

fn check_or_bless(name: &str, fresh: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("MTS_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create results/golden/telemetry");
        fs::write(&path, fresh).expect("write golden");
        return;
    }
    let committed = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}; run with MTS_BLESS=1", path.display()));
    let first_diff = committed
        .lines()
        .zip(fresh.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || "a length change".to_string(),
            |i| format!("line {}", i + 1),
        );
    assert!(
        committed == fresh,
        "{name}: export diverged from the committed golden at {first_diff} \
         ({} vs {} bytes).\nIf the change is intentional, re-bless with\n\
         MTS_BLESS=1 cargo test --test telemetry_golden",
        committed.len(),
        fresh.len()
    );
}

#[test]
fn traced_world_exports_replay_byte_identical() {
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::V2v,
    );
    let d = Controller::deploy(spec).expect("deploys");
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 7);
    w.sink.window = (Time::ZERO, Time::MAX);
    w.telemetry = Telemetry::enabled();
    let flows = w.tenant_flows();
    let mut e = Sim::new();
    // Hot-unplug tenant 0's VF half-way, so the later frames addressed to
    // it end as `frame.drop` hops and `mts_drops_total{cause=…}` series.
    e.schedule_at(Time::from_nanos(500_000), |w: &mut World, _e| {
        let (vf, _) = w.plan.tenants[0].vf[0];
        w.vf_owner.remove(&(vf.pf.0, vf.vf.0));
    });
    // 50 kpps for 1 ms: 50 frames.
    start_udp_generator(&mut e, flows, 50_000.0, 64, Time::from_nanos(1_000_000));
    e.run_until(&mut w, Time::from_nanos(3_000_000));

    assert_eq!(w.sink.sent, 50);
    assert!(w.sink.received > 0, "nothing delivered");
    assert!(
        w.drops.get(&DropCause::VfUnclaimed).copied().unwrap_or(0) > 0,
        "the unplug dropped nothing: {:?}",
        w.drops
    );
    let rec = w.telemetry.recorder().expect("enabled");
    assert_eq!(rec.journeys.len(), 50);

    check_or_bless("trace.json", &rec.trace.to_chrome_trace());
    check_or_bless("trace.jsonl", &rec.trace.to_jsonl());
    check_or_bless("metrics.prom", &rec.metrics.render_prometheus());
    check_or_bless("metrics.jsonl", &rec.metrics.render_jsonl());
}
