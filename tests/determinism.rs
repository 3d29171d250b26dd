//! Reproducibility: identical seeds give bit-identical measurements, and
//! results are stable across nearby seeds.

use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::core::testbed::{RunOpts, Testbed};
use mts::core::workloads::{run_workload, Workload, WorkloadOpts};
use mts::host::ResourceMode;
use mts::sim::Dur;
use mts::vswitch::DatapathKind;

fn spec() -> DeploymentSpec {
    DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    )
}

fn opts(seed: u64) -> RunOpts {
    RunOpts {
        rate_pps: 500_000.0,
        wire_len: 64,
        warmup: Dur::millis(4),
        measure: Dur::millis(6),
        seed,
    }
}

#[test]
fn same_seed_is_bit_identical() {
    let a = Testbed::new(spec()).run(opts(42)).expect("runs");
    let b = Testbed::new(spec()).run(opts(42)).expect("runs");
    assert_eq!(a.sent, b.sent);
    assert_eq!(a.received, b.received);
    assert_eq!(a.per_flow, b.per_flow);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.drops, b.drops);
}

#[test]
fn different_seeds_agree_within_tolerance() {
    let a = Testbed::new(spec()).run(opts(1)).expect("runs");
    let b = Testbed::new(spec()).run(opts(2)).expect("runs");
    let (x, y) = (a.throughput_pps, b.throughput_pps);
    let rel = (x - y).abs() / x.max(y);
    assert!(rel < 0.15, "seeds diverge too much: {x} vs {y}");
}

#[test]
fn workloads_are_deterministic_too() {
    let w_opts = WorkloadOpts {
        duration: Dur::millis(60),
        warmup: Dur::millis(60),
        ab_concurrency: 10,
        memslap_connections: 4,
        seed: 7,
        ..WorkloadOpts::default()
    };
    let a = run_workload(spec(), Workload::Memcached, w_opts).expect("runs");
    let b = run_workload(spec(), Workload::Memcached, w_opts).expect("runs");
    assert_eq!(a.throughput, b.throughput);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.per_tenant, b.per_tenant);
}
