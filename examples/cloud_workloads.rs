//! Cloud applications on MTS vs the Baseline (the paper's Sec. 5 story).
//!
//! ```text
//! cargo run --release --example cloud_workloads
//! ```
//!
//! Hosts a web server and a key-value store in tenant VMs and benchmarks
//! them from the load generator, comparing the Baseline's co-located
//! vswitch against MTS with four compartments on one shared core — the
//! configuration the paper's conclusion recommends ("biting the bullet for
//! shared resources offers 4x isolation and approximately 1.5-2x
//! application performance").

use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::core::workloads::{run_workload, Workload, WorkloadOpts};
use mts::host::ResourceMode;
use mts::sim::Dur;
use mts::vswitch::DatapathKind;

fn main() {
    let opts = WorkloadOpts {
        duration: Dur::millis(600),
        warmup: Dur::millis(600),
        ab_concurrency: 100,
        memslap_connections: 32,
        seed: 1,
        ..WorkloadOpts::default()
    };

    let baseline =
        DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
    let mts_shared = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 4 },
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    );

    for workload in [Workload::Iperf, Workload::Apache, Workload::Memcached] {
        let base = run_workload(baseline, workload, opts).expect("baseline runs");
        let mts = run_workload(mts_shared, workload, opts).expect("mts runs");
        println!("=== {} ===", workload.label());
        println!(
            "  {:<28} {:>12.2} {}   mean resp {:>8.3} ms",
            base.config,
            base.throughput,
            workload.unit(),
            base.latency.mean / 1e6
        );
        println!(
            "  {:<28} {:>12.2} {}   mean resp {:>8.3} ms",
            mts.config,
            mts.throughput,
            workload.unit(),
            mts.latency.mean / 1e6
        );
        println!(
            "  -> MTS/Baseline throughput: {:.2}x (paper: 1.5-2x, one extra core)\n",
            mts.throughput / base.throughput.max(1e-9)
        );
    }
}
