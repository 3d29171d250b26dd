//! Overlay networks, per-tenant billing and the noisy-neighbor experiment
//! (the paper's Sec. 3.2 system support + Sec. 6 discussion, as code).
//!
//! ```text
//! cargo run --release --example overlay_and_billing
//! ```

use mts::core::billing;
use mts::core::controller::Controller;
use mts::core::overlay::{install_overlay_rules, start_overlay_generator, OverlayConfig};
use mts::core::perfiso::{self, NoisyOpts};
use mts::core::runtime::{RuntimeCfg, Sim, World};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::host::ResourceMode;
use mts::net::{MacAddr, Vni};
use mts::sim::Time;
use mts::vswitch::DatapathKind;
use std::net::Ipv4Addr;

fn main() {
    // --- 1. VXLAN overlay: tenants reached through per-tenant tunnels. ---
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let mut d = Controller::build(spec, 2).expect("deployable");
    let overlay = OverlayConfig::default();
    install_overlay_rules(&mut d, overlay).expect("overlay rules install");
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 7);
    w.sink.window = (Time::ZERO, Time::MAX);
    let mut e = Sim::new();
    let flows: Vec<(MacAddr, Ipv4Addr, Vni)> = w
        .plan
        .tenants
        .iter()
        .map(|t| (w.route_mac(t.index), t.ip, overlay.vni(t.index)))
        .collect();
    println!(
        "=== VXLAN overlay (per-tenant VNIs {}..) ===",
        overlay.vni_base
    );
    start_overlay_generator(
        &mut e,
        flows,
        overlay,
        100_000.0,
        256,
        Time::from_nanos(10_000_000),
    );
    e.run_until(&mut w, Time::from_nanos(40_000_000));
    println!(
        "encap/decap round trip: sent {}  received {}  p50 {:.1} us",
        w.sink.sent,
        w.sink.received,
        w.sink.latency.percentile(50.0) as f64 / 1e3
    );

    // --- 2. Billing: itemized per-tenant resource accounting (Sec. 6). ---
    println!("\n=== Per-tenant billing from the same run ===");
    print!("{}", billing::bill(&w));

    // --- 3. Noisy neighbor: performance isolation under a flooding tenant.
    println!("=== Noisy neighbor (tenant 0 floods, every other tenant measured) ===");
    let opts = NoisyOpts::default();
    let mut cells = Vec::new();
    let level2 = SecurityLevel::Level2 { compartments: 2 };
    for (name, spec) in [
        (
            "Baseline, shared core",
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v),
        ),
        (
            "L2-2, shared core",
            DeploymentSpec::mts(
                level2,
                DatapathKind::Kernel,
                ResourceMode::Shared,
                Scenario::P2v,
            ),
        ),
        (
            "L2-2, isolated cores",
            DeploymentSpec::mts(
                level2,
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        ),
    ] {
        // The spec's own label does not say which resource mode it is.
        let victims = perfiso::noisy_matrix(spec, opts).expect("experiment runs");
        cells.extend(victims.into_iter().map(|c| perfiso::SloCell {
            config: name.to_string(),
            ..c
        }));
    }
    print!("{}", perfiso::render_matrix(&cells));
    println!("\nThe Baseline's victims share the flooded datapath; MTS Level-2");
    println!("isolated gives tenants 1 and 3 their own vswitch VM and core, so the");
    println!("attack barely registers — the paper's performance-isolation case.");
    println!("Tenant 2 shares the flooder's compartment and still pays.");
}
