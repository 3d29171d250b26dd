//! Performance isolation: the noisy-neighbor experiment.
//!
//! The paper motivates MTS partly with *performance* isolation failures of
//! the shared vswitch — Csikor et al.'s cross-tenant denial-of-service
//! ("Policy injection: a cloud dataplane DoS attack", the paper's ref. 15)
//! shows
//! one tenant degrading everyone through the shared datapath. This module
//! quantifies the effect: every victim tenant is probed at low rate while
//! tenant 0 floods, and each victim's latency/loss is compared to its quiet
//! baseline.
//!
//! Expected shape: with the Baseline's single shared datapath the victim's
//! latency explodes and it loses packets; with MTS Level-2 in the isolated
//! mode the victim's vswitch compartment has its own core and the NIC
//! schedules its VFs independently, so the victim barely notices.
//!
//! [`noisy_matrix`] yields one [`SloCell`] per victim with p50/p99/p999,
//! loss, and the victim's meter-attributed vswitch cycles; the `repro slo`
//! panel prints it per security level.

use crate::controller::{Controller, DeployError};
use crate::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use crate::spec::DeploymentSpec;
#[cfg(test)]
use crate::spec::SecurityLevel;
use mts_net::MacAddr;
use mts_sim::{Dur, Summary, Time};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Ratio of noisy over quiet, 0 when the quiet side is empty.
fn amp(quiet: u64, noisy: u64) -> f64 {
    if quiet == 0 {
        0.0
    } else {
        noisy as f64 / quiet as f64
    }
}

/// Options for the experiment.
#[derive(Clone, Copy, Debug)]
pub struct NoisyOpts {
    /// Victim probe rate (packets/second).
    pub victim_pps: f64,
    /// Attacker flood rate (packets/second).
    pub attacker_pps: f64,
    /// Warm-up before measuring.
    pub warmup: Dur,
    /// Measurement window.
    pub measure: Dur,
    /// Seed.
    pub seed: u64,
}

impl Default for NoisyOpts {
    fn default() -> Self {
        NoisyOpts {
            victim_pps: 10_000.0,
            attacker_pps: 14_000_000.0,
            warmup: Dur::millis(12),
            measure: Dur::millis(10),
            seed: 1,
        }
    }
}

/// One victim's row in the noisy-neighbor SLO matrix.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct SloCell {
    /// Configuration label.
    pub config: String,
    /// Victim tenant index (the attacker, tenant 0, has no cell).
    pub tenant: u8,
    /// Victim latency with no attacker (ns).
    pub quiet: Summary,
    /// Victim latency while tenant 0 floods (ns).
    pub noisy: Summary,
    /// Victim loss fraction while tenant 0 floods.
    pub loss: f64,
    /// Attacker throughput achieved during the flood (packets/second).
    pub attacker_pps: f64,
    /// vswitch cycles the meters attributed to this victim during the
    /// noisy phase (ground truth; what an exact biller would charge).
    pub attributed_cycles: Dur,
    /// Attribution regime of the victim's vswitch ("exact",
    /// "proportional" or "unattributed").
    pub attribution: String,
}

impl SloCell {
    /// Median latency amplification factor.
    pub fn amplification(&self) -> f64 {
        amp(self.quiet.p50, self.noisy.p50)
    }

    /// Tail amplification at the 99th percentile.
    pub fn p99_amplification(&self) -> f64 {
        amp(self.quiet.p99, self.noisy.p99)
    }

    /// Tail amplification at the 99.9th percentile.
    pub fn p999_amplification(&self) -> f64 {
        amp(self.quiet.p999, self.noisy.p999)
    }
}

/// Runs the noisy-neighbor matrix: tenant 0 floods, every other tenant is
/// probed at the victim rate, quiet vs noisy, one [`SloCell`] per victim.
///
/// The probes run concurrently, so the matrix also captures victims
/// degrading *each other* (they do not, unless the deployment shares a
/// datapath or a core — which is the point).
pub fn noisy_matrix(spec: DeploymentSpec, opts: NoisyOpts) -> Result<Vec<SloCell>, DeployError> {
    let quiet = run_matrix_phase(spec, opts, false)?;
    let noisy = run_matrix_phase(spec, opts, true)?;
    let cells = quiet
        .cells
        .into_iter()
        .zip(noisy.cells)
        .map(|(q, n)| SloCell {
            config: spec.label(),
            tenant: q.tenant,
            quiet: q.latency,
            noisy: n.latency,
            loss: n.loss,
            attacker_pps: noisy.attacker_pps,
            attributed_cycles: n.attributed_cycles,
            attribution: n.attribution.to_string(),
        })
        .collect();
    Ok(cells)
}

/// Per-victim raw numbers from one matrix phase.
struct PhaseCell {
    tenant: u8,
    latency: Summary,
    loss: f64,
    attributed_cycles: Dur,
    attribution: &'static str,
}

/// All victims' numbers from one matrix phase.
struct PhaseResult {
    cells: Vec<PhaseCell>,
    attacker_pps: f64,
}

/// Runs one matrix phase: all victims probe; the attacker optionally floods.
fn run_matrix_phase(
    spec: DeploymentSpec,
    opts: NoisyOpts,
    with_attacker: bool,
) -> Result<PhaseResult, DeployError> {
    let d = Controller::deploy(spec)?;
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = if with_attacker {
        opts.attacker_pps
    } else {
        opts.victim_pps
    };
    let mut w = World::new(d, cfg, opts.seed);
    let mut e = Sim::new();
    let start = Time::ZERO + opts.warmup;
    let end = start + opts.measure;
    w.sink.window = (start, end);

    for t in 1..spec.tenants {
        let flow: Vec<(MacAddr, Ipv4Addr)> = vec![(w.route_mac(t), w.plan.tenants[t as usize].ip)];
        start_udp_generator(&mut e, flow, opts.victim_pps, 64, end);
    }
    if with_attacker {
        let attacker: Vec<(MacAddr, Ipv4Addr)> = vec![(w.route_mac(0), w.plan.tenants[0].ip)];
        start_udp_generator(&mut e, attacker, opts.attacker_pps, 64, end);
    }
    e.run_until(&mut w, end + Dur::millis(30));
    e.clear();

    let mut cells = Vec::new();
    for t in 1..spec.tenants {
        let idx = t as usize;
        let sent = w.sink.sent_by_flow.get(idx).copied().unwrap_or(0);
        let recv = w.sink.per_flow.get(idx).copied().unwrap_or(0);
        let loss = 1.0 - (recv as f64 / sent.max(1) as f64).min(1.0);
        let vswitch = if spec.level.compartmentalized() {
            spec.compartment_of_tenant(t) as usize
        } else {
            0
        };
        cells.push(PhaseCell {
            tenant: t,
            latency: w.sink.latency_by_flow[idx].summary(),
            loss,
            attributed_cycles: w.meters.tenant_vswitch_truth(idx),
            attribution: w.meters.vswitch_attribution(vswitch).label(),
        });
    }
    let attacker_pps = if with_attacker {
        w.sink.per_flow.first().copied().unwrap_or(0) as f64 / opts.measure.as_secs_f64()
    } else {
        0.0
    };
    Ok(PhaseResult {
        cells,
        attacker_pps,
    })
}

/// Renders the SLO matrix as a human-readable table.
pub fn render_matrix(cells: &[SloCell]) -> String {
    let mut out =
        String::from("== SLO matrix: tenant 0 floods, every other tenant's latency tail ==\n");
    out.push_str(&format!(
        "{:<26} {:>6} {:>10} {:>10} {:>10} {:>8} {:>14} {:>13}\n",
        "config", "victim", "p50 us", "p99 us", "p999 us", "loss %", "cycles", "attribution"
    ));
    for c in cells {
        out.push_str(&format!(
            "{:<26} {:>6} {:>10.1} {:>10.1} {:>10.1} {:>8.2} {:>14} {:>13}\n",
            c.config,
            c.tenant,
            c.noisy.p50 as f64 / 1e3,
            c.noisy.p99 as f64 / 1e3,
            c.noisy.p999 as f64 / 1e3,
            c.loss * 100.0,
            format!("{}", c.attributed_cycles),
            c.attribution
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn opts() -> NoisyOpts {
        NoisyOpts {
            victim_pps: 10_000.0,
            attacker_pps: 2_000_000.0,
            warmup: Dur::millis(12),
            measure: Dur::millis(6),
            seed: 2,
        }
    }

    /// Level-2 victims outside the flooder's compartment: protected on
    /// isolated cores (latency and loss), lossy but flowing on a shared
    /// core (the vswitch compartments are separate; only latency jitters).
    #[test]
    fn matrix_probes_every_victim_and_flags_attribution() {
        for (compartments, mode, attribution, max_amp, max_loss) in [
            (4, ResourceMode::Isolated, "exact", 3.0, 0.05),
            (2, ResourceMode::Isolated, "proportional", 3.0, 0.05),
            (2, ResourceMode::Shared, "proportional", f64::INFINITY, 0.6),
        ] {
            let spec = DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments },
                DatapathKind::Kernel,
                mode,
                Scenario::P2v,
            );
            let cells = noisy_matrix(spec, opts()).unwrap();
            assert_eq!(cells.len(), spec.tenants as usize - 1);
            for (i, c) in cells.iter().enumerate() {
                let what = format!("L2-{compartments} {mode:?} victim {}", c.tenant);
                assert_eq!(c.tenant as usize, i + 1);
                assert!(c.quiet.count > 0, "{what} never probed quiet");
                assert_eq!(c.attribution, attribution, "{what}");
                assert!(c.noisy.p999 >= c.noisy.p99);
                assert!(c.noisy.p99 >= c.noisy.p50);
                if spec.compartment_of_tenant(c.tenant) == spec.compartment_of_tenant(0) {
                    continue;
                }
                assert!(c.noisy.count > 0, "{what} never probed noisy");
                assert!(c.attributed_cycles > Dur::ZERO, "{what}");
                assert!(c.loss < max_loss, "{what} loss {}", c.loss);
                assert!(
                    c.amplification() < max_amp,
                    "{what} should be protected: {}x",
                    c.amplification()
                );
            }
        }
    }

    #[test]
    fn matrix_baseline_is_unattributed_and_suffers() {
        let spec =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        let cells = noisy_matrix(spec, opts()).unwrap();
        assert!(!cells.is_empty());
        for c in &cells {
            assert_eq!(c.attribution, "unattributed");
            assert!(
                c.p999_amplification() >= c.amplification() * 0.5,
                "tail should be at least commensurate with the median"
            );
        }
        // The shared datapath makes tenant 1 pay for tenant 0's flood.
        let victim = &cells[0];
        assert!(
            victim.amplification() > 5.0,
            "baseline victim should suffer: {}x (quiet {} noisy {})",
            victim.amplification(),
            victim.quiet.p50,
            victim.noisy.p50
        );
        assert!(victim.loss > 0.2, "baseline victim loss {}", victim.loss);
        let table = render_matrix(&cells);
        assert!(table.contains("SLO matrix"));
        assert!(table.contains("unattributed"));
    }
}
