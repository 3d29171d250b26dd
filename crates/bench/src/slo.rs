//! The `repro slo` panel: per-tenant SLOs, billing accuracy and the
//! cycle-conservation identity, per security level.
//!
//! Three sub-panels, all driven by the `mts-slo` cycle meters:
//!
//! 1. **Noisy-neighbor SLO matrix** — tenant 0 floods; every other
//!    tenant's p50/p99/p999 latency, loss, and meter-attributed vswitch
//!    cycles, per security level ([`mts_core::perfiso::noisy_matrix`]).
//! 2. **Billing accuracy** — what a biller can charge from observables
//!    vs. the simulator's omniscient ground truth: does Level-2 make
//!    bills more exact? ([`mts_core::billing::billing_accuracy`]).
//! 3. **Cycle conservation** — `billed + unattributed == measured` (core
//!    ledger), the meters' vswitch layer equals the same total, and the
//!    NIC VEB meter equals the NIC's own busy ledger — all exact, at
//!    every level.
//!
//! [`SloPanel::self_check`] re-verifies the headline claims and returns
//! the violations, so `repro slo` is self-checking. Everything here runs
//! on simulated time only, so every table and CSV is byte-deterministic
//! for a given seed; how fast the simulator produces them is measured by
//! `benchmark/` (see `benchmark/README.md`).

use mts_core::billing::{bill, billing_accuracy, BillingAccuracy};
use mts_core::controller::{Controller, DeployError};
use mts_core::meters::Layer;
use mts_core::perfiso::{noisy_matrix, NoisyOpts, SloCell};
use mts_core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_host::ResourceMode;
use mts_sim::{Dur, Time};
use mts_vswitch::DatapathKind;

/// One deployment on the panel's configuration axis.
#[derive(Clone, Copy, Debug)]
pub struct PanelSpec {
    /// Stable panel name (includes the resource mode, which
    /// `DeploymentSpec::label` omits).
    pub name: &'static str,
    /// The deployment.
    pub spec: DeploymentSpec,
}

/// The panel's configuration axis: every security level, plus the
/// shared-vs-isolated Level-2 pair the paper's Fig. 5 contrasts.
pub fn panel_specs() -> [PanelSpec; 5] {
    [
        PanelSpec {
            name: "baseline-shared",
            spec: DeploymentSpec::baseline(
                DatapathKind::Kernel,
                ResourceMode::Shared,
                1,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l1-isolated",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level1,
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l2-2-shared",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                DatapathKind::Kernel,
                ResourceMode::Shared,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l2-2-isolated",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        },
        PanelSpec {
            name: "l2-4-isolated",
            spec: DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 4 },
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        },
    ]
}

/// The noisy-neighbor options the panel uses.
fn panel_noisy_opts(quick: bool) -> NoisyOpts {
    if quick {
        NoisyOpts {
            victim_pps: 10_000.0,
            attacker_pps: 1_500_000.0,
            warmup: Dur::millis(6),
            measure: Dur::millis(4),
            seed: 7,
        }
    } else {
        NoisyOpts {
            victim_pps: 10_000.0,
            attacker_pps: 4_000_000.0,
            warmup: Dur::millis(12),
            measure: Dur::millis(10),
            seed: 7,
        }
    }
}

/// One configuration's cycle-conservation audit.
#[derive(Clone, Debug)]
pub struct ConservationRow {
    /// Panel configuration name.
    pub config: String,
    /// CPU the bill attributed to tenants.
    pub billed: Dur,
    /// CPU the bill could not attribute.
    pub unattributed: Dur,
    /// What the core ledger measured for all vswitch users.
    pub measured: Dur,
    /// The meters' vswitch-layer total (charged grant by grant).
    pub meters_vswitch: Dur,
    /// The meters' NIC-VEB-layer total.
    pub nic_meter: Dur,
    /// The NIC's own VEB busy ledger (accumulated independently).
    pub nic_ledger: Dur,
    /// `Σ truth + unresolved == total` inside the meters, every layer.
    pub internally_consistent: bool,
}

impl ConservationRow {
    /// Whether every conservation identity held exactly.
    fn holds(&self) -> bool {
        self.billed + self.unattributed == self.measured
            && self.meters_vswitch == self.measured
            && self.nic_meter == self.nic_ledger
            && self.internally_consistent
    }
}

/// The assembled `repro slo` panel.
#[derive(Clone, Debug, Default)]
pub struct SloPanel {
    /// SLO matrix rows (every config × every victim tenant).
    pub cells: Vec<SloCell>,
    /// Billing accuracy per config, in [`panel_specs`] order.
    pub accuracy: Vec<BillingAccuracy>,
    /// Conservation audit per config, in [`panel_specs`] order.
    pub conservation: Vec<ConservationRow>,
}

/// Runs a plain per-tenant UDP measurement (the billing workload) and
/// returns the settled world.
fn billing_run(spec: DeploymentSpec, quick: bool) -> Result<World, DeployError> {
    let d = Controller::deploy(spec)?;
    let cfg = RuntimeCfg::for_spec(&spec);
    let mut w = World::new(d, cfg, 9);
    let mut e = Sim::new();
    let flows = w.tenant_flows();
    w.sink.window = (Time::ZERO, Time::MAX);
    let (gen_until, run_until) = if quick {
        (Time::from_nanos(2_000_000), Time::from_nanos(6_000_000))
    } else {
        (Time::from_nanos(4_000_000), Time::from_nanos(10_000_000))
    };
    start_udp_generator(&mut e, flows, 100_000.0, 64, gen_until);
    e.run_until(&mut w, run_until);
    Ok(w)
}

/// Audits the conservation identities on a settled world.
fn conservation_row(name: &str, w: &World) -> ConservationRow {
    let report = bill(w);
    ConservationRow {
        config: name.to_string(),
        billed: report.total_cpu(),
        unattributed: report.unattributed_cpu,
        measured: w.measured_vswitch_cpu(),
        meters_vswitch: w.meters.layer_total(Layer::Vswitch),
        nic_meter: w.meters.layer_total(Layer::NicVeb),
        nic_ledger: w.nic.veb_busy_total(),
        internally_consistent: w.meters.internally_consistent(),
    }
}

/// Runs the whole panel: matrix, accuracy, conservation, for every
/// configuration on the axis.
pub fn run_slo_panel(quick: bool) -> Result<SloPanel, DeployError> {
    let opts = panel_noisy_opts(quick);
    let mut panel = SloPanel::default();
    for ps in panel_specs() {
        let mut cells = noisy_matrix(ps.spec, opts)?;
        // The panel name distinguishes shared vs isolated; the spec label
        // alone does not.
        for c in &mut cells {
            c.config = ps.name.to_string();
        }
        panel.cells.extend(cells);

        let w = billing_run(ps.spec, quick)?;
        let mut acc = billing_accuracy(&w);
        acc.config = ps.name.to_string();
        panel.accuracy.push(acc);
        panel.conservation.push(conservation_row(ps.name, &w));
    }
    Ok(panel)
}

impl SloPanel {
    /// Re-verifies the panel's headline claims. Returns the violations;
    /// empty means the panel is clean.
    pub fn self_check(&self) -> Vec<String> {
        let mut bad = Vec::new();
        for row in &self.conservation {
            if !row.holds() {
                bad.push(format!(
                    "{}: conservation broken (billed {} + unattributed {} vs measured {}, \
                     meters {} / nic {} vs {})",
                    row.config,
                    row.billed,
                    row.unattributed,
                    row.measured,
                    row.meters_vswitch,
                    row.nic_meter,
                    row.nic_ledger
                ));
            }
        }
        for acc in &self.accuracy {
            let compartmentalized = !acc.config.starts_with("baseline");
            if compartmentalized {
                if (acc.attributed_fraction - 1.0).abs() > 1e-12 {
                    bad.push(format!(
                        "{}: compartmentalized level must attribute all cycles, got {}",
                        acc.config, acc.attributed_fraction
                    ));
                }
            } else if acc.attributed_fraction != 0.0 {
                bad.push(format!(
                    "{}: baseline must attribute nothing, got {}",
                    acc.config, acc.attributed_fraction
                ));
            }
            if acc.config == "l2-4-isolated" && !acc.tenants.iter().all(|t| t.exact) {
                bad.push("l2-4-isolated: singleton compartments must bill exactly".to_string());
            }
        }
        for c in &self.cells {
            if c.quiet.count == 0 {
                bad.push(format!(
                    "{} tenant {}: victim was never probed in the quiet phase",
                    c.config, c.tenant
                ));
            }
            // A Baseline victim may lose *every* probe under the flood —
            // that is the finding, not a broken panel — but the isolated
            // levels must keep delivering.
            if c.noisy.count == 0 && !c.config.starts_with("baseline") {
                bad.push(format!(
                    "{} tenant {}: no victim probe survived the flood",
                    c.config, c.tenant
                ));
            }
            if c.config == "l2-4-isolated" && c.attribution != "exact" {
                bad.push(format!(
                    "{} tenant {}: expected exact attribution, got {}",
                    c.config, c.tenant, c.attribution
                ));
            }
            if c.config.starts_with("baseline") && c.attribution != "unattributed" {
                bad.push(format!(
                    "{} tenant {}: baseline cycles must be unattributed, got {}",
                    c.config, c.tenant, c.attribution
                ));
            }
        }
        // The isolation claim itself: the isolated Level-2 victims keep
        // their loss low while the Baseline's victims bleed.
        let worst_iso = self
            .cells
            .iter()
            .filter(|c| c.config == "l2-4-isolated")
            .map(|c| c.loss)
            .fold(0.0, f64::max);
        let worst_base = self
            .cells
            .iter()
            .filter(|c| c.config.starts_with("baseline"))
            .map(|c| c.loss)
            .fold(0.0, f64::max);
        if worst_iso > 0.05 {
            bad.push(format!(
                "l2-4-isolated: victim loss should be negligible, worst {worst_iso:.4}"
            ));
        }
        if worst_base < 0.05 {
            bad.push(format!(
                "baseline: expected visible victim loss under flood, worst {worst_base:.4}"
            ));
        }
        bad
    }
}

/// The SLO matrix as CSV (byte-deterministic for a given panel).
pub fn matrix_csv(cells: &[SloCell]) -> String {
    let mut out = String::from(
        "config,tenant,quiet_p50_ns,quiet_p99_ns,quiet_p999_ns,noisy_p50_ns,noisy_p99_ns,\
         noisy_p999_ns,loss,amp_p50,amp_p99,amp_p999,attacker_pps,attributed_cycles_ns,\
         attribution\n",
    );
    for c in cells {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{:.6},{:.4},{:.4},{:.4},{:.1},{},{}\n",
            c.config,
            c.tenant,
            c.quiet.p50,
            c.quiet.p99,
            c.quiet.p999,
            c.noisy.p50,
            c.noisy.p99,
            c.noisy.p999,
            c.loss,
            c.amplification(),
            c.p99_amplification(),
            c.p999_amplification(),
            c.attacker_pps,
            c.attributed_cycles.as_nanos(),
            c.attribution
        ));
    }
    out
}

/// The billing-accuracy panel as CSV.
pub fn accuracy_csv(rows: &[BillingAccuracy]) -> String {
    let mut out = String::from(
        "config,tenant,billed_ns,truth_ns,abs_err_ns,rel_err,exact,attributed_fraction\n",
    );
    for acc in rows {
        for t in &acc.tenants {
            out.push_str(&format!(
                "{},{},{},{},{},{:.6},{},{:.6}\n",
                acc.config,
                t.tenant,
                t.billed.as_nanos(),
                t.truth.as_nanos(),
                t.abs_error().as_nanos(),
                t.rel_error(),
                t.exact,
                acc.attributed_fraction
            ));
        }
    }
    out
}

/// The conservation audit as CSV.
pub fn conservation_csv(rows: &[ConservationRow]) -> String {
    let mut out = String::from(
        "config,billed_ns,unattributed_ns,measured_ns,meters_vswitch_ns,nic_meter_ns,\
         nic_ledger_ns,internally_consistent,holds\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.config,
            r.billed.as_nanos(),
            r.unattributed.as_nanos(),
            r.measured.as_nanos(),
            r.meters_vswitch.as_nanos(),
            r.nic_meter.as_nanos(),
            r.nic_ledger.as_nanos(),
            r.internally_consistent,
            r.holds()
        ));
    }
    out
}

/// Renders the accuracy sub-panel as an aligned table.
pub fn render_accuracy(rows: &[BillingAccuracy]) -> String {
    let mut out = String::from("== billing accuracy: billed vs ground-truth cycles ==\n");
    out.push_str(&format!(
        "{:<16} {:>6} {:>14} {:>14} {:>10} {:>6} {:>10}\n",
        "config", "tenant", "billed", "truth", "rel err", "exact", "attr frac"
    ));
    for acc in rows {
        for t in &acc.tenants {
            out.push_str(&format!(
                "{:<16} {:>6} {:>14} {:>14} {:>10.4} {:>6} {:>10.3}\n",
                acc.config,
                t.tenant,
                format!("{}", t.billed),
                format!("{}", t.truth),
                t.rel_error(),
                if t.exact { "yes" } else { "no" },
                acc.attributed_fraction
            ));
        }
    }
    out
}

/// Renders the conservation sub-panel as an aligned table.
pub fn render_conservation(rows: &[ConservationRow]) -> String {
    let mut out =
        String::from("== cycle conservation: Σ attributed + unattributed == measured ==\n");
    out.push_str(&format!(
        "{:<16} {:>14} {:>14} {:>14} {:>14} {:>6}\n",
        "config", "billed", "unattributed", "measured", "nic veb", "holds"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<16} {:>14} {:>14} {:>14} {:>14} {:>6}\n",
            r.config,
            format!("{}", r.billed),
            format!("{}", r.unattributed),
            format!("{}", r.measured),
            format!("{}", r.nic_ledger),
            if r.holds() { "yes" } else { "NO" }
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_csvs_are_deterministic() {
        let a = run_slo_panel(true).unwrap();
        let b = run_slo_panel(true).unwrap();
        assert_eq!(matrix_csv(&a.cells), matrix_csv(&b.cells));
        assert_eq!(accuracy_csv(&a.accuracy), accuracy_csv(&b.accuracy));
        assert_eq!(
            conservation_csv(&a.conservation),
            conservation_csv(&b.conservation)
        );
        assert!(
            a.self_check().is_empty(),
            "panel self-check failed: {:?}",
            a.self_check()
        );
    }
}
