//! Regeneration of every table and figure in the paper's evaluation.
//!
//! Panel inventory (see DESIGN.md §4):
//!
//! - Fig. 5(a,d,g): aggregate throughput, shared / isolated / DPDK.
//! - Fig. 5(b,e,h): 64 B latency at 10 kpps.
//! - Fig. 5(c,f,i): cores and hugepages.
//! - Sec. 4.2: latency vs packet size (64/512/1500/2048 B).
//! - Fig. 6(a,f,k): iperf; (b,g,l)/(d,i,n): Apache; (c,h,m)/(e,j,o):
//!   Memcached — throughput and response time per resource mode.
//! - Table 1: the vswitch design survey.
//! - Sec. 3.2: VF counts.
//! - Sec. 2.2/2.3: the isolation matrix (attack suite).

use mts_core::results::ThroughputReport;
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_core::testbed::{fig5_matrix, RunOpts, Testbed};
use mts_core::vfplan::VfBudget;
use mts_core::workloads::{run_workload_repeated, Workload, WorkloadOpts, WorkloadResult};
use mts_core::{attacks, Controller};
use mts_host::ResourceMode;
use mts_vswitch::DatapathKind;

/// Global options for a reproduction pass.
#[derive(Clone, Copy, Debug)]
pub struct ReproOpts {
    /// Scale factor on measurement windows (1.0 = the defaults; use
    /// smaller values for quick passes).
    pub scale: f64,
    /// Seeds (the paper repeats every measurement 5 times).
    pub reps: u64,
}

impl Default for ReproOpts {
    fn default() -> Self {
        ReproOpts {
            scale: 1.0,
            reps: 3,
        }
    }
}

impl ReproOpts {
    /// A fast smoke-test pass.
    pub fn quick() -> Self {
        ReproOpts {
            scale: 0.12,
            reps: 1,
        }
    }

    fn seeds(&self) -> Vec<u64> {
        (1..=self.reps.max(1)).collect()
    }
}

/// A resource-mode row of Fig. 5 (one of the three figure rows).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fig5Panel {
    /// Fig. 5(a,b,c): shared vswitch core.
    Shared,
    /// Fig. 5(d,e,f): isolated cores.
    Isolated,
    /// Fig. 5(g,h,i): Level-3 (DPDK), isolated.
    Dpdk,
}

impl Fig5Panel {
    /// All rows.
    pub const ALL: [Fig5Panel; 3] = [Fig5Panel::Shared, Fig5Panel::Isolated, Fig5Panel::Dpdk];

    /// Row label.
    pub fn label(self) -> &'static str {
        match self {
            Fig5Panel::Shared => "shared",
            Fig5Panel::Isolated => "isolated",
            Fig5Panel::Dpdk => "dpdk (Level-3)",
        }
    }

    /// The deployment matrix of this row for a scenario.
    pub fn matrix(self, scenario: Scenario) -> Vec<DeploymentSpec> {
        match self {
            Fig5Panel::Shared => fig5_matrix(ResourceMode::Shared, DatapathKind::Kernel, scenario),
            Fig5Panel::Isolated => {
                fig5_matrix(ResourceMode::Isolated, DatapathKind::Kernel, scenario)
            }
            Fig5Panel::Dpdk => fig5_matrix(ResourceMode::Isolated, DatapathKind::Dpdk, scenario),
        }
    }
}

/// Runs one Fig. 5 row: returns (throughput, latency, resources) reports.
pub fn fig5_panel(
    panel: Fig5Panel,
    opts: ReproOpts,
) -> (ThroughputReport, ThroughputReport, ThroughputReport) {
    let (t_name, l_name, r_name) = match panel {
        Fig5Panel::Shared => ("Fig 5(a)", "Fig 5(b)", "Fig 5(c)"),
        Fig5Panel::Isolated => ("Fig 5(d)", "Fig 5(e)", "Fig 5(f)"),
        Fig5Panel::Dpdk => ("Fig 5(g)", "Fig 5(h)", "Fig 5(i)"),
    };
    let mut tput = ThroughputReport::new(format!(
        "{t_name} aggregate throughput, {} mode, 64B line rate",
        panel.label()
    ));
    let mut lat = ThroughputReport::new(format!(
        "{l_name} one-way latency, {} mode, 64B @ 10 kpps",
        panel.label()
    ));
    let mut res = ThroughputReport::new(format!("{r_name} resources, {} mode", panel.label()));
    for scenario in Scenario::ALL {
        for spec in panel.matrix(scenario) {
            crate::precheck::precheck_or_panic(spec, Controller::deploy);
            let tb = Testbed::new(spec);
            let t_opts = RunOpts::throughput().scaled(opts.scale);
            if let Ok(m) = tb.run_repeated(t_opts, &opts.seeds()) {
                tput.rows.push(m);
            }
            let l_opts = RunOpts::latency().scaled(opts.scale);
            if let Ok(m) = tb.run(l_opts) {
                if scenario == Scenario::P2p {
                    res.rows.push(m.clone());
                }
                lat.rows.push(m);
            }
        }
    }
    (tput, lat, res)
}

/// The Sec. 4.2 packet-size latency sweep (64/512/1500/2048 B).
pub fn pktsize_sweep(opts: ReproOpts) -> ThroughputReport {
    let mut rep = ThroughputReport::new("Sec 4.2 latency vs packet size, p2v isolated, 10 kpps");
    for wire_len in [64u32, 512, 1500, 2048] {
        for spec in [
            DeploymentSpec::baseline(
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                1,
                Scenario::P2v,
            ),
            DeploymentSpec::mts(
                SecurityLevel::Level1,
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            ),
        ] {
            crate::precheck::precheck_or_panic(spec, Controller::deploy);
            let o = RunOpts::latency()
                .scaled(opts.scale)
                .with_wire_len(wire_len);
            if let Ok(mut m) = Testbed::new(spec).run(o) {
                m.config = format!("{} {}B", m.config, wire_len);
                rep.rows.push(m);
            }
        }
    }
    rep
}

/// One Fig. 6 panel set: a workload across the configuration matrix of a
/// resource-mode row, in p2v and v2v.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fig6Panel {
    /// The resource-mode row.
    pub row: Fig5Panel,
    /// The workload column.
    pub workload: Workload,
}

impl Fig6Panel {
    /// Panel name as in the paper's figure.
    pub fn name(self) -> &'static str {
        match (self.row, self.workload) {
            (Fig5Panel::Shared, Workload::Iperf) => "Fig 6(a)",
            (Fig5Panel::Shared, Workload::Apache) => "Fig 6(b,d)",
            (Fig5Panel::Shared, Workload::Memcached) => "Fig 6(c,e)",
            (Fig5Panel::Isolated, Workload::Iperf) => "Fig 6(f)",
            (Fig5Panel::Isolated, Workload::Apache) => "Fig 6(g,i)",
            (Fig5Panel::Isolated, Workload::Memcached) => "Fig 6(h,j)",
            (Fig5Panel::Dpdk, Workload::Iperf) => "Fig 6(k)",
            (Fig5Panel::Dpdk, Workload::Apache) => "Fig 6(l,n)",
            (Fig5Panel::Dpdk, Workload::Memcached) => "Fig 6(m,o)",
        }
    }
}

/// Runs one Fig. 6 panel; returns one result per configuration × scenario.
pub fn fig6_panel(panel: Fig6Panel, opts: ReproOpts) -> Vec<WorkloadResult> {
    let mut out = Vec::new();
    let mut w_opts = WorkloadOpts::default();
    // TCP needs slow-start ramp and SYN-RTO recovery time: never scale the
    // workload windows below a quarter of the defaults.
    w_opts.duration = w_opts.duration.mul_f64(opts.scale.max(0.25));
    w_opts.warmup = w_opts.warmup.mul_f64(opts.scale.max(0.25));
    for scenario in [Scenario::P2v, Scenario::V2v] {
        for spec in panel.row.matrix(scenario) {
            crate::precheck::precheck_or_panic(spec, Controller::deploy_workload);
            if let Ok(r) = run_workload_repeated(spec, panel.workload, w_opts, &opts.seeds()) {
                out.push(r);
            }
        }
    }
    out
}

/// Renders Fig. 6 results as an aligned table.
pub fn render_fig6(name: &str, workload: Workload, rows: &[WorkloadResult]) -> String {
    let mut out = format!("== {name} {} ==\n", workload.label());
    out.push_str(&format!(
        "{:<26} {:>5}  {:>14} {:>9}  {:>13} {:>12} {:>12}\n",
        "config",
        "scen",
        workload.unit(),
        "ci95",
        "mean resp ms",
        "p50 resp ms",
        "p99 resp ms"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<26} {:>5}  {:>14.2} {:>9.2}  {:>13.3} {:>12.3} {:>12.3}\n",
            r.config,
            r.scenario,
            r.throughput,
            r.ci95,
            r.latency.mean / 1e6,
            r.latency.p50 as f64 / 1e6,
            r.latency.p99 as f64 / 1e6,
        ));
    }
    out
}

/// Fig. 6 results as CSV.
pub fn fig6_csv(rows: &[WorkloadResult]) -> String {
    let mut csv =
        String::from("config,scenario,workload,throughput,ci95,resp_p50_ns,resp_p99_ns\n");
    for r in rows {
        csv.push_str(&format!(
            "{},{},{},{:.3},{:.3},{},{}\n",
            r.config.replace(',', ";"),
            r.scenario,
            r.workload,
            r.throughput,
            r.ci95,
            r.latency.p50,
            r.latency.p99
        ));
    }
    csv
}

/// The Sec. 3.2 VF-count table.
pub fn vf_count_table() -> String {
    let mut out = String::from("== Sec 3.2 VF budget (single-port accounting) ==\n");
    out.push_str(&format!(
        "{:<22} {:>8} {:>8} {:>10} {:>7}\n",
        "level", "tenants", "in/out", "gateways", "total"
    ));
    for (level, tenants) in [
        (SecurityLevel::Level1, 1u32),
        (SecurityLevel::Level1, 4),
        (SecurityLevel::Level2 { compartments: 2 }, 2),
        (SecurityLevel::Level2 { compartments: 4 }, 4),
    ] {
        let b = VfBudget::for_level(level, tenants, 1);
        out.push_str(&format!(
            "{:<22} {:>8} {:>8} {:>10} {:>7}\n",
            level.label(),
            tenants,
            b.in_out,
            b.gateways + b.tenant_vms,
            b.total()
        ));
    }
    out
}

/// The isolation matrix across the security-level ladder.
pub fn isolation_matrix() -> String {
    let mut out = String::from("== Isolation matrix (threat model of Sec. 2.2) ==\n");
    match attacks::evaluate_ladder() {
        Ok(reports) => {
            for r in reports {
                out.push_str(&format!("{r}\n"));
            }
        }
        Err(e) => out.push_str(&format!("evaluation failed: {e}\n")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vf_table_contains_paper_numbers() {
        let t = vf_count_table();
        assert!(t.contains(" 3\n"), "L1/1 tenant = 3 VFs:\n{t}");
        assert!(t.contains(" 9\n"), "L1/4 tenants = 9 VFs:\n{t}");
        assert!(t.contains(" 6\n"), "L2/2 tenants = 6 VFs:\n{t}");
        assert!(t.contains(" 12\n"), "L2/4 tenants = 12 VFs:\n{t}");
    }

    #[test]
    fn isolation_matrix_renders() {
        let m = isolation_matrix();
        assert!(m.contains("MAC spoofing"));
        assert!(m.contains("Baseline"));
    }

    #[test]
    fn panel_matrices_are_nonempty() {
        for p in Fig5Panel::ALL {
            for s in Scenario::ALL {
                if s == Scenario::V2v {
                    continue;
                }
                assert!(!p.matrix(s).is_empty());
            }
        }
    }

    #[test]
    fn quick_fig5_shared_p2p_row_runs() {
        let opts = ReproOpts {
            scale: 0.02,
            reps: 1,
        };
        // Just one configuration to keep the test fast.
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2p,
        );
        let m = Testbed::new(spec)
            .run(RunOpts::throughput().scaled(opts.scale))
            .unwrap();
        assert!(m.throughput_pps > 0.0);
    }
}
