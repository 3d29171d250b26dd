//! The blast-radius and recovery experiment.
//!
//! One cell = one deployment configuration × one fault scenario. The same
//! constant-rate per-tenant UDP probes as the Sec. 4 testbed run for the
//! whole window; the fault strikes mid-run; the `mts-core` supervisor
//! detects, restarts with capped exponential backoff, and reconciles. The
//! cell reports, per tenant, offered vs delivered frames (the blast
//! radius), the typed fault-drop counters, detection and recovery
//! latency, restart attempts, throughput delta against a clean run of the
//! same seed, the `offered = delivered + Σ drops` accounting check, and a
//! post-recovery `mts-isocheck` verification of the live state.
//!
//! The headline claim (see `ROBUSTNESS.md`): killing tenant A's vswitch
//! VM under Level-2 drops **zero** frames of tenants in other
//! compartments, while the Baseline's shared vswitch takes every tenant
//! down with it.

use crate::inject;
use crate::plan::{FaultKind, FaultPlan};
use mts_core::controller::{Controller, DeployError};
use mts_core::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_core::supervisor::{start_supervisor, RecoveryKind, SupervisorCfg};
use mts_host::ResourceMode;
use mts_isocheck::IncrementalChecker;
use mts_sim::{Dur, Time};
use mts_vswitch::DatapathKind;
use std::fmt;

/// Parameters of one blast-radius run.
#[derive(Clone, Copy, Debug)]
pub struct FaultOpts {
    /// Aggregate offered rate, packets/second (spread over the tenants).
    pub rate_pps: f64,
    /// Frame size on the wire, bytes.
    pub wire_len: u32,
    /// Traffic duration.
    pub run_for: Dur,
    /// When the fault strikes.
    pub fault_at: Time,
    /// Drain margin after the generator stops (lets in-flight and
    /// stalled frames settle so the accounting identity is exact).
    pub drain: Dur,
    /// Deterministic seed.
    pub seed: u64,
}

impl Default for FaultOpts {
    fn default() -> Self {
        FaultOpts {
            rate_pps: 200_000.0,
            wire_len: 64,
            run_for: Dur::millis(30),
            fault_at: Time::from_nanos(10_000_000),
            drain: Dur::millis(20),
            seed: 1,
        }
    }
}

/// The panel's fault scenarios. Victims are fixed: vswitch 0 (the
/// compartment serving tenant 0), physical port 1 (the egress side),
/// tenant 0.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultCase {
    /// Vswitch-VM crash; first restart sticks.
    Crash,
    /// Vswitch-VM crash that fails two restarts before recovering.
    CrashLoop,
    /// Vswitch-VM hang (no self-heal; the supervisor must restart it).
    Hang,
    /// All flow rules of the vswitch wiped; VM stays up.
    WipeFlows,
    /// Half the flow rules lost at random.
    LoseRules,
    /// The egress PF's VEB table flushed.
    FlushVeb,
    /// The egress link down for 2 ms.
    LinkFlap,
    /// Tenant 0's vhost channel stalled for 3 ms.
    VhostStall,
    /// Crash while the controller channel is also down for 10 ms:
    /// recovery must wait for the channel.
    ControllerLossDuringCrash,
}

impl FaultCase {
    /// Every scenario, in panel order.
    pub const ALL: [FaultCase; 9] = [
        FaultCase::Crash,
        FaultCase::CrashLoop,
        FaultCase::Hang,
        FaultCase::WipeFlows,
        FaultCase::LoseRules,
        FaultCase::FlushVeb,
        FaultCase::LinkFlap,
        FaultCase::VhostStall,
        FaultCase::ControllerLossDuringCrash,
    ];

    /// Stable label.
    pub fn label(self) -> &'static str {
        match self {
            FaultCase::Crash => "crash",
            FaultCase::CrashLoop => "crash-loop",
            FaultCase::Hang => "hang",
            FaultCase::WipeFlows => "wipe-flows",
            FaultCase::LoseRules => "lose-rules",
            FaultCase::FlushVeb => "flush-veb",
            FaultCase::LinkFlap => "link-flap",
            FaultCase::VhostStall => "vhost-stall",
            FaultCase::ControllerLossDuringCrash => "ctrl-loss+crash",
        }
    }

    /// The fault plan for this scenario.
    pub fn plan(self, at: Time) -> FaultPlan {
        let p = FaultPlan::new();
        match self {
            FaultCase::Crash => p.at(
                at,
                FaultKind::CrashVswitch {
                    vswitch: 0,
                    crashloop: 0,
                },
            ),
            FaultCase::CrashLoop => p.at(
                at,
                FaultKind::CrashVswitch {
                    vswitch: 0,
                    crashloop: 2,
                },
            ),
            FaultCase::Hang => p.at(
                at,
                FaultKind::HangVswitch {
                    vswitch: 0,
                    heal_after: None,
                },
            ),
            FaultCase::WipeFlows => p.at(at, FaultKind::WipeFlows { vswitch: 0 }),
            FaultCase::LoseRules => p.at(
                at,
                FaultKind::LoseRules {
                    vswitch: 0,
                    fraction: 0.5,
                },
            ),
            FaultCase::FlushVeb => p.at(at, FaultKind::FlushVeb { pf: 1 }),
            FaultCase::LinkFlap => p.at(
                at,
                FaultKind::LinkFlap {
                    pf: 1,
                    down_for: Dur::millis(2),
                },
            ),
            FaultCase::VhostStall => p.at(
                at,
                FaultKind::VhostStall {
                    tenant: 0,
                    stall_for: Dur::millis(3),
                },
            ),
            FaultCase::ControllerLossDuringCrash => p
                .at(
                    at,
                    FaultKind::ControllerLoss {
                        down_for: Dur::millis(10),
                    },
                )
                .at(
                    at,
                    FaultKind::CrashVswitch {
                        vswitch: 0,
                        crashloop: 0,
                    },
                ),
        }
    }

    /// Whether the fault can make the NIC flood (delivered copies plus
    /// dropped copies can then exceed the offered count, so the
    /// accounting identity weakens from `=` to `>=`).
    pub fn floods(self) -> bool {
        matches!(self, FaultCase::FlushVeb)
    }
}

/// One panel cell: a configuration under a fault scenario.
#[derive(Clone, Debug)]
pub struct BlastCell {
    /// Configuration label.
    pub config: String,
    /// Fault scenario label.
    pub fault: &'static str,
    /// Per-tenant frames offered during the run.
    pub offered: Vec<u64>,
    /// Per-tenant frames delivered to the sink.
    pub delivered: Vec<u64>,
    /// Tenants that lost at least one frame (the blast radius).
    pub affected: Vec<u8>,
    /// Fault-typed drop counters (`DropCause::is_fault` causes only).
    pub fault_drops: Vec<(String, u64)>,
    /// All drops, typed (for the accounting identity).
    pub total_drops: u64,
    /// Fault strike → supervisor detection, if the supervisor fired.
    pub detect: Option<Dur>,
    /// Fault strike → recovery complete, if a restart happened.
    pub recover: Option<Dur>,
    /// Restart attempts the supervisor made.
    pub attempts: u32,
    /// Tenants left degraded at the end of the run.
    pub degraded: Vec<u8>,
    /// Relative delivered-frame delta vs the clean run (0.0 = no loss).
    pub tput_delta: f64,
    /// Whether `offered = delivered + Σ typed drops` held (`>=` for
    /// flooding faults).
    pub drop_sum_ok: bool,
    /// Post-recovery static verification: violation count of the live
    /// state (compartmentalized levels only).
    pub isocheck_violations: Option<usize>,
}

/// Runs one deployment under one fault plan; returns the settled world
/// (supervisor log inside).
fn run_once(spec: DeploymentSpec, plan: &FaultPlan, opts: FaultOpts) -> Result<World, DeployError> {
    run_inner(spec, plan, opts, false)
}

/// Runs one fault scenario with telemetry enabled and returns the settled
/// world, so callers (the `repro faults` exporter flags) can write the
/// trace, metrics and cycle-attribution series of a faulted run.
pub fn run_traced(
    spec: DeploymentSpec,
    case: FaultCase,
    opts: FaultOpts,
) -> Result<World, DeployError> {
    run_inner(spec, &case.plan(opts.fault_at), opts, true)
}

fn run_inner(
    spec: DeploymentSpec,
    plan: &FaultPlan,
    opts: FaultOpts,
    traced: bool,
) -> Result<World, DeployError> {
    let d = Controller::deploy(spec)?;
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = opts.rate_pps;
    let mut w = World::new(d, cfg, opts.seed);
    if traced {
        w.telemetry = mts_telemetry::Telemetry::enabled();
    }
    let mut e = Sim::new();
    // Account every frame: the identity needs the full run, not a window.
    w.sink.window = (Time::ZERO, Time::MAX);
    let end = Time::ZERO + opts.run_for;
    let sup = SupervisorCfg {
        reconcile_every: Some(Dur::millis(5)),
        until: end + opts.drain,
        ..SupervisorCfg::default()
    };
    start_supervisor(&mut w, &mut e, sup);
    start_udp_generator(&mut e, w.tenant_flows(), opts.rate_pps, opts.wire_len, end);
    inject::schedule(plan, &mut e);
    e.run_until(&mut w, end + opts.drain);
    e.clear();
    Ok(w)
}

/// Runs one panel cell: the fault scenario against `spec`, compared to a
/// clean run of the same seed.
pub fn run_cell(
    spec: DeploymentSpec,
    case: FaultCase,
    opts: FaultOpts,
) -> Result<BlastCell, DeployError> {
    let clean = run_once(spec, &FaultPlan::new(), opts)?;
    let mut w = run_once(spec, &case.plan(opts.fault_at), opts)?;

    let offered = w.sink.sent_by_flow.clone();
    let delivered = w.sink.per_flow.clone();
    let affected: Vec<u8> = offered
        .iter()
        .zip(delivered.iter())
        .enumerate()
        .filter(|(_, (o, d))| d < o)
        .map(|(t, _)| t as u8)
        .collect();
    let fault_drops: Vec<(String, u64)> = w
        .drops
        .iter()
        .filter(|(c, _)| c.is_fault())
        .map(|(c, n)| (c.as_str().to_string(), *n))
        .collect();
    let total_drops: u64 = w.drops.values().sum();
    let accounted = w.sink.received + total_drops;
    let drop_sum_ok = if case.floods() {
        accounted >= w.sink.sent
    } else {
        accounted == w.sink.sent
    };

    let (detect, recover, attempts) = match &w.supervisor {
        Some(sup) => {
            let detect = sup.detected_at(0).map(|at| at - opts.fault_at);
            let recover = sup
                .log
                .iter()
                .find(|ev| ev.vswitch == 0 && ev.kind == RecoveryKind::Recovered)
                .map(|ev| ev.at - opts.fault_at);
            (detect, recover, sup.restart_attempts(0))
        }
        None => (None, None, 0),
    };
    let degraded: Vec<u8> = w
        .degraded
        .iter()
        .enumerate()
        .filter(|(_, d)| **d)
        .map(|(t, _)| t as u8)
        .collect();

    let clean_total: u64 = clean.sink.per_flow.iter().sum();
    let faulty_total: u64 = delivered.iter().sum();
    let tput_delta = if clean_total == 0 {
        0.0
    } else {
        (faulty_total as f64 - clean_total as f64) / clean_total as f64
    };

    let isocheck_violations = if spec.level.compartmentalized() {
        incremental_reverify(&mut w)
    } else {
        None
    };

    Ok(BlastCell {
        config: spec.label(),
        fault: case.label(),
        offered,
        delivered,
        affected,
        fault_drops,
        total_drops,
        detect,
        recover,
        attempts,
        degraded,
        tput_delta,
        drop_sum_ok,
        isocheck_violations,
    })
}

/// Post-recovery verification of the faulted world, done *incrementally*:
/// an [`IncrementalChecker`] is seeded from the world's own intent (its
/// desired config, which the pre-fault devices held), then the faulted
/// run's config-delta log — vswitch crashes, VEB flushes, rule wipes, and
/// every supervisor/reconciler reinstall — is replayed in sequence order,
/// so only the cones touched by each recovery are re-verified. The full
/// from-scratch [`mts_isocheck::verify_world`] runs as the oracle: any
/// divergence from the incremental verdict is a soundness bug in the delta
/// application and panics loudly rather than silently skewing the panel
/// CSV.
fn incremental_reverify(w: &mut World) -> Option<usize> {
    let mut checker = IncrementalChecker::of_intent(w).ok()?;
    for (_seq, delta) in w.deltas.drain() {
        checker.apply(&delta);
    }
    let incremental = checker.report().ok()?;
    let full = mts_isocheck::verify_world(w).ok()?;
    assert_eq!(
        format!("{incremental}"),
        format!("{full}"),
        "incremental re-verification diverged from the full oracle \
         ({} deltas applied, stats {:?})",
        checker.stats().deltas_applied,
        checker.stats(),
    );
    Some(incremental.violations.len())
}

/// The configuration axis of the panel: Baseline, Level-1 and Level-2
/// with two compartments, all kernel-datapath isolated-resource p2v.
pub fn panel_specs() -> [DeploymentSpec; 3] {
    [
        DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            2,
            Scenario::P2v,
        ),
        DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        ),
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        ),
    ]
}

/// Runs the full blast-radius panel: every [`panel_specs`] configuration
/// under every [`FaultCase`].
pub fn blast_radius_panel(opts: FaultOpts) -> Result<Vec<BlastCell>, DeployError> {
    let mut cells = Vec::new();
    for case in FaultCase::ALL {
        for spec in panel_specs() {
            cells.push(run_cell(spec, case, opts)?);
        }
    }
    Ok(cells)
}

fn fmt_dur_opt(d: Option<Dur>) -> String {
    match d {
        Some(d) => format!("{:.2}ms", d.as_secs_f64() * 1e3),
        None => "-".to_string(),
    }
}

impl fmt::Display for BlastCell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fault_total: u64 = self.fault_drops.iter().map(|(_, n)| n).sum();
        write!(
            f,
            "{:<22} {:<15} {:>9} {:>10} {:>8} {:>8} {:>3} {:>8.2} {:>5} {:>4}",
            self.config,
            self.fault,
            format!("{:?}", self.affected),
            fault_total,
            fmt_dur_opt(self.detect),
            fmt_dur_opt(self.recover),
            self.attempts,
            self.tput_delta * 100.0,
            if self.drop_sum_ok { "ok" } else { "FAIL" },
            match self.isocheck_violations {
                Some(v) => v.to_string(),
                None => "-".to_string(),
            },
        )
    }
}

/// Renders the panel as an aligned table.
pub fn render(cells: &[BlastCell]) -> String {
    let mut out = String::from(
        "== blast radius and recovery: affected tenants, typed fault drops, \
         detect/recover latency ==\n",
    );
    out.push_str(&format!(
        "{:<22} {:<15} {:>9} {:>10} {:>8} {:>8} {:>3} {:>8} {:>5} {:>4}\n",
        "config", "fault", "affected", "drops", "detect", "recover", "try", "tput%", "sum", "iso"
    ));
    let mut last_fault = "";
    for c in cells {
        if c.fault != last_fault && !last_fault.is_empty() {
            out.push('\n');
        }
        last_fault = c.fault;
        out.push_str(&format!("{c}\n"));
    }
    out
}

/// Renders the panel as CSV.
pub fn to_csv(cells: &[BlastCell]) -> String {
    let mut out = String::from(
        "config,fault,affected,fault_drops,total_drops,detect_ns,recover_ns,attempts,\
         degraded,tput_delta,drop_sum_ok,isocheck_violations\n",
    );
    for c in cells {
        let fault_total: u64 = c.fault_drops.iter().map(|(_, n)| n).sum();
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{:.6},{},{}\n",
            c.config.replace(',', ";"),
            c.fault,
            c.affected
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(";"),
            fault_total,
            c.total_drops,
            c.detect.map(|d| d.as_nanos() as i64).unwrap_or(-1),
            c.recover.map(|d| d.as_nanos() as i64).unwrap_or(-1),
            c.attempts,
            c.degraded
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(";"),
            c.tput_delta,
            c.drop_sum_ok,
            c.isocheck_violations.map(|v| v as i64).unwrap_or(-1),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FaultOpts {
        FaultOpts {
            rate_pps: 100_000.0,
            run_for: Dur::millis(20),
            fault_at: Time::from_nanos(6_000_000),
            drain: Dur::millis(15),
            ..FaultOpts::default()
        }
    }

    #[test]
    fn level2_crash_is_contained_to_one_compartment() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let cell = run_cell(spec, FaultCase::Crash, quick()).unwrap();
        // Tenants 1 and 3 live in compartment 1: zero loss.
        for t in [1usize, 3] {
            assert_eq!(
                cell.offered[t], cell.delivered[t],
                "tenant {t} must be unaffected: {cell}"
            );
        }
        // Tenants 0 and 2 lost frames during the outage.
        assert!(
            cell.affected.contains(&0) && cell.affected.contains(&2),
            "{cell}"
        );
        assert!(cell.recover.is_some(), "supervisor must recover: {cell}");
        assert!(cell.drop_sum_ok, "{cell}");
        assert_eq!(cell.isocheck_violations, Some(0), "{cell}");
    }

    #[test]
    fn baseline_crash_takes_everyone_down() {
        let spec = DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            2,
            Scenario::P2v,
        );
        let cell = run_cell(spec, FaultCase::Crash, quick()).unwrap();
        assert_eq!(cell.affected, vec![0, 1, 2, 3], "{cell}");
        assert!(cell.drop_sum_ok, "{cell}");
    }

    #[test]
    fn vhost_stall_delays_but_does_not_drop() {
        let spec = DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            2,
            Scenario::P2v,
        );
        let cell = run_cell(spec, FaultCase::VhostStall, quick()).unwrap();
        assert!(cell.drop_sum_ok, "{cell}");
    }

    #[test]
    fn cells_are_deterministic() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let a = run_cell(spec, FaultCase::CrashLoop, quick()).unwrap();
        let b = run_cell(spec, FaultCase::CrashLoop, quick()).unwrap();
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.fault_drops, b.fault_drops);
        assert_eq!(a.detect, b.detect);
        assert_eq!(a.recover, b.recover);
        assert_eq!(a.attempts, b.attempts);
    }

    #[test]
    fn render_and_csv_cover_all_cells() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let cell = run_cell(spec, FaultCase::LinkFlap, quick()).unwrap();
        let table = render(std::slice::from_ref(&cell));
        assert!(table.contains("link-flap"));
        let csv = to_csv(std::slice::from_ref(&cell));
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("link-flap"));
    }
}
