//! Fuzzing the control plane: randomized [`ConfigDelta`] streams replayed
//! through the [`IncrementalChecker`] against the from-scratch verifier.
//!
//! Each case deploys a configuration from the shipped matrix and drives a
//! stream of operations, each built as deltas that one helper applies to the
//! deployment's devices (the ground truth) and to an incremental checker.
//! After every delta (at the boundary of an operation that is one logical
//! reconfiguration of several) the incremental verdict must render
//! byte-for-byte as [`mts_isocheck::verify`] from scratch — including
//! after deliberate isolation breaks, where both must report the same
//! violations and witnesses. The mix: benign churn (wipe and partial
//! reinstall, static and filter churn, VEB flushes, liveness flaps),
//! hostile static installs (the family that surfaced `StaticHijack`),
//! hostile VF reconfiguration, out-of-range deltas that must be no-ops,
//! and rules naming a value outside the atomization ([`fresh_value_op`]).
//! Divergences shrink to a minimal op-index subset.

use crate::{Surface, SurfaceStats};
use mts_core::controller::{Controller, Deployment};
use mts_core::delta::ConfigDelta;
use mts_core::vfplan::VfRef;
use mts_core::DeploymentSpec;
use mts_isocheck::IncrementalChecker;
use mts_net::{EtherType, MacAddr};
use mts_nic::{NicPort, VfConfig, VfId};
use mts_sim::DetRng;
use mts_vswitch::{Action, FlowMatch, FlowRule, Ipv4Prefix};
use std::net::Ipv4Addr;

/// Ops per delta-stream case.
const OPS_PER_CASE: u64 = 12;

/// The differential oracle: the incremental verdict renders exactly as the
/// from-scratch verifier's on the deployment's current state.
pub fn check_equiv(
    checker: &mut IncrementalChecker,
    d: &Deployment,
    what: &str,
) -> Result<(), String> {
    let inc = checker.report().map_err(|e| e.to_string())?;
    let full = mts_isocheck::verify(d).map_err(|e| e.to_string())?;
    if format!("{inc}") != format!("{full}") {
        return Err(format!(
            "incremental/full divergence after {what} (stats {:?})",
            checker.stats()
        ));
    }
    Ok(())
}

/// Applies `delta` to the deployment's devices and to the checker.
fn step(d: &mut Deployment, checker: &mut IncrementalChecker, delta: &ConfigDelta) {
    // A delta the devices refuse (a PF the NIC does not have) changes
    // nothing; the checker must make it the same no-op, which the next
    // comparison checks.
    let _ = delta.apply(&mut d.nic, |i| d.vswitches.get_mut(i).map(|v| &mut v.sw));
    checker.apply(delta);
}

/// Applies `delta` to the deployment's devices and to the checker, then
/// runs the oracle.
pub fn step_checked(
    d: &mut Deployment,
    checker: &mut IncrementalChecker,
    delta: &ConfigDelta,
) -> Result<(), String> {
    step(d, checker, delta);
    check_equiv(checker, d, &delta.to_string())
}

/// [`step_checked`] for the [`ConfigDelta::vf_edit`] of VF `r`.
fn edit_vf(
    d: &mut Deployment,
    checker: &mut IncrementalChecker,
    r: VfRef,
    edit: impl FnOnce(&mut VfConfig),
) -> Result<(), String> {
    let delta = ConfigDelta::vf_edit(&d.nic, r, edit).map_err(|e| e.to_string())?;
    step_checked(d, checker, &delta)
}

/// Installs on vswitch `v`'s table 0, then removes, a rule matching a value
/// no part of the configuration names: a MAC (`kind` 0), an IPv4 prefix (1)
/// or an EtherType (2), picked by `n`. Both deltas change the atoms, so
/// each must force a full rebuild: under the stale atomization an unknown
/// value maps to no atom at all, and only the rebuild keeps the verdict
/// exact. Checks byte-identity after each delta and that each one rebuilt
/// the atoms.
pub fn fresh_value_op(
    d: &mut Deployment,
    checker: &mut IncrementalChecker,
    v: usize,
    kind: u64,
    n: u8,
    priority: u16,
) -> Result<(), String> {
    let m = match kind {
        0 => FlowMatch {
            eth_dst: Some(MacAddr::local(0x7e_5700 + u32::from(n))),
            ..FlowMatch::default()
        },
        1 => FlowMatch {
            ip_dst: Some(Ipv4Prefix::new(Ipv4Addr::new(198, 51, 100, n & 0xf0), 28)),
            ..FlowMatch::default()
        },
        _ => FlowMatch {
            ethertype: Some(EtherType::Other(0x9000 + u16::from(n))),
            ..FlowMatch::default()
        },
    };
    let rule = FlowRule::new(priority, m, vec![Action::Drop]).with_cookie(0x7e57_0000);
    let rebuilds = checker.stats().full_rebuilds;
    let installed = ConfigDelta::RuleInstalled {
        vswitch: v,
        table: 0,
        rule: rule.clone(),
    };
    step_checked(d, checker, &installed)?;
    let removed = ConfigDelta::RuleRemoved {
        vswitch: v,
        table: 0,
        rule,
    };
    step_checked(d, checker, &removed)?;
    let rebuilt = checker.stats().full_rebuilds - rebuilds;
    if rebuilt != 2 {
        return Err(format!(
            "a fresh value (kind {kind}) installed and removed rebuilt the atoms {rebuilt} times, not 2"
        ));
    }
    Ok(())
}

/// Applies operation `idx` of a stream, drawing randomness only from
/// `rng` (derived per-index by the caller). `Err` is an oracle violation.
fn apply_op(
    rng: &mut DetRng,
    d: &mut Deployment,
    checker: &mut IncrementalChecker,
) -> Result<(), String> {
    let tenants = d.plan.tenants.len();
    let random_vf = |rng: &mut DetRng, d: &Deployment| {
        let vfs = &d.plan.tenants[rng.index(tenants)].vf;
        vfs[rng.index(vfs.len())].0
    };
    match rng.below(12) {
        // Wipe a vswitch, then reinstall a random prefix of its rules in
        // dump order — crash recovery that may stop partway.
        0 => {
            let vswitch = rng.index(d.vswitches.len());
            let dump = d.vswitches[vswitch].sw.dump_rules();
            let keep = rng.index(dump.len() + 1);
            for delta in ConfigDelta::rebuild(vswitch, dump.into_iter().take(keep)) {
                step_checked(d, checker, &delta)?;
            }
            Ok(())
        }
        // Remove every rule carrying one cookie: one delta per rule,
        // compared at the operation boundary.
        1 => {
            let vswitch = rng.index(d.vswitches.len());
            let dump = d.vswitches[vswitch].sw.dump_rules();
            let Some((_, probe)) = dump.get(rng.index(dump.len().max(1))) else {
                return Ok(());
            };
            let cookie = probe.cookie;
            for (table, rule) in dump.into_iter().filter(|(_, r)| r.cookie == cookie) {
                let delta = ConfigDelta::RuleRemoved {
                    vswitch,
                    table,
                    rule,
                };
                step(d, checker, &delta);
            }
            check_equiv(checker, d, "remove-by-cookie")
        }
        // Static MAC remove + reinstall (net zero, both paths).
        2 => {
            let r = d.plan.tenants[rng.index(tenants)].vf[0].0;
            let statics = d.nic.pf(r.pf).map_err(|e| e.to_string())?.static_macs();
            let Some(&(vlan, mac, port)) = statics.get(rng.index(statics.len().max(1))) else {
                return Ok(());
            };
            let pf = r.pf.0;
            step_checked(d, checker, &ConfigDelta::StaticRemoved { pf, vlan, mac })?;
            let delta = ConfigDelta::StaticInstalled {
                pf,
                vlan,
                mac,
                port,
            };
            step_checked(d, checker, &delta)
        }
        // VEB flush: statics rebuilt from VF configs.
        3 => {
            let pf = d.plan.tenants[rng.index(tenants)].vf[0].0.pf.0;
            step_checked(d, checker, &ConfigDelta::VebFlushed { pf })
        }
        // Filter list rotated by one: same rules, new install order.
        4 => {
            let pf = d.plan.tenants[rng.index(tenants)].vf[0].0.pf;
            let mut filters = d.nic.pf(pf).map_err(|e| e.to_string())?.filters().to_vec();
            if filters.len() > 1 {
                filters.rotate_left(1);
            }
            step_checked(d, checker, &ConfigDelta::FiltersSet { pf: pf.0, filters })
        }
        // Liveness flap: no configuration change, no verdict movement.
        5 => {
            let vswitch = rng.index(d.vswitches.len());
            step_checked(d, checker, &ConfigDelta::VswitchDown { vswitch })?;
            step_checked(d, checker, &ConfigDelta::VswitchUp { vswitch })
        }
        // Move a random VF onto a random tenant's VLAN — sometimes another
        // tenant's, deliberately creating cross-tenant reachability that
        // both verifiers must report identically.
        6 => {
            let r = random_vf(rng, d);
            let vlan = d.plan.tenants[rng.index(tenants)].vlan;
            edit_vf(d, checker, r, |cfg| cfg.vlan = Some(vlan))
        }
        // Toggle spoof-check on a random VF.
        7 => {
            let r = random_vf(rng, d);
            edit_vf(d, checker, r, |cfg| cfg.spoof_check = !cfg.spoof_check)
        }
        // Hostile static install: a VEB entry claiming some tenant's VLAN
        // and an arbitrary MAC (possibly another tenant's gateway) for an
        // arbitrary VF — the family that surfaced StaticHijack.
        8 => {
            let pf = d.plan.tenants[rng.index(tenants)].vf[0].0.pf;
            let statics = d.nic.pf(pf).map_err(|e| e.to_string())?.static_macs();
            let vlan = if rng.chance(0.8) {
                d.plan.tenants[rng.index(tenants)].vlan
            } else {
                rng.below(4096) as u16
            };
            let mac = match statics.get(rng.index(statics.len().max(1))) {
                Some((_, m, _)) if rng.chance(0.7) => *m,
                _ => MacAddr::local(rng.below(1 << 16) as u32),
            };
            let port = NicPort::Vf(VfId(rng.below(8) as u8));
            let delta = ConfigDelta::StaticInstalled {
                pf: pf.0,
                vlan,
                mac,
                port,
            };
            step_checked(d, checker, &delta)
        }
        // Out-of-range deltas: indices no deployment has. The devices
        // refuse or ignore them, and the checker must treat them as the
        // same no-ops.
        9 => {
            for delta in [
                ConfigDelta::RulesWiped { vswitch: 99 },
                ConfigDelta::VebFlushed { pf: 99 },
                ConfigDelta::VswitchDown { vswitch: 77 },
                ConfigDelta::StaticRemoved {
                    pf: 99,
                    vlan: 1,
                    mac: MacAddr::local(1),
                },
            ] {
                step(d, checker, &delta);
            }
            check_equiv(checker, d, "out-of-range-deltas")
        }
        // Hostile VF reconfiguration: re-address the MAC, optionally jump
        // to another tenant's VLAN, optionally drop spoof checking.
        10 => {
            let r = random_vf(rng, d);
            let mac = rng
                .chance(0.5)
                .then(|| MacAddr::local(rng.below(1 << 16) as u32));
            let vlan = rng
                .chance(0.5)
                .then(|| d.plan.tenants[rng.index(tenants)].vlan);
            let keep_spoof_check = rng.chance(0.7);
            edit_vf(d, checker, r, |cfg| {
                cfg.mac = mac.unwrap_or(cfg.mac);
                cfg.vlan = vlan.or(cfg.vlan);
                cfg.spoof_check &= keep_spoof_check;
            })
        }
        // A rule naming a value the atomization does not have.
        _ => {
            let v = rng.index(d.vswitches.len());
            let (kind, n) = (rng.below(3), rng.below(256) as u8);
            let priority = rng.between(1, 100) as u16;
            fresh_value_op(d, checker, v, kind, n, priority)
        }
    }
}

/// Replays the op subset `ops` of a stream case. Each op's randomness is
/// derived from its index, so subsets replay deterministically.
pub(crate) fn run_case(seed: u64, spec: DeploymentSpec, ops: &[u64]) -> Result<(), String> {
    let base = DetRng::new(seed).derive("delta-stream");
    let mut d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut checker = IncrementalChecker::of_deployment(&d).map_err(|e| e.to_string())?;
    check_equiv(&mut checker, &d, "construction")?;
    for &op in ops {
        let mut op_rng = base.clone().derive_indexed("op", op);
        apply_op(&mut op_rng, &mut d, &mut checker)?;
    }
    Ok(())
}

/// Runs the delta-stream surface for `budget` cases.
pub fn fuzz(rng: &mut DetRng, budget: u64) -> SurfaceStats {
    crate::fuzz_streams(Surface::Delta, rng, budget, OPS_PER_CASE, run_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_budget_runs_clean() {
        let mut rng = DetRng::new(17);
        let stats = fuzz(&mut rng, 6);
        assert_eq!(stats.cases, 6);
        assert!(stats.crashers.is_empty(), "{:?}", stats.crashers);
        assert_eq!(stats.accepted, 6);
    }

    #[test]
    fn op_subsets_replay_deterministically() {
        let matrix = mts_isocheck::shipped_matrix();
        let subset = [0u64, 3, 7];
        let a = run_case(0xabcd, matrix[0], &subset).is_ok();
        let b = run_case(0xabcd, matrix[0], &subset).is_ok();
        assert_eq!(a, b);
    }
}
