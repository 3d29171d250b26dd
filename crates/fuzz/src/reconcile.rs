//! Fuzzing controller reconciliation: randomized out-of-band damage to a
//! live world, repaired by [`mts_core::reconcile::reconcile`].
//!
//! Each case builds a world from the shipped matrix, captures the
//! rendering of its verified isolation report as the baseline, then
//! applies a random set of damage operations — wiped flow tables, flushed
//! VEBs, stray statics and rules, cross-tenant VLAN moves, disabled
//! spoof-checking, a desired static re-pointed at another port, and
//! equal-priority rules put out of order. Each is a [`ConfigDelta`]
//! programmed straight into the devices and left out of the world's log.
//! The oracle after repair:
//!
//! 1. the devices read back ([`observed`]) equal to the desired config,
//!    field for field,
//! 2. a second `reconcile` pass reports zero churn (idempotence), and
//! 3. the world's isolation report renders byte-identical to the
//!    pre-damage baseline (reconciliation restores the verified config).
//!
//! Failures shrink to a minimal damage-op subset; each op draws from an
//! index-derived rng so subsets replay deterministically.

use crate::{Surface, SurfaceStats};
use mts_core::controller::Controller;
use mts_core::delta::ConfigDelta;
use mts_core::reconcile::{observed, reconcile};
use mts_core::runtime::{RuntimeCfg, World};
use mts_core::vfplan::VfRef;
use mts_core::DeploymentSpec;
use mts_net::MacAddr;
use mts_nic::{NicPort, VfConfig};
use mts_sim::DetRng;
use mts_vswitch::{Action, FlowMatch, FlowRule};

/// Damage ops per reconciliation case.
const DAMAGE_PER_CASE: u64 = 4;

/// Programs `d` into the world's devices without logging it: damage is
/// out of band, and only reconciliation may record what it changes.
fn damage(w: &mut World, d: ConfigDelta) -> Result<(), String> {
    let vswitches = &mut w.vswitches;
    d.apply(&mut w.nic, |i| {
        vswitches.get_mut(i).map(|vs| &mut vs.inst.sw)
    })
    .map_err(|e| e.to_string())
}

/// Damages VF `r` by rewriting its configuration with `edit`.
fn damage_vf(w: &mut World, r: VfRef, edit: impl FnOnce(&mut VfConfig)) -> Result<(), String> {
    let delta = ConfigDelta::vf_edit(&w.nic, r, edit).map_err(|e| e.to_string())?;
    damage(w, delta)
}

/// Applies one damage op, drawing randomness only from `rng`.
fn apply_damage(rng: &mut DetRng, w: &mut World) -> Result<(), String> {
    let tenants = w.plan.tenants.len();
    let random_vf = |rng: &mut DetRng, w: &World| {
        let vfs = &w.plan.tenants[rng.index(tenants)].vf;
        vfs[rng.index(vfs.len())].0
    };
    match rng.below(8) {
        // Wipe a vswitch's flow tables (a crash that lost its rules).
        0 => {
            let vswitch = rng.index(w.vswitches.len());
            w.vswitches[vswitch].rules_dirty = true;
            damage(w, ConfigDelta::RulesWiped { vswitch })
        }
        // Flush a VEB forwarding table.
        1 => {
            let pf = rng.below(2) as u8;
            damage(w, ConfigDelta::VebFlushed { pf })
        }
        // Stray static MAC entry appearing out of band.
        2 => {
            let pf = rng.below(2) as u8;
            let vlan = if rng.chance(0.5) {
                w.plan.tenants[rng.index(tenants)].vlan
            } else {
                rng.below(4096) as u16
            };
            let mac = MacAddr::local(0xbad0 + rng.below(16) as u32);
            let port = NicPort::Wire;
            damage(
                w,
                ConfigDelta::StaticInstalled {
                    pf,
                    vlan,
                    mac,
                    port,
                },
            )
        }
        // Stray flow rule with a cookie no controller program uses.
        3 => {
            let vswitch = rng.index(w.vswitches.len());
            let priority = rng.below(8) as u16;
            let rule = FlowRule::new(priority, FlowMatch::default(), vec![Action::Drop])
                .with_cookie(0xdead_0000 + rng.below(256));
            damage(
                w,
                ConfigDelta::RuleInstalled {
                    vswitch,
                    table: 0,
                    rule,
                },
            )
        }
        // Cross-tenant VLAN move on a random VF.
        4 => {
            let r = random_vf(rng, w);
            let vlan = w.plan.tenants[rng.index(tenants)].vlan;
            damage_vf(w, r, |cfg| cfg.vlan = Some(vlan))
        }
        // Spoof checking silently disabled on a random VF.
        5 => {
            let r = random_vf(rng, w);
            damage_vf(w, r, |cfg| cfg.spoof_check = false)
        }
        // A desired static re-pointed at another port (same key).
        6 => {
            let p = rng.index(w.desired.statics.len());
            let statics = &w.desired.statics[p];
            let Some(&(vlan, mac, port)) = statics.get(rng.index(statics.len().max(1))) else {
                return Ok(());
            };
            let port = if port == NicPort::Pf {
                NicPort::Wire
            } else {
                NicPort::Pf
            };
            damage(
                w,
                ConfigDelta::StaticInstalled {
                    pf: p as u8,
                    vlan,
                    mac,
                    port,
                },
            )
        }
        // The first of two equal-priority rules reinstalled, so that it
        // matches after the other.
        _ => {
            let vswitch = rng.index(w.vswitches.len());
            let rules = w.vswitches[vswitch].inst.sw.dump_rules();
            let pairs: Vec<_> = rules
                .windows(2)
                .filter(|p| p[0].0 == p[1].0 && p[0].1.priority == p[1].1.priority)
                .map(|p| p[0].clone())
                .collect();
            let Some((table, rule)) = pairs.get(rng.index(pairs.len().max(1))).cloned() else {
                return Ok(());
            };
            let removed = rule.clone();
            damage(
                w,
                ConfigDelta::RuleRemoved {
                    vswitch,
                    table,
                    rule: removed,
                },
            )?;
            damage(
                w,
                ConfigDelta::RuleInstalled {
                    vswitch,
                    table,
                    rule,
                },
            )
        }
    }
}

/// Replays the damage subset `ops` of a case. `Err` is an oracle
/// violation.
pub(crate) fn run_case(seed: u64, spec: DeploymentSpec, ops: &[u64]) -> Result<(), String> {
    let d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut w = World::new(d, RuntimeCfg::for_spec(&spec), seed);
    let baseline = mts_isocheck::verify_world(&w)
        .map_err(|e| e.to_string())
        .map(|r| format!("{r}"))?;

    let base = DetRng::new(seed).derive("reconcile-damage");
    for &op in ops {
        let mut op_rng = base.clone().derive_indexed("damage", op);
        apply_damage(&mut op_rng, &mut w)?;
    }

    let repair = reconcile(&mut w);
    if observed(&w.nic, w.vswitches.iter().map(|vs| &vs.inst.sw)) != w.desired {
        return Err(format!(
            "reconcile left the devices off the desired config ({repair})"
        ));
    }
    let second = reconcile(&mut w);
    if second.churn() != 0 {
        return Err(format!(
            "reconcile not idempotent: second pass churn {} ({second})",
            second.churn()
        ));
    }
    let after = mts_isocheck::verify_world(&w)
        .map_err(|e| e.to_string())
        .map(|r| format!("{r}"))?;
    if after != baseline {
        return Err(format!(
            "reconcile did not restore the verified config:\n--- baseline ---\n{baseline}\n--- after ---\n{after}"
        ));
    }
    Ok(())
}

/// Runs the reconciliation surface for `budget` cases.
pub fn fuzz(rng: &mut DetRng, budget: u64) -> SurfaceStats {
    crate::fuzz_streams(Surface::Reconcile, rng, budget, DAMAGE_PER_CASE, run_case)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_budget_runs_clean() {
        let mut rng = DetRng::new(23);
        let stats = fuzz(&mut rng, 4);
        assert_eq!(stats.cases, 4);
        assert!(stats.crashers.is_empty(), "{:?}", stats.crashers);
        assert_eq!(stats.accepted, 4);
    }
}
