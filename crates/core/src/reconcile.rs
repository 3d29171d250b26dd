//! Controller reconciliation: re-derive and re-program dataplane state.
//!
//! The controller captures the configuration it programmed at deploy time
//! — per-PF static MAC entries, security filters and VF configurations,
//! plus every vswitch's flow rules — as a [`DesiredConfig`]. After any
//! fault (VEB table flush, flow-rule wipe or partial loss, a vswitch-VM
//! restart with empty tables), [`reconcile`] diffs the live state against
//! the snapshot and re-programs exactly the missing or stray pieces.
//!
//! The pass is **idempotent**: running it on an already-correct world is a
//! no-op with zero churn — the property `crates/faults` tests assert, and
//! the reason the supervisor can run it periodically without disturbing a
//! healthy dataplane. Rule comparison deliberately ignores hit statistics
//! ([`FlowStats`] is runtime state, not configuration).
//!
//! [`FlowStats`]: mts_vswitch::table::FlowStats

use crate::delta::ConfigDelta;
use crate::runtime::World;
use mts_net::MacAddr;
use mts_nic::{FilterRule, NicPort, PfId, VfConfig, VfId};
use mts_vswitch::{Action, FlowMatch, FlowRule};
use std::fmt;

/// The controller's desired dataplane state: the reconciliation target.
#[derive(Clone)]
pub struct DesiredConfig {
    /// Per-PF static MAC entries `(vlan, mac, port)`, sorted.
    pub statics: Vec<Vec<(u16, MacAddr, NicPort)>>,
    /// Per-PF security filter lists, in installation order.
    pub filters: Vec<Vec<FilterRule>>,
    /// Per-PF VF configurations.
    pub vfs: Vec<Vec<(VfId, VfConfig)>>,
    /// Per-vswitch flow rules as `(table, rule)` pairs.
    pub rules: Vec<Vec<(u8, FlowRule)>>,
}

/// The configuration identity of a flow rule: everything except its hit
/// statistics.
type RuleKey = (u8, u16, FlowMatch, Vec<Action>, u64);

fn rule_key(table: u8, r: &FlowRule) -> RuleKey {
    (table, r.priority, r.m.clone(), r.actions.clone(), r.cookie)
}

impl DesiredConfig {
    /// Snapshots the live state of a freshly-built world. Called by
    /// `World::new` right after the controller finished programming, so
    /// the snapshot *is* the controller's intent.
    pub fn capture(w: &World) -> DesiredConfig {
        let ports = w.wires_out.len();
        let mut statics = Vec::with_capacity(ports);
        let mut filters = Vec::with_capacity(ports);
        let mut vfs = Vec::with_capacity(ports);
        for p in 0..ports {
            match w.nic.pf(PfId(p as u8)) {
                Ok(sw) => {
                    statics.push(sw.static_macs());
                    filters.push(sw.filters().to_vec());
                    vfs.push(sw.vfs().map(|(id, cfg)| (id, cfg.clone())).collect());
                }
                Err(_) => {
                    statics.push(Vec::new());
                    filters.push(Vec::new());
                    vfs.push(Vec::new());
                }
            }
        }
        let rules = w
            .vswitches
            .iter()
            .map(|vs| vs.inst.sw.dump_rules())
            .collect();
        DesiredConfig {
            statics,
            filters,
            vfs,
            rules,
        }
    }
}

/// What one reconciliation pass changed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReconcileReport {
    /// Static MAC entries re-installed.
    pub statics_installed: u64,
    /// Stray static MAC entries removed.
    pub statics_removed: u64,
    /// PFs whose filter list was replaced wholesale.
    pub filter_sets_replaced: u64,
    /// VFs re-configured to the desired MAC/VLAN/spoof settings.
    pub vfs_reconfigured: u64,
    /// Flow rules re-installed (missing from a live table).
    pub rules_installed: u64,
    /// Stray flow rules removed (present live, absent from the snapshot).
    pub rules_removed: u64,
    /// Vswitches whose tables were rebuilt.
    pub vswitches_rebuilt: u64,
}

impl ReconcileReport {
    /// Total number of programming operations the pass performed; zero
    /// means the world already matched the desired state.
    pub fn churn(&self) -> u64 {
        self.statics_installed
            + self.statics_removed
            + self.filter_sets_replaced
            + self.vfs_reconfigured
            + self.rules_installed
            + self.rules_removed
    }
}

impl fmt::Display for ReconcileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reconcile: +{} / -{} statics, {} filter sets, {} VFs, +{} / -{} rules ({} vswitch rebuilds)",
            self.statics_installed,
            self.statics_removed,
            self.filter_sets_replaced,
            self.vfs_reconfigured,
            self.rules_installed,
            self.rules_removed,
            self.vswitches_rebuilt,
        )
    }
}

/// Runs one reconciliation pass, restoring the world's NIC and vswitch
/// state to the captured [`DesiredConfig`]. Returns what changed.
///
/// Rebuilding a diverged vswitch table resets its flow-rule hit counters —
/// acceptable after a fault, and the reason the pass only rebuilds when
/// the rule *set* actually differs.
pub fn reconcile(w: &mut World) -> ReconcileReport {
    let mut report = ReconcileReport::default();
    let Some(desired) = w.desired.clone() else {
        return report;
    };
    // Deltas are collected locally (the NIC borrow is held across the
    // loop) and emitted, in mutation order, once the pass is done.
    let mut emitted: Vec<ConfigDelta> = Vec::new();

    // NIC state, per PF.
    for (p, want_statics) in desired.statics.iter().enumerate() {
        let Ok(sw) = w.nic.pf_mut(PfId(p as u8)) else {
            continue;
        };
        let pf = p as u8;
        // VF configurations first: their static entries come with them.
        if let Some(want_vfs) = desired.vfs.get(p) {
            for (id, cfg) in want_vfs {
                if sw.vf(*id) != Some(cfg) {
                    sw.configure_vf(*id, cfg.clone());
                    emitted.push(ConfigDelta::VfConfigured {
                        pf,
                        vf: id.0,
                        cfg: cfg.clone(),
                    });
                    report.vfs_reconfigured += 1;
                }
            }
        }
        let have = sw.static_macs();
        for entry in want_statics {
            if !have.contains(entry) {
                sw.install_static_mac(entry.0, entry.1, entry.2);
                emitted.push(ConfigDelta::StaticInstalled {
                    pf,
                    vlan: entry.0,
                    mac: entry.1,
                    port: entry.2,
                });
                report.statics_installed += 1;
            }
        }
        for entry in &have {
            if !want_statics.contains(entry) {
                sw.remove_static_mac(entry.0, entry.1);
                emitted.push(ConfigDelta::StaticRemoved {
                    pf,
                    vlan: entry.0,
                    mac: entry.1,
                });
                report.statics_removed += 1;
            }
        }
        if let Some(want_filters) = desired.filters.get(p) {
            if sw.filters() != want_filters.as_slice() {
                sw.set_filters(want_filters.clone());
                emitted.push(ConfigDelta::FiltersSet {
                    pf,
                    filters: want_filters.clone(),
                });
                report.filter_sets_replaced += 1;
            }
        }
    }

    // Vswitch flow tables: compare rule multisets ignoring hit stats;
    // rebuild only a table set that diverged.
    for (i, want) in desired.rules.iter().enumerate() {
        let Some(vs) = w.vswitches.get_mut(i) else {
            continue;
        };
        let have: Vec<RuleKey> = vs
            .inst
            .sw
            .dump_rules()
            .iter()
            .map(|(t, r)| rule_key(*t, r))
            .collect();
        let want_keys: Vec<RuleKey> = want.iter().map(|(t, r)| rule_key(*t, r)).collect();
        let mut missing = 0u64;
        let mut unmatched = have.clone();
        for k in &want_keys {
            match unmatched.iter().position(|h| h == k) {
                Some(pos) => {
                    unmatched.swap_remove(pos);
                }
                None => missing += 1,
            }
        }
        let extra = unmatched.len() as u64;
        if missing > 0 || extra > 0 {
            vs.inst.sw.clear();
            emitted.push(ConfigDelta::RulesWiped { vswitch: i });
            for (t, r) in want {
                let mut rule = r.clone();
                rule.stats = Default::default();
                emitted.push(ConfigDelta::RuleInstalled {
                    vswitch: i,
                    table: *t,
                    rule: rule.clone(),
                });
                let _ = vs.inst.sw.install(*t, rule);
            }
            report.rules_installed += missing;
            report.rules_removed += extra;
            report.vswitches_rebuilt += 1;
        }
        vs.rules_dirty = false;
    }

    for d in emitted {
        w.emit_delta(d);
    }
    if report.churn() > 0 {
        if let Some(rec) = w.telemetry.rec() {
            rec.metrics
                .counter_add("mts_reconcile_churn_total", &[], report.churn());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::runtime::{RuntimeCfg, World};
    use crate::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn world() -> World {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let d = Controller::deploy(spec).unwrap();
        World::new(d, RuntimeCfg::for_spec(&spec), 7)
    }

    #[test]
    fn reconcile_on_a_correct_world_is_a_no_op() {
        let mut w = world();
        let r1 = reconcile(&mut w);
        assert_eq!(r1.churn(), 0, "first pass must see no divergence: {r1}");
        let r2 = reconcile(&mut w);
        assert_eq!(r2.churn(), 0, "second pass must also be a no-op: {r2}");
    }

    #[test]
    fn reconcile_restores_wiped_flow_rules() {
        let mut w = world();
        let before = w.vswitches[0].inst.sw.rule_count();
        w.vswitches[0].inst.sw.clear();
        w.vswitches[0].rules_dirty = true;
        let r = reconcile(&mut w);
        assert_eq!(r.rules_installed as usize, before);
        assert_eq!(r.vswitches_rebuilt, 1);
        assert_eq!(w.vswitches[0].inst.sw.rule_count(), before);
        assert!(!w.vswitches[0].rules_dirty);
        assert_eq!(reconcile(&mut w).churn(), 0);
    }

    #[test]
    fn reconcile_restores_flushed_veb_statics() {
        let mut w = world();
        let want = w.nic.pf(PfId(0)).unwrap().static_macs();
        w.nic.pf_mut(PfId(0)).unwrap().flush_table();
        let r = reconcile(&mut w);
        assert!(r.statics_installed > 0);
        assert_eq!(w.nic.pf(PfId(0)).unwrap().static_macs(), want);
        assert_eq!(reconcile(&mut w).churn(), 0);
    }

    #[test]
    fn reconcile_removes_stray_state() {
        let mut w = world();
        // A stray static and a stray rule appear out of band.
        w.nic
            .pf_mut(PfId(0))
            .unwrap()
            .install_static_mac(0, MacAddr::local(0xbad), NicPort::Wire);
        let stray = FlowRule::new(1, FlowMatch::default(), vec![Action::Drop]).with_cookie(999);
        w.vswitches[0].inst.sw.install(0, stray).unwrap();
        let r = reconcile(&mut w);
        assert_eq!(r.statics_removed, 1);
        assert_eq!(r.rules_removed, 1);
        assert_eq!(reconcile(&mut w).churn(), 0);
    }

    #[test]
    fn rule_stats_do_not_count_as_divergence() {
        let mut w = world();
        // Push a frame through so some rule accumulates hit stats.
        let rules = w.vswitches[0].inst.sw.dump_rules();
        assert!(!rules.is_empty());
        // Simulate hit-stat drift by reinstalling with nonzero stats.
        w.vswitches[0].inst.sw.clear();
        for (t, mut r) in rules {
            r.stats.packets = 17;
            r.stats.bytes = 1234;
            w.vswitches[0].inst.sw.install(t, r).unwrap();
        }
        assert_eq!(
            reconcile(&mut w).churn(),
            0,
            "hit statistics are not configuration"
        );
    }
}
