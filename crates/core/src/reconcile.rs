//! Controller reconciliation: converge the devices to the desired state.
//!
//! The controller computes the dataplane state it wants — per-PF static MAC
//! entries, security filters and VF configurations, plus every vswitch's
//! flow rules — as a plain-data [`DesiredConfig`]. [`converge`] diffs the
//! live state against the desired config and turns each missing or stray
//! piece into a [`ConfigDelta`], which [`ConfigDelta::apply`] programs.
//! Deploy converges an empty topology; after any fault (VEB table flush,
//! flow-rule wipe or partial loss, a vswitch-VM restart with empty
//! tables), [`reconcile`] converges the damaged world to the same value.
//!
//! The pass is **idempotent**: running it on an already-correct world is a
//! no-op with zero churn — the property `crates/faults` tests assert, and
//! the reason the supervisor can run it periodically without disturbing a
//! healthy dataplane. Rule comparison deliberately ignores hit statistics
//! ([`FlowStats`] is runtime state, not configuration).
//!
//! [`FlowStats`]: mts_vswitch::table::FlowStats

use crate::delta::{ConfigDelta, DeltaError};
use crate::runtime::World;
use mts_net::MacAddr;
use mts_nic::{FilterRule, NicError, NicPort, PfId, SriovNic, VfConfig, VfId};
use mts_vswitch::{FlowRule, VirtualSwitch};
use std::cmp::Reverse;
use std::fmt;

/// The controller's desired dataplane state: computed by the controller,
/// applied by the converge pass ([`converge`]).
#[derive(Clone, Debug, PartialEq)]
pub struct DesiredConfig {
    /// Per-PF static MAC entries `(vlan, mac, port)`, sorted by
    /// `(vlan, mac)`; VF entries included.
    pub statics: Vec<Vec<(u16, MacAddr, NicPort)>>,
    /// Per-PF security filter lists, in installation order.
    pub filters: Vec<Vec<FilterRule>>,
    /// Per-PF VF configurations, by VF id.
    pub vfs: Vec<Vec<(VfId, VfConfig)>>,
    /// Per-vswitch flow rules as `(table, rule)` pairs, in
    /// [`VirtualSwitch::dump_rules`] order.
    pub rules: Vec<Vec<(u8, FlowRule)>>,
}

impl DesiredConfig {
    /// Adds a rule to vswitch `vswitch`'s table `table`, where
    /// [`VirtualSwitch::dump_rules`] would list it once installed: by table,
    /// then by descending priority, after the rules of equal priority.
    pub fn add_rule(&mut self, vswitch: usize, table: u8, rule: FlowRule) {
        let rules = &mut self.rules[vswitch];
        let key = (table, Reverse(rule.priority));
        let pos = rules.partition_point(|(t, r)| (*t, Reverse(r.priority)) <= key);
        rules.insert(pos, (table, rule));
    }
}

/// Reads the devices' configuration in [`DesiredConfig`]'s own format and
/// order: statics sorted by `(vlan, mac)`, filters in installation order,
/// VFs by id, and rules in [`VirtualSwitch::dump_rules`] order with hit
/// statistics zeroed. A converged world reads back equal to its desired
/// config. Learned MAC entries are runtime state, not configuration, and
/// are left out.
pub fn observed<'a>(
    nic: &SriovNic,
    switches: impl IntoIterator<Item = &'a VirtualSwitch>,
) -> DesiredConfig {
    let pfs = || (0..=u8::MAX).map_while(|p| nic.pf(PfId(p)).ok());
    DesiredConfig {
        statics: pfs().map(|pf| pf.static_macs()).collect(),
        filters: pfs().map(|pf| pf.filters().to_vec()).collect(),
        vfs: pfs()
            .map(|pf| {
                let mut vfs = Vec::with_capacity(pf.vfs().count());
                vfs.extend(pf.vfs().map(|(id, cfg)| (id, cfg.clone())));
                vfs
            })
            .collect(),
        rules: switches
            .into_iter()
            .map(VirtualSwitch::dump_rules)
            .collect(),
    }
}

/// Whether a table already lists exactly the desired rules, in order and
/// ignoring hit statistics: a healthy table is compared pairwise without
/// allocating. A table holding the same rules in another order diverges,
/// since equal-priority rules match in installation order.
fn rules_in_order(want: &[(u8, FlowRule)], sw: &VirtualSwitch) -> bool {
    let mut have = sw.rules();
    want.iter().all(|(t, w)| {
        have.next()
            .is_some_and(|(ht, h)| ht == *t && h.same_config(w))
    }) && have.next().is_none()
}

/// The report's numbers for a diverged table: the desired rules it lacks
/// and the rules it has beyond them, as multisets ignoring hit statistics.
/// A table that holds the desired rules out of order counts each rule out
/// of place as one removal and one reinstall.
fn rule_churn(want: &[(u8, FlowRule)], sw: &VirtualSwitch) -> (u64, u64) {
    let mut unmatched: Vec<(u8, &FlowRule)> = sw.rules().collect();
    let mut missing = 0u64;
    for (t, w) in want {
        match unmatched
            .iter()
            .position(|&(ht, h)| ht == *t && h.same_config(w))
        {
            Some(pos) => {
                unmatched.swap_remove(pos);
            }
            None => missing += 1,
        }
    }
    if missing == 0 && unmatched.is_empty() {
        let misplaced = want
            .iter()
            .zip(sw.rules())
            .filter(|((t, w), (ht, h))| ht != t || !h.same_config(w))
            .count() as u64;
        return (misplaced, misplaced);
    }
    (missing, unmatched.len() as u64)
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
    /// Stray flow rules removed (present live, absent from the desired config).
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

/// Converges the NIC and the vswitches (in world order) to `want`: each
/// difference found becomes a [`ConfigDelta`], applied to the devices
/// ([`ConfigDelta::apply`]) and then handed to `emit`, in order.
///
/// Statics are diffed by `(vlan, mac)` key: a key present with the wrong
/// port is re-installed, not removed. A flow table that does not list the
/// desired rules in order is rebuilt; rebuilding resets its rules' hit
/// counters, acceptable after a fault and the reason a healthy table is
/// left alone. A VF that does not exist yet is created, and its error
/// (VF limit, duplicate MAC) aborts the pass.
pub fn converge<'a>(
    want: &DesiredConfig,
    nic: &mut SriovNic,
    switches: impl IntoIterator<Item = &'a mut VirtualSwitch>,
    emit: &mut dyn FnMut(ConfigDelta),
) -> Result<ReconcileReport, NicError> {
    let mut report = ReconcileReport::default();
    // Programs one delta into the NIC and, for a rule delta, into `sw`.
    let mut program = |nic: &mut SriovNic, sw: Option<&mut VirtualSwitch>, d: ConfigDelta| {
        match d.apply(nic, |_| sw) {
            Ok(()) => emit(d),
            Err(DeltaError::Nic(e)) => return Err(e),
            // Every rule delta here comes with the vswitch it names.
            Err(DeltaError::NoSuchVswitch(_)) => {}
        }
        Ok(())
    };
    for (p, want_statics) in want.statics.iter().enumerate() {
        let pf = p as u8;
        // VF configurations first: their static entries come with them.
        for (id, cfg) in &want.vfs[p] {
            if nic.pf(PfId(pf))?.vf(*id) == Some(cfg) {
                continue;
            }
            let cfg = cfg.clone();
            program(nic, None, ConfigDelta::VfConfigured { pf, vf: id.0, cfg })?;
            report.vfs_reconfigured += 1;
        }
        // Compared in place first: a pass over a healthy PF allocates
        // nothing, and only a diverged one is diffed against its statics.
        let sw = nic.pf(PfId(pf))?;
        if !sw.statics_are(want_statics) {
            let have = sw.static_macs();
            for &(vlan, mac, port) in want_statics {
                if !have.contains(&(vlan, mac, port)) {
                    let d = ConfigDelta::StaticInstalled {
                        pf,
                        vlan,
                        mac,
                        port,
                    };
                    program(nic, None, d)?;
                    report.statics_installed += 1;
                }
            }
            for &(vlan, mac, _) in &have {
                if !want_statics.iter().any(|&(v, m, _)| (v, m) == (vlan, mac)) {
                    program(nic, None, ConfigDelta::StaticRemoved { pf, vlan, mac })?;
                    report.statics_removed += 1;
                }
            }
        }
        let want_filters = &want.filters[p];
        if nic.pf(PfId(pf))?.filters() != want_filters.as_slice() {
            let filters = want_filters.clone();
            program(nic, None, ConfigDelta::FiltersSet { pf, filters })?;
            report.filter_sets_replaced += 1;
        }
    }

    for (i, (want_rules, sw)) in want.rules.iter().zip(switches).enumerate() {
        if rules_in_order(want_rules, sw) {
            continue;
        }
        let (missing, extra) = rule_churn(want_rules, sw);
        for d in ConfigDelta::rebuild(i, want_rules.iter().cloned()) {
            program(nic, Some(&mut *sw), d)?;
        }
        report.rules_installed += missing;
        report.rules_removed += extra;
        report.vswitches_rebuilt += 1;
    }
    Ok(report)
}

/// Runs one reconciliation pass, converging the world's NIC and vswitches
/// back to its [`DesiredConfig`]. Returns what changed.
pub fn reconcile(w: &mut World) -> ReconcileReport {
    // Deltas are collected locally (the devices are borrowed across the
    // pass) and emitted, in mutation order, once the pass is done.
    let mut emitted: Vec<ConfigDelta> = Vec::new();
    let converged = converge(
        &w.desired,
        &mut w.nic,
        w.vswitches.iter_mut().map(|vs| &mut vs.inst.sw),
        &mut |d| emitted.push(d),
    );
    // Only creating a VF can fail, and faults reconfigure VFs but never
    // remove them: every VF the pass touches here already exists.
    debug_assert!(converged.is_ok(), "reconcile created a VF: {converged:?}");
    let report = converged.unwrap_or_default();
    for vs in w.vswitches.iter_mut().take(w.desired.rules.len()) {
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
    use mts_vswitch::{Action, DatapathKind, FlowMatch};

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
        w.apply(ConfigDelta::RulesWiped { vswitch: 0 }).unwrap();
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

    fn observed_of(w: &World) -> DesiredConfig {
        observed(&w.nic, w.vswitches.iter().map(|vs| &vs.inst.sw))
    }

    #[test]
    fn a_re_ported_static_is_reinstalled_not_removed() {
        let mut w = world();
        let vf0 = NicPort::Vf(VfId(0));
        let &(vlan, mac, _) = w.desired.statics[0]
            .iter()
            .find(|(_, _, port)| *port == vf0)
            .expect("PF 0 holds VF 0's static");
        let port = NicPort::Pf;
        w.apply(ConfigDelta::StaticInstalled {
            pf: 0,
            vlan,
            mac,
            port,
        })
        .unwrap();
        let r = reconcile(&mut w);
        assert_eq!((r.statics_installed, r.statics_removed), (1, 0), "{r}");
        assert_eq!(observed_of(&w), w.desired);
        assert_eq!(reconcile(&mut w).churn(), 0);
    }

    #[test]
    fn equal_priority_rules_out_of_order_are_rebuilt() {
        let mut w = world();
        let rules = w.vswitches[0].inst.sw.dump_rules();
        let (table, first) = rules
            .windows(2)
            .find(|p| p[0].0 == p[1].0 && p[0].1.priority == p[1].1.priority)
            .map(|p| p[0].clone())
            .expect("vswitch 0 has an equal-priority pair");
        // Reinstalled, the first rule of the pair matches after the second.
        let rule = first.clone();
        w.apply(ConfigDelta::RuleRemoved {
            vswitch: 0,
            table,
            rule,
        })
        .unwrap();
        w.apply(ConfigDelta::RuleInstalled {
            vswitch: 0,
            table,
            rule: first,
        })
        .unwrap();
        assert_ne!(observed_of(&w), w.desired);
        let r = reconcile(&mut w);
        assert!(r.churn() > 0, "{r}");
        assert_eq!(r.vswitches_rebuilt, 1);
        assert_eq!(observed_of(&w), w.desired);
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
