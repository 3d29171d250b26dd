//! Configuration deltas: the operations that program the devices.
//!
//! A [`ConfigDelta`] *is* a configuration change: [`ConfigDelta::apply`]
//! is the one place that programs a NIC or a vswitch, so each kind's
//! device-side meaning is defined once (its model-side meaning is
//! `mts_isocheck`'s `IncrementalChecker::apply`). Convergence
//! ([`crate::reconcile::converge`]), supervisor restarts, fault injection,
//! seeded misconfigurations and the churn generators all build deltas and
//! hand them to it; in a live world
//! [`World::apply`](crate::runtime::World::apply) also records each one in
//! the world's [`DeltaLog`]. Dynamic state (MAC learning, flow-cache
//! contents, rule hit counters) is not configuration and has no delta.
//!
//! The log feeds `mts_isocheck::incremental`, which maintains the verified
//! model delta by delta instead of re-extracting the world on every check.
//! Since it holds the very operations the devices ran, replaying it onto
//! the initial configuration lands on the devices' configuration now: the
//! fault tests check that on the devices, and the incremental checker
//! against the full verifier on every fault-panel cell and churn stream.

use crate::vfplan::VfRef;
use mts_net::MacAddr;
use mts_nic::{FilterRule, NicError, NicPort, PfId, SriovNic, VfConfig, VfId};
use mts_vswitch::{FlowRule, VirtualSwitch};
use std::fmt;

/// One configuration change, programmed by [`ConfigDelta::apply`].
///
/// Vswitch indices are world indices (`World::vswitches`); PF/VF indices
/// are raw ids. [`ConfigDelta::VswitchDown`] / [`ConfigDelta::VswitchUp`]
/// track liveness for completeness of the stream — a crashed vswitch has
/// its tables wiped by the accompanying [`ConfigDelta::RulesWiped`], which
/// is what the header-space model actually sees.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigDelta {
    /// A flow rule was installed into `table` of vswitch `vswitch`.
    RuleInstalled {
        /// World vswitch index.
        vswitch: usize,
        /// Table id.
        table: u8,
        /// The installed rule.
        rule: FlowRule,
    },
    /// One flow rule (matched by its configuration identity, ignoring hit
    /// statistics) was removed from `table` of vswitch `vswitch`.
    RuleRemoved {
        /// World vswitch index.
        vswitch: usize,
        /// Table id.
        table: u8,
        /// The removed rule.
        rule: FlowRule,
    },
    /// Every flow table of vswitch `vswitch` was cleared.
    RulesWiped {
        /// World vswitch index.
        vswitch: usize,
    },
    /// PF `pf`'s security filter list was replaced wholesale.
    FiltersSet {
        /// Physical function.
        pf: u8,
        /// The new filter list, in installation order.
        filters: Vec<FilterRule>,
    },
    /// A static MAC entry was installed into PF `pf`'s VEB.
    StaticInstalled {
        /// Physical function.
        pf: u8,
        /// VLAN id.
        vlan: u16,
        /// MAC address.
        mac: MacAddr,
        /// Destination port.
        port: NicPort,
    },
    /// A static MAC entry was removed from PF `pf`'s VEB.
    StaticRemoved {
        /// Physical function.
        pf: u8,
        /// VLAN id.
        vlan: u16,
        /// MAC address.
        mac: MacAddr,
    },
    /// PF `pf`'s VEB forwarding table (static and learned) was flushed.
    VebFlushed {
        /// Physical function.
        pf: u8,
    },
    /// VF `vf` of PF `pf` was (re)configured.
    VfConfigured {
        /// Physical function.
        pf: u8,
        /// Virtual function.
        vf: u8,
        /// The new configuration.
        cfg: VfConfig,
    },
    /// VF `vf` of PF `pf` was removed.
    VfRemoved {
        /// Physical function.
        pf: u8,
        /// Virtual function.
        vf: u8,
    },
    /// Vswitch `vswitch` came (back) up.
    VswitchUp {
        /// World vswitch index.
        vswitch: usize,
    },
    /// Vswitch `vswitch` went down.
    VswitchDown {
        /// World vswitch index.
        vswitch: usize,
    },
}

impl ConfigDelta {
    /// Short kind label (telemetry, bench dispatch tags).
    pub fn kind(&self) -> &'static str {
        match self {
            ConfigDelta::RuleInstalled { .. } => "rule-installed",
            ConfigDelta::RuleRemoved { .. } => "rule-removed",
            ConfigDelta::RulesWiped { .. } => "rules-wiped",
            ConfigDelta::FiltersSet { .. } => "filters-set",
            ConfigDelta::StaticInstalled { .. } => "static-installed",
            ConfigDelta::StaticRemoved { .. } => "static-removed",
            ConfigDelta::VebFlushed { .. } => "veb-flushed",
            ConfigDelta::VfConfigured { .. } => "vf-configured",
            ConfigDelta::VfRemoved { .. } => "vf-removed",
            ConfigDelta::VswitchUp { .. } => "vswitch-up",
            ConfigDelta::VswitchDown { .. } => "vswitch-down",
        }
    }

    /// The delta that reconfigures VF `r` to its current configuration as
    /// changed by `edit`.
    pub fn vf_edit(
        nic: &SriovNic,
        r: VfRef,
        edit: impl FnOnce(&mut VfConfig),
    ) -> Result<ConfigDelta, NicError> {
        let cfg = nic.pf(r.pf)?.vf(r.vf);
        let mut cfg = cfg.cloned().ok_or(NicError::NoSuchVf(r.pf, r.vf))?;
        edit(&mut cfg);
        let (pf, vf) = (r.pf.0, r.vf.0);
        Ok(ConfigDelta::VfConfigured { pf, vf, cfg })
    }

    /// The deltas that rebuild vswitch `vswitch`'s tables to hold `rules`
    /// (table, rule): a wipe, then each rule installed in order — how a
    /// table is repaired and how a restarted vswitch is refilled.
    pub fn rebuild(
        vswitch: usize,
        rules: impl IntoIterator<Item = (u8, FlowRule)>,
    ) -> impl Iterator<Item = ConfigDelta> {
        let install = move |(table, rule)| ConfigDelta::RuleInstalled {
            vswitch,
            table,
            rule,
        };
        std::iter::once(ConfigDelta::RulesWiped { vswitch }).chain(rules.into_iter().map(install))
    }

    /// Programs the change into `nic` and, for a vswitch delta, into the
    /// vswitch `vswitch` returns for the delta's world index. An index with
    /// no vswitch programs nothing, as in the verifier's model.
    ///
    /// A VF that does not exist yet is created through
    /// [`SriovNic::create_vf`], which keeps the NIC's VF-limit and
    /// duplicate-MAC checks; an existing one is reconfigured in place. A
    /// rule removal takes the first rule with the same configuration
    /// ([`FlowRule::same_config`]), a rule for a table the vswitch lacks
    /// installs nothing, and liveness deltas program nothing. An error
    /// (a PF or VF the NIC does not have, or a refused VF) means nothing
    /// changed.
    pub fn apply<'v>(
        &self,
        nic: &mut SriovNic,
        vswitch: impl FnOnce(usize) -> Option<&'v mut VirtualSwitch>,
    ) -> Result<(), NicError> {
        match self {
            ConfigDelta::RuleInstalled {
                vswitch: i,
                table,
                rule,
            } => {
                if let Some(sw) = vswitch(*i) {
                    let _ = sw.install(*table, rule.clone());
                }
            }
            ConfigDelta::RuleRemoved {
                vswitch: i,
                table,
                rule,
            } => {
                if let Some(sw) = vswitch(*i) {
                    sw.remove_rule(*table, rule);
                }
            }
            ConfigDelta::RulesWiped { vswitch: i } => {
                if let Some(sw) = vswitch(*i) {
                    sw.clear();
                }
            }
            ConfigDelta::FiltersSet { pf, filters } => {
                nic.pf_mut(PfId(*pf))?.set_filters(filters.clone());
            }
            ConfigDelta::StaticInstalled {
                pf,
                vlan,
                mac,
                port,
            } => nic
                .pf_mut(PfId(*pf))?
                .install_static_mac(*vlan, *mac, *port),
            ConfigDelta::StaticRemoved { pf, vlan, mac } => {
                nic.pf_mut(PfId(*pf))?.remove_static_mac(*vlan, *mac);
            }
            ConfigDelta::VebFlushed { pf } => nic.pf_mut(PfId(*pf))?.flush_table(),
            ConfigDelta::VfConfigured { pf, vf, cfg } => {
                let (pf, vf) = (PfId(*pf), VfId(*vf));
                if nic.pf(pf)?.vf(vf).is_some() {
                    nic.pf_mut(pf)?.configure_vf(vf, cfg.clone());
                } else {
                    nic.create_vf(pf, vf, cfg.clone())?;
                }
            }
            ConfigDelta::VfRemoved { pf, vf } => {
                nic.remove_vf(PfId(*pf), VfId(*vf))?;
            }
            ConfigDelta::VswitchUp { .. } | ConfigDelta::VswitchDown { .. } => {}
        }
        Ok(())
    }
}

impl fmt::Display for ConfigDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.kind())?;
        match self {
            ConfigDelta::RuleInstalled { vswitch, table, .. }
            | ConfigDelta::RuleRemoved { vswitch, table, .. } => {
                write!(f, " vswitch {vswitch} table {table}")
            }
            ConfigDelta::RulesWiped { vswitch } => write!(f, " vswitch {vswitch}"),
            ConfigDelta::FiltersSet { pf, filters } => {
                write!(f, " pf {pf} ({} rules)", filters.len())
            }
            ConfigDelta::StaticInstalled { pf, vlan, mac, .. }
            | ConfigDelta::StaticRemoved { pf, vlan, mac } => {
                write!(f, " pf {pf} vlan {vlan} {mac}")
            }
            ConfigDelta::VebFlushed { pf } => write!(f, " pf {pf}"),
            ConfigDelta::VfConfigured { pf, vf, .. } | ConfigDelta::VfRemoved { pf, vf } => {
                write!(f, " {pf}/{vf}")
            }
            ConfigDelta::VswitchUp { vswitch } | ConfigDelta::VswitchDown { vswitch } => {
                write!(f, " {vswitch}")
            }
        }
    }
}

/// Append-only log of configuration deltas, sequence-numbered in emission
/// order. Drained by whichever verifier is watching the world; an
/// unwatched log simply accumulates (configuration churn is rare and
/// small next to traffic state, so this costs nothing on the hot path).
#[derive(Default)]
pub struct DeltaLog {
    next_seq: u64,
    events: Vec<(u64, ConfigDelta)>,
}

impl DeltaLog {
    /// Appends a delta, returning its sequence number.
    pub fn push(&mut self, d: ConfigDelta) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push((seq, d));
        seq
    }

    /// Number of undrained deltas.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no undrained deltas.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total deltas ever emitted (sequence numbers survive drains).
    pub fn emitted(&self) -> u64 {
        self.next_seq
    }

    /// Takes every undrained delta, in emission order.
    pub fn drain(&mut self) -> Vec<(u64, ConfigDelta)> {
        std::mem::take(&mut self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_sequences_and_drains() {
        let mut log = DeltaLog::default();
        assert!(log.is_empty());
        assert_eq!(log.push(ConfigDelta::RulesWiped { vswitch: 0 }), 0);
        assert_eq!(log.push(ConfigDelta::VebFlushed { pf: 1 }), 1);
        assert_eq!(log.len(), 2);
        let drained = log.drain();
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].0, 0);
        assert_eq!(drained[1].0, 1);
        assert!(log.is_empty());
        // Sequence numbers continue across drains.
        assert_eq!(log.push(ConfigDelta::VswitchDown { vswitch: 2 }), 2);
        assert_eq!(log.emitted(), 3);
    }

    #[test]
    fn kinds_and_display_are_stable() {
        let d = ConfigDelta::RulesWiped { vswitch: 3 };
        assert_eq!(d.kind(), "rules-wiped");
        assert_eq!(d.to_string(), "rules-wiped vswitch 3");
        let d = ConfigDelta::StaticRemoved {
            pf: 0,
            vlan: 100,
            mac: MacAddr::local(7),
        };
        assert_eq!(d.kind(), "static-removed");
    }
}
