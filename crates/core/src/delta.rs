//! Typed configuration-delta stream for incremental verification.
//!
//! Every runtime path that mutates *configuration* — controller
//! reconciliation ([`crate::reconcile`](mod@crate::reconcile)), supervisor restarts
//! ([`crate::supervisor`]), and fault injection (`mts-faults`) — records
//! what it changed as a [`ConfigDelta`] in the world's [`DeltaLog`].
//! Dynamic state (MAC learning, flow-cache contents, rule hit counters)
//! is deliberately *not* configuration and emits nothing.
//!
//! The stream is consumed by `mts_isocheck::incremental`, which maintains
//! the verified model delta-by-delta instead of re-extracting and
//! re-atomizing the world on every check. The contract is equivalence:
//! replaying the drained log against the initial configuration must land
//! on exactly the configuration the world holds now — which the
//! incremental checker machine-checks against the full verifier on every
//! fault-panel cell and in the delta-equivalence test suite.

use mts_net::MacAddr;
use mts_nic::{FilterRule, NicPort, VfConfig};
use mts_vswitch::FlowRule;
use std::fmt;

/// One configuration mutation, as observed at the site that performed it.
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
}

impl fmt::Display for ConfigDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigDelta::RuleInstalled { vswitch, table, .. } => {
                write!(f, "rule-installed vswitch {vswitch} table {table}")
            }
            ConfigDelta::RuleRemoved { vswitch, table, .. } => {
                write!(f, "rule-removed vswitch {vswitch} table {table}")
            }
            ConfigDelta::RulesWiped { vswitch } => write!(f, "rules-wiped vswitch {vswitch}"),
            ConfigDelta::FiltersSet { pf, filters } => {
                write!(f, "filters-set pf {pf} ({} rules)", filters.len())
            }
            ConfigDelta::StaticInstalled { pf, vlan, mac, .. } => {
                write!(f, "static-installed pf {pf} vlan {vlan} {mac}")
            }
            ConfigDelta::StaticRemoved { pf, vlan, mac } => {
                write!(f, "static-removed pf {pf} vlan {vlan} {mac}")
            }
            ConfigDelta::VebFlushed { pf } => write!(f, "veb-flushed pf {pf}"),
            ConfigDelta::VfConfigured { pf, vf, .. } => write!(f, "vf-configured {pf}/{vf}"),
            ConfigDelta::VfRemoved { pf, vf } => write!(f, "vf-removed {pf}/{vf}"),
            ConfigDelta::VswitchUp { vswitch } => write!(f, "vswitch-up {vswitch}"),
            ConfigDelta::VswitchDown { vswitch } => write!(f, "vswitch-down {vswitch}"),
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

    /// Iterates the undrained deltas without consuming them.
    pub fn iter(&self) -> impl Iterator<Item = &(u64, ConfigDelta)> {
        self.events.iter()
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
