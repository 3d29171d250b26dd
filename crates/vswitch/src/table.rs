//! Priority-ordered flow tables.

use crate::actions::Action;
use crate::flow::FlowMatch;
use crate::switch::PortNo;
use mts_net::{Frame, Vni};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a flow table within a pipeline.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct TableId(pub u8);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table{}", self.0)
    }
}

/// Per-rule statistics, as OpenFlow exposes for accounting/billing — the
/// paper notes MTS enables billing virtual networking at finer granularity
/// than "a simple flow rule" (Sec. 6); these are the flow-rule baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Packets that hit this rule.
    pub packets: u64,
    /// Bytes (wire length) that hit this rule.
    pub bytes: u64,
}

/// A flow rule: match + priority + action list.
///
/// # Precedence
///
/// Higher `priority` wins. Ties between overlapping rules of equal priority
/// break *deterministically towards the earlier-inserted rule*, regardless
/// of how insertions of other priorities are interleaved:
/// [`FlowTable::add`] places a new rule after every existing rule of the
/// same priority (`partition_point` on `priority >=`), and lookup scans in
/// that stored order. The `mts-isocheck` static analyzer models exactly
/// this order, so a deployment it proves safe stays safe at runtime.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FlowRule {
    /// Higher priorities win; ties break towards earlier insertion.
    pub priority: u16,
    /// The match.
    pub m: FlowMatch,
    /// Actions applied on match, in order.
    pub actions: Vec<Action>,
    /// Opaque controller cookie, naming the program that installed it.
    pub cookie: u64,
    /// Hit statistics.
    pub stats: FlowStats,
}

impl FlowRule {
    /// Creates a rule with cookie 0.
    pub fn new(priority: u16, m: FlowMatch, actions: Vec<Action>) -> Self {
        FlowRule {
            priority,
            m,
            actions,
            cookie: 0,
            stats: FlowStats::default(),
        }
    }

    /// Builder: sets the controller cookie.
    pub fn with_cookie(mut self, cookie: u64) -> Self {
        self.cookie = cookie;
        self
    }

    /// Whether `other` is the same rule as configuration: everything but
    /// hit statistics, which are runtime state.
    pub fn same_config(&self, other: &FlowRule) -> bool {
        self.priority == other.priority
            && self.m == other.m
            && self.actions == other.actions
            && self.cookie == other.cookie
    }
}

/// One flow table: rules kept sorted by descending priority.
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    rules: Vec<FlowRule>,
    misses: u64,
}

impl FlowTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Number of rules installed.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns whether the table has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Lookups that matched no rule.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Installs a rule, keeping priority order (stable for equal priority:
    /// earlier-inserted rules are checked first).
    pub fn add(&mut self, rule: FlowRule) {
        let pos = self.rules.partition_point(|r| r.priority >= rule.priority);
        self.rules.insert(pos, rule);
    }

    /// Removes the first rule with `rule`'s configuration
    /// ([`FlowRule::same_config`]); returns whether there was one.
    pub fn remove(&mut self, rule: &FlowRule) -> bool {
        match self.rules.iter().position(|r| r.same_config(rule)) {
            Some(pos) => {
                self.rules.remove(pos);
                true
            }
            None => false,
        }
    }

    /// Removes every rule.
    pub fn clear(&mut self) {
        self.rules.clear();
    }

    /// Iterates rules in match order.
    pub fn rules(&self) -> impl Iterator<Item = &FlowRule> {
        self.rules.iter()
    }

    /// Finds the highest-priority matching rule, updating statistics.
    pub fn lookup(
        &mut self,
        in_port: PortNo,
        frame: &Frame,
        tun_id: Option<Vni>,
    ) -> Option<&FlowRule> {
        let idx = self
            .rules
            .iter()
            .position(|r| r.m.matches(in_port, frame, tun_id));
        match idx {
            Some(i) => {
                let wire = u64::from(frame.wire_len());
                let r = &mut self.rules[i];
                r.stats.packets += 1;
                r.stats.bytes += wire;
                Some(&self.rules[i])
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Finds the highest-priority matching rule without touching statistics.
    pub fn peek(&self, in_port: PortNo, frame: &Frame, tun_id: Option<Vni>) -> Option<&FlowRule> {
        self.rules
            .iter()
            .find(|r| r.m.matches(in_port, frame, tun_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_net::MacAddr;
    use std::net::Ipv4Addr;

    fn frame(dst_ip: Ipv4Addr) -> Frame {
        Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            dst_ip,
            1,
            2,
            50,
        )
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.add(FlowRule::new(1, FlowMatch::any(), vec![Action::Drop]));
        t.add(FlowRule::new(
            10,
            FlowMatch::to_ip(Ipv4Addr::new(10, 0, 1, 1)),
            vec![Action::Output(PortNo(5))],
        ));
        let hit = t
            .lookup(PortNo(0), &frame(Ipv4Addr::new(10, 0, 1, 1)), None)
            .unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo(5))]);
        let miss = t
            .lookup(PortNo(0), &frame(Ipv4Addr::new(9, 9, 9, 9)), None)
            .unwrap();
        assert_eq!(miss.actions, vec![Action::Drop]);
    }

    #[test]
    fn equal_priority_is_first_inserted() {
        let mut t = FlowTable::new();
        t.add(FlowRule::new(
            5,
            FlowMatch::any(),
            vec![Action::Output(PortNo(1))],
        ));
        t.add(FlowRule::new(
            5,
            FlowMatch::any(),
            vec![Action::Output(PortNo(2))],
        ));
        let hit = t
            .lookup(PortNo(0), &frame(Ipv4Addr::new(1, 1, 1, 1)), None)
            .unwrap();
        assert_eq!(hit.actions, vec![Action::Output(PortNo(1))]);
    }

    #[test]
    fn equal_priority_tie_break_survives_interleaved_inserts() {
        // Regression: insertion order within a priority band must be kept
        // even when rules of other priorities are added in between.
        let mut t = FlowTable::new();
        let rule = |prio: u16, cookie: u64| {
            FlowRule::new(prio, FlowMatch::any(), vec![Action::Drop]).with_cookie(cookie)
        };
        t.add(rule(5, 50));
        t.add(rule(7, 70));
        t.add(rule(5, 51));
        t.add(rule(7, 71));
        t.add(rule(6, 60));
        let order: Vec<u64> = t.rules().map(|r| r.cookie).collect();
        assert_eq!(order, vec![70, 71, 60, 50, 51]);
        // The first-inserted rule of the highest priority wins the lookup.
        let hit = t
            .lookup(PortNo(0), &frame(Ipv4Addr::new(1, 1, 1, 1)), None)
            .unwrap();
        assert_eq!(hit.cookie, 70);
    }

    #[test]
    fn stats_accumulate() {
        let mut t = FlowTable::new();
        t.add(FlowRule::new(1, FlowMatch::any(), vec![Action::Normal]));
        let f = frame(Ipv4Addr::new(1, 1, 1, 1));
        let wire = u64::from(f.wire_len());
        t.lookup(PortNo(0), &f, None);
        t.lookup(PortNo(0), &f, None);
        let r = t.rules().next().unwrap();
        assert_eq!(r.stats.packets, 2);
        assert_eq!(r.stats.bytes, 2 * wire);
        assert_eq!(t.misses(), 0);
    }

    #[test]
    fn miss_counting_and_empty_table() {
        let mut t = FlowTable::new();
        assert!(t
            .lookup(PortNo(0), &frame(Ipv4Addr::new(1, 1, 1, 1)), None)
            .is_none());
        assert_eq!(t.misses(), 1);
        assert!(t.is_empty());
    }

    #[test]
    fn remove_takes_the_first_rule_with_the_same_configuration() {
        let mut t = FlowTable::new();
        let rule = FlowRule::new(1, FlowMatch::any(), vec![Action::Drop]).with_cookie(7);
        t.add(rule.clone());
        t.add(FlowRule::new(2, FlowMatch::any(), vec![Action::Drop]).with_cookie(7));
        let mut counted = rule.clone();
        counted.stats.packets = 5;
        assert!(t.remove(&counted), "hit statistics are not configuration");
        assert!(!t.remove(&rule));
        assert_eq!(t.rules().map(|r| r.priority).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn peek_does_not_count() {
        let mut t = FlowTable::new();
        t.add(FlowRule::new(1, FlowMatch::any(), vec![Action::Drop]));
        assert!(t
            .peek(PortNo(0), &frame(Ipv4Addr::new(1, 1, 1, 1)), None)
            .is_some());
        assert_eq!(t.rules().next().unwrap().stats.packets, 0);
    }
}
