//! The virtual switch: ports, pipeline execution and the `NORMAL` action.

use crate::actions::Action;
use crate::cache::{FlowCache, FlowKey, FlowProgram};
use crate::table::{FlowRule, FlowTable, TableId};
use mts_net::{
    Frame, Ipv4Packet, MacAddr, Payload, Transport, UdpDatagram, UdpPayload, Vni, VXLAN_UDP_PORT,
};
use mts_sim::FastHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// A switch port number (OpenFlow port).
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default, Serialize, Deserialize,
)]
pub struct PortNo(pub u32);

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port{}", self.0)
    }
}

/// What backs a switch port — drives the runtime's cost accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum PortKind {
    /// A physical NIC port or PF (Baseline) attached directly.
    Physical,
    /// An SR-IOV VF (MTS vswitch-VM ports: In/Out VF, Gw VF).
    VfBacked,
    /// A kernel vhost/virtio channel to a local VM (Baseline tenant port).
    Vhost,
    /// A DPDK `dpdkvhostuserclient` port (Baseline Level-3 tenant port).
    DpdkVhostUser,
    /// A switch-internal port (management).
    Internal,
}

/// Metadata of one switch port.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortInfo {
    /// Human-readable name (e.g. `in_out0`, `gw-red0`, `vhost-t1`).
    pub name: String,
    /// Backing kind.
    pub kind: PortKind,
}

/// Aggregate forwarding statistics of a switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchStats {
    /// Frames handed to the switch.
    pub received: u64,
    /// Frames emitted on ports.
    pub emitted: u64,
    /// Frames dropped because no rule matched.
    pub no_match_drops: u64,
    /// Frames dropped by explicit `Drop` actions.
    pub action_drops: u64,
    /// Frames dropped by TTL expiry.
    pub ttl_drops: u64,
    /// Frames dropped by failed decapsulation.
    pub decap_drops: u64,
    /// MAC-learning entries refused because the table was full.
    pub learn_overflow: u64,
}

/// A concrete, fully-resolved datapath operation (what the cache stores).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// Set destination MAC.
    SetDst(MacAddr),
    /// Set source MAC.
    SetSrc(MacAddr),
    /// Push a VLAN tag.
    PushVlan(u16),
    /// Pop the VLAN tag.
    PopVlan,
    /// Decrement TTL (drops the frame at zero).
    DecTtl,
    /// VXLAN-encapsulate.
    Encap {
        /// Tunnel id.
        vni: Vni,
        /// Outer source IP.
        src_ip: Ipv4Addr,
        /// Outer destination IP.
        dst_ip: Ipv4Addr,
        /// Outer source MAC.
        src_mac: MacAddr,
        /// Outer destination MAC.
        dst_mac: MacAddr,
    },
    /// VXLAN-decapsulate (drops non-VXLAN frames).
    Decap,
    /// Emit a copy of the current frame on a port.
    Emit(PortNo),
}

/// The maximum number of MAC-learning entries (`NORMAL` action state).
const MAC_TABLE_CAP: usize = 4096;

/// A multi-table, cache-accelerated virtual switch.
///
/// # Examples
///
/// ```
/// use mts_vswitch::{VirtualSwitch, PortKind, FlowRule, FlowMatch, Action};
/// use mts_net::{Frame, MacAddr};
/// use std::net::Ipv4Addr;
///
/// let mut sw = VirtualSwitch::new("br0");
/// let p_in = sw.add_port("in", PortKind::Physical);
/// let p_out = sw.add_port("out", PortKind::Physical);
/// sw.install(0, FlowRule::new(10, FlowMatch::on_port(p_in),
///     vec![Action::Output(p_out)])).unwrap();
/// let f = Frame::udp_data(MacAddr::local(1), MacAddr::local(2),
///     Ipv4Addr::new(10,0,0,1), Ipv4Addr::new(10,0,0,2), 1, 2, 10);
/// let out = sw.process(p_in, f);
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].0, p_out);
/// ```
pub struct VirtualSwitch {
    name: String,
    ports: BTreeMap<PortNo, PortInfo>,
    next_port: u32,
    tables: Vec<FlowTable>,
    mac_table: FastHashMap<(u16, u64), PortNo>,
    cache: FlowCache,
    stats: SwitchStats,
    /// Per-cookie packet/byte statistics including fast-path hits (the
    /// megaflow push-back real OvS performs during revalidation).
    cookie_stats: FastHashMap<u64, crate::table::FlowStats>,
    /// Per-cookie slow-path traversal counts — how many of a cookie's
    /// packets missed the flow cache. Billing weighs a tenant's share of
    /// vswitch CPU by hits and misses separately, since a miss costs an
    /// order of magnitude more than a hit.
    cookie_misses: FastHashMap<u64, u64>,
    /// Slow-path scratch: [`Self::resolve`] writes the ops and cookies of
    /// the frame at hand here and the cache interns from the slices, so a
    /// miss allocates nothing once the buffers have grown. Cleared before
    /// every use; never read across frames.
    ops_scratch: Vec<Op>,
    cookie_scratch: Vec<u64>,
}

/// Errors from switch configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwitchError {
    /// The referenced table id is out of range.
    NoSuchTable(u8),
    /// The referenced port does not exist.
    NoSuchPort(PortNo),
}

impl fmt::Display for SwitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwitchError::NoSuchTable(t) => write!(f, "no such table {t}"),
            SwitchError::NoSuchPort(p) => write!(f, "no such port {p}"),
        }
    }
}

impl std::error::Error for SwitchError {}

/// Number of pipeline tables (OvS has 255; 8 is ample here).
const NUM_TABLES: usize = 8;

impl VirtualSwitch {
    /// Creates a switch with no ports and empty tables.
    pub fn new(name: impl Into<String>) -> Self {
        VirtualSwitch {
            name: name.into(),
            ports: BTreeMap::new(),
            next_port: 1,
            tables: (0..NUM_TABLES).map(|_| FlowTable::new()).collect(),
            mac_table: FastHashMap::default(),
            cache: FlowCache::new(8192),
            stats: SwitchStats::default(),
            cookie_stats: FastHashMap::default(),
            cookie_misses: FastHashMap::default(),
            ops_scratch: Vec::new(),
            cookie_scratch: Vec::new(),
        }
    }

    /// Returns the switch name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Returns aggregate statistics.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Returns cache statistics.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// Adds a port; port numbers are assigned sequentially from 1.
    pub fn add_port(&mut self, name: impl Into<String>, kind: PortKind) -> PortNo {
        let no = PortNo(self.next_port);
        self.next_port += 1;
        self.ports.insert(
            no,
            PortInfo {
                name: name.into(),
                kind,
            },
        );
        self.cache.bump_generation();
        no
    }

    /// Removes a port, purging learning state.
    pub fn remove_port(&mut self, port: PortNo) -> Result<PortInfo, SwitchError> {
        let info = self
            .ports
            .remove(&port)
            .ok_or(SwitchError::NoSuchPort(port))?;
        self.mac_table.retain(|_, p| *p != port);
        self.cache.bump_generation();
        Ok(info)
    }

    /// Returns a port's metadata.
    pub fn port(&self, port: PortNo) -> Option<&PortInfo> {
        self.ports.get(&port)
    }

    /// Iterates over ports.
    pub fn ports(&self) -> impl Iterator<Item = (PortNo, &PortInfo)> {
        self.ports.iter().map(|(k, v)| (*k, v))
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Installs a rule into a table.
    pub fn install(&mut self, table: u8, rule: FlowRule) -> Result<(), SwitchError> {
        let t = self
            .tables
            .get_mut(table as usize)
            .ok_or(SwitchError::NoSuchTable(table))?;
        t.add(rule);
        self.cache.bump_generation();
        Ok(())
    }

    /// Removes the first rule of `table` with `rule`'s configuration (hit
    /// statistics ignored); returns whether there was one.
    pub fn remove_rule(&mut self, table: u8, rule: &FlowRule) -> bool {
        let removed = self
            .tables
            .get_mut(table as usize)
            .is_some_and(|t| t.remove(rule));
        self.cache.bump_generation();
        removed
    }

    /// Clears all tables and learning state.
    pub fn clear(&mut self) {
        for t in &mut self.tables {
            t.clear();
        }
        self.mac_table.clear();
        self.cache.bump_generation();
    }

    /// Returns the number of rules in a table.
    pub fn table_len(&self, table: u8) -> usize {
        self.tables
            .get(table as usize)
            .map(|t| t.len())
            .unwrap_or(0)
    }

    /// Total rules across all tables.
    pub fn rule_count(&self) -> usize {
        self.tables.iter().map(|t| t.len()).sum()
    }

    /// Processes a frame: fast path on cache hit, full pipeline otherwise.
    ///
    /// Returns `(port, frame)` pairs to emit. Whether the packet hit the
    /// cache is observable via [`Self::cache_stats`] — the runtime charges
    /// different CPU costs for hit and miss.
    pub fn process(&mut self, in_port: PortNo, frame: Frame) -> Vec<(PortNo, Frame)> {
        let mut out = Vec::new();
        self.process_into(in_port, frame, &mut out);
        out
    }

    /// [`Self::process`] appending the emissions to a caller-owned buffer,
    /// so a per-frame loop allocates nothing for them.
    pub fn process_into(&mut self, in_port: PortNo, frame: Frame, out: &mut Vec<(PortNo, Frame)>) {
        self.stats.received += 1;
        let key = FlowKey::of(in_port, &frame);
        let (prog, missed) = match self.cache.get(&key) {
            Some(prog) => (prog, false),
            None => {
                let mut ops = std::mem::take(&mut self.ops_scratch);
                let mut cookies = std::mem::take(&mut self.cookie_scratch);
                ops.clear();
                cookies.clear();
                let cacheable = self.resolve(in_port, &frame, &mut ops, &mut cookies);
                let prog = if cacheable {
                    self.cache.insert(key, &ops, &cookies)
                } else {
                    FlowProgram::new(ops.clone(), cookies.clone())
                };
                self.ops_scratch = ops;
                self.cookie_scratch = cookies;
                (prog, true)
            }
        };
        // Credit the matched rules' cookies (slow path already counted in
        // the tables; this map is the total including fast-path hits).
        let wire = u64::from(frame.wire_len());
        for &cookie in prog.cookies() {
            let st = self.cookie_stats.entry(cookie).or_default();
            st.packets += 1;
            st.bytes += wire;
            if missed {
                *self.cookie_misses.entry(cookie).or_insert(0) += 1;
            }
        }
        self.apply(prog.ops(), frame, out);
    }

    /// Total packets/bytes handled on behalf of rules with `cookie`,
    /// including fast-path (cached) traffic.
    pub fn stats_by_cookie(&self, cookie: u64) -> (u64, u64) {
        self.cookie_stats
            .get(&cookie)
            .map(|s| (s.packets, s.bytes))
            .unwrap_or((0, 0))
    }

    /// How many of `cookie`'s packets took the slow path (cache miss).
    pub fn misses_by_cookie(&self, cookie: u64) -> u64 {
        self.cookie_misses.get(&cookie).copied().unwrap_or(0)
    }

    /// Resolves the pipeline into concrete ops for this packet's key.
    ///
    /// Appends the ops, and the cookies of matched rules (for statistics),
    /// to the caller's buffers. Returns whether the result is cacheable —
    /// `false` when the outcome depends on fields outside the flow key
    /// (currently: TTL expiry).
    fn resolve(
        &mut self,
        in_port: PortNo,
        original: &Frame,
        ops: &mut Vec<Op>,
        cookies: &mut Vec<u64>,
    ) -> bool {
        let mut frame = original.clone();
        let mut tun_id: Option<Vni> = None;
        let mut table = 0usize;
        let mut hops = 0;
        loop {
            hops += 1;
            if hops > NUM_TABLES {
                // Goto loop guard: treat as drop.
                self.stats.action_drops += 1;
                strip_emits(ops);
                return true;
            }
            // The matched rule stays borrowed from `tables` while its
            // actions run; everything they touch is another field.
            let Some(rule) = self
                .tables
                .get_mut(table)
                .and_then(|t| t.lookup(in_port, &frame, tun_id))
            else {
                self.stats.no_match_drops += 1;
                strip_emits(ops);
                return true;
            };
            if rule.cookie != 0 {
                cookies.push(rule.cookie);
            }
            let mut goto: Option<usize> = None;
            for act in &rule.actions {
                match *act {
                    Action::Output(p) => ops.push(Op::Emit(p)),
                    Action::Flood => flood(&self.ports, in_port, ops),
                    Action::Normal => Self::normal(
                        &mut self.mac_table,
                        &mut self.cache,
                        &mut self.stats,
                        &self.ports,
                        in_port,
                        &frame,
                        ops,
                    ),
                    Action::SetEthDst(m) => {
                        frame.dst = m;
                        ops.push(Op::SetDst(m));
                    }
                    Action::SetEthSrc(m) => {
                        frame.src = m;
                        ops.push(Op::SetSrc(m));
                    }
                    Action::PushVlan(v) => {
                        frame = frame.with_vlan(v);
                        ops.push(Op::PushVlan(v));
                    }
                    Action::PopVlan => {
                        frame.vlan = None;
                        ops.push(Op::PopVlan);
                    }
                    Action::DecTtl => {
                        if let Payload::Ipv4(ip) = frame.payload.make_mut() {
                            if ip.ttl <= 1 {
                                self.stats.ttl_drops += 1;
                                // TTL is not part of the flow key: do not cache.
                                strip_emits(ops);
                                return false;
                            }
                            ip.ttl -= 1;
                        }
                        ops.push(Op::DecTtl);
                    }
                    Action::VxlanEncap {
                        vni,
                        src_ip,
                        dst_ip,
                        src_mac,
                        dst_mac,
                    } => {
                        frame = encapsulate(frame, vni, src_ip, dst_ip, src_mac, dst_mac);
                        ops.push(Op::Encap {
                            vni,
                            src_ip,
                            dst_ip,
                            src_mac,
                            dst_mac,
                        });
                    }
                    Action::VxlanDecap => match decapsulate(frame.clone()) {
                        Some((inner, vni)) => {
                            frame = inner;
                            tun_id = Some(vni);
                            ops.push(Op::Decap);
                        }
                        None => {
                            self.stats.decap_drops += 1;
                            strip_emits(ops);
                            return true;
                        }
                    },
                    Action::GotoTable(TableId(t)) => {
                        goto = Some(t as usize);
                    }
                    Action::Drop => {
                        self.stats.action_drops += 1;
                        strip_emits(ops);
                        return true;
                    }
                }
            }
            match goto {
                Some(next) if next > table => table = next,
                Some(_) => {
                    // Backward goto is illegal (loop); drop.
                    self.stats.action_drops += 1;
                    strip_emits(ops);
                    return true;
                }
                None => return true,
            }
        }
    }

    /// The `NORMAL` learning-switch behaviour. Takes the switch state it reads
    /// and updates field by field, so it can run while the matched rule is
    /// still borrowed from the tables.
    fn normal(
        mac_table: &mut FastHashMap<(u16, u64), PortNo>,
        cache: &mut FlowCache,
        stats: &mut SwitchStats,
        ports: &BTreeMap<PortNo, PortInfo>,
        in_port: PortNo,
        frame: &Frame,
        ops: &mut Vec<Op>,
    ) {
        let vlan = frame.vlan.map(|t| t.vid).unwrap_or(0);
        // Learn the source towards the ingress port.
        if frame.src.is_unicast() {
            let key = (vlan, frame.src.as_u64());
            let known = mac_table.get(&key).copied();
            if known != Some(in_port) {
                if mac_table.len() >= MAC_TABLE_CAP && known.is_none() {
                    stats.learn_overflow += 1;
                } else {
                    mac_table.insert(key, in_port);
                    // Learning changes future NORMAL resolutions.
                    cache.bump_generation();
                }
            }
        }
        // Forward or flood.
        if frame.dst.is_unicast() {
            if let Some(port) = mac_table.get(&(vlan, frame.dst.as_u64())) {
                if *port != in_port {
                    ops.push(Op::Emit(*port));
                }
                return;
            }
        }
        flood(ports, in_port, ops);
    }

    /// Applies resolved ops to a frame, appending its emissions to `out`.
    fn apply(&mut self, ops: &[Op], frame: Frame, out: &mut Vec<(PortNo, Frame)>) {
        let mut cur = frame;
        for op in ops {
            match op {
                Op::SetDst(m) => cur.dst = *m,
                Op::SetSrc(m) => cur.src = *m,
                Op::PushVlan(v) => cur = cur.with_vlan(*v),
                Op::PopVlan => cur.vlan = None,
                Op::DecTtl => {
                    if let Payload::Ipv4(ip) = cur.payload.make_mut() {
                        if ip.ttl <= 1 {
                            self.stats.ttl_drops += 1;
                            break;
                        }
                        ip.ttl -= 1;
                    }
                }
                Op::Encap {
                    vni,
                    src_ip,
                    dst_ip,
                    src_mac,
                    dst_mac,
                } => {
                    cur = encapsulate(cur, *vni, *src_ip, *dst_ip, *src_mac, *dst_mac);
                }
                Op::Decap => match decapsulate(cur) {
                    Some((inner, _)) => cur = inner,
                    None => {
                        self.stats.decap_drops += 1;
                        return;
                    }
                },
                Op::Emit(p) => {
                    self.stats.emitted += 1;
                    out.push((*p, cur.clone()));
                }
            }
        }
    }

    /// Returns what the MAC-learning table knows about `(vlan, mac)`.
    pub fn learned(&self, vlan: u16, mac: MacAddr) -> Option<PortNo> {
        self.mac_table.get(&(vlan, mac.as_u64())).copied()
    }

    /// Every installed rule as a `(table, rule)` pair, borrowed and with
    /// its hit statistics, in [`VirtualSwitch::dump_rules`] order.
    pub fn rules(&self) -> impl Iterator<Item = (u8, &FlowRule)> {
        let tables = self.tables.iter().enumerate();
        tables.flat_map(|(t, table)| table.rules().map(move |r| (t as u8, r)))
    }

    /// Dumps all installed rules as `(table, rule)` pairs with fresh
    /// statistics — what a controller reads back for reconciliation.
    pub fn dump_rules(&self) -> Vec<(u8, FlowRule)> {
        let mut out = Vec::new();
        for (t, r) in self.rules() {
            let mut rule = r.clone();
            rule.stats = crate::table::FlowStats::default();
            out.push((t, rule));
        }
        out
    }
}

/// Strips emissions from an op list (the packet was ultimately dropped, but
/// field rewrites may already be cached — the cached entry must also drop).
fn strip_emits(ops: &mut Vec<Op>) {
    ops.retain(|op| !matches!(op, Op::Emit(_)));
}

/// Emits on every port except the ingress port, in port order.
fn flood(ports: &BTreeMap<PortNo, PortInfo>, in_port: PortNo, ops: &mut Vec<Op>) {
    ops.extend(
        ports
            .keys()
            .filter(|p| **p != in_port)
            .map(|p| Op::Emit(*p)),
    );
}

/// Wraps a frame in a VXLAN envelope.
fn encapsulate(
    inner: Frame,
    vni: Vni,
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_mac: MacAddr,
    dst_mac: MacAddr,
) -> Frame {
    let mut outer = Frame::new(
        src_mac,
        dst_mac,
        Payload::Ipv4(Ipv4Packet {
            src: src_ip,
            dst: dst_ip,
            ttl: 64,
            tos: 0,
            transport: Transport::Udp(UdpDatagram {
                // Source port derived from the inner flow hash for ECMP,
                // as real VTEPs do.
                sport: 49152 + (inner.flow_hash() % 16384) as u16,
                dport: VXLAN_UDP_PORT,
                payload: UdpPayload::Vxlan {
                    vni,
                    inner: Box::new(inner),
                },
            }),
        }),
    );
    outer.origin_ns = match outer.payload.get() {
        Payload::Ipv4(ip) => match &ip.transport {
            Transport::Udp(u) => match &u.payload {
                UdpPayload::Vxlan { inner, .. } => inner.origin_ns,
                _ => 0,
            },
            _ => 0,
        },
        _ => 0,
    };
    outer
}

/// Unwraps a VXLAN envelope, returning the inner frame and its VNI.
///
/// Measurement metadata (origin timestamp, frame id) carries over from the
/// envelope when the inner frame has none — timestamps must survive
/// tunnel transitions for one-way latency measurement.
fn decapsulate(outer: Frame) -> Option<(Frame, Vni)> {
    let (origin, id) = (outer.origin_ns, outer.id);
    match outer.payload.into_inner() {
        Payload::Ipv4(ip) => match ip.transport {
            Transport::Udp(u) if u.dport == VXLAN_UDP_PORT => match u.payload {
                UdpPayload::Vxlan { vni, inner } => {
                    let mut inner = *inner;
                    if inner.origin_ns == 0 {
                        inner.origin_ns = origin;
                        inner.id = id;
                    }
                    Some((inner, vni))
                }
                _ => None,
            },
            _ => None,
        },
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FlowMatch;

    fn frame(dst_ip: Ipv4Addr) -> Frame {
        Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            dst_ip,
            1000,
            2000,
            64,
        )
    }

    fn two_port_switch() -> (VirtualSwitch, PortNo, PortNo) {
        let mut sw = VirtualSwitch::new("test");
        let a = sw.add_port("a", PortKind::Physical);
        let b = sw.add_port("b", PortKind::Physical);
        (sw, a, b)
    }

    #[test]
    fn no_rules_means_drop() {
        let (mut sw, a, _) = two_port_switch();
        let out = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        assert!(out.is_empty());
        assert_eq!(sw.stats().no_match_drops, 1);
    }

    #[test]
    fn cache_hit_on_second_packet() {
        let (mut sw, a, b) = two_port_switch();
        sw.install(
            0,
            FlowRule::new(1, FlowMatch::any(), vec![Action::Output(b)]),
        )
        .unwrap();
        let _ = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        let _ = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        let cs = sw.cache_stats();
        assert_eq!(cs.misses, 1);
        assert_eq!(cs.hits, 1);
    }

    #[test]
    fn cookie_miss_counts_track_slow_path_only() {
        let (mut sw, a, b) = two_port_switch();
        sw.install(
            0,
            FlowRule::new(1, FlowMatch::any(), vec![Action::Output(b)]).with_cookie(9),
        )
        .unwrap();
        for _ in 0..5 {
            let _ = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        }
        // First packet resolves (miss); the rest ride the cache.
        assert_eq!(sw.misses_by_cookie(9), 1);
        assert_eq!(sw.stats_by_cookie(9).0, 5);
        // A second flow key for the same cookie misses once more.
        let _ = sw.process(a, frame(Ipv4Addr::new(2, 2, 2, 2)));
        assert_eq!(sw.misses_by_cookie(9), 2);
        assert_eq!(sw.misses_by_cookie(1234), 0);
    }

    #[test]
    fn rule_install_invalidates_cache() {
        let (mut sw, a, b) = two_port_switch();
        sw.install(
            0,
            FlowRule::new(1, FlowMatch::any(), vec![Action::Output(b)]),
        )
        .unwrap();
        let _ = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        // A higher-priority drop arrives; the cached entry must not be used.
        sw.install(0, FlowRule::new(10, FlowMatch::any(), vec![Action::Drop]))
            .unwrap();
        let out = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        assert!(out.is_empty());
        assert_eq!(sw.stats().action_drops, 1);
    }

    #[test]
    fn dmac_rewrite_then_output() {
        // The MTS ingress chain: rewrite dmac to the tenant VF, emit on Gw.
        let (mut sw, a, gw) = two_port_switch();
        let tenant_mac = MacAddr::local(0x42);
        sw.install(
            0,
            FlowRule::new(
                10,
                FlowMatch::to_ip(Ipv4Addr::new(10, 0, 1, 1)),
                crate::actions::rewrite_and_output(tenant_mac, gw),
            ),
        )
        .unwrap();
        let out = sw.process(a, frame(Ipv4Addr::new(10, 0, 1, 1)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, gw);
        assert_eq!(out[0].1.dst, tenant_mac);
    }

    #[test]
    fn normal_learns_then_unicasts() {
        let (mut sw, a, b) = two_port_switch();
        sw.install(0, FlowRule::new(1, FlowMatch::any(), vec![Action::Normal]))
            .unwrap();
        let mac_a = MacAddr::local(0xa);
        let mac_b = MacAddr::local(0xb);
        let f1 = Frame::udp_data(
            mac_a,
            mac_b,
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(1, 0, 0, 2),
            1,
            2,
            10,
        );
        // Unknown destination: flood to b.
        let out = sw.process(a, f1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, b);
        assert_eq!(sw.learned(0, mac_a), Some(a));
        // Reply learns b and unicasts to a.
        let f2 = Frame::udp_data(
            mac_b,
            mac_a,
            Ipv4Addr::new(1, 0, 0, 2),
            Ipv4Addr::new(1, 0, 0, 1),
            2,
            1,
            10,
        );
        let out = sw.process(b, f2);
        assert_eq!(out, vec![(a, out[0].1.clone())]);
        assert_eq!(sw.learned(0, mac_b), Some(b));
    }

    #[test]
    fn goto_table_pipelines() {
        let (mut sw, a, b) = two_port_switch();
        sw.install(
            0,
            FlowRule::new(
                1,
                FlowMatch::any(),
                vec![
                    Action::SetEthSrc(MacAddr::local(7)),
                    Action::GotoTable(TableId(2)),
                ],
            ),
        )
        .unwrap();
        sw.install(
            2,
            FlowRule::new(1, FlowMatch::any(), vec![Action::Output(b)]),
        )
        .unwrap();
        let out = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1.src, MacAddr::local(7));
    }

    #[test]
    fn backward_goto_is_a_drop() {
        let (mut sw, a, _) = two_port_switch();
        sw.install(
            1,
            FlowRule::new(1, FlowMatch::any(), vec![Action::GotoTable(TableId(0))]),
        )
        .unwrap();
        sw.install(
            0,
            FlowRule::new(1, FlowMatch::any(), vec![Action::GotoTable(TableId(1))]),
        )
        .unwrap();
        let out = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        assert!(out.is_empty());
        assert_eq!(sw.stats().action_drops, 1);
    }

    #[test]
    fn ttl_expiry_drops() {
        let (mut sw, a, b) = two_port_switch();
        sw.install(
            0,
            FlowRule::new(1, FlowMatch::any(), vec![Action::DecTtl, Action::Output(b)]),
        )
        .unwrap();
        let mut f = frame(Ipv4Addr::new(1, 1, 1, 1));
        if let Payload::Ipv4(ip) = f.payload.make_mut() {
            ip.ttl = 1;
        }
        let out = sw.process(a, f);
        assert!(out.is_empty());
        assert_eq!(sw.stats().ttl_drops, 1);
        // A healthy TTL passes and is decremented.
        let out = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        assert_eq!(out[0].1.ipv4().unwrap().ttl, 63);
    }

    #[test]
    fn vxlan_encap_decap_roundtrip() {
        let (mut sw, a, b) = two_port_switch();
        let vni = Vni::new(42);
        sw.install(
            0,
            FlowRule::new(
                10,
                FlowMatch::on_port(a),
                vec![
                    Action::VxlanEncap {
                        vni,
                        src_ip: Ipv4Addr::new(172, 16, 0, 1),
                        dst_ip: Ipv4Addr::new(172, 16, 0, 2),
                        src_mac: MacAddr::local(0xf1),
                        dst_mac: MacAddr::local(0xf2),
                    },
                    Action::Output(b),
                ],
            ),
        )
        .unwrap();
        let inner = frame(Ipv4Addr::new(10, 0, 1, 1));
        let inner_len = inner.wire_len();
        let out = sw.process(a, inner);
        assert_eq!(out.len(), 1);
        let encapped = &out[0].1;
        assert_eq!(encapped.dst, MacAddr::local(0xf2));
        assert!(encapped.wire_len() > inner_len);

        // Now decapsulate on the way back, matching on the tunnel id.
        let (mut sw2, a2, b2) = two_port_switch();
        sw2.install(
            0,
            FlowRule::new(
                10,
                FlowMatch::on_port(a2),
                vec![Action::VxlanDecap, Action::GotoTable(TableId(1))],
            ),
        )
        .unwrap();
        sw2.install(
            1,
            FlowRule::new(10, FlowMatch::any().and_tun(vni), vec![Action::Output(b2)]),
        )
        .unwrap();
        let out2 = sw2.process(a2, encapped.clone());
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].1.dst_ip(), Some(Ipv4Addr::new(10, 0, 1, 1)));
    }

    #[test]
    fn decap_of_plain_frame_drops() {
        let (mut sw, a, _) = two_port_switch();
        sw.install(
            0,
            FlowRule::new(1, FlowMatch::any(), vec![Action::VxlanDecap]),
        )
        .unwrap();
        let out = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        assert!(out.is_empty());
        assert_eq!(sw.stats().decap_drops, 1);
    }

    #[test]
    fn flood_skips_ingress() {
        let mut sw = VirtualSwitch::new("t");
        let a = sw.add_port("a", PortKind::Physical);
        let b = sw.add_port("b", PortKind::Physical);
        let c = sw.add_port("c", PortKind::Physical);
        sw.install(0, FlowRule::new(1, FlowMatch::any(), vec![Action::Flood]))
            .unwrap();
        let out = sw.process(a, frame(Ipv4Addr::new(1, 1, 1, 1)));
        let ports: Vec<PortNo> = out.iter().map(|(p, _)| *p).collect();
        assert_eq!(ports, vec![b, c]);
    }

    #[test]
    fn remove_port_purges_learning() {
        let (mut sw, a, b) = two_port_switch();
        sw.install(0, FlowRule::new(1, FlowMatch::any(), vec![Action::Normal]))
            .unwrap();
        let mac = MacAddr::local(0xa);
        let f = Frame::udp_data(
            mac,
            MacAddr::local(0xb),
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(1, 0, 0, 2),
            1,
            2,
            10,
        );
        sw.process(a, f);
        assert_eq!(sw.learned(0, mac), Some(a));
        sw.remove_port(a).unwrap();
        assert_eq!(sw.learned(0, mac), None);
        assert!(sw.remove_port(a).is_err());
        let _ = b;
    }

    #[test]
    fn remove_rule_takes_one_rule_from_its_own_table() {
        let (mut sw, _, b) = two_port_switch();
        let rule = FlowRule::new(1, FlowMatch::any(), vec![Action::Output(b)]).with_cookie(9);
        sw.install(0, rule.clone()).unwrap();
        sw.install(3, rule.clone()).unwrap();
        assert_eq!(sw.rule_count(), 2);
        assert!(sw.remove_rule(3, &rule));
        assert_eq!((sw.table_len(0), sw.table_len(3)), (1, 0));
        assert!(!sw.remove_rule(3, &rule));
        assert!(!sw.remove_rule(200, &rule), "no such table");
        assert!(sw.remove_rule(0, &rule));
        assert_eq!(sw.rule_count(), 0);
    }
}
