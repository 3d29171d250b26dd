//! Flow match structures.
//!
//! A [`FlowMatch`] is a set of optional constraints over packet header
//! fields — unset fields are wildcards. This mirrors the OpenFlow match the
//! paper's controllers program into per-tenant logical datapaths; the MTS
//! controller's ingress/egress chain rules (Fig. 3) are built from these.

use crate::switch::PortNo;
use mts_net::{EtherType, Frame, IpProto, MacAddr, Transport, Vni};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::net::Ipv4Addr;

/// An IPv4 prefix, e.g. `10.0.1.0/24`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Ipv4Prefix {
    /// Network address (host bits zeroed on construction).
    pub net: Ipv4Addr,
    /// Prefix length, 0..=32.
    pub len: u8,
}

impl Ipv4Prefix {
    /// Creates a prefix, zeroing host bits and clamping the length to 32.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        let len = len.min(32);
        let mask = Self::mask_of(len);
        Ipv4Prefix {
            net: Ipv4Addr::from(u32::from(addr) & mask),
            len,
        }
    }

    /// A host route (`/32`).
    pub fn host(addr: Ipv4Addr) -> Self {
        Ipv4Prefix::new(addr, 32)
    }

    fn mask_of(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(len))
        }
    }

    /// Returns whether `addr` lies within this prefix.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & Self::mask_of(self.len) == u32::from(self.net)
    }

    /// Returns whether every address of `other` lies within this prefix.
    pub fn contains_prefix(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && self.contains(other.net)
    }

    /// Returns whether the two prefixes share at least one address.
    ///
    /// Two prefixes overlap exactly when one contains the other (prefixes
    /// form a laminar family: partial overlap is impossible).
    pub fn overlaps(&self, other: &Ipv4Prefix) -> bool {
        let len = self.len.min(other.len);
        let mask = Self::mask_of(len);
        u32::from(self.net) & mask == u32::from(other.net) & mask
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.net, self.len)
    }
}

/// VLAN matching: any, explicitly untagged, or a specific tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub enum VlanMatch {
    /// Match tagged and untagged frames alike.
    #[default]
    Any,
    /// Match only untagged frames.
    Untagged,
    /// Match frames carrying this VLAN id.
    Tag(u16),
}

impl VlanMatch {
    /// Returns whether a frame's VLAN state satisfies this match.
    pub fn matches(self, vlan: Option<u16>) -> bool {
        match self {
            VlanMatch::Any => true,
            VlanMatch::Untagged => vlan.is_none(),
            VlanMatch::Tag(v) => vlan == Some(v),
        }
    }
}

/// An OpenFlow-style match; `None` fields are wildcards.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Default, Serialize, Deserialize)]
pub struct FlowMatch {
    /// Ingress port.
    pub in_port: Option<PortNo>,
    /// Ethernet source.
    pub eth_src: Option<MacAddr>,
    /// Ethernet destination.
    pub eth_dst: Option<MacAddr>,
    /// VLAN constraint.
    pub vlan: VlanMatch,
    /// EtherType.
    pub ethertype: Option<EtherType>,
    /// IPv4 source prefix.
    pub ip_src: Option<Ipv4Prefix>,
    /// IPv4 destination prefix.
    pub ip_dst: Option<Ipv4Prefix>,
    /// IP protocol.
    pub ip_proto: Option<IpProto>,
    /// Transport source port.
    pub l4_src: Option<u16>,
    /// Transport destination port.
    pub l4_dst: Option<u16>,
    /// Tunnel id (matches only packets that were decapsulated, whose VNI is
    /// carried in pipeline metadata).
    pub tun_id: Option<Vni>,
}

impl FlowMatch {
    /// The match-everything wildcard.
    pub fn any() -> Self {
        FlowMatch::default()
    }

    /// Matches a specific ingress port.
    pub fn on_port(port: PortNo) -> Self {
        FlowMatch {
            in_port: Some(port),
            ..FlowMatch::default()
        }
    }

    /// Matches an exact destination IPv4 address.
    pub fn to_ip(dst: Ipv4Addr) -> Self {
        FlowMatch {
            ethertype: Some(EtherType::Ipv4),
            ip_dst: Some(Ipv4Prefix::host(dst)),
            ..FlowMatch::default()
        }
    }

    /// Builder: also require the given ingress port.
    pub fn and_port(mut self, port: PortNo) -> Self {
        self.in_port = Some(port);
        self
    }

    /// Builder: also require the given tunnel id.
    pub fn and_tun(mut self, vni: Vni) -> Self {
        self.tun_id = Some(vni);
        self
    }

    /// Returns whether this match accepts the frame.
    ///
    /// `tun_id` is pipeline metadata set by a decapsulation action earlier
    /// in the pipeline (`None` for packets that were not decapsulated).
    pub fn matches(&self, in_port: PortNo, frame: &Frame, tun_id: Option<Vni>) -> bool {
        if self.in_port.is_some_and(|p| p != in_port) {
            return false;
        }
        if self.eth_src.is_some_and(|m| m != frame.src) {
            return false;
        }
        if self.eth_dst.is_some_and(|m| m != frame.dst) {
            return false;
        }
        if !self.vlan.matches(frame.vlan.map(|t| t.vid)) {
            return false;
        }
        if self.ethertype.is_some_and(|e| e != frame.ethertype()) {
            return false;
        }
        if self.tun_id.is_some() && self.tun_id != tun_id {
            return false;
        }
        let needs_ip = self.ip_src.is_some()
            || self.ip_dst.is_some()
            || self.ip_proto.is_some()
            || self.l4_src.is_some()
            || self.l4_dst.is_some();
        if !needs_ip {
            return true;
        }
        let Some(ip) = frame.ipv4() else {
            return false;
        };
        if self.ip_src.is_some_and(|p| !p.contains(ip.src)) {
            return false;
        }
        if self.ip_dst.is_some_and(|p| !p.contains(ip.dst)) {
            return false;
        }
        if self.ip_proto.is_some_and(|p| p != ip.proto()) {
            return false;
        }
        let (sport, dport) = match &ip.transport {
            Transport::Udp(u) => (u.sport, u.dport),
            Transport::Tcp(t) => (t.sport, t.dport),
            Transport::Raw { .. } => {
                return self.l4_src.is_none() && self.l4_dst.is_none();
            }
        };
        if self.l4_src.is_some_and(|p| p != sport) {
            return false;
        }
        if self.l4_dst.is_some_and(|p| p != dport) {
            return false;
        }
        true
    }

    /// Conservative syntactic subsumption: `true` guarantees that every
    /// frame `other` accepts is also accepted by `self`.
    ///
    /// Used by the `mts-isocheck` static analyzer to report shadowed rules:
    /// if a higher-precedence rule's match subsumes a lower one's, the lower
    /// rule can never fire. The check is field-wise (wildcard subsumes
    /// anything, exact values must agree, prefixes must nest), so it can
    /// return `false` for semantically subsumed pairs that are written with
    /// different field combinations — never the reverse.
    pub fn subsumes(&self, other: &FlowMatch) -> bool {
        fn field<T: PartialEq>(a: &Option<T>, b: &Option<T>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(x), Some(y)) => x == y,
                (Some(_), None) => false,
            }
        }
        fn prefix(a: &Option<Ipv4Prefix>, b: &Option<Ipv4Prefix>) -> bool {
            match (a, b) {
                (None, _) => true,
                (Some(x), Some(y)) => x.contains_prefix(y),
                (Some(_), None) => false,
            }
        }
        let vlan_ok = match (self.vlan, other.vlan) {
            (VlanMatch::Any, _) => true,
            (a, b) => a == b,
        };
        field(&self.in_port, &other.in_port)
            && field(&self.eth_src, &other.eth_src)
            && field(&self.eth_dst, &other.eth_dst)
            && vlan_ok
            && field(&self.ethertype, &other.ethertype)
            && prefix(&self.ip_src, &other.ip_src)
            && prefix(&self.ip_dst, &other.ip_dst)
            && field(&self.ip_proto, &other.ip_proto)
            && field(&self.l4_src, &other.l4_src)
            && field(&self.l4_dst, &other.l4_dst)
            && field(&self.tun_id, &other.tun_id)
    }

    /// Counts the constrained fields — a rough specificity measure used in
    /// diagnostics (priority, not specificity, decides precedence).
    pub fn specificity(&self) -> u32 {
        let mut n = 0;
        n += u32::from(self.in_port.is_some());
        n += u32::from(self.eth_src.is_some());
        n += u32::from(self.eth_dst.is_some());
        n += u32::from(self.vlan != VlanMatch::Any);
        n += u32::from(self.ethertype.is_some());
        n += u32::from(self.ip_src.is_some());
        n += u32::from(self.ip_dst.is_some());
        n += u32::from(self.ip_proto.is_some());
        n += u32::from(self.l4_src.is_some());
        n += u32::from(self.l4_dst.is_some());
        n += u32::from(self.tun_id.is_some());
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame() -> Frame {
        Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 5),
            Ipv4Addr::new(10, 0, 1, 9),
            1111,
            2222,
            100,
        )
    }

    #[test]
    fn prefix_zeroes_host_bits_and_contains() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 1, 200), 24);
        assert_eq!(p.net, Ipv4Addr::new(10, 0, 1, 0));
        assert!(p.contains(Ipv4Addr::new(10, 0, 1, 9)));
        assert!(!p.contains(Ipv4Addr::new(10, 0, 2, 9)));
        let all = Ipv4Prefix::new(Ipv4Addr::new(1, 2, 3, 4), 0);
        assert!(all.contains(Ipv4Addr::new(255, 255, 255, 255)));
        let host = Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 5));
        assert!(host.contains(Ipv4Addr::new(10, 0, 0, 5)));
        assert!(!host.contains(Ipv4Addr::new(10, 0, 0, 6)));
        assert_eq!(Ipv4Prefix::new(Ipv4Addr::new(1, 1, 1, 1), 99).len, 32);
    }

    #[test]
    fn prefix_containment_and_overlap() {
        let wide = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 16);
        let narrow = Ipv4Prefix::new(Ipv4Addr::new(10, 0, 1, 0), 24);
        let other = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 0, 0), 16);
        assert!(wide.contains_prefix(&narrow));
        assert!(!narrow.contains_prefix(&wide));
        assert!(wide.contains_prefix(&wide));
        assert!(wide.overlaps(&narrow));
        assert!(narrow.overlaps(&wide));
        assert!(!wide.overlaps(&other));
        let all = Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0);
        assert!(all.contains_prefix(&other));
        assert!(all.overlaps(&narrow));
    }

    #[test]
    fn subsumption_is_fieldwise() {
        let general = FlowMatch {
            ethertype: Some(EtherType::Ipv4),
            ip_dst: Some(Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 8)),
            ..FlowMatch::default()
        };
        let specific = FlowMatch::to_ip(Ipv4Addr::new(10, 0, 1, 9)).and_port(PortNo(3));
        assert!(FlowMatch::any().subsumes(&general));
        assert!(FlowMatch::any().subsumes(&specific));
        assert!(general.subsumes(&specific));
        assert!(!specific.subsumes(&general));
        let untagged = FlowMatch {
            vlan: VlanMatch::Untagged,
            ..FlowMatch::default()
        };
        assert!(FlowMatch::any().subsumes(&untagged));
        assert!(!untagged.subsumes(&FlowMatch::any()));
        assert!(untagged.subsumes(&untagged));
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(FlowMatch::any().matches(PortNo(1), &frame(), None));
        assert_eq!(FlowMatch::any().specificity(), 0);
    }

    #[test]
    fn field_constraints_filter() {
        let f = frame();
        let m = FlowMatch::to_ip(Ipv4Addr::new(10, 0, 1, 9));
        assert!(m.matches(PortNo(1), &f, None));
        let m = FlowMatch::to_ip(Ipv4Addr::new(10, 0, 1, 10));
        assert!(!m.matches(PortNo(1), &f, None));
        let m = FlowMatch::on_port(PortNo(3));
        assert!(m.matches(PortNo(3), &f, None));
        assert!(!m.matches(PortNo(4), &f, None));
        let m = FlowMatch {
            eth_dst: Some(MacAddr::local(2)),
            ..FlowMatch::default()
        }
        .and_port(PortNo(7));
        assert!(m.matches(PortNo(7), &f, None));
        assert!(!m.matches(PortNo(8), &f, None));
    }

    #[test]
    fn vlan_matching_modes() {
        let f = frame();
        let tagged = frame().with_vlan(100);
        assert!(VlanMatch::Any.matches(None));
        assert!(VlanMatch::Any.matches(Some(1)));
        let m = FlowMatch {
            vlan: VlanMatch::Untagged,
            ..FlowMatch::default()
        };
        assert!(m.matches(PortNo(0), &f, None));
        assert!(!m.matches(PortNo(0), &tagged, None));
        let m = FlowMatch {
            vlan: VlanMatch::Tag(100),
            ..FlowMatch::default()
        };
        assert!(m.matches(PortNo(0), &tagged, None));
        assert!(!m.matches(PortNo(0), &f, None));
    }

    #[test]
    fn l4_ports_and_proto() {
        let f = frame();
        let m = FlowMatch {
            ip_proto: Some(IpProto::Udp),
            l4_dst: Some(2222),
            ..FlowMatch::default()
        };
        assert!(m.matches(PortNo(0), &f, None));
        let wrong = FlowMatch {
            l4_dst: Some(9999),
            ..FlowMatch::default()
        };
        assert!(!wrong.matches(PortNo(0), &f, None));
        let tcp_only = FlowMatch {
            ip_proto: Some(IpProto::Tcp),
            ..FlowMatch::default()
        };
        assert!(!tcp_only.matches(PortNo(0), &f, None));
    }

    #[test]
    fn ip_fields_never_match_non_ip() {
        let arp = Frame::arp(
            MacAddr::local(1),
            mts_net::ArpPacket::request(
                MacAddr::local(1),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
            ),
        );
        let m = FlowMatch::to_ip(Ipv4Addr::new(10, 0, 0, 2));
        assert!(!m.matches(PortNo(0), &arp, None));
    }

    #[test]
    fn tunnel_metadata_matching() {
        let f = frame();
        let m = FlowMatch::any().and_tun(Vni::new(7));
        assert!(!m.matches(PortNo(0), &f, None));
        assert!(m.matches(PortNo(0), &f, Some(Vni::new(7))));
        assert!(!m.matches(PortNo(0), &f, Some(Vni::new(8))));
    }
}
