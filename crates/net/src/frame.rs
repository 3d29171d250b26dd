//! The Ethernet frame type that flows through the simulated network.

use crate::addr::MacAddr;
use crate::arp::ArpPacket;
use crate::ethertype::{EtherType, VlanTag};
use crate::ipv4::{Ipv4Packet, Transport, UdpDatagram, UdpPayload};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Well-known frame and header sizes in bytes.
pub mod sizes {
    /// Ethernet header: destination + source + EtherType.
    pub const ETH_HEADER: u32 = 14;
    /// One 802.1Q tag.
    pub const VLAN_TAG: u32 = 4;
    /// Frame check sequence.
    pub const FCS: u32 = 4;
    /// Minimum Ethernet frame size including FCS — the paper's "64 B packet".
    pub const MIN_FRAME: u32 = 64;
    /// Standard Ethernet MTU (maximum IP packet size).
    pub const MTU: u32 = 1500;
    /// IPv4 header without options.
    pub const IPV4_HEADER: u32 = 20;
    /// UDP header.
    pub const UDP_HEADER: u32 = 8;
    /// TCP header without options.
    pub const TCP_HEADER: u32 = 20;
}

/// Process-wide frame id counter: ids are unique within a run; measurement
/// code correlates tap observations by id.
// lint:allow(global-state): ids only need to be unique, and stay process-wide until frames get per-world ids (ROADMAP item 7)
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh frame id.
pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// The payload of an Ethernet frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Payload {
    /// An ARP packet.
    Arp(ArpPacket),
    /// An IPv4 packet.
    Ipv4(Ipv4Packet),
    /// Unmodelled bytes: EtherType plus payload length.
    Raw {
        /// The frame's EtherType.
        ethertype: u16,
        /// Payload length in bytes.
        len: u32,
    },
}

/// Copy-on-write payload storage.
///
/// Hops that merely forward a frame share one payload allocation — cloning
/// a [`Frame`] bumps a reference count instead of deep-copying the packet
/// tree (which for VXLAN frames includes a boxed inner frame). Sites that
/// rewrite headers call [`CowPayload::make_mut`], which clones only when
/// the payload is actually shared (encap/decap, TTL decrement, NAT-style
/// rewrites).
#[derive(Clone, Debug)]
pub struct CowPayload(Arc<Payload>);

impl CowPayload {
    /// Wraps a payload in fresh (unshared) CoW storage.
    pub fn new(payload: Payload) -> Self {
        CowPayload(Arc::new(payload))
    }

    /// Read access to the payload.
    pub fn get(&self) -> &Payload {
        &self.0
    }

    /// Mutable access; clones the payload first if it is shared.
    pub fn make_mut(&mut self) -> &mut Payload {
        Arc::make_mut(&mut self.0)
    }

    /// Unwraps to an owned payload, cloning only if shared.
    pub fn into_inner(self) -> Payload {
        Arc::try_unwrap(self.0).unwrap_or_else(|shared| (*shared).clone())
    }

    /// Whether two handles share the same allocation (no copy happened).
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Deref for CowPayload {
    type Target = Payload;

    fn deref(&self) -> &Payload {
        &self.0
    }
}

impl From<Payload> for CowPayload {
    fn from(payload: Payload) -> Self {
        CowPayload::new(payload)
    }
}

impl PartialEq for CowPayload {
    fn eq(&self, other: &Self) -> bool {
        // Shared storage is equal by construction; otherwise compare contents.
        Arc::ptr_eq(&self.0, &other.0) || self.0 == other.0
    }
}

impl Eq for CowPayload {}

/// An Ethernet frame moving through the simulation.
///
/// Frames are *structural*: headers are typed fields, payload data is
/// carried as lengths. [`crate::wire`] can serialize any frame to the exact
/// byte representation and parse it back.
///
/// # Examples
///
/// ```
/// use mts_net::{Frame, MacAddr};
/// use std::net::Ipv4Addr;
///
/// let f = Frame::udp_probe(
///     MacAddr::local(1),
///     MacAddr::local(2),
///     Ipv4Addr::new(10, 0, 0, 1),
///     Ipv4Addr::new(10, 0, 1, 1),
///     5001,
///     7,    // sequence
///     64,   // wire length incl. FCS
/// );
/// assert_eq!(f.wire_len(), 64);
/// assert!(f.vlan.is_none());
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// Unique id for measurement correlation (not a wire field).
    pub id: u64,
    /// Nanosecond timestamp at origin (not a wire field; set by generators).
    pub origin_ns: u64,
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Optional 802.1Q tag.
    pub vlan: Option<VlanTag>,
    /// The typed payload, in copy-on-write storage shared across hops.
    pub payload: CowPayload,
    /// Padding bytes added to reach a requested wire length (e.g. 64 B
    /// minimum or a fixed probe size); zero-filled on the wire.
    pub pad: u32,
}

impl Frame {
    /// Creates a frame with a fresh id and no VLAN tag or padding.
    pub fn new(src: MacAddr, dst: MacAddr, payload: Payload) -> Self {
        Frame {
            id: fresh_id(),
            origin_ns: 0,
            dst,
            src,
            vlan: None,
            payload: CowPayload::new(payload),
            pad: 0,
        }
    }

    /// The frame's EtherType (of the payload, ignoring any VLAN tag).
    pub fn ethertype(&self) -> EtherType {
        match self.payload.get() {
            Payload::Arp(_) => EtherType::Arp,
            Payload::Ipv4(_) => EtherType::Ipv4,
            Payload::Raw { ethertype, .. } => EtherType::from_u16(*ethertype),
        }
    }

    /// Payload length in bytes (excluding Ethernet header, tag and FCS).
    pub fn payload_len(&self) -> u32 {
        let inner = match self.payload.get() {
            Payload::Arp(_) => 28,
            Payload::Ipv4(ip) => ip.len(),
            Payload::Raw { len, .. } => *len,
        };
        inner + self.pad
    }

    /// Total bytes on the wire including Ethernet header, any VLAN tag,
    /// payload, padding and FCS — never less than the 64 B minimum.
    pub fn wire_len(&self) -> u32 {
        let tag = if self.vlan.is_some() {
            sizes::VLAN_TAG
        } else {
            0
        };
        (sizes::ETH_HEADER + tag + self.payload_len() + sizes::FCS).max(sizes::MIN_FRAME)
    }

    /// Frame length without the FCS (used for VXLAN inner frames).
    pub fn len_without_fcs(&self) -> u32 {
        self.wire_len() - sizes::FCS
    }

    /// Pads the frame so its wire length is at least `target` bytes.
    pub fn pad_to(mut self, target: u32) -> Self {
        let now = self.wire_len();
        if target > now {
            self.pad += target - now;
        }
        self
    }

    /// Tags the frame with a VLAN id (replacing any existing tag).
    pub fn with_vlan(mut self, vid: u16) -> Self {
        self.vlan = Some(VlanTag::new(vid));
        self
    }

    /// Stamps the origin timestamp, returning the frame.
    pub fn stamped(mut self, origin_ns: u64) -> Self {
        self.origin_ns = origin_ns;
        self
    }

    /// Returns the IPv4 packet, if the payload is IPv4.
    pub fn ipv4(&self) -> Option<&Ipv4Packet> {
        match self.payload.get() {
            Payload::Ipv4(p) => Some(p),
            _ => None,
        }
    }

    /// Returns the destination IPv4 address, if the payload is IPv4.
    pub fn dst_ip(&self) -> Option<Ipv4Addr> {
        self.ipv4().map(|p| p.dst)
    }

    /// Returns the source IPv4 address, if the payload is IPv4.
    pub fn src_ip(&self) -> Option<Ipv4Addr> {
        self.ipv4().map(|p| p.src)
    }

    /// A stable hash of the flow 5-tuple-ish key (used for RSS and caches).
    pub fn flow_hash(&self) -> u64 {
        // FNV-1a over the key fields; cheap and deterministic.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        mix(self.dst.as_u64());
        mix(self.src.as_u64());
        mix(self.vlan.map(|t| u64::from(t.vid) + 1).unwrap_or(0));
        if let Some(ip) = self.ipv4() {
            mix(u64::from(u32::from(ip.src)));
            mix(u64::from(u32::from(ip.dst)));
            mix(u64::from(ip.proto().to_u8()));
            match &ip.transport {
                Transport::Udp(u) => mix(u64::from(u.sport) << 16 | u64::from(u.dport)),
                Transport::Tcp(t) => mix(u64::from(t.sport) << 16 | u64::from(t.dport)),
                Transport::Raw { .. } => mix(0),
            }
        }
        // FNV only diffuses differences upward; finalize with an
        // avalanche (splitmix64) so low bits are usable for RSS.
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^ (h >> 31)
    }

    /// Builds a UDP data frame, padded to at least the Ethernet minimum.
    #[allow(clippy::too_many_arguments)]
    pub fn udp_data(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        sport: u16,
        dport: u16,
        payload_bytes: u32,
    ) -> Self {
        Frame::new(
            src_mac,
            dst_mac,
            Payload::Ipv4(Ipv4Packet {
                src: src_ip,
                dst: dst_ip,
                ttl: 64,
                tos: 0,
                transport: Transport::Udp(UdpDatagram {
                    sport,
                    dport,
                    payload: UdpPayload::Data(payload_bytes),
                }),
            }),
        )
    }

    /// Builds a measurement probe of exactly `wire_len` bytes (≥ 64).
    ///
    /// The probe carries a sequence number; the destination UDP port is the
    /// conventional load-generator port of `dport`; the source port is 9000.
    #[allow(clippy::too_many_arguments)]
    pub fn udp_probe(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        dport: u16,
        seq: u64,
        wire_len: u32,
    ) -> Self {
        let wire_len = wire_len.max(sizes::MIN_FRAME);
        // Work out the payload length that yields the requested wire size.
        let overhead = sizes::ETH_HEADER + sizes::IPV4_HEADER + sizes::UDP_HEADER + sizes::FCS;
        let len = wire_len.saturating_sub(overhead).max(8);
        Frame::new(
            src_mac,
            dst_mac,
            Payload::Ipv4(Ipv4Packet {
                src: src_ip,
                dst: dst_ip,
                ttl: 64,
                tos: 0,
                transport: Transport::Udp(UdpDatagram {
                    sport: 9000,
                    dport,
                    payload: UdpPayload::Probe { seq, len },
                }),
            }),
        )
        .pad_to(wire_len)
    }

    /// Builds an ARP frame (requests are broadcast, replies unicast).
    pub fn arp(src_mac: MacAddr, arp: ArpPacket) -> Self {
        let dst = match arp.op {
            crate::arp::ArpOp::Request => MacAddr::BROADCAST,
            crate::arp::ArpOp::Reply => arp.target_mac,
        };
        Frame::new(src_mac, dst, Payload::Arp(arp))
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} -> {}", self.src, self.dst)?;
        if let Some(v) = self.vlan {
            write!(f, " {v}")?;
        }
        match self.payload.get() {
            Payload::Arp(a) => write!(f, " arp {:?}]", a.op),
            Payload::Ipv4(ip) => write!(
                f,
                " {} {} -> {} len={}]",
                ip.proto().to_u8(),
                ip.src,
                ip.dst,
                self.wire_len()
            ),
            Payload::Raw { ethertype, .. } => {
                write!(f, " raw(0x{ethertype:04x}) len={}]", self.wire_len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_macs() -> (MacAddr, MacAddr) {
        (MacAddr::local(1), MacAddr::local(2))
    }

    #[test]
    fn ids_are_unique() {
        let (a, b) = two_macs();
        let f1 = Frame::new(
            a,
            b,
            Payload::Raw {
                ethertype: 0x88b5,
                len: 46,
            },
        );
        let f2 = Frame::new(
            a,
            b,
            Payload::Raw {
                ethertype: 0x88b5,
                len: 46,
            },
        );
        assert_ne!(f1.id, f2.id);
    }

    #[test]
    fn min_frame_is_64_bytes() {
        let (a, b) = two_macs();
        let f = Frame::new(
            a,
            b,
            Payload::Raw {
                ethertype: 0x88b5,
                len: 1,
            },
        );
        assert_eq!(f.wire_len(), 64);
    }

    #[test]
    fn probe_hits_exact_wire_length() {
        let (a, b) = two_macs();
        let ip1 = Ipv4Addr::new(10, 0, 0, 1);
        let ip2 = Ipv4Addr::new(10, 0, 1, 1);
        for target in [64u32, 128, 512, 1500, 2048] {
            let f = Frame::udp_probe(a, b, ip1, ip2, 5001, 3, target);
            assert_eq!(f.wire_len(), target, "target {target}");
        }
    }

    #[test]
    fn vlan_tag_grows_the_frame() {
        let (a, b) = two_macs();
        let f = Frame::udp_probe(
            a,
            b,
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            7,
            0,
            512,
        );
        let tagged = f.clone().with_vlan(100);
        assert_eq!(tagged.wire_len(), f.wire_len() + 4);
        assert_eq!(tagged.vlan.unwrap().vid, 100);
    }

    #[test]
    fn flow_hash_separates_flows_and_is_stable() {
        let (a, b) = two_macs();
        let mk = |dport| {
            let mut f = Frame::udp_data(
                a,
                b,
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 1, 1),
                9000,
                dport,
                100,
            );
            f.id = 0; // id must not affect the hash
            f
        };
        assert_eq!(mk(1).flow_hash(), mk(1).flow_hash());
        assert_ne!(mk(1).flow_hash(), mk(2).flow_hash());
    }

    #[test]
    fn arp_request_broadcasts() {
        let (a, _) = two_macs();
        let req = ArpPacket::request(a, Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 1));
        let f = Frame::arp(a, req);
        assert!(f.dst.is_broadcast());
        assert_eq!(f.ethertype(), EtherType::Arp);
        // ARP payload (28) + eth (14) + fcs (4) = 46 < 64 minimum.
        assert_eq!(f.wire_len(), 64);
    }

    #[test]
    fn accessors_only_fire_for_ipv4() {
        let (a, b) = two_macs();
        let raw = Frame::new(
            a,
            b,
            Payload::Raw {
                ethertype: 0x88b5,
                len: 60,
            },
        );
        assert!(raw.ipv4().is_none());
        assert!(raw.dst_ip().is_none());
        let u = Frame::udp_data(
            a,
            b,
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(1, 0, 0, 2),
            1,
            2,
            3,
        );
        assert_eq!(u.dst_ip(), Some(Ipv4Addr::new(1, 0, 0, 2)));
        assert_eq!(u.src_ip(), Some(Ipv4Addr::new(1, 0, 0, 1)));
    }

    #[test]
    fn clone_shares_payload_until_mutation() {
        let (a, b) = two_macs();
        let f = Frame::udp_data(
            a,
            b,
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(1, 0, 0, 2),
            1,
            2,
            3,
        );
        let mut g = f.clone();
        assert!(f.payload.shares_storage_with(&g.payload));
        // Mutation detaches the clone; the original is untouched.
        if let Payload::Ipv4(ip) = g.payload.make_mut() {
            ip.ttl -= 1;
        }
        assert!(!f.payload.shares_storage_with(&g.payload));
        assert_eq!(f.ipv4().unwrap().ttl, 64);
        assert_eq!(g.ipv4().unwrap().ttl, 63);
        // Payload equality is structural even when storage is distinct.
        assert_eq!(f.payload, f.clone().payload);
        assert_ne!(f.payload, g.payload);
    }

    #[test]
    fn stamping_sets_origin() {
        let (a, b) = two_macs();
        let f = Frame::udp_data(
            a,
            b,
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(1, 0, 0, 2),
            1,
            2,
            3,
        )
        .stamped(12345);
        assert_eq!(f.origin_ns, 12345);
    }
}
