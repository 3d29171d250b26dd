//! Packet model and wire formats for the MTS reproduction.
//!
//! The simulator moves *structural* frames (typed header structs nested in a
//! [`Frame`]) rather than byte buffers — this keeps hot paths fast and the
//! matching logic readable. A byte-exact wire codec ([`wire`]) serializes and
//! parses the same frames (Ethernet, 802.1Q, ARP, IPv4, UDP, TCP, VXLAN) and
//! is property-tested for round-tripping, so the structural model provably
//! corresponds to real packets.
//!
//! Layering:
//!
//! - [`addr`] — MAC addresses (IPv4 comes from `std::net`).
//! - [`ethertype`] — EtherType constants and 802.1Q tags.
//! - [`arp`] — ARP requests/replies (the paper's gateway-ARP configuration).
//! - [`ipv4`] — IPv4 packets and the UDP/TCP transports they carry.
//! - [`vxlan`] — VXLAN tunnel encapsulation (RFC 7348), used for overlays.
//! - [`frame`] — the [`Frame`] type tying it all together, plus sizes.
//! - [`wire`] — byte-exact serialization and parsing.
//! - [`checksum`] — the internet checksum.

pub mod addr;
pub mod arp;
pub mod checksum;
pub mod ethertype;
pub mod frame;
pub mod ipv4;
pub mod vxlan;
pub mod wire;

pub use addr::MacAddr;
pub use arp::{ArpOp, ArpPacket};
pub use ethertype::{EtherType, VlanTag};
pub use frame::{sizes, CowPayload, Frame, Payload};
pub use ipv4::{IpProto, Ipv4Packet, TcpFlags, TcpSegment, Transport, UdpDatagram, UdpPayload};
pub use vxlan::{Vni, VXLAN_UDP_PORT};
pub use wire::{parse, serialize, WireError};

/// Re-export of the IPv4 address type used throughout the stack.
pub use std::net::Ipv4Addr;
