//! Byte-exact serialization and parsing of [`Frame`]s.
//!
//! The simulator's hot paths move structural frames, but the structural
//! model is kept honest by this codec: any frame can be serialized to the
//! exact on-wire bytes (including IPv4/UDP/TCP checksums and the Ethernet
//! FCS) and parsed back. Round-tripping is property-tested in
//! `tests/wire_roundtrip.rs`.
//!
//! Payload bytes are zero-filled, with two exceptions: a probe's sequence
//! number occupies its first eight payload bytes, and VXLAN payloads contain
//! the serialized inner frame (without FCS), exactly as RFC 7348 specifies.

use crate::addr::MacAddr;
use crate::arp::{ArpOp, ArpPacket};
use crate::checksum::{finish, internet_checksum, pseudo_header, sum_words};
use crate::ethertype::{EtherType, VlanTag};
use crate::frame::{sizes, Frame, Payload};
use crate::ipv4::{IpProto, Ipv4Packet, TcpFlags, TcpSegment, Transport, UdpDatagram, UdpPayload};
use crate::vxlan::{Vni, VXLAN_UDP_PORT};
use std::fmt;
use std::net::Ipv4Addr;

/// Maximum VXLAN nesting depth the parser will follow.
///
/// Each level of encapsulation costs a full Ethernet+IPv4+UDP+VXLAN header
/// stack (~50 bytes), so legitimate traffic never nests more than once or
/// twice; an attacker-crafted "decap bomb" could otherwise drive unbounded
/// recursion. Deeper stacks parse as [`WireError::EncapTooDeep`].
pub const MAX_ENCAP_DEPTH: usize = 4;

/// Errors produced while parsing wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a complete header.
    Truncated(&'static str),
    /// The IPv4 header checksum did not verify.
    BadIpChecksum,
    /// The Ethernet FCS did not verify.
    BadFcs,
    /// An ARP packet had an unsupported hardware/protocol type or opcode.
    BadArp,
    /// A length field was inconsistent with the buffer.
    BadLength(&'static str),
    /// VXLAN nesting exceeded [`MAX_ENCAP_DEPTH`].
    EncapTooDeep,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated(what) => write!(f, "truncated {what}"),
            WireError::BadIpChecksum => write!(f, "bad IPv4 header checksum"),
            WireError::BadFcs => write!(f, "bad Ethernet FCS"),
            WireError::BadArp => write!(f, "unsupported ARP packet"),
            WireError::BadLength(what) => write!(f, "inconsistent length in {what}"),
            WireError::EncapTooDeep => {
                write!(f, "vxlan nesting deeper than {MAX_ENCAP_DEPTH}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Slice-by-8 tables for the reflected IEEE 802.3 polynomial: `CRC[0]` is
/// the bytewise table, and `CRC[k][i]` is `CRC[0][i]` carried through `k`
/// more zero bytes, so eight table reads fold eight input bytes at once.
const CRC: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Computes the IEEE 802.3 CRC-32 used for the Ethernet FCS, eight bytes
/// per step.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = CRC[7][(lo & 0xff) as usize]
            ^ CRC[6][((lo >> 8) & 0xff) as usize]
            ^ CRC[5][((lo >> 16) & 0xff) as usize]
            ^ CRC[4][(lo >> 24) as usize]
            ^ CRC[3][usize::from(w[4])]
            ^ CRC[2][usize::from(w[5])]
            ^ CRC[1][usize::from(w[6])]
            ^ CRC[0][usize::from(w[7])];
    }
    for &b in words.remainder() {
        c = CRC[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Serializes a frame to wire bytes, including padding and FCS.
pub fn serialize(frame: &Frame) -> Vec<u8> {
    let mut out = serialize_without_fcs(frame);
    // Enforce the 60-byte minimum before FCS (64 with FCS).
    let min = (sizes::MIN_FRAME - sizes::FCS) as usize;
    if out.len() < min {
        out.resize(min, 0);
    }
    let fcs = crc32(&out);
    out.extend_from_slice(&fcs.to_le_bytes());
    out
}

/// Serializes a frame without its FCS (the form VXLAN encapsulates).
///
/// The 60-byte pre-FCS minimum is enforced here, not just in
/// [`serialize`]: an encapsulated inner frame is a *complete* Ethernet
/// frame, padded to the minimum before the tunnel swallowed it, and
/// [`Frame::len_without_fcs`] declares that clamped size. Skipping the
/// pad here would make the outer IPv4/UDP length fields disagree with
/// the emitted bytes for sub-minimum inner frames (found by fuzzing the
/// build→parse roundtrip).
fn serialize_without_fcs(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::with_capacity(frame.wire_len() as usize);
    out.extend_from_slice(&frame.dst.octets());
    out.extend_from_slice(&frame.src.octets());
    if let Some(tag) = frame.vlan {
        put_u16(&mut out, EtherType::Vlan.to_u16());
        put_u16(&mut out, tag.tci());
    }
    put_u16(&mut out, frame.ethertype().to_u16());
    match frame.payload.get() {
        Payload::Arp(a) => serialize_arp(&mut out, a),
        Payload::Ipv4(ip) => serialize_ipv4(&mut out, ip),
        Payload::Raw { len, .. } => out.extend(std::iter::repeat_n(0, *len as usize)),
    }
    out.extend(std::iter::repeat_n(0, frame.pad as usize));
    let min = (sizes::MIN_FRAME - sizes::FCS) as usize;
    if out.len() < min {
        out.resize(min, 0);
    }
    out
}

fn serialize_arp(out: &mut Vec<u8>, a: &ArpPacket) {
    put_u16(out, 1); // Ethernet
    put_u16(out, 0x0800); // IPv4
    out.push(6);
    out.push(4);
    put_u16(out, a.op.to_u16());
    out.extend_from_slice(&a.sender_mac.octets());
    out.extend_from_slice(&a.sender_ip.octets());
    out.extend_from_slice(&a.target_mac.octets());
    out.extend_from_slice(&a.target_ip.octets());
}

fn serialize_ipv4(out: &mut Vec<u8>, ip: &Ipv4Packet) {
    let header_start = out.len();
    out.push(0x45);
    out.push(ip.tos);
    put_u16(out, ip.len() as u16);
    put_u16(out, 0); // identification
    put_u16(out, 0x4000); // DF, no fragmentation
    out.push(ip.ttl);
    out.push(ip.proto().to_u8());
    put_u16(out, 0); // checksum placeholder
    out.extend_from_slice(&ip.src.octets());
    out.extend_from_slice(&ip.dst.octets());
    let ck = internet_checksum(&out[header_start..header_start + 20]);
    out[header_start + 10..header_start + 12].copy_from_slice(&ck.to_be_bytes());

    let transport_start = out.len();
    match &ip.transport {
        Transport::Udp(u) => {
            put_u16(out, u.sport);
            put_u16(out, u.dport);
            let udp_len = (8 + u.payload.len()) as u16;
            put_u16(out, udp_len);
            put_u16(out, 0); // checksum placeholder
            match &u.payload {
                UdpPayload::Data(n) => out.extend(std::iter::repeat_n(0, *n as usize)),
                UdpPayload::Probe { seq, len } => {
                    out.extend_from_slice(&seq.to_be_bytes());
                    let rest = (*len).max(8) - 8;
                    out.extend(std::iter::repeat_n(0, rest as usize));
                }
                UdpPayload::Vxlan { vni, inner } => {
                    // VXLAN header: flags (I bit set) + reserved + VNI + reserved.
                    put_u32(out, 0x0800_0000);
                    put_u32(out, vni.value() << 8);
                    let inner_bytes = serialize_without_fcs(inner);
                    out.extend_from_slice(&inner_bytes);
                }
            }
            let mut acc = pseudo_header(ip.src, ip.dst, IpProto::Udp.to_u8(), udp_len);
            acc = sum_words(acc, &out[transport_start..]);
            let ck = match finish(acc) {
                0 => 0xffff, // UDP: zero checksum means "absent"
                c => c,
            };
            out[transport_start + 6..transport_start + 8].copy_from_slice(&ck.to_be_bytes());
        }
        Transport::Tcp(t) => {
            put_u16(out, t.sport);
            put_u16(out, t.dport);
            put_u32(out, t.seq);
            put_u32(out, t.ack);
            out.push(5 << 4); // data offset, no options
            out.push(t.flags.bits());
            put_u16(out, t.window);
            put_u16(out, 0); // checksum placeholder
            put_u16(out, 0); // urgent pointer
            out.extend(std::iter::repeat_n(0, t.payload_len as usize));
            let tcp_len = (20 + t.payload_len) as u16;
            let mut acc = pseudo_header(ip.src, ip.dst, IpProto::Tcp.to_u8(), tcp_len);
            acc = sum_words(acc, &out[transport_start..]);
            let ck = finish(acc);
            out[transport_start + 16..transport_start + 18].copy_from_slice(&ck.to_be_bytes());
        }
        Transport::Raw { len, .. } => {
            out.extend(std::iter::repeat_n(0, *len as usize));
        }
    }
}

/// Parses wire bytes (including FCS) into a frame.
///
/// The FCS and the IPv4 header checksum are verified. Probe payloads are
/// parsed back as [`UdpPayload::Data`] — the wire does not distinguish them.
pub fn parse(bytes: &[u8]) -> Result<Frame, WireError> {
    if bytes.len() < sizes::MIN_FRAME as usize {
        return Err(WireError::Truncated("frame"));
    }
    let (body, fcs_bytes) = bytes.split_at(bytes.len() - 4);
    let fcs = u32::from_le_bytes([fcs_bytes[0], fcs_bytes[1], fcs_bytes[2], fcs_bytes[3]]);
    if crc32(body) != fcs {
        return Err(WireError::BadFcs);
    }
    parse_without_fcs(body)
}

/// Parses wire bytes that carry no FCS (VXLAN inner frames).
pub fn parse_without_fcs(body: &[u8]) -> Result<Frame, WireError> {
    parse_at_depth(body, 0)
}

/// Reads six bytes at `at` as a MAC address. Callers bounds-check first;
/// the explicit indexing keeps the untrusted-input path free of
/// `unwrap`/`expect`.
fn mac_at(b: &[u8], at: usize) -> MacAddr {
    MacAddr::new([b[at], b[at + 1], b[at + 2], b[at + 3], b[at + 4], b[at + 5]])
}

fn parse_at_depth(body: &[u8], depth: usize) -> Result<Frame, WireError> {
    if body.len() < 14 {
        return Err(WireError::Truncated("ethernet header"));
    }
    let dst = mac_at(body, 0);
    let src = mac_at(body, 6);
    let mut ethertype = u16::from_be_bytes([body[12], body[13]]);
    let mut offset = 14;
    let mut vlan = None;
    if EtherType::from_u16(ethertype) == EtherType::Vlan {
        if body.len() < 18 {
            return Err(WireError::Truncated("vlan tag"));
        }
        vlan = Some(VlanTag::from_tci(u16::from_be_bytes([body[14], body[15]])));
        ethertype = u16::from_be_bytes([body[16], body[17]]);
        offset = 18;
    }
    let rest = &body[offset..];
    let (payload, consumed) = match EtherType::from_u16(ethertype) {
        EtherType::Arp => {
            let a = parse_arp(rest)?;
            (Payload::Arp(a), 28)
        }
        EtherType::Ipv4 => {
            let (ip, used) = parse_ipv4(rest, depth)?;
            (Payload::Ipv4(ip), used)
        }
        _ => (
            Payload::Raw {
                ethertype,
                len: rest.len() as u32,
            },
            rest.len(),
        ),
    };
    let pad = (rest.len() - consumed) as u32;
    let mut frame = Frame::new(src, dst, payload);
    frame.vlan = vlan;
    frame.pad = pad;
    Ok(frame)
}

fn parse_arp(b: &[u8]) -> Result<ArpPacket, WireError> {
    if b.len() < 28 {
        return Err(WireError::Truncated("arp"));
    }
    let htype = u16::from_be_bytes([b[0], b[1]]);
    let ptype = u16::from_be_bytes([b[2], b[3]]);
    if htype != 1 || ptype != 0x0800 || b[4] != 6 || b[5] != 4 {
        return Err(WireError::BadArp);
    }
    let op = ArpOp::from_u16(u16::from_be_bytes([b[6], b[7]])).ok_or(WireError::BadArp)?;
    Ok(ArpPacket {
        op,
        sender_mac: mac_at(b, 8),
        sender_ip: Ipv4Addr::new(b[14], b[15], b[16], b[17]),
        target_mac: mac_at(b, 18),
        target_ip: Ipv4Addr::new(b[24], b[25], b[26], b[27]),
    })
}

fn parse_ipv4(b: &[u8], depth: usize) -> Result<(Ipv4Packet, usize), WireError> {
    if b.len() < 20 {
        return Err(WireError::Truncated("ipv4 header"));
    }
    if b[0] != 0x45 {
        return Err(WireError::BadLength("ipv4 ihl/version"));
    }
    if internet_checksum(&b[..20]) != 0 {
        return Err(WireError::BadIpChecksum);
    }
    let total_len = u16::from_be_bytes([b[2], b[3]]) as usize;
    if total_len < 20 || total_len > b.len() {
        return Err(WireError::BadLength("ipv4 total length"));
    }
    let tos = b[1];
    let ttl = b[8];
    let proto = IpProto::from_u8(b[9]);
    let src = Ipv4Addr::new(b[12], b[13], b[14], b[15]);
    let dst = Ipv4Addr::new(b[16], b[17], b[18], b[19]);
    let body = &b[20..total_len];
    let transport = match proto {
        IpProto::Udp => Transport::Udp(parse_udp(body, depth)?),
        IpProto::Tcp => Transport::Tcp(parse_tcp(body)?),
        other => Transport::Raw {
            proto: other,
            len: body.len() as u32,
        },
    };
    Ok((
        Ipv4Packet {
            src,
            dst,
            ttl,
            tos,
            transport,
        },
        total_len,
    ))
}

fn parse_udp(b: &[u8], depth: usize) -> Result<UdpDatagram, WireError> {
    if b.len() < 8 {
        return Err(WireError::Truncated("udp header"));
    }
    let sport = u16::from_be_bytes([b[0], b[1]]);
    let dport = u16::from_be_bytes([b[2], b[3]]);
    let len = u16::from_be_bytes([b[4], b[5]]) as usize;
    if len < 8 || len > b.len() {
        return Err(WireError::BadLength("udp length"));
    }
    let payload_bytes = &b[8..len];
    let payload = if dport == VXLAN_UDP_PORT && payload_bytes.len() >= 8 {
        if depth >= MAX_ENCAP_DEPTH {
            return Err(WireError::EncapTooDeep);
        }
        let vni = Vni::new(
            u32::from_be_bytes([
                payload_bytes[4],
                payload_bytes[5],
                payload_bytes[6],
                payload_bytes[7],
            ]) >> 8,
        );
        let inner = parse_at_depth(&payload_bytes[8..], depth + 1)?;
        UdpPayload::Vxlan {
            vni,
            inner: Box::new(inner),
        }
    } else {
        UdpPayload::Data(payload_bytes.len() as u32)
    };
    Ok(UdpDatagram {
        sport,
        dport,
        payload,
    })
}

fn parse_tcp(b: &[u8]) -> Result<TcpSegment, WireError> {
    if b.len() < 20 {
        return Err(WireError::Truncated("tcp header"));
    }
    let offset = (b[12] >> 4) as usize * 4;
    if offset < 20 || offset > b.len() {
        return Err(WireError::BadLength("tcp data offset"));
    }
    Ok(TcpSegment {
        sport: u16::from_be_bytes([b[0], b[1]]),
        dport: u16::from_be_bytes([b[2], b[3]]),
        seq: u32::from_be_bytes([b[4], b[5], b[6], b[7]]),
        ack: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
        flags: TcpFlags::from_bits(b[13] & 0x1f),
        window: u16::from_be_bytes([b[14], b[15]]),
        payload_len: (b.len() - offset) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The CRC a byte at a time: the reference slice-by-8 must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in data {
            c = CRC[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_slice_by_8_matches_bytewise() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // The check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(&[]), 0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = vec![0u8; 1608];
        for _ in 0..200 {
            rng.fill(&mut buf[..]);
            let len = rng.gen_range(0..=1600usize);
            for at in 0..8 {
                let data = &buf[at..at + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "len {len} at +{at}");
            }
        }
        for len in 0..=64 {
            let data = &buf[..len];
            assert_eq!(crc32(data), crc32_bytewise(data), "len {len}");
        }
    }

    fn probe() -> Frame {
        Frame::udp_probe(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, 1),
            5001,
            42,
            128,
        )
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is 0xcbf43926.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn serialized_length_matches_wire_len() {
        let f = probe();
        assert_eq!(serialize(&f).len() as u32, f.wire_len());
        let small = Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            0,
        );
        assert_eq!(serialize(&small).len() as u32, small.wire_len());
        assert_eq!(serialize(&small).len(), 64);
    }

    #[test]
    fn parse_rejects_corrupted_fcs() {
        let mut bytes = serialize(&probe());
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert_eq!(parse(&bytes), Err(WireError::BadFcs));
    }

    #[test]
    fn parse_rejects_corrupted_ip_header() {
        let mut bytes = serialize(&probe());
        bytes[22] ^= 0x55; // inside the IPv4 header
                           // Recompute the FCS so only the IP checksum is wrong.
        let body_len = bytes.len() - 4;
        let fcs = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fcs.to_le_bytes());
        assert_eq!(parse(&bytes), Err(WireError::BadIpChecksum));
    }

    #[test]
    fn probe_roundtrips_as_data() {
        let f = probe();
        let parsed = parse(&serialize(&f)).unwrap();
        assert_eq!(parsed.src, f.src);
        assert_eq!(parsed.dst, f.dst);
        assert_eq!(parsed.wire_len(), f.wire_len());
        let ip = parsed.ipv4().unwrap();
        match &ip.transport {
            Transport::Udp(u) => {
                assert_eq!(u.dport, 5001);
                assert_eq!(u.payload, UdpPayload::Data(128 - 14 - 20 - 8 - 4));
            }
            other => panic!("expected UDP, got {other:?}"),
        }
    }

    #[test]
    fn vlan_tagged_frame_roundtrips() {
        let f = probe().with_vlan(100);
        let parsed = parse(&serialize(&f)).unwrap();
        assert_eq!(parsed.vlan, Some(VlanTag::new(100)));
        assert_eq!(parsed.wire_len(), f.wire_len());
    }

    #[test]
    fn arp_roundtrips_including_padding() {
        let req = ArpPacket::request(
            MacAddr::local(3),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(10, 0, 0, 1),
        );
        let f = Frame::arp(MacAddr::local(3), req);
        let parsed = parse(&serialize(&f)).unwrap();
        match parsed.payload.get() {
            Payload::Arp(a) => assert_eq!(*a, req),
            other => panic!("expected ARP, got {other:?}"),
        }
        // 64-byte minimum implies pad recovered on parse.
        assert_eq!(parsed.wire_len(), 64);
    }

    #[test]
    fn tcp_segment_roundtrips() {
        let seg = TcpSegment {
            sport: 80,
            dport: 45000,
            seq: 1_000_000,
            ack: 2_000_000,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 29200,
            payload_len: 512,
        };
        let f = Frame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            Payload::Ipv4(Ipv4Packet {
                src: Ipv4Addr::new(10, 1, 0, 1),
                dst: Ipv4Addr::new(10, 1, 0, 2),
                ttl: 61,
                tos: 0,
                transport: Transport::Tcp(seg),
            }),
        );
        let parsed = parse(&serialize(&f)).unwrap();
        let ip = parsed.ipv4().unwrap();
        assert_eq!(ip.ttl, 61);
        match ip.transport {
            Transport::Tcp(t) => assert_eq!(t, seg),
            ref other => panic!("expected TCP, got {other:?}"),
        }
    }

    #[test]
    fn vxlan_encapsulation_roundtrips() {
        let inner = Frame::udp_data(
            MacAddr::local(10),
            MacAddr::local(11),
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            1234,
            80,
            200,
        );
        let outer = Frame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            Payload::Ipv4(Ipv4Packet {
                src: Ipv4Addr::new(172, 16, 0, 1),
                dst: Ipv4Addr::new(172, 16, 0, 2),
                ttl: 64,
                tos: 0,
                transport: Transport::Udp(UdpDatagram {
                    sport: 55555,
                    dport: VXLAN_UDP_PORT,
                    payload: UdpPayload::Vxlan {
                        vni: Vni::new(7),
                        inner: Box::new(inner.clone()),
                    },
                }),
            }),
        );
        let parsed = parse(&serialize(&outer)).unwrap();
        match &parsed.ipv4().unwrap().transport {
            Transport::Udp(u) => match &u.payload {
                UdpPayload::Vxlan { vni, inner: got } => {
                    assert_eq!(*vni, Vni::new(7));
                    assert_eq!(got.dst, inner.dst);
                    assert_eq!(got.src, inner.src);
                    assert_eq!(got.dst_ip(), inner.dst_ip());
                }
                other => panic!("expected VXLAN, got {other:?}"),
            },
            other => panic!("expected UDP, got {other:?}"),
        }
    }

    fn vxlan_wrap(inner: Frame, vni: u32) -> Frame {
        Frame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            Payload::Ipv4(Ipv4Packet {
                src: Ipv4Addr::new(172, 16, 0, 1),
                dst: Ipv4Addr::new(172, 16, 0, 2),
                ttl: 64,
                tos: 0,
                transport: Transport::Udp(UdpDatagram {
                    sport: 50000,
                    dport: VXLAN_UDP_PORT,
                    payload: UdpPayload::Vxlan {
                        vni: Vni::new(vni),
                        inner: Box::new(inner),
                    },
                }),
            }),
        )
    }

    #[test]
    fn nested_vxlan_parses_up_to_the_depth_cap() {
        let mut f = Frame::udp_data(
            MacAddr::local(10),
            MacAddr::local(11),
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            1234,
            80,
            16,
        );
        for i in 0..MAX_ENCAP_DEPTH {
            f = vxlan_wrap(f, i as u32 + 1);
        }
        assert!(parse(&serialize(&f)).is_ok());
        // One more wrap crosses the cap.
        f = vxlan_wrap(f, 99);
        assert_eq!(parse(&serialize(&f)), Err(WireError::EncapTooDeep));
    }

    #[test]
    fn truncated_inputs_error_cleanly() {
        assert!(matches!(parse(&[0u8; 10]), Err(WireError::Truncated(_))));
        let bytes = serialize(&probe());
        // Chop the body but keep a valid-looking tail: FCS check fails first.
        assert!(parse(&bytes[..63]).is_err());
    }
}
