//! Property tests: the wire codec round-trips arbitrary structural frames.

use mts_fuzz::prop::{check, check_list, DetRng};
use mts_net::wire::{WireError, MAX_ENCAP_DEPTH};
use mts_net::{
    parse, serialize, ArpPacket, Frame, IpProto, Ipv4Packet, MacAddr, Payload, TcpFlags,
    TcpSegment, Transport, UdpDatagram, UdpPayload, Vni, VXLAN_UDP_PORT,
};
use std::net::Ipv4Addr;

const CASES: u64 = 512;

fn arb_mac(rng: &mut DetRng) -> MacAddr {
    let mut o = [0u8; 6];
    rng.fill(&mut o);
    // Keep sources unicast, as real NICs would.
    o[0] &= 0xfe;
    MacAddr::new(o)
}

fn arb_u16(rng: &mut DetRng) -> u16 {
    rng.between(0, u16::MAX.into()) as u16
}

fn arb_u32(rng: &mut DetRng) -> u32 {
    rng.between(0, u32::MAX.into()) as u32
}

fn arb_ip(rng: &mut DetRng) -> Ipv4Addr {
    Ipv4Addr::from(arb_u32(rng))
}

fn arb_transport(rng: &mut DetRng) -> Transport {
    match rng.below(3) {
        // UDP with data payload (ports avoiding the VXLAN port).
        0 => Transport::Udp(UdpDatagram {
            sport: rng.between(1, 3999) as u16,
            dport: rng.between(1, 3999) as u16,
            payload: UdpPayload::Data(rng.below(1400) as u32),
        }),
        // TCP with arbitrary header fields.
        1 => Transport::Tcp(TcpSegment {
            sport: arb_u16(rng),
            dport: arb_u16(rng),
            seq: arb_u32(rng),
            ack: arb_u32(rng),
            flags: TcpFlags::from_bits(rng.below(32) as u8),
            window: arb_u16(rng),
            payload_len: rng.below(1400) as u32,
        }),
        // An unmodelled IP protocol.
        _ => Transport::Raw {
            proto: IpProto::Other(89),
            len: rng.below(1400) as u32,
        },
    }
}

fn arb_frame(rng: &mut DetRng) -> Frame {
    let (src, dst) = (arb_mac(rng), arb_mac(rng));
    // Tagged four times in five.
    let vlan = (rng.below(5) != 0).then(|| rng.between(1, 4094) as u16);
    let payload = if rng.chance(0.5) {
        Payload::Ipv4(Ipv4Packet {
            src: arb_ip(rng),
            dst: arb_ip(rng),
            ttl: rng.between(1, 255) as u8,
            tos: 0,
            transport: arb_transport(rng),
        })
    } else {
        let (mac, sip, tip) = (arb_mac(rng), arb_ip(rng), arb_ip(rng));
        let base = ArpPacket::request(mac, sip, tip);
        Payload::Arp(if rng.chance(0.5) {
            base
        } else {
            base.reply_to(mac)
        })
    };
    let f = Frame::new(src, dst, payload);
    match vlan {
        Some(vid) => f.with_vlan(vid),
        None => f,
    }
}

/// Wraps `inner` in `depth` layers of VXLAN encapsulation.
fn vxlan_nest(inner: Frame, depth: usize, vni: u32) -> Frame {
    let mut f = inner;
    for level in 0..depth {
        f = Frame::new(
            MacAddr::local(0x700 + level as u32),
            MacAddr::local(0x800 + level as u32),
            Payload::Ipv4(Ipv4Packet {
                src: Ipv4Addr::new(192, 0, 2, 1),
                dst: Ipv4Addr::new(192, 0, 2, 2),
                ttl: 64,
                tos: 0,
                transport: Transport::Udp(UdpDatagram {
                    sport: 49152,
                    dport: VXLAN_UDP_PORT,
                    payload: UdpPayload::Vxlan {
                        vni: Vni::new(vni + level as u32),
                        inner: Box::new(f),
                    },
                }),
            }),
        );
    }
    f
}

/// How many VXLAN layers wrap the frame.
fn nesting_depth(f: &Frame) -> usize {
    match f.payload.get() {
        Payload::Ipv4(ip) => match &ip.transport {
            Transport::Udp(udp) => match &udp.payload {
                UdpPayload::Vxlan { inner, .. } => 1 + nesting_depth(inner),
                _ => 0,
            },
            _ => 0,
        },
        _ => 0,
    }
}

#[test]
fn structural_roundtrip() {
    check("structural_roundtrip", CASES, arb_frame, |frame| {
        let bytes = serialize(frame);
        assert!(bytes.len() >= 64);
        assert_eq!(bytes.len() as u32, frame.wire_len());
        let parsed = parse(&bytes).expect("parse back");
        // Compare header-level structure.
        assert_eq!(parsed.src, frame.src);
        assert_eq!(parsed.dst, frame.dst);
        assert_eq!(parsed.vlan, frame.vlan);
        assert_eq!(parsed.wire_len(), frame.wire_len());
        match (parsed.payload.get(), frame.payload.get()) {
            (Payload::Arp(a), Payload::Arp(b)) => assert_eq!(a, b),
            (Payload::Ipv4(a), Payload::Ipv4(b)) => {
                assert_eq!(a.src, b.src);
                assert_eq!(a.dst, b.dst);
                assert_eq!(a.ttl, b.ttl);
                assert_eq!(a.proto(), b.proto());
                assert_eq!(a.transport.len(), b.transport.len());
                if let (Transport::Tcp(x), Transport::Tcp(y)) = (&a.transport, &b.transport) {
                    assert_eq!(x, y);
                }
            }
            (got, want) => panic!("payload kind changed: {got:?} vs {want:?}"),
        }
    });
}

#[test]
fn bytes_roundtrip_exactly() {
    check("bytes_roundtrip_exactly", CASES, arb_frame, |frame| {
        // serialize . parse . serialize is the identity on bytes.
        let bytes = serialize(frame);
        let reparsed = parse(&bytes).expect("parse");
        assert_eq!(bytes, serialize(&reparsed));
    });
}

#[test]
fn parser_never_panics_on_noise() {
    let noise = |rng: &mut DetRng| {
        let mut data = vec![0u8; rng.below(512) as usize];
        rng.fill(&mut data);
        ((), data)
    };
    check_list("parser_never_panics_on_noise", CASES, noise, |_, data| {
        let _ = parse(data);
    });
}

#[test]
fn vxlan_nested_roundtrip() {
    let gen = |rng: &mut DetRng| {
        (
            arb_frame(rng),
            rng.below(5) as usize,
            rng.between(1, 9_999) as u32,
        )
    };
    let name = "vxlan_nested_roundtrip";
    check(name, CASES, gen, |(frame, depth, vni)| {
        // Every frame shape survives bounded VXLAN nesting: the nesting
        // depth is preserved and serialize . parse . serialize is still
        // the identity on bytes (ids are not serialized).
        let nested = vxlan_nest(frame.clone(), *depth, *vni);
        let bytes = serialize(&nested);
        let parsed = parse(&bytes).expect("nested parse");
        assert_eq!(nesting_depth(&parsed), *depth);
        assert_eq!(serialize(&parsed), bytes);
    });
}

#[test]
fn vxlan_past_the_cap_is_a_typed_reject() {
    let gen = |rng: &mut DetRng| (arb_frame(rng), rng.between(1, 2) as usize);
    let name = "vxlan_past_the_cap_is_a_typed_reject";
    check(name, CASES, gen, |(frame, extra)| {
        let bomb = vxlan_nest(frame.clone(), MAX_ENCAP_DEPTH + extra, 1);
        match parse(&serialize(&bomb)) {
            Err(WireError::EncapTooDeep) => {}
            other => panic!("decap bomb not rejected: {:?}", other.map(|f| f.id)),
        }
    });
}

#[test]
fn flow_hash_ignores_id() {
    check("flow_hash_ignores_id", CASES, arb_frame, |frame| {
        let mut a = frame.clone();
        let mut b = frame.clone();
        a.id = 1;
        b.id = 2;
        assert_eq!(a.flow_hash(), b.flow_hash());
    });
}
