//! Property tests for the header-set primitives `mts-isocheck` builds on:
//! `Ipv4Prefix` containment/overlap and `FlowMatch` subsumption.

mod common;

use common::{arb_frame, arb_u32};
use mts_fuzz::prop::{check, DetRng};
use mts_net::{EtherType, Frame, IpProto, Transport};
use mts_vswitch::{FlowMatch, Ipv4Prefix, PortNo, VlanMatch};
use std::net::Ipv4Addr;

const CASES: u64 = 64;

fn mask_of(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

fn arb_u16(rng: &mut DetRng) -> u16 {
    rng.between(0, u16::MAX.into()) as u16
}

fn arb_len(rng: &mut DetRng) -> u8 {
    rng.between(0, 32) as u8
}

fn arb_prefix(rng: &mut DetRng) -> Ipv4Prefix {
    let a = arb_u32(rng);
    Ipv4Prefix::new(Ipv4Addr::from(a), arb_len(rng))
}

/// Two prefixes that share no address: both at least one bit long, with
/// `b`'s network differing from `a`'s in one of their common leading bits.
fn arb_disjoint_pair(rng: &mut DetRng) -> (Ipv4Prefix, Ipv4Prefix) {
    let (la, lb) = (rng.between(1, 32) as u8, rng.between(1, 32) as u8);
    let (a, b) = (arb_u32(rng), arb_u32(rng));
    let bit = 1u32 << (31 - rng.below(u64::from(la.min(lb))));
    let b = (b & !bit) | (!a & bit);
    let pa = Ipv4Prefix::new(Ipv4Addr::from(a), la);
    (pa, Ipv4Prefix::new(Ipv4Addr::from(b), lb))
}

/// A match that provably accepts `f` on `port`: each bit of `sel` pins one
/// field to the frame's own value; prefix fields use the given lengths.
fn match_for_frame(f: &Frame, port: PortNo, sel: u16, plen_src: u8, plen_dst: u8) -> FlowMatch {
    let ip = f.ipv4().expect("generated frames carry IPv4");
    let (sport, dport) = match &ip.transport {
        Transport::Udp(u) => (u.sport, u.dport),
        Transport::Tcp(t) => (t.sport, t.dport),
        Transport::Raw { .. } => (0, 0),
    };
    FlowMatch {
        in_port: (sel & 0x001 != 0).then_some(port),
        eth_src: (sel & 0x002 != 0).then_some(f.src),
        eth_dst: (sel & 0x004 != 0).then_some(f.dst),
        vlan: if sel & 0x008 != 0 {
            match f.vlan {
                Some(t) => VlanMatch::Tag(t.vid),
                None => VlanMatch::Untagged,
            }
        } else {
            VlanMatch::Any
        },
        ethertype: (sel & 0x010 != 0).then_some(EtherType::Ipv4),
        ip_src: (sel & 0x020 != 0).then(|| Ipv4Prefix::new(ip.src, plen_src)),
        ip_dst: (sel & 0x040 != 0).then(|| Ipv4Prefix::new(ip.dst, plen_dst)),
        ip_proto: (sel & 0x080 != 0).then_some(IpProto::Udp),
        l4_src: (sel & 0x100 != 0).then_some(sport),
        l4_dst: (sel & 0x200 != 0).then_some(dport),
        tun_id: None,
    }
}

#[test]
fn prefix_new_is_canonical() {
    check("prefix_new_is_canonical", CASES, arb_prefix, |&p| {
        // Host bits are zeroed, so re-canonicalizing is a no-op and the
        // network address is a member of its own prefix.
        assert_eq!(Ipv4Prefix::new(p.net, p.len), p);
        assert!(p.contains(p.net));
    });
}

#[test]
fn prefix_contains_all_its_addresses() {
    let gen = |rng: &mut DetRng| (arb_prefix(rng), arb_u32(rng));
    let name = "prefix_contains_all_its_addresses";
    check(name, CASES, gen, |&(p, host)| {
        let addr = Ipv4Addr::from(u32::from(p.net) | (host & !mask_of(p.len)));
        assert!(p.contains(addr));
    });
}

#[test]
fn containment_implies_membership() {
    let gen = |rng: &mut DetRng| (arb_prefix(rng), arb_prefix(rng), arb_u32(rng));
    let name = "containment_implies_membership";
    check(name, CASES, gen, |&(a, b, host)| {
        let addr_in_b = Ipv4Addr::from(u32::from(b.net) | (host & !mask_of(b.len)));
        if a.contains_prefix(&b) {
            assert!(a.contains(addr_in_b));
            assert!(a.len <= b.len);
        }
    });
}

#[test]
fn overlap_is_symmetric_and_laminar() {
    let gen = |rng: &mut DetRng| (arb_prefix(rng), arb_prefix(rng));
    check("overlap_is_symmetric_and_laminar", CASES, gen, |&(a, b)| {
        assert_eq!(a.overlaps(&b), b.overlaps(&a));
        // Prefixes form a laminar family: overlap ⟺ one contains the other,
        // which in turn ⟺ one's network address lies in the other.
        assert_eq!(
            a.overlaps(&b),
            a.contains_prefix(&b) || b.contains_prefix(&a)
        );
        assert_eq!(a.overlaps(&b), a.contains(b.net) || b.contains(a.net));
    });
}

#[test]
fn disjoint_prefixes_share_no_address() {
    let gen = |rng: &mut DetRng| (arb_disjoint_pair(rng), arb_u32(rng));
    let name = "disjoint_prefixes_share_no_address";
    check(name, CASES, gen, |&((a, b), host)| {
        assert!(!a.overlaps(&b), "{a:?} and {b:?} overlap");
        let addr_in_a = Ipv4Addr::from(u32::from(a.net) | (host & !mask_of(a.len)));
        assert!(!b.contains(addr_in_a));
    });
}

#[test]
fn shorter_prefix_of_same_address_contains() {
    let gen = |rng: &mut DetRng| (arb_u32(rng), arb_len(rng), arb_len(rng));
    let name = "shorter_prefix_of_same_address_contains";
    check(name, CASES, gen, |&(addr, l1, l2)| {
        let short = Ipv4Prefix::new(Ipv4Addr::from(addr), l1.min(l2));
        let long = Ipv4Prefix::new(Ipv4Addr::from(addr), l1.max(l2));
        assert!(short.contains_prefix(&long));
        assert!(short.overlaps(&long));
    });
}

/// A frame, an ingress port in `1..8`, and a match built for them.
fn arb_match(rng: &mut DetRng) -> (Frame, PortNo, FlowMatch) {
    let (f, port) = (arb_frame(rng), PortNo(rng.between(1, 7) as u32));
    let m = match_for_frame(&f, port, arb_u16(rng), arb_len(rng), arb_len(rng));
    (f, port, m)
}

#[test]
fn subsumption_is_reflexive() {
    check("subsumption_is_reflexive", CASES, arb_match, |(_, _, m)| {
        assert!(m.subsumes(m));
        assert!(FlowMatch::any().subsumes(m));
    });
}

#[test]
fn generalization_subsumes_and_both_match() {
    let gen = |rng: &mut DetRng| {
        let (f, port) = (arb_frame(rng), PortNo(rng.between(1, 7) as u32));
        let (sel, keep) = (arb_u16(rng), arb_u16(rng));
        let lens = [0; 4].map(|_| arb_len(rng));
        (f, port, sel, keep, lens)
    };
    let name = "generalization_subsumes_and_both_match";
    check(name, CASES, gen, |(f, port, sel, keep, lens)| {
        let [pl_src, pl_dst, widen_src, widen_dst] = *lens;
        // `m` pins a subset of fields to the frame's values; `g` keeps only
        // a subset of those and widens the prefixes, so it must subsume `m`
        // and still accept every frame `m` accepts — in particular `f`.
        let m = match_for_frame(f, *port, *sel, pl_src, pl_dst);
        let g = match_for_frame(
            f,
            *port,
            sel & keep,
            pl_src.min(widen_src),
            pl_dst.min(widen_dst),
        );
        assert!(m.matches(*port, f, None));
        assert!(g.matches(*port, f, None));
        assert!(g.subsumes(&m));
        assert!(g.specificity() <= m.specificity());
    });
}

#[test]
fn subsumption_is_sound_on_random_pairs() {
    let gen = |rng: &mut DetRng| {
        let (f, port) = (arb_frame(rng), PortNo(rng.between(1, 7) as u32));
        let (sel_a, sel_b) = (arb_u16(rng), arb_u16(rng));
        let (pl_a, pl_b) = (arb_len(rng), arb_len(rng));
        let a = match_for_frame(&f, port, sel_a, pl_a, pl_a);
        let b = match_for_frame(&f, port, sel_b, pl_b, pl_b);
        (f, port, a, b)
    };
    let name = "subsumption_is_sound_on_random_pairs";
    check(name, CASES, gen, |(f, port, a, b)| {
        // For arbitrary match pairs: whenever `a.subsumes(b)` holds and `b`
        // accepts a frame, `a` must accept it too (the guarantee isocheck's
        // shadowed-rule warning relies on).
        if a.subsumes(b) && b.matches(*port, f, None) {
            assert!(a.matches(*port, f, None));
        }
    });
}
