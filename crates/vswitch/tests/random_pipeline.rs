//! Property tests: the flow pipeline under random rules and traffic.

use mts_net::{Frame, MacAddr, Payload};
use mts_vswitch::{
    Action, FlowMatch, FlowRule, Ipv4Prefix, PortKind, PortNo, TableId, VirtualSwitch,
};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_frame() -> impl Strategy<Value = Frame> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        proptest::option::of(1u16..4095),
    )
        .prop_map(|(sm, dm, sip, dip, sp, dp, vlan)| {
            let mut f = Frame::udp_data(
                MacAddr::local(sm),
                MacAddr::local(dm),
                Ipv4Addr::from(sip),
                Ipv4Addr::from(dip),
                sp,
                dp,
                64,
            );
            if let Some(v) = vlan {
                f = f.with_vlan(v);
            }
            f
        })
}

fn arb_action(ports: u32) -> impl Strategy<Value = Action> {
    prop_oneof![
        (1..=ports).prop_map(|p| Action::Output(PortNo(p))),
        Just(Action::Flood),
        Just(Action::Normal),
        Just(Action::Drop),
        any::<u32>().prop_map(|m| Action::SetEthDst(MacAddr::local(m))),
        (1u16..4095).prop_map(Action::PushVlan),
        Just(Action::PopVlan),
        Just(Action::DecTtl),
    ]
}

fn arb_rule(ports: u32) -> impl Strategy<Value = FlowRule> {
    (
        0u16..100,
        proptest::option::of(1..=ports),
        proptest::option::of(any::<u32>()),
        proptest::option::of((any::<u32>(), 0u8..=32)),
        proptest::collection::vec(arb_action(ports), 0..4),
    )
        .prop_map(|(priority, in_port, dst_mac, dst_prefix, actions)| {
            let m = FlowMatch {
                in_port: in_port.map(PortNo),
                eth_dst: dst_mac.map(MacAddr::local),
                ip_dst: dst_prefix.map(|(a, l)| Ipv4Prefix::new(Ipv4Addr::from(a), l)),
                ..FlowMatch::default()
            };
            FlowRule::new(priority, m, actions)
        })
}

/// Destinations of the scripted frames [`scripted_rules`] match on.
const FORWARD_IP: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const BAIL_IPS: [Ipv4Addr; 5] = [
    Ipv4Addr::new(198, 51, 100, 2),
    Ipv4Addr::new(198, 51, 100, 3),
    Ipv4Addr::new(198, 51, 100, 4),
    Ipv4Addr::new(198, 51, 100, 5),
    Ipv4Addr::new(198, 51, 100, 6),
];
const FORWARD_COOKIE: u64 = 9;
/// `BAIL_IPS[k]`'s rule carries cookie `BAIL_COOKIE + k`.
const BAIL_COOKIE: u64 = 20;
const REWRITE_SRC: MacAddr = MacAddr::local(0xbad);
const REWRITE_VLAN: u16 = 7;

/// Rules above every random priority: one plain forward, and one per way
/// the slow path gives up *after* it has already written rewrites and a
/// cookie — explicit drop, TTL expiry (uncacheable), failed decap,
/// backward goto, and no match in the (empty) table a goto leads to.
fn scripted_rules() -> Vec<FlowRule> {
    let rewrites = || {
        vec![
            Action::SetEthSrc(REWRITE_SRC),
            Action::PushVlan(REWRITE_VLAN),
        ]
    };
    let bail = |k: usize, last: Action| {
        let mut actions = rewrites();
        actions.push(last);
        actions.push(Action::Output(PortNo(3)));
        FlowRule::new(200, FlowMatch::to_ip(BAIL_IPS[k]), actions)
            .with_cookie(BAIL_COOKIE + k as u64)
    };
    vec![
        FlowRule::new(
            200,
            FlowMatch::to_ip(FORWARD_IP),
            vec![Action::Output(PortNo(4))],
        )
        .with_cookie(FORWARD_COOKIE),
        bail(0, Action::Drop),
        bail(1, Action::DecTtl),
        bail(2, Action::VxlanDecap),
        bail(3, Action::GotoTable(TableId(0))),
        bail(4, Action::GotoTable(TableId(1))),
    ]
}

/// A frame from port 1's side to `dst_ip`; `dport` picks the microflow.
fn scripted_frame(dst_ip: Ipv4Addr, dport: u16, ttl: u8) -> Frame {
    let mut f = Frame::udp_data(
        MacAddr::local(0x51),
        MacAddr::local(0x52),
        Ipv4Addr::new(192, 0, 2, 1),
        dst_ip,
        4000,
        dport,
        64,
    );
    if let Payload::Ipv4(ip) = f.payload.make_mut() {
        ip.ttl = ttl;
    }
    f
}

/// A long-lived switch driven through `process_into` with one reused
/// output buffer, and its twin driven through `process`.
struct Twins {
    into: VirtualSwitch,
    plain: VirtualSwitch,
    out: Vec<(PortNo, Frame)>,
}

impl Twins {
    fn new(rules: Vec<FlowRule>) -> Twins {
        let build = || {
            let mut sw = VirtualSwitch::new("twin");
            for i in 0..4 {
                sw.add_port(format!("p{i}"), PortKind::Physical);
            }
            for r in rules.iter().cloned().chain(scripted_rules()) {
                sw.install(0, r).expect("table 0 exists");
            }
            sw
        };
        Twins {
            into: build(),
            plain: build(),
            out: Vec::new(),
        }
    }

    /// Runs one frame through both; returns the (equal) emissions.
    fn step(&mut self, in_port: PortNo, frame: &Frame) -> Vec<(PortNo, Frame)> {
        // Emissions land behind whatever the caller's buffer holds.
        if self.out.len() > 40 {
            self.out.clear();
        }
        let mark = self.out.len();
        self.into
            .process_into(in_port, frame.clone(), &mut self.out);
        let got = self.out[mark..].to_vec();
        assert_eq!(got, self.plain.process(in_port, frame.clone()));
        assert_eq!(self.into.stats(), self.plain.stats());
        assert_eq!(self.into.cache_stats(), self.plain.cache_stats());
        got
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Scratch hygiene: the slow path's reused ops/cookie buffers and the
    /// caller's reused output buffer never carry anything from one frame
    /// into the next. Random traffic is interleaved with a script of
    /// drop-then-forward and miss-then-hit pairs whose outcome is known.
    #[test]
    fn reused_buffers_never_leak_between_frames(
        rules in proptest::collection::vec(arb_rule(4), 0..24),
        frames in proptest::collection::vec(arb_frame(), 1..48),
        in_ports in proptest::collection::vec(1u32..=4, 1..48),
    ) {
        let mut sw = Twins::new(rules);
        let mut bails = [0u64; BAIL_IPS.len()];
        for (k, (f, ip)) in frames.iter().zip(in_ports.iter().cycle()).enumerate() {
            sw.step(PortNo(*ip), f);
            // A frame whose resolution is abandoned half-way ...
            let b = k % BAIL_IPS.len();
            bails[b] += 1;
            let ttl = if b == 1 { 1 } else { 64 };
            let dropped = sw.step(PortNo(1), &scripted_frame(BAIL_IPS[b], k as u16, ttl));
            prop_assert!(dropped.is_empty(), "bail-out {} emitted {:?}", b, dropped);
            // ... then a fresh microflow that forwards untouched (a miss
            // resolved right after the bail-out), then the same again (a hit).
            let fwd = scripted_frame(FORWARD_IP, k as u16, 64);
            let hits = sw.into.cache_stats().hits;
            prop_assert_eq!(sw.step(PortNo(1), &fwd), vec![(PortNo(4), fwd.clone())]);
            prop_assert_eq!(sw.into.cache_stats().hits, hits);
            prop_assert_eq!(sw.step(PortNo(1), &fwd), vec![(PortNo(4), fwd.clone())]);
            prop_assert_eq!(sw.into.cache_stats().hits, hits + 1);
        }
        // Cookies were credited to the frames that matched them, only.
        let n = frames.len() as u64;
        for sw in [&sw.into, &sw.plain] {
            prop_assert_eq!(sw.stats_by_cookie(FORWARD_COOKIE).0, 2 * n);
            prop_assert_eq!(sw.misses_by_cookie(FORWARD_COOKIE), n);
            for (b, count) in bails.iter().enumerate() {
                let cookie = BAIL_COOKIE + b as u64;
                prop_assert_eq!(sw.stats_by_cookie(cookie).0, *count);
                prop_assert_eq!(sw.misses_by_cookie(cookie), *count);
            }
        }
    }

    /// No combination of random rules and frames panics, loops, or emits
    /// to the ingress port (except explicit Output back to it).
    #[test]
    fn pipeline_is_total_and_sane(
        rules in proptest::collection::vec(arb_rule(4), 0..24),
        frames in proptest::collection::vec(arb_frame(), 1..48),
        in_ports in proptest::collection::vec(1u32..=4, 1..48),
    ) {
        let mut sw = VirtualSwitch::new("fuzz");
        for i in 0..4 {
            sw.add_port(format!("p{i}"), PortKind::Physical);
        }
        let has_explicit_self_output = rules.iter().any(|r| {
            r.actions.iter().any(|a| matches!(a, Action::Output(_)))
        });
        for r in rules {
            sw.install(0, r).expect("table 0 exists");
        }
        for (f, ip) in frames.iter().zip(in_ports.iter().cycle()) {
            let in_port = PortNo(*ip);
            let out = sw.process(in_port, f.clone());
            // Flood/Normal never echo to the ingress port.
            if !has_explicit_self_output {
                prop_assert!(out.iter().all(|(p, _)| *p != in_port));
            }
            // Emission count is bounded by the port fanout per rule chain.
            prop_assert!(out.len() <= 4 * 8, "absurd fanout {}", out.len());
        }
        // Conservation: received counts every call.
        prop_assert_eq!(sw.stats().received, frames.len() as u64);
    }

    /// The cache never changes forwarding decisions: replaying the same
    /// frame twice yields identical emissions.
    #[test]
    fn cache_transparency(
        rules in proptest::collection::vec(arb_rule(4), 1..16),
        frame in arb_frame(),
    ) {
        // Skip NORMAL (learning mutates state between calls by design).
        let rules: Vec<FlowRule> = rules
            .into_iter()
            .filter(|r| !r.actions.iter().any(|a| matches!(a, Action::Normal | Action::Flood)))
            .collect();
        let mut sw = VirtualSwitch::new("cachefuzz");
        for i in 0..4 {
            sw.add_port(format!("p{i}"), PortKind::Physical);
        }
        for r in rules {
            sw.install(0, r).expect("table 0 exists");
        }
        let first = sw.process(PortNo(1), frame.clone());
        let second = sw.process(PortNo(1), frame.clone());
        prop_assert_eq!(first.len(), second.len());
        for ((p1, f1), (p2, f2)) in first.iter().zip(second.iter()) {
            prop_assert_eq!(p1, p2);
            prop_assert_eq!(f1.dst, f2.dst);
            prop_assert_eq!(f1.src, f2.src);
            prop_assert_eq!(f1.vlan, f2.vlan);
        }
        // And the second traversal hit the cache (unless TTL barred caching).
        let cs = sw.cache_stats();
        prop_assert!(cs.hits >= 1 || cs.misses == 2);
    }

    /// Higher-priority matching rules always win.
    #[test]
    fn priority_always_wins(
        dst in any::<u32>(),
        low_prio in 0u16..50,
        high_prio in 50u16..100,
    ) {
        let mut sw = VirtualSwitch::new("prio");
        let a = sw.add_port("a", PortKind::Physical);
        let lo = sw.add_port("lo", PortKind::Physical);
        let hi = sw.add_port("hi", PortKind::Physical);
        let dip = Ipv4Addr::from(dst);
        sw.install(0, FlowRule::new(low_prio, FlowMatch::to_ip(dip), vec![Action::Output(lo)]))
            .expect("table 0 exists");
        sw.install(0, FlowRule::new(high_prio, FlowMatch::to_ip(dip), vec![Action::Output(hi)]))
            .expect("table 0 exists");
        let f = Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(9, 9, 9, 9),
            dip,
            1,
            2,
            20,
        );
        let out = sw.process(a, f);
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(out[0].0, hi);
    }
}
