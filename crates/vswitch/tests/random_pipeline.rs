//! Property tests: the flow pipeline under random rules and traffic.

mod common;

use common::{arb_frame, arb_u32};
use mts_fuzz::prop::{check, check_list, DetRng};
use mts_net::{Frame, MacAddr, Payload};
use mts_vswitch::{
    Action, FlowMatch, FlowRule, Ipv4Prefix, PortKind, PortNo, TableId, VirtualSwitch,
};
use std::net::Ipv4Addr;

const CASES: u64 = 192;

fn arb_action(rng: &mut DetRng, ports: u32) -> Action {
    match rng.below(8) {
        0 => Action::Output(PortNo(rng.between(1, ports.into()) as u32)),
        1 => Action::Flood,
        2 => Action::Normal,
        3 => Action::Drop,
        4 => Action::SetEthDst(MacAddr::local(arb_u32(rng))),
        5 => Action::PushVlan(rng.between(1, 4094) as u16),
        6 => Action::PopVlan,
        _ => Action::DecTtl,
    }
}

/// `Some(value)` four times in five.
fn maybe<T>(rng: &mut DetRng, value: impl FnOnce(&mut DetRng) -> T) -> Option<T> {
    (rng.below(5) != 0).then(|| value(rng))
}

fn arb_rule(rng: &mut DetRng, ports: u32) -> FlowRule {
    let priority = rng.below(100) as u16;
    let in_port = maybe(rng, |r| PortNo(r.between(1, ports.into()) as u32));
    let eth_dst = maybe(rng, |r| MacAddr::local(arb_u32(r)));
    let ip_dst = maybe(rng, |r| {
        let a = arb_u32(r);
        Ipv4Prefix::new(Ipv4Addr::from(a), r.between(0, 32) as u8)
    });
    let actions = (0..rng.below(4)).map(|_| arb_action(rng, ports)).collect();
    let m = FlowMatch {
        in_port,
        eth_dst,
        ip_dst,
        ..FlowMatch::default()
    };
    FlowRule::new(priority, m, actions)
}

/// Between `lo` and `hi` draws of `one`.
fn list<T>(rng: &mut DetRng, lo: u64, hi: u64, one: impl Fn(&mut DetRng) -> T) -> Vec<T> {
    let len = rng.between(lo, hi);
    (0..len).map(|_| one(rng)).collect()
}

/// Up to 23 random rules over four ports, 1–47 frames and 1–47 ingress
/// ports (cycled over the frames).
fn arb_traffic(rng: &mut DetRng) -> (Vec<FlowRule>, Vec<Frame>, Vec<u32>) {
    let rules = list(rng, 0, 23, |r| arb_rule(r, 4));
    let frames = list(rng, 1, 47, arb_frame);
    let in_ports = list(rng, 1, 47, |r| r.between(1, 4) as u32);
    (rules, frames, in_ports)
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

/// Scratch hygiene: the slow path's reused ops/cookie buffers and the
/// caller's reused output buffer never carry anything from one frame
/// into the next. Random traffic is interleaved with a script of
/// drop-then-forward and miss-then-hit pairs whose outcome is known.
#[test]
fn reused_buffers_never_leak_between_frames() {
    let gen = |rng: &mut DetRng| {
        let (rules, frames, in_ports) = arb_traffic(rng);
        ((rules, in_ports), frames)
    };
    let name = "reused_buffers_never_leak_between_frames";
    check_list(name, CASES, gen, |(rules, in_ports), frames| {
        let mut sw = Twins::new(rules.clone());
        let mut bails = [0u64; BAIL_IPS.len()];
        for (k, (f, ip)) in frames.iter().zip(in_ports.iter().cycle()).enumerate() {
            sw.step(PortNo(*ip), f);
            // A frame whose resolution is abandoned half-way ...
            let b = k % BAIL_IPS.len();
            bails[b] += 1;
            let ttl = if b == 1 { 1 } else { 64 };
            let dropped = sw.step(PortNo(1), &scripted_frame(BAIL_IPS[b], k as u16, ttl));
            assert!(dropped.is_empty(), "bail-out {} emitted {:?}", b, dropped);
            // ... then a fresh microflow that forwards untouched (a miss
            // resolved right after the bail-out), then the same again (a hit).
            let fwd = scripted_frame(FORWARD_IP, k as u16, 64);
            let hits = sw.into.cache_stats().hits;
            assert_eq!(sw.step(PortNo(1), &fwd), vec![(PortNo(4), fwd.clone())]);
            assert_eq!(sw.into.cache_stats().hits, hits);
            assert_eq!(sw.step(PortNo(1), &fwd), vec![(PortNo(4), fwd.clone())]);
            assert_eq!(sw.into.cache_stats().hits, hits + 1);
        }
        // Cookies were credited to the frames that matched them, only.
        let n = frames.len() as u64;
        for sw in [&sw.into, &sw.plain] {
            assert_eq!(sw.stats_by_cookie(FORWARD_COOKIE).0, 2 * n);
            assert_eq!(sw.misses_by_cookie(FORWARD_COOKIE), n);
            for (b, count) in bails.iter().enumerate() {
                let cookie = BAIL_COOKIE + b as u64;
                assert_eq!(sw.stats_by_cookie(cookie).0, *count);
                assert_eq!(sw.misses_by_cookie(cookie), *count);
            }
        }
    });
}

/// No combination of random rules and frames panics, loops, or emits
/// to the ingress port (except explicit Output back to it).
#[test]
fn pipeline_is_total_and_sane() {
    let gen = |rng: &mut DetRng| {
        let (rules, frames, in_ports) = arb_traffic(rng);
        ((frames, in_ports), rules)
    };
    let name = "pipeline_is_total_and_sane";
    check_list(name, CASES, gen, |(frames, in_ports), rules| {
        let mut sw = VirtualSwitch::new("fuzz");
        for i in 0..4 {
            sw.add_port(format!("p{i}"), PortKind::Physical);
        }
        let has_explicit_self_output = rules
            .iter()
            .any(|r| r.actions.iter().any(|a| matches!(a, Action::Output(_))));
        for r in rules {
            sw.install(0, r.clone()).expect("table 0 exists");
        }
        for (f, ip) in frames.iter().zip(in_ports.iter().cycle()) {
            let in_port = PortNo(*ip);
            let out = sw.process(in_port, f.clone());
            // Flood/Normal never echo to the ingress port.
            if !has_explicit_self_output {
                assert!(out.iter().all(|(p, _)| *p != in_port));
            }
            // Emission count is bounded by the port fanout per rule chain.
            assert!(out.len() <= 4 * 8, "absurd fanout {}", out.len());
        }
        // Conservation: received counts every call.
        assert_eq!(sw.stats().received, frames.len() as u64);
    });
}

/// The cache never changes forwarding decisions: replaying the same
/// frame twice yields identical emissions.
#[test]
fn cache_transparency() {
    let gen = |rng: &mut DetRng| {
        let rules = list(rng, 1, 15, |r| arb_rule(r, 4));
        (arb_frame(rng), rules)
    };
    check_list("cache_transparency", CASES, gen, |frame, rules| {
        let mut sw = VirtualSwitch::new("cachefuzz");
        for i in 0..4 {
            sw.add_port(format!("p{i}"), PortKind::Physical);
        }
        // Skip NORMAL (learning mutates state between calls by design).
        let learns = |r: &&FlowRule| {
            r.actions
                .iter()
                .any(|a| matches!(a, Action::Normal | Action::Flood))
        };
        for r in rules.iter().filter(|r| !learns(r)) {
            sw.install(0, r.clone()).expect("table 0 exists");
        }
        let first = sw.process(PortNo(1), frame.clone());
        let second = sw.process(PortNo(1), frame.clone());
        assert_eq!(first.len(), second.len());
        for ((p1, f1), (p2, f2)) in first.iter().zip(second.iter()) {
            assert_eq!(p1, p2);
            assert_eq!(f1.dst, f2.dst);
            assert_eq!(f1.src, f2.src);
            assert_eq!(f1.vlan, f2.vlan);
        }
        // And the second traversal hit the cache (unless TTL barred caching).
        let cs = sw.cache_stats();
        assert!(cs.hits >= 1 || cs.misses == 2);
    });
}

/// Higher-priority matching rules always win.
#[test]
fn priority_always_wins() {
    let gen = |rng: &mut DetRng| {
        (
            arb_u32(rng),
            rng.below(50) as u16,
            rng.between(50, 99) as u16,
        )
    };
    let name = "priority_always_wins";
    check(name, CASES, gen, |&(dst, low_prio, high_prio)| {
        let mut sw = VirtualSwitch::new("prio");
        let a = sw.add_port("a", PortKind::Physical);
        let lo = sw.add_port("lo", PortKind::Physical);
        let hi = sw.add_port("hi", PortKind::Physical);
        let dip = Ipv4Addr::from(dst);
        sw.install(
            0,
            FlowRule::new(low_prio, FlowMatch::to_ip(dip), vec![Action::Output(lo)]),
        )
        .expect("table 0 exists");
        sw.install(
            0,
            FlowRule::new(high_prio, FlowMatch::to_ip(dip), vec![Action::Output(hi)]),
        )
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
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, hi);
    });
}
