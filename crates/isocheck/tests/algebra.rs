//! The in-place cube algebra and both transfer functions, held to a
//! reference copy of the allocating code they replaced.
//!
//! `HeaderSet`'s operations work in place or append into a caller's set,
//! and the transfer functions write into caller-owned scratch and output
//! lists whose sets are recycled. The contract is not just the same set but
//! the same cube *sequence*: witnesses concretize a set's first cube and the
//! witness search takes the first hit of a walk over cubes in order. So
//! every operation is compared, cube for cube, against [`RefSet`] — the
//! allocating implementation, kept here verbatim — on seeded random cubes
//! over real deployments' atomizations. Outputs go into buffers pre-filled
//! with sentinel cubes: an appending operation must leave them untouched in
//! front, a replacing one must leave none behind.

use mts_core::controller::{Controller, Deployment};
use mts_core::overlay::{install_overlay_rules, OverlayConfig};
use mts_core::{DeploymentSpec, ResourceMode, Scenario, SecurityLevel};
use mts_isocheck::header::Field;
use mts_isocheck::model::{
    nic_transfer, vswitch_transfer, Collector, PortSets, TransferScratch, VfRole,
};
use mts_isocheck::{Cube, HeaderSet, Model};
use mts_nic::{FilterAction, NicPort, VfId};
use mts_sim::DetRng;
use mts_vswitch::{Action, DatapathKind, FlowMatch, FlowRule};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------------------
// The reference: the allocating algebra, as it was.

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RefSet {
    cubes: Vec<Cube>,
}

impl RefSet {
    fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    fn insert(&mut self, c: Cube) {
        if c.is_empty() || self.cubes.iter().any(|e| e.contains(&c)) {
            return;
        }
        self.cubes.retain(|e| !c.contains(e));
        self.cubes.push(c);
    }

    fn union(&mut self, other: &RefSet) {
        for c in &other.cubes {
            self.insert(*c);
        }
    }

    fn intersect_cube(&self, c: &Cube) -> RefSet {
        let mut out = RefSet::default();
        for e in &self.cubes {
            out.insert(e.and(c));
        }
        out
    }

    fn subtract_cube(&mut self, c: &Cube) {
        let mut next = Vec::new();
        for e in &self.cubes {
            e.minus(c, &mut next);
        }
        let mut out = RefSet::default();
        for e in next {
            out.insert(e);
        }
        *self = out;
    }

    fn minus(&self, other: &RefSet) -> RefSet {
        let mut out = self.clone();
        for c in &other.cubes {
            out.subtract_cube(c);
        }
        out
    }

    fn rewrite(&self, field: Field, to: u128) -> RefSet {
        let mut out = RefSet::default();
        for e in &self.cubes {
            let mut c = *e;
            match field {
                Field::Src => c.src = to,
                Field::Dst => c.dst = to,
                Field::Vlan => c.vlan = to as u32,
            }
            out.insert(c);
        }
        out
    }
}

#[derive(Default)]
struct RefCollector {
    filter_hits: BTreeSet<(u8, usize)>,
    rule_hits: BTreeSet<(usize, u8, usize)>,
    vf_delivered: BTreeSet<(u8, u8)>,
    notes: BTreeSet<String>,
}

fn ref_members(m: &Model, pf: u8, vid: u16) -> Vec<NicPort> {
    let mut out = vec![NicPort::Wire];
    if vid == 0 {
        out.push(NicPort::Pf);
    }
    for (id, cfg) in &m.pfs[pf as usize].vfs {
        if cfg.vlan == Some(vid) || (cfg.vlan.is_none() && vid == 0) {
            out.push(NicPort::Vf(VfId(*id)));
        }
    }
    out
}

fn ref_learned_targets(m: &Model, pf: u8, vid: u16) -> BTreeSet<NicPort> {
    let mut out: BTreeSet<NicPort> = ref_members(m, pf, vid)
        .into_iter()
        .filter(|p| *p != NicPort::Pf)
        .collect();
    if vid == 0 {
        out.insert(NicPort::Pf);
    }
    for (id, cfg) in &m.pfs[pf as usize].vfs {
        let tenant_owned = matches!(m.vf_role.get(&(pf, *id)), Some(VfRole::Tenant { .. }));
        if cfg.vlan.is_none() && tenant_owned {
            out.insert(NicPort::Vf(VfId(*id)));
        }
    }
    out
}

fn ref_nic_transfer(
    m: &Model,
    pf: u8,
    from: NicPort,
    hs: &RefSet,
    col: &mut RefCollector,
) -> Vec<(NicPort, RefSet)> {
    let model = &m.pfs[pf as usize];
    let dom = &m.dom;
    let mut cur = hs.clone();
    if let NicPort::Vf(VfId(id)) = from {
        let Some(cfg) = model.vfs.get(&id) else {
            return Vec::new();
        };
        if cfg.spoof_check {
            let mut c = dom.full_cube();
            c.src = dom.mac_bit(cfg.mac);
            cur = cur.intersect_cube(&c);
        }
        if let Some(v) = cfg.vlan {
            let mut untagged = dom.full_cube();
            untagged.vlan = 1;
            cur = cur.intersect_cube(&untagged);
            cur = cur.rewrite(Field::Vlan, u128::from(dom.vlan_bit(v)));
        }
    }
    if cur.is_empty() {
        return Vec::new();
    }
    let mut admitted = RefSet::default();
    let mut remaining = cur;
    for (orig, rule) in &model.filters {
        if remaining.is_empty() {
            break;
        }
        if !rule.from.matches(from) {
            continue;
        }
        let cube = m.filter_cube(rule);
        let matched = remaining.intersect_cube(&cube);
        if !matched.is_empty() {
            col.filter_hits.insert((pf, *orig));
            if rule.action == FilterAction::Allow {
                admitted.union(&matched);
            }
            remaining.subtract_cube(&cube);
        }
    }
    admitted.union(&remaining);

    let mut out: BTreeMap<NicPort, RefSet> = BTreeMap::new();
    let deliver = |port: NicPort, set: &RefSet, out: &mut BTreeMap<NicPort, RefSet>| {
        if port != from && !set.is_empty() {
            out.entry(port).or_default().union(set);
        }
    };
    for (atom, vid) in dom.vlans.iter().enumerate() {
        let mut vcube = dom.full_cube();
        vcube.vlan = 1 << atom;
        let in_vlan = admitted.intersect_cube(&vcube);
        if in_vlan.is_empty() {
            continue;
        }
        let mut mc = dom.full_cube();
        mc.dst = dom.mac_multicast();
        let multicast = in_vlan.intersect_cube(&mc);
        if !multicast.is_empty() {
            for port in ref_members(m, pf, *vid) {
                deliver(port, &multicast, &mut out);
            }
        }
        let mut uc = dom.full_cube();
        uc.dst = dom.mac_unicast();
        let mut unicast = in_vlan.intersect_cube(&uc);
        for (svlan, mac, port) in &model.statics {
            if svlan != vid || unicast.is_empty() {
                continue;
            }
            let mut c = dom.full_cube();
            c.dst = dom.mac_bit(*mac);
            let part = unicast.intersect_cube(&c);
            deliver(*port, &part, &mut out);
            unicast.subtract_cube(&c);
        }
        if !unicast.is_empty() {
            for port in ref_learned_targets(m, pf, *vid) {
                deliver(port, &unicast, &mut out);
            }
        }
    }

    let mut result = Vec::new();
    for (port, set) in out {
        let set = match port {
            NicPort::Vf(VfId(id)) => {
                col.vf_delivered.insert((pf, id));
                match model.vfs.get(&id).and_then(|c| c.vlan) {
                    Some(_) => set.rewrite(Field::Vlan, 1),
                    None => set,
                }
            }
            _ => set,
        };
        if !set.is_empty() {
            result.push((port, set));
        }
    }
    result
}

fn ref_vswitch_transfer(
    m: &Model,
    inst: usize,
    in_port: u32,
    hs: &RefSet,
    col: &mut RefCollector,
) -> Vec<(u32, RefSet)> {
    let vs = &m.vswitches[inst];
    let dom = &m.dom;
    let mut out: BTreeMap<u32, RefSet> = BTreeMap::new();
    let mut stack: Vec<(u8, RefSet)> = vec![(0, hs.clone())];
    while let Some((t, mut cur)) = stack.pop() {
        let Some(rules) = vs.tables.get(t as usize) else {
            continue;
        };
        for (idx, rule) in rules.iter().enumerate() {
            if cur.is_empty() {
                break;
            }
            if let Some(p) = rule.m.in_port {
                if p.0 != in_port {
                    continue;
                }
            }
            let (cube, exact) = m.match_cube(&rule.m);
            let matched = cur.intersect_cube(&cube);
            if matched.is_empty() {
                continue;
            }
            col.rule_hits.insert((inst, t, idx));
            if exact {
                cur.subtract_cube(&cube);
            }
            let mut work = matched;
            let mut goto: Option<u8> = None;
            let mut dropped = false;
            for a in &rule.actions {
                match a {
                    Action::Output(p) => {
                        out.entry(p.0).or_default().union(&work);
                    }
                    Action::Flood => {
                        for p in &vs.ports {
                            if *p != in_port {
                                out.entry(*p).or_default().union(&work);
                            }
                        }
                    }
                    Action::Normal => {
                        col.notes.insert(format!(
                            "{}: NORMAL action over-approximated as flood",
                            vs.name
                        ));
                        for p in &vs.ports {
                            if *p != in_port {
                                out.entry(*p).or_default().union(&work);
                            }
                        }
                    }
                    Action::SetEthDst(mac) => {
                        work = work.rewrite(Field::Dst, dom.mac_bit(*mac));
                    }
                    Action::SetEthSrc(mac) => {
                        work = work.rewrite(Field::Src, dom.mac_bit(*mac));
                    }
                    Action::PushVlan(v) => {
                        work = work.rewrite(Field::Vlan, u128::from(dom.vlan_bit(*v)));
                    }
                    Action::PopVlan => {
                        work = work.rewrite(Field::Vlan, 1);
                    }
                    Action::DecTtl => {}
                    Action::VxlanEncap { .. } | Action::VxlanDecap => {
                        col.notes.insert(format!(
                            "{}: VXLAN tunnel not traced through (overlay headers are \
                             outside the modelled fields)",
                            vs.name
                        ));
                        dropped = true;
                        break;
                    }
                    Action::GotoTable(tid) => {
                        goto = Some(tid.0);
                    }
                    Action::Drop => {
                        dropped = true;
                        break;
                    }
                }
            }
            if !dropped {
                if let Some(next) = goto {
                    if next > t && !work.is_empty() {
                        stack.push((next, work));
                    }
                }
            }
        }
    }
    out.into_iter().filter(|(_, s)| !s.is_empty()).collect()
}

// ---------------------------------------------------------------------------
// Inputs

/// Real atomizations: every shipped configuration, plus Level-2 with the
/// overlay rules (`GotoTable`, VXLAN) and a NORMAL rule on one vswitch.
fn models() -> Vec<Model> {
    let mut out: Vec<Model> = mts_isocheck::shipped_matrix()
        .into_iter()
        .map(|spec| Model::of(&Controller::deploy(spec).expect("deploys")).expect("model"))
        .collect();
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 4 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let mut d: Deployment = Controller::build(spec, 2).expect("builds");
    install_overlay_rules(&mut d, OverlayConfig::default()).expect("overlay rules");
    d.vswitches[1]
        .sw
        .install(0, FlowRule::new(1, FlowMatch::any(), vec![Action::Normal]))
        .expect("NORMAL rule");
    out.push(Model::of(&d).expect("model"));
    out
}

fn bits(rng: &mut DetRng) -> u128 {
    let mut b = [0u8; 16];
    rng.fill(&mut b);
    u128::from_le_bytes(b)
}

/// One field mask over `atoms` atoms: all of them, one, none, or a random
/// subset.
fn mask(rng: &mut DetRng, all: u128) -> u128 {
    match rng.below(8) {
        0 | 1 => all,
        2 | 3 => {
            let n = all.count_ones() as usize;
            1 << rng.index(n)
        }
        4 => 0,
        _ => bits(rng) & all,
    }
}

fn cube(rng: &mut DetRng, m: &Model) -> Cube {
    let d = &m.dom;
    Cube {
        src: mask(rng, d.mac_all()),
        dst: mask(rng, d.mac_all()),
        vlan: mask(rng, u128::from(d.vlan_all())) as u32,
        ether: mask(rng, u128::from(d.ether_all())) as u16,
        ip_src: mask(rng, u128::from(d.ip_all())) as u64,
        ip_dst: mask(rng, u128::from(d.ip_all())) as u64,
    }
}

/// The same random class built both ways, checked to agree.
fn set(rng: &mut DetRng, m: &Model) -> (HeaderSet, RefSet) {
    let (mut hs, mut rs) = (HeaderSet::empty(), RefSet::default());
    for _ in 0..rng.between(1, 6) {
        let c = cube(rng, m);
        hs.insert(c);
        rs.insert(c);
    }
    assert_eq!(hs.cubes(), &rs.cubes[..], "insert");
    (hs, rs)
}

/// Cubes on atoms no domain has (each field's top bit): no result cube can
/// contain one or be contained in one.
fn sentinels() -> [Cube; 2] {
    let top = Cube {
        src: 1 << 127,
        dst: 1 << 127,
        vlan: 1 << 31,
        ether: 1 << 15,
        ip_src: 1 << 63,
        ip_dst: 1 << 63,
    };
    let next = Cube {
        src: 1 << 126,
        dst: 1 << 126,
        vlan: 1 << 30,
        ether: 1 << 14,
        ip_src: 1 << 62,
        ip_dst: 1 << 62,
    };
    [top, next]
}

fn with_sentinels() -> HeaderSet {
    let mut s = HeaderSet::empty();
    for c in sentinels() {
        s.insert(c);
    }
    s
}

fn sentinels_then(r: &RefSet) -> Vec<Cube> {
    sentinels().iter().chain(&r.cubes).copied().collect()
}

// ---------------------------------------------------------------------------
// Properties

#[test]
fn in_place_algebra_matches_the_allocating_reference_cube_for_cube() {
    let mut rng = DetRng::new(0xa16e).derive("algebra");
    let mut splinters = Vec::new();
    for m in models() {
        for _ in 0..300 {
            let (a, ra) = set(&mut rng, &m);
            let (b, rb) = set(&mut rng, &m);
            let c = cube(&mut rng, &m);

            let mut u = a.clone();
            u.union(&b);
            let mut ru = ra.clone();
            ru.union(&rb);
            assert_eq!(u.cubes(), &ru.cubes[..], "union");

            assert_eq!(a.intersects(&c), !ra.intersect_cube(&c).is_empty());

            let mut out = with_sentinels();
            a.intersect_into(&c, &mut out);
            assert_eq!(
                out.cubes(),
                sentinels_then(&ra.intersect_cube(&c)),
                "∩ into"
            );

            let mut x = a.clone();
            x.intersect_in_place(&c);
            assert_eq!(x.cubes(), &ra.intersect_cube(&c).cubes[..], "∩ in place");

            let mut x = a.clone();
            splinters.clear();
            splinters.extend(sentinels());
            x.subtract_cube(&c, &mut splinters);
            let mut rx = ra.clone();
            rx.subtract_cube(&c);
            assert_eq!(x.cubes(), &rx.cubes[..], "− cube");

            let mut out = with_sentinels();
            splinters.extend(sentinels());
            a.minus_into(&b, &mut out, &mut splinters);
            assert_eq!(out.cubes(), &ra.minus(&rb).cubes[..], "− set");

            for (field, to) in [
                (Field::Src, m.dom.mac_all()),
                (Field::Dst, c.dst),
                (Field::Vlan, u128::from(c.vlan)),
                (Field::Vlan, 1),
                (Field::Src, 0),
            ] {
                let mut x = a.clone();
                x.rewrite_in_place(field, to);
                assert_eq!(x.cubes(), &ra.rewrite(field, to).cubes[..], "rewrite");
            }
        }
    }
}

fn notes_of(m: &Model, col: &Collector) -> BTreeSet<String> {
    col.notes.iter().map(|n| n.render(m)).collect()
}

#[test]
fn transfer_functions_match_the_allocating_reference_cube_for_cube() {
    let mut rng = DetRng::new(0x7a5f).derive("transfer");
    // One scratch and one pair of output lists for every call, as the
    // engine keeps them.
    let mut sc = TransferScratch::default();
    let mut nic_out: PortSets<NicPort> = PortSets::default();
    let mut vs_out: PortSets<u32> = PortSets::default();
    let mut nic_calls = 0;
    let mut vs_calls = 0;
    for m in models() {
        let mut col = Collector::default();
        let mut rcol = RefCollector::default();
        for _ in 0..20 {
            for (p, pfm) in m.pfs.iter().enumerate() {
                let pf = p as u8;
                let ports = [NicPort::Wire, NicPort::Pf]
                    .into_iter()
                    .chain(pfm.vfs.keys().map(|v| NicPort::Vf(VfId(*v))))
                    .chain([NicPort::Vf(VfId(99))]);
                for from in ports {
                    let (hs, rs) = set(&mut rng, &m);
                    // Leftovers from a previous use must not leak.
                    for port in [
                        NicPort::Wire,
                        NicPort::Pf,
                        NicPort::Vf(VfId(0)),
                        NicPort::Vf(VfId(200)),
                    ] {
                        nic_out.entry(port).union(&with_sentinels());
                    }
                    nic_transfer(&m, pf, from, &hs, &mut col, &mut sc, &mut nic_out);
                    let expect = ref_nic_transfer(&m, pf, from, &rs, &mut rcol);
                    let got: Vec<(NicPort, Vec<Cube>)> = nic_out
                        .iter()
                        .map(|(p, s)| (p, s.cubes().to_vec()))
                        .collect();
                    let expect: Vec<(NicPort, Vec<Cube>)> =
                        expect.into_iter().map(|(p, s)| (p, s.cubes)).collect();
                    assert_eq!(got, expect, "{}: pf{pf} from {from}", m.label);
                    nic_calls += 1;
                }
            }
            for (i, vs) in m.vswitches.iter().enumerate() {
                for &port in &vs.ports {
                    let (hs, rs) = set(&mut rng, &m);
                    for p in [port, u32::MAX] {
                        vs_out.entry(p).union(&with_sentinels());
                    }
                    vswitch_transfer(&m, i, port, &hs, &mut col, &mut sc, &mut vs_out);
                    let expect = ref_vswitch_transfer(&m, i, port, &rs, &mut rcol);
                    let got: Vec<(u32, Vec<Cube>)> = vs_out
                        .iter()
                        .map(|(p, s)| (p, s.cubes().to_vec()))
                        .collect();
                    let expect: Vec<(u32, Vec<Cube>)> =
                        expect.into_iter().map(|(p, s)| (p, s.cubes)).collect();
                    assert_eq!(got, expect, "{}: {} port {port}", m.label, vs.name);
                    vs_calls += 1;
                }
            }
        }
        let facts = |c: &Collector| {
            (
                c.filter_hits.iter().copied().collect::<Vec<_>>(),
                c.rule_hits.iter().copied().collect::<Vec<_>>(),
                c.vf_delivered.iter().copied().collect::<Vec<_>>(),
            )
        };
        let rfacts = (
            rcol.filter_hits.iter().copied().collect::<Vec<_>>(),
            rcol.rule_hits.iter().copied().collect::<Vec<_>>(),
            rcol.vf_delivered.iter().copied().collect::<Vec<_>>(),
        );
        assert_eq!(facts(&col), rfacts, "{}: coverage", m.label);
        assert_eq!(notes_of(&m, &col), rcol.notes, "{}: notes", m.label);
    }
    assert!(
        nic_calls > 1000 && vs_calls > 1000,
        "{nic_calls} / {vs_calls}"
    );
}
