//! Fixed-point symbolic reachability and verdict extraction.
//!
//! For each *source* (a tenant VM behind its VFs, or the external wire on a
//! physical port), the engine seeds a symbolic header set at the source's
//! NIC ingress and pushes it through the NIC-VEB / vswitch graph until the
//! per-location reach sets stop growing. Each reach entry carries a
//! `mediated` flag telling whether every path to it traversed a vswitch
//! pipeline. Verdicts are predicates over the final reach map; every
//! violated predicate is backed by a *witness*: a concrete header that is
//! replayed through the same transfer functions to reproduce the offending
//! path hop by hop.

use crate::header::{Cube, HeaderSet, SortedSet};
use crate::model::{
    admit, nic_transfer, vswitch_transfer, Collector, Model, PortSets, TransferScratch, VfRole,
};
use crate::report::{Stats, VerifyReport, Violation, ViolationKind, Warning, WarningKind, Witness};
use mts_core::controller::PortAttach;
use mts_core::{FastHashMap, FastHashSet};
use mts_nic::{FilterAction, NicPort, PortClass, VfId};
use std::collections::{BTreeMap, VecDeque};

/// A place a symbolic frame can be.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Loc {
    /// Entering PF `pf`'s VEB from `port`.
    NicIn {
        /// Physical port index.
        pf: u8,
        /// VEB ingress port.
        port: NicPort,
    },
    /// Entering vswitch `inst` at `port`.
    VsIn {
        /// Vswitch index.
        inst: usize,
        /// Vswitch port number.
        port: u32,
    },
    /// Delivered to a tenant VM's VF (terminal).
    TenantRx {
        /// Receiving tenant.
        tenant: u8,
        /// Physical port.
        pf: u8,
        /// VF index.
        vf: u8,
    },
    /// Delivered to the host OS via the PF (terminal).
    HostRx {
        /// Physical port.
        pf: u8,
    },
    /// Transmitted onto the physical wire (terminal).
    WireTx {
        /// Physical port.
        pf: u8,
    },
    /// Delivered to a Baseline tenant's vhost channel (terminal).
    VhostRx {
        /// Receiving tenant.
        tenant: u8,
        /// Vhost side index.
        side: u8,
    },
}

/// An origin whose reachable set is analyzed independently.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Source {
    /// A tenant VM, injecting through all of its VFs.
    Tenant(u8),
    /// The external fabric on one physical port. Under the documented
    /// fabric-trust assumption it injects *untagged* frames only.
    External(u8),
}

impl Source {
    fn label(self) -> String {
        match self {
            Source::Tenant(t) => format!("tenant {t}"),
            Source::External(p) => format!("wire pf{p}"),
        }
    }
}

/// Per-location reach sets, keyed by `(location, mediated)`. A recomputed
/// source clears its sets in place rather than removing entries, so an
/// entry whose set is empty counts as absent.
pub(crate) type Reach = BTreeMap<(Loc, bool), HeaderSet>;

/// Where a source injects: one cube per seed location.
pub(crate) fn seeds(m: &Model, source: Source) -> impl Iterator<Item = (Loc, Cube)> + '_ {
    let (tenant, wire) = match source {
        Source::Tenant(t) => (Some(t), None),
        Source::External(pf) => (None, Some(pf)),
    };
    let full = m.dom.full_cube();
    let vfs = m
        .tenants
        .iter()
        .filter(move |ti| Some(ti.index) == tenant)
        .flat_map(|ti| ti.vfs.iter())
        .map(move |(pf, vf, _)| {
            let loc = Loc::NicIn {
                pf: *pf,
                port: NicPort::Vf(VfId(*vf)),
            };
            (loc, full)
        });
    // The wire injects untagged only (fabric-trust assumption).
    let wire = wire.map(|pf| {
        let loc = Loc::NicIn {
            pf,
            port: NicPort::Wire,
        };
        (loc, Cube { vlan: 1, ..full })
    });
    vfs.chain(wire)
}

/// Where a NIC delivery lands in the location graph.
fn route_nic(m: &Model, pf: u8, dst: NicPort, mediated: bool) -> Option<(Loc, bool)> {
    match dst {
        NicPort::Wire => Some((Loc::WireTx { pf }, mediated)),
        NicPort::Pf => {
            if !m.compartmentalized {
                // Baseline: the PF feeds the co-located vswitch.
                for (i, vs) in m.vswitches.iter().enumerate() {
                    for (port, a) in &vs.attach {
                        if matches!(a, PortAttach::Pf(p) if p.0 == pf) {
                            return Some((
                                Loc::VsIn {
                                    inst: i,
                                    port: *port,
                                },
                                mediated,
                            ));
                        }
                    }
                }
            }
            Some((Loc::HostRx { pf }, mediated))
        }
        NicPort::Vf(VfId(vf)) => match m.vf_role.get(&(pf, vf)) {
            Some(VfRole::VswitchPort { inst, port }) => Some((
                Loc::VsIn {
                    inst: *inst,
                    port: *port,
                },
                mediated,
            )),
            Some(VfRole::Tenant { tenant }) => Some((
                Loc::TenantRx {
                    tenant: *tenant,
                    pf,
                    vf,
                },
                mediated,
            )),
            None => None, // configured VF nothing is attached to
        },
    }
}

/// Where a vswitch emission lands (everything leaving a vswitch is
/// mediated).
fn route_vs(m: &Model, inst: usize, port: u32) -> Option<(Loc, bool)> {
    match m.vswitches[inst].attach.get(&port) {
        Some(PortAttach::Vf(pf, vf)) => Some((
            Loc::NicIn {
                pf: pf.0,
                port: NicPort::Vf(*vf),
            },
            true,
        )),
        Some(PortAttach::Pf(pf)) => Some((
            Loc::NicIn {
                pf: pf.0,
                port: NicPort::Pf,
            },
            true,
        )),
        Some(PortAttach::Vhost(t, side)) => Some((
            Loc::VhostRx {
                tenant: *t,
                side: *side,
            },
            true,
        )),
        None => None,
    }
}

/// One hop's buffers: the transfer temporaries and both output lists.
#[derive(Default)]
struct Hop {
    t: TransferScratch,
    nic: PortSets<NicPort>,
    vs: PortSets<u32>,
}

impl Hop {
    /// Pushes `hs` through the element at `loc`, calling `emit` with every
    /// successor location and the set reaching it, in port order.
    fn successors(
        &mut self,
        m: &Model,
        loc: Loc,
        mediated: bool,
        hs: &HeaderSet,
        col: &mut Collector,
        mut emit: impl FnMut(Loc, bool, &HeaderSet),
    ) {
        match loc {
            Loc::NicIn { pf, port } => {
                nic_transfer(m, pf, port, hs, col, &mut self.t, &mut self.nic);
                for (dst, set) in self.nic.iter() {
                    if let Some((loc2, med2)) = route_nic(m, pf, dst, mediated) {
                        emit(loc2, med2, set);
                    }
                }
            }
            Loc::VsIn { inst, port } => {
                vswitch_transfer(m, inst, port, hs, col, &mut self.t, &mut self.vs);
                for (p, set) in self.vs.iter() {
                    if let Some((loc2, med2)) = route_vs(m, inst, p) {
                        emit(loc2, med2, set);
                    }
                }
            }
            // Terminal locations.
            Loc::TenantRx { .. }
            | Loc::HostRx { .. }
            | Loc::WireTx { .. }
            | Loc::VhostRx { .. } => {}
        }
    }
}

/// The buffers the analysis reuses: across sources within one analysis,
/// and — owned by the incremental checker — across deltas. Everything
/// starts empty and grows to the largest use; nothing in it outlives the
/// call that filled it.
#[derive(Default)]
pub(crate) struct Scratch {
    hop: Hop,
    /// Fixed-point work queue. A popped item's set goes back to `spare`.
    queue: VecDeque<(Loc, bool, HeaderSet)>,
    /// Empty sets recycled through `queue`.
    spare: Vec<HeaderSet>,
    splinters: Vec<Cube>,
    /// A single-cube class, for the witness search's steps and the
    /// envelope check.
    one: HeaderSet,
    bfs: Bfs,
    /// The witness search's abstract chain, seed first.
    chain: Vec<Node>,
    /// Coverage nobody reads (the witness search's), then the merged
    /// coverage of every source while a report is assembled.
    col: Collector,
    /// Distinct locations reached, while a report is assembled.
    locs: SortedSet<Loc>,
    /// The allow filters admitting a tenant VF's traffic (envelope check).
    admitting: Vec<usize>,
}

/// Computes the per-location reach sets of one source to fixed point,
/// refilling `reach` in place. `seeds` are the source's injection points
/// (the cross-level differ seeds Baseline tenants at their vhost-attached
/// vswitch ports instead of at VFs).
pub(crate) fn fixed_point(
    m: &Model,
    seeds: impl IntoIterator<Item = (Loc, Cube)>,
    col: &mut Collector,
    reach: &mut Reach,
    sc: &mut Scratch,
) {
    for set in reach.values_mut() {
        set.clear();
    }
    let Scratch {
        hop,
        queue,
        spare,
        splinters,
        ..
    } = sc;
    for (loc, c) in seeds {
        reach.entry((loc, false)).or_default().insert(c);
        let mut hs = spare.pop().unwrap_or_default();
        hs.insert(c);
        queue.push_back((loc, false, hs));
    }
    while let Some((loc, med, mut delta)) = queue.pop_front() {
        hop.successors(m, loc, med, &delta, col, |loc2, med2, hs2| {
            let entry = reach.entry((loc2, med2)).or_default();
            let mut new = spare.pop().unwrap_or_default();
            hs2.minus_into(entry, &mut new, splinters);
            if new.is_empty() {
                spare.push(new);
            } else {
                entry.union(&new);
                queue.push_back((loc2, med2, new));
            }
        });
        delta.clear();
        spare.push(delta);
    }
}

// ---------------------------------------------------------------------------
// Verdicts

struct TenantView {
    source: Source,
    mac_mask: u128,
    own_vlan_mask: u32,
}

fn tenant_view(m: &Model, source: Source) -> TenantView {
    let mut mac_mask = 0u128;
    let mut own_vlan_mask = 0u32;
    if let Source::Tenant(t) = source {
        for ti in m.tenants.iter().filter(|ti| ti.index == t) {
            for (pf, vf, mac) in &ti.vfs {
                mac_mask |= m.dom.mac_bit(*mac);
                if let Some(v) = m.pfs[*pf as usize].vfs.get(vf).and_then(|c| c.vlan) {
                    own_vlan_mask |= m.dom.vlan_bit(v);
                }
            }
        }
    }
    TenantView {
        source,
        mac_mask,
        own_vlan_mask,
    }
}

/// The goal predicate of one violation kind: given a reach entry, return
/// the violating sub-cube if any.
fn goal_cube(
    m: &Model,
    view: &TenantView,
    kind: &ViolationKind,
    loc: &Loc,
    mediated: bool,
    cube: &Cube,
) -> Option<Cube> {
    match kind {
        ViolationKind::CrossTenantReach { victim, .. } => match loc {
            Loc::TenantRx { tenant, .. } if *tenant == *victim && !mediated => Some(*cube),
            _ => None,
        },
        ViolationKind::UnmediatedPeerReach { tenant } => match loc {
            Loc::TenantRx {
                tenant: rx, pf, vf, ..
            } if *rx == *tenant && !mediated => {
                let mac = m.pfs[*pf as usize].vfs.get(vf).map(|c| c.mac)?;
                let bit = m.dom.mac_bit(mac);
                if cube.dst & bit != 0 {
                    Some(Cube {
                        dst: cube.dst & bit,
                        ..*cube
                    })
                } else {
                    None
                }
            }
            _ => None,
        },
        ViolationKind::UnmediatedEgress { .. } => match loc {
            Loc::WireTx { .. } if !mediated => {
                let c = Cube {
                    dst: cube.dst & m.dom.mac_unicast(),
                    vlan: cube.vlan & !view.own_vlan_mask,
                    ..*cube
                };
                if c.is_empty() {
                    None
                } else {
                    Some(c)
                }
            }
            _ => None,
        },
        ViolationKind::UnmediatedIngress { tenant } => match loc {
            Loc::TenantRx { tenant: rx, .. } if *rx == *tenant && !mediated => Some(*cube),
            _ => None,
        },
        ViolationKind::HostReach { .. } => match loc {
            Loc::HostRx { .. } => Some(*cube),
            _ => None,
        },
        ViolationKind::SpoofableSource { .. } => {
            if mediated || seeds(m, view.source).any(|(seed, _)| seed == *loc) {
                return None;
            }
            let c = Cube {
                src: cube.src & !view.mac_mask,
                ..*cube
            };
            if c.is_empty() {
                None
            } else {
                Some(c)
            }
        }
        ViolationKind::EnvelopeBreach { .. } => None, // checked locally, not on reach
    }
}

/// The violation kinds a source is checked for: a tenant against every
/// other tenant and for its own mediation, the wire for ingress to every
/// tenant.
fn candidate_kinds(m: &Model, source: Source) -> impl Iterator<Item = ViolationKind> + '_ {
    let (tenant, wire) = match source {
        Source::Tenant(t) => (Some(t), false),
        Source::External(_) => (None, true),
    };
    let cross = m.tenants.iter().filter_map(move |ti| match tenant {
        Some(t) if ti.index != t => Some(ViolationKind::CrossTenantReach {
            attacker: t,
            victim: ti.index,
        }),
        _ => None,
    });
    let own = tenant.into_iter().flat_map(|t| {
        [
            ViolationKind::UnmediatedPeerReach { tenant: t },
            ViolationKind::UnmediatedEgress { tenant: t },
            ViolationKind::HostReach { tenant: t },
            ViolationKind::SpoofableSource { tenant: t },
        ]
    });
    let ingress = m
        .tenants
        .iter()
        .filter(move |_| wire)
        .map(|ti| ViolationKind::UnmediatedIngress { tenant: ti.index });
    cross.chain(own).chain(ingress)
}

/// Appends the violations a source's reach shows, each with its witness.
fn violations_for(
    m: &Model,
    source: Source,
    reach: &Reach,
    sc: &mut Scratch,
    out: &mut Vec<Violation>,
) {
    let view = tenant_view(m, source);
    for kind in candidate_kinds(m, source) {
        let hit = reach.iter().any(|((loc, med), hs)| {
            hs.cubes()
                .iter()
                .any(|c| goal_cube(m, &view, &kind, loc, *med, c).is_some())
        });
        if hit {
            let witness = find_witness(
                m,
                source,
                |loc, med, c| goal_cube(m, &view, &kind, loc, med, c),
                sc,
            );
            out.push(Violation {
                kind,
                source: source.label(),
                witness,
            });
        }
    }
}

/// The local policy-envelope check: a tenant VF's VEB-admitted traffic must
/// stay within "my gateway(s) or broadcast/multicast". Anything broader
/// means tenant frames enter the switching fabric that the vswitch never
/// mediates — a complete-mediation breach even when VLAN confinement still
/// contains it. Appends at most one breach per tenant.
fn envelope_breaches(m: &Model, sc: &mut Scratch, out: &mut Vec<Violation>) {
    let Scratch {
        hop,
        one,
        admitting,
        ..
    } = sc;
    for ti in &m.tenants {
        for (pf, vf, _) in &ti.vfs {
            let model = &m.pfs[*pf as usize];
            let Some(cfg) = model.vfs.get(vf) else {
                continue;
            };
            // Admission policy of nic_transfer up to (not including)
            // forwarding: spoof check, VST, then the security filters.
            one.clear();
            one.insert(m.dom.full_cube());
            admitting.clear();
            let from = NicPort::Vf(VfId(*vf));
            let (admitted, by_default) = admit(m, *pf, from, one, &mut hop.t, |orig, action| {
                if action == FilterAction::Allow {
                    admitting.push(orig);
                }
            });

            // Envelope: multicast/broadcast, plus the MACs of vswitch-owned
            // VFs in the tenant's VLAN on this PF (its gateways).
            let mut dst_ok = m.dom.mac_multicast();
            for (id, c) in &model.vfs {
                let vswitch_owned =
                    matches!(m.vf_role.get(&(*pf, *id)), Some(VfRole::VswitchPort { .. }));
                if vswitch_owned && c.vlan == cfg.vlan {
                    dst_ok |= m.dom.mac_bit(c.mac);
                }
            }
            let mut excess_cube = m.dom.full_cube();
            excess_cube.dst = m.dom.mac_all() & !dst_ok;
            one.clear();
            admitted.intersect_into(&excess_cube, one);
            let Some(c) = one.cubes().first() else {
                continue;
            };
            let admitted_by = if by_default {
                "default-allow (no filter matched)".to_string()
            } else {
                format!("allow filter(s) {admitting:?}")
            };
            out.push(Violation {
                kind: ViolationKind::EnvelopeBreach { tenant: ti.index },
                source: format!("tenant {}", ti.index),
                witness: Some(Witness {
                    injected: m.dom.concretize(c),
                    observed: m.dom.concretize(c),
                    path: vec![
                        format!("pf{pf}:vf{vf} VEB ingress (tenant {})", ti.index),
                        format!(
                            "admitted past the security filters by {admitted_by}; \
                             destination is neither this tenant's gateway nor \
                             broadcast"
                        ),
                    ],
                }),
            });
            break;
        }
    }
}

// ---------------------------------------------------------------------------
// Witness search

/// A witness-search node: a location, the mediated flag and one cube.
type Node = (Loc, bool, Cube);

/// Breadth-first search over [`Node`]s. The maps are only looked up, never
/// iterated, so hashing cannot reorder anything: the FIFO queue alone fixes
/// the visiting order.
#[derive(Default)]
struct Bfs {
    parent: FastHashMap<Node, Node>,
    seen: FastHashSet<Node>,
    queue: VecDeque<Node>,
}

impl Bfs {
    /// Searches from `starts` until `goal` holds for a node, giving up once
    /// more than `limit` nodes have been seen. Returns the goal node and the
    /// violating cube `goal` returned.
    #[allow(clippy::too_many_arguments)]
    fn search(
        &mut self,
        m: &Model,
        starts: impl IntoIterator<Item = Node>,
        limit: usize,
        goal: &impl Fn(&Loc, bool, &Cube) -> Option<Cube>,
        hop: &mut Hop,
        one: &mut HeaderSet,
        col: &mut Collector,
    ) -> Option<(Node, Cube)> {
        let Bfs {
            parent,
            seen,
            queue,
        } = self;
        parent.clear();
        seen.clear();
        queue.clear();
        for n in starts {
            if seen.insert(n) {
                queue.push_back(n);
            }
        }
        while let Some(n) = queue.pop_front() {
            if let Some(obs) = goal(&n.0, n.1, &n.2) {
                return Some((n, obs));
            }
            if seen.len() > limit {
                return None;
            }
            one.clear();
            one.insert(n.2);
            hop.successors(m, n.0, n.1, one, col, |loc2, med2, hs2| {
                for c in hs2.cubes() {
                    let n2 = (loc2, med2, *c);
                    if seen.insert(n2) {
                        parent.insert(n2, n);
                        queue.push_back(n2);
                    }
                }
            });
        }
        None
    }

    /// The path from the search's start to `n`, goal first.
    fn path_back(&self, n: Node) -> impl Iterator<Item = Node> + '_ {
        std::iter::successors(Some(n), |x| self.parent.get(x).copied())
    }
}

/// Up to `N` distinct candidate atoms, in the order first offered.
struct Picks<T, const N: usize> {
    v: [T; N],
    n: usize,
}

impl<T: Copy + Default + PartialEq, const N: usize> Picks<T, N> {
    fn new() -> Self {
        Picks {
            v: [T::default(); N],
            n: 0,
        }
    }

    fn offer(&mut self, x: T) {
        if self.n < N && !self.as_slice().contains(&x) {
            self.v[self.n] = x;
            self.n += 1;
        }
    }

    fn as_slice(&self) -> &[T] {
        &self.v[..self.n]
    }
}

/// The lowest goal atom the seed can carry, then the seed's lowest atom.
fn pick(goal_mask: u64, seed_mask: u64) -> Picks<u64, 2> {
    let mut v = Picks::new();
    if goal_mask & seed_mask != 0 {
        v.offer(lowest_bit(goal_mask & seed_mask));
    }
    if seed_mask != 0 {
        v.offer(lowest_bit(seed_mask));
    }
    v
}

/// [`pick`] over 128-bit MAC masks, leaving room for two more candidates.
fn pick128(goal_mask: u128, seed_mask: u128) -> Picks<u128, 4> {
    let mut v = Picks::new();
    if goal_mask & seed_mask != 0 {
        v.offer(lowest_bit128(goal_mask & seed_mask));
    }
    if seed_mask != 0 {
        v.offer(lowest_bit128(seed_mask));
    }
    v
}

/// Finds a concrete witness for a goal predicate: a coarse symbolic BFS
/// locates an abstract offending path, candidate headers are sampled from
/// it, and each candidate is *replayed* as a singleton class through the
/// real transfer functions until one reproduces the goal. The returned
/// witness is therefore validated end to end.
fn find_witness(
    m: &Model,
    source: Source,
    goal: impl Fn(&Loc, bool, &Cube) -> Option<Cube>,
    sc: &mut Scratch,
) -> Option<Witness> {
    // Phase A: coarse BFS with parent pointers.
    let starts = seeds(m, source).map(|(loc, c)| (loc, false, c));
    let (goal_node, observed_cube) = sc.bfs.search(
        m,
        starts,
        20_000,
        &goal,
        &mut sc.hop,
        &mut sc.one,
        &mut sc.col,
    )?;

    // Reconstruct the abstract chain, seed first.
    sc.chain.clear();
    sc.chain.extend(sc.bfs.path_back(goal_node));
    sc.chain.reverse();
    let seed_node = *sc.chain.first()?;

    // Phase B: sample candidate injected headers. Fields the path never
    // rewrites keep their goal value; rewritten fields (VLAN under VST,
    // MACs under SetEth*) are tried over the atoms seen along the chain,
    // with "untagged" first for the VLAN (VST drops tagged VF frames).
    let seed_cube = seed_node.2;
    let mut vlan_opts: Picks<u32, 32> = Picks::new();
    if seed_cube.vlan & 1 != 0 {
        vlan_opts.offer(1); // untagged first: survives VST tagging
    }
    for c in &sc.chain {
        let b = 1u32 << c.2.vlan.trailing_zeros().min(31);
        if c.2.vlan != 0 && seed_cube.vlan & b != 0 {
            vlan_opts.offer(b);
        }
    }
    let mut dst_opts = pick128(observed_cube.dst, seed_cube.dst);
    for c in &sc.chain {
        if c.2.dst != 0 {
            let b = lowest_bit128(c.2.dst & seed_cube.dst);
            if b != 0 {
                dst_opts.offer(b);
            }
        }
    }
    let src_opts = pick128(observed_cube.src, seed_cube.src);
    let ether_opts = pick(u64::from(observed_cube.ether), u64::from(seed_cube.ether));
    let ip_src_opts = pick(observed_cube.ip_src, seed_cube.ip_src);
    let ip_dst_opts = pick(observed_cube.ip_dst, seed_cube.ip_dst);

    for vlan in vlan_opts.as_slice() {
        for dst in dst_opts.as_slice() {
            for src in src_opts.as_slice() {
                for ether in ether_opts.as_slice() {
                    for ip_src in ip_src_opts.as_slice() {
                        for ip_dst in ip_dst_opts.as_slice() {
                            let h = Cube {
                                src: *src,
                                dst: *dst,
                                vlan: *vlan,
                                // lint:allow(lossy-cast): ether atoms are u16 masks widened to u64 for `pick`; narrowing back is exact
                                ether: *ether as u16,
                                ip_src: *ip_src,
                                ip_dst: *ip_dst,
                            };
                            if h.is_empty() {
                                continue;
                            }
                            if let Some(w) = replay(m, seed_node.0, h, &goal, sc) {
                                return Some(w);
                            }
                        }
                    }
                }
            }
        }
    }

    // Fallback: render the abstract chain (still a true path, with a
    // representative rather than replay-validated header).
    Some(Witness {
        injected: m.dom.concretize(&seed_cube),
        observed: m.dom.concretize(&observed_cube),
        path: sc.chain.iter().map(|n| render_loc(m, &n.0, n.1)).collect(),
    })
}

/// Phase C: replay one concrete header from the seed location; on reaching
/// the goal, return the hop-by-hop path.
fn replay(
    m: &Model,
    seed_loc: Loc,
    h: Cube,
    goal: &impl Fn(&Loc, bool, &Cube) -> Option<Cube>,
    sc: &mut Scratch,
) -> Option<Witness> {
    let start = (seed_loc, false, h);
    let (n, obs) = sc.bfs.search(
        m,
        [start],
        4_000,
        goal,
        &mut sc.hop,
        &mut sc.one,
        &mut sc.col,
    )?;
    let mut path = Vec::with_capacity(sc.bfs.path_back(n).count());
    path.extend(sc.bfs.path_back(n).map(|x| render_loc(m, &x.0, x.1)));
    path.reverse();
    Some(Witness {
        injected: m.dom.concretize(&h),
        observed: m.dom.concretize(&obs),
        path,
    })
}

fn render_loc(m: &Model, loc: &Loc, mediated: bool) -> String {
    let med = if mediated { " [mediated]" } else { "" };
    match loc {
        Loc::NicIn { pf, port } => format!("pf{pf} VEB ingress from {port}{med}"),
        Loc::VsIn { inst, port } => {
            let vs = &m.vswitches[*inst];
            match vs.port_names.get(port) {
                Some(name) => format!("{} ingress at {name}{med}", vs.name),
                None => format!("{} ingress at port{port}{med}", vs.name),
            }
        }
        Loc::TenantRx { tenant, pf, vf } => {
            format!("tenant {tenant} VM rx at pf{pf}/vf{vf}{med}")
        }
        Loc::HostRx { pf } => format!("host OS rx via pf{pf}{med}"),
        Loc::WireTx { pf } => format!("wire tx on pf{pf}{med}"),
        Loc::VhostRx { tenant, side } => format!("tenant {tenant} vhost{side} rx{med}"),
    }
}

fn lowest_bit(mask: u64) -> u64 {
    mask & mask.wrapping_neg()
}

fn lowest_bit128(mask: u128) -> u128 {
    mask & mask.wrapping_neg()
}

// ---------------------------------------------------------------------------
// Warnings

fn port_class_subsumes(a: PortClass, b: PortClass) -> bool {
    match (a, b) {
        (PortClass::Any, _) => true,
        (PortClass::AnyVf, PortClass::AnyVf | PortClass::Vf(_)) => true,
        (x, y) => x == y,
    }
}

fn warnings(m: &Model, col: &Collector) -> Vec<Warning> {
    let mut out = Vec::new();

    // Dead and shadowed NIC filters.
    for (p, pfm) in m.pfs.iter().enumerate() {
        for (pos, (orig, rule)) in pfm.filters.iter().enumerate() {
            // lint:allow(lossy-cast): pf index; PfId is u8, so the NIC never exposes more
            if !col.filter_hits.contains(&(p as u8, *orig)) {
                out.push(Warning {
                    kind: WarningKind::DeadNicFilter,
                    detail: format!(
                        "pf{p} filter[{orig}] (prio {} from {:?} -> {:?}) matched no \
                         reachable traffic",
                        rule.priority, rule.from, rule.action
                    ),
                    witness: None,
                });
            }
            for (eorig, earlier) in pfm.filters.iter().take(pos) {
                if port_class_subsumes(earlier.from, rule.from)
                    && m.filter_cube(earlier).contains(&m.filter_cube(rule))
                {
                    out.push(Warning {
                        kind: WarningKind::ShadowedNicFilter,
                        detail: format!(
                            "pf{p} filter[{orig}] (prio {} from {:?} -> {:?}) is \
                             shadowed by filter[{eorig}] (prio {} from {:?} -> {:?})",
                            rule.priority,
                            rule.from,
                            rule.action,
                            earlier.priority,
                            earlier.from,
                            earlier.action
                        ),
                        witness: {
                            let stolen = m.filter_cube(rule).and(&m.filter_cube(earlier));
                            Some(m.dom.concretize(&stolen))
                        },
                    });
                    break;
                }
            }
        }
    }

    // Dead and shadowed flow rules.
    for (i, vs) in m.vswitches.iter().enumerate() {
        for (t, rules) in vs.tables.iter().enumerate() {
            for (idx, rule) in rules.iter().enumerate() {
                // lint:allow(lossy-cast): table index; vswitch tables are addressed by u8
                if !col.rule_hits.contains(&(i, t as u8, idx)) {
                    out.push(Warning {
                        kind: WarningKind::DeadFlowRule,
                        detail: format!(
                            "{} table {t} rule[{idx}] (prio {}, cookie {:#x}) matched \
                             no reachable traffic",
                            vs.name, rule.priority, rule.cookie
                        ),
                        witness: None,
                    });
                }
                for (eidx, earlier) in rules.iter().enumerate().take(idx) {
                    if earlier.m.subsumes(&rule.m) {
                        let (cube, _) = m.match_cube(&rule.m);
                        out.push(Warning {
                            kind: WarningKind::ShadowedFlowRule,
                            detail: format!(
                                "{} table {t} rule[{idx}] (prio {}, cookie {:#x}) is \
                                 shadowed by rule[{eidx}] (prio {}, cookie {:#x})",
                                vs.name,
                                rule.priority,
                                rule.cookie,
                                earlier.priority,
                                earlier.cookie
                            ),
                            witness: Some(m.dom.concretize(&cube)),
                        });
                        break;
                    }
                }
            }
        }
    }

    // VFs no frame can ever be delivered to.
    for (p, pfm) in m.pfs.iter().enumerate() {
        for id in pfm.vfs.keys() {
            // lint:allow(lossy-cast): pf index; PfId is u8, so the NIC never exposes more
            if !col.vf_delivered.contains(&(p as u8, *id)) {
                out.push(Warning {
                    kind: WarningKind::UnreachableVf,
                    detail: format!("pf{p}/vf{id} is configured but unreachable"),
                    witness: None,
                });
            }
        }
    }

    // Model notes, in the order of their text.
    let notes = out.len();
    if !m.compartmentalized {
        out.push(Warning {
            kind: WarningKind::ModelNote,
            detail: "Baseline deployment: the vswitch is co-located with the host and the NIC \
                     enforces no tenant isolation; static verdicts do not apply (see the \
                     dynamic attack analysis in mts-core::attacks)"
                .to_string(),
            witness: None,
        });
    }
    for note in col.notes.iter() {
        out.push(Warning {
            kind: WarningKind::ModelNote,
            detail: note.render(m),
            witness: None,
        });
    }
    out[notes..].sort_unstable_by(|a, b| a.detail.cmp(&b.detail));
    out
}

// ---------------------------------------------------------------------------
// Entry point

/// Everything the analysis derives for one source: its reach map, the
/// coverage facts its traversal collected, and its extracted violations.
/// Cached per source by the incremental checker and refilled in place only
/// when a configuration delta can affect the source's cone.
#[derive(Clone, Default)]
pub(crate) struct SourceAnalysis {
    /// Per-location reach sets at fixed point.
    pub reach: Reach,
    /// Coverage facts from this source's traversal alone.
    pub col: Collector,
    /// Violations attributable to this source (empty for Baseline, where
    /// verdicts are informational and never extracted).
    pub violations: Vec<Violation>,
}

/// The sources analyzed for a model, in report order: tenants with VFs
/// first (plan order), then the external wire per physical port.
pub(crate) fn source_list(m: &Model) -> Vec<Source> {
    let mut out: Vec<Source> = Vec::new();
    for ti in &m.tenants {
        if !ti.vfs.is_empty() {
            out.push(Source::Tenant(ti.index));
        }
    }
    for (p, _) in m.pfs.iter().enumerate() {
        out.push(Source::External(u8::try_from(p).unwrap_or(u8::MAX)));
    }
    out
}

/// Runs one source to fixed point and extracts its violations, refilling
/// `st` in place.
pub(crate) fn analyze_source(m: &Model, source: Source, st: &mut SourceAnalysis, sc: &mut Scratch) {
    st.col.clear();
    fixed_point(m, seeds(m, source), &mut st.col, &mut st.reach, sc);
    st.violations.clear();
    if m.compartmentalized {
        violations_for(m, source, &st.reach, sc, &mut st.violations);
    }
}

/// Assembles the final report from per-source analyses: merges coverage,
/// concatenates violations in source order, appends the envelope breaches
/// and runs the dead/shadowed warning pass. Byte-identical to the
/// monolithic pass this was factored from — collectors are write-only sets,
/// so per-source accumulation then merge equals one shared accumulator.
pub(crate) fn assemble(m: &Model, analyses: &[SourceAnalysis], sc: &mut Scratch) -> VerifyReport {
    let informational = !m.compartmentalized;
    let mut violations = Vec::new();
    sc.col.clear();
    sc.locs.clear();
    for a in analyses {
        sc.col.merge(&a.col);
        for ((loc, _), hs) in &a.reach {
            if !hs.is_empty() {
                sc.locs.insert(*loc);
            }
        }
        violations.extend(a.violations.iter().cloned());
    }
    if !informational {
        envelope_breaches(m, sc, &mut violations);
    }

    let stats = Stats {
        sources: analyses.len(),
        locations: sc.locs.as_slice().len(),
        mac_atoms: m.dom.macs.len(),
        vlan_atoms: m.dom.vlans.len(),
        ip_atoms: m.dom.ip_starts.len(),
        flow_rules: m
            .vswitches
            .iter()
            .map(|vs| vs.tables.iter().map(Vec::len).sum::<usize>())
            .sum(),
        nic_filters: m.pfs.iter().map(|p| p.filters.len()).sum(),
    };

    VerifyReport {
        label: m.label.clone(),
        informational,
        violations,
        warnings: warnings(m, &sc.col),
        stats,
    }
}

/// Runs the full analysis over a model: every tenant and wire source to
/// fixed point, verdict extraction with witnesses, then the dead/shadowed
/// coverage pass.
pub fn analyze(m: &Model) -> VerifyReport {
    let mut sc = Scratch::default();
    let analyses: Vec<SourceAnalysis> = source_list(m)
        .into_iter()
        .map(|s| {
            let mut st = SourceAnalysis::default();
            analyze_source(m, s, &mut st, &mut sc);
            st
        })
        .collect();
    assemble(m, &analyses, &mut sc)
}
