//! The verifiable model of a deployment, built from the controller's
//! config format, and the symbolic transfer functions of its two switching
//! elements.
//!
//! The model is a faithful copy of exactly the state the dataplane switches
//! on: per-PF static MAC entries, VF configurations (MAC, VST VLAN,
//! anti-spoofing), wildcard security filters, and the per-vswitch flow
//! pipelines with their port attachments. It is built from one
//! [`DesiredConfig`], either the controller's intent or the devices read
//! back into the same format ([`observed`]). Learned (dynamic) MAC entries
//! are deliberately *not* modelled — the analysis instead over-approximates
//! what learning could ever do (see `Model::learned_targets`), so its
//! verdicts hold for every possible learning history.

use crate::header::{Cube, DomainOverflow, Domains, DomainsBuilder, Field, HeaderSet, SortedSet};
use mts_core::controller::{Deployment, PortAttach, VswitchInstance};
use mts_core::reconcile::{observed, DesiredConfig};
use mts_core::runtime::World;
use mts_core::spec::DeploymentSpec;
use mts_core::vfplan::AddressPlan;
use mts_net::{EtherType, MacAddr};
use mts_nic::{FilterAction, FilterRule, NicPort, VfConfig, VfId};
use mts_vswitch::{Action, FlowMatch, FlowRule, VlanMatch};
use std::collections::BTreeMap;

/// What a VF is wired to, from the controller's point of view.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum VfRole {
    /// Backs a vswitch port (infrastructure or gateway VF).
    VswitchPort {
        /// Index into [`Model::vswitches`].
        inst: usize,
        /// The vswitch-side port number.
        port: u32,
    },
    /// Attached to a tenant VM.
    Tenant {
        /// Tenant index.
        tenant: u8,
    },
}

/// Per-tenant identity: which VFs and MACs belong to it.
#[derive(Clone, Debug)]
pub struct TenantInfo {
    /// Tenant index.
    pub index: u8,
    /// The tenant's VST VLAN id.
    pub vlan: u16,
    /// `(pf, vf, mac)` of every VF the tenant owns.
    pub vfs: Vec<(u8, u8, MacAddr)>,
}

/// The switching state of one PF's embedded VEB.
#[derive(Clone)]
pub struct PfModel {
    /// Static MAC entries `(vlan, mac, port)`.
    pub statics: Vec<(u16, MacAddr, NicPort)>,
    /// Security filters in evaluation order (priority-descending, ties in
    /// installation order), paired with their original installation index.
    pub filters: Vec<(usize, FilterRule)>,
    /// Configured VFs.
    pub vfs: BTreeMap<u8, VfConfig>,
}

impl PfModel {
    /// VLAN broadcast-domain members in port order, mirroring the VEB's
    /// membership rule: the wire always, the PF only in VLAN 0, a VF when
    /// its VST tag is `vid` (or it is untagged and `vid` is 0).
    pub fn members(&self, vid: u16) -> impl Iterator<Item = NicPort> + '_ {
        self.ports_where(vid, move |_, cfg| in_vlan(cfg, vid))
    }

    /// The wire, the PF in VLAN 0, then the VFs `vf` accepts, in port order.
    fn ports_where<'a>(
        &'a self,
        vid: u16,
        vf: impl Fn(u8, &VfConfig) -> bool + 'a,
    ) -> impl Iterator<Item = NicPort> + 'a {
        std::iter::once(NicPort::Wire)
            .chain((vid == 0).then_some(NicPort::Pf))
            .chain(
                self.vfs
                    .iter()
                    .filter(move |(id, cfg)| vf(**id, cfg))
                    .map(|(id, _)| NicPort::Vf(VfId(*id))),
            )
    }
}

/// Whether a VF is a member of VLAN `vid`'s broadcast domain.
fn in_vlan(cfg: &VfConfig, vid: u16) -> bool {
    cfg.vlan == Some(vid) || (cfg.vlan.is_none() && vid == 0)
}

/// One vswitch pipeline plus its port attachments.
#[derive(Clone)]
pub struct VsModel {
    /// Switch name (for witness paths).
    pub name: String,
    /// Rules per table, in the table's evaluation order.
    pub tables: Vec<Vec<FlowRule>>,
    /// All port numbers.
    pub ports: Vec<u32>,
    /// Port names (for witness paths).
    pub port_names: BTreeMap<u32, String>,
    /// What each port is backed by.
    pub attach: BTreeMap<u32, PortAttach>,
}

/// The verifiable model of a deployment.
#[derive(Clone)]
pub struct Model {
    /// Field atomization.
    pub dom: Domains,
    /// Human-readable deployment label.
    pub label: String,
    /// Whether vswitches run in isolated compartments (Level-1/Level-2).
    pub compartmentalized: bool,
    /// One VEB model per physical port.
    pub pfs: Vec<PfModel>,
    /// The vswitch instances.
    pub vswitches: Vec<VsModel>,
    /// Role of every configured VF, keyed by `(pf, vf)`.
    pub vf_role: BTreeMap<(u8, u8), VfRole>,
    /// Tenant identities.
    pub tenants: Vec<TenantInfo>,
}

impl Model {
    /// The model of a deployment's devices as programmed, seeded
    /// misconfigurations included.
    pub fn of(d: &Deployment) -> Result<Model, DomainOverflow> {
        let cfg = observed(&d.nic, d.vswitches.iter().map(|inst| &inst.sw));
        Model::of_config(cfg, &d.vswitches, &d.plan, &d.spec)
    }

    /// The model of a *live* runtime world — the same analysis over the
    /// current NIC and vswitch state instead of the deploy-time one, so
    /// recovery paths (supervisor restart + reconciliation) can be
    /// re-verified after faults.
    pub fn of_world(w: &World) -> Result<Model, DomainOverflow> {
        let insts = || w.vswitches.iter().map(|vs| &vs.inst);
        let cfg = observed(&w.nic, insts().map(|inst| &inst.sw));
        Model::of_config(cfg, insts(), &w.plan, &w.spec)
    }

    /// The model of what the controller wants a world to hold
    /// ([`World::desired`]), whatever its devices hold now.
    pub fn of_intent(w: &World) -> Result<Model, DomainOverflow> {
        let insts = w.vswitches.iter().map(|vs| &vs.inst);
        Model::of_config(w.desired.clone(), insts, &w.plan, &w.spec)
    }

    /// Builds the model from a dataplane config plus the topology it runs
    /// on: the vswitches' ports and attachments, the address plan and the
    /// spec. The config's rules and filters move into the model.
    fn of_config<'a>(
        cfg: DesiredConfig,
        insts: impl IntoIterator<Item = &'a VswitchInstance>,
        plan: &AddressPlan,
        spec: &DeploymentSpec,
    ) -> Result<Model, DomainOverflow> {
        let DesiredConfig {
            statics,
            filters,
            vfs,
            rules,
        } = cfg;
        let pfs: Vec<PfModel> = statics
            .into_iter()
            .zip(filters)
            .zip(vfs)
            .map(|((statics, filters), vfs)| {
                // Evaluation order: stable priority-descending over the
                // installation order, keeping the original indices.
                let mut filters: Vec<(usize, FilterRule)> =
                    filters.into_iter().enumerate().collect();
                filters.sort_by_key(|(_, r)| std::cmp::Reverse(r.priority));
                PfModel {
                    statics,
                    filters,
                    vfs: vfs.into_iter().map(|(id, cfg)| (id.0, cfg)).collect(),
                }
            })
            .collect();

        // Vswitch models and VF roles.
        let mut vswitches = Vec::new();
        let mut vf_role: BTreeMap<(u8, u8), VfRole> = BTreeMap::new();
        let mut rules = rules.into_iter();
        for (i, inst) in insts.into_iter().enumerate() {
            let mut tables: Vec<Vec<FlowRule>> = Vec::new();
            for (t, rule) in rules.next().into_iter().flatten() {
                let t = usize::from(t);
                if tables.len() <= t {
                    tables.resize_with(t + 1, Vec::new);
                }
                tables[t].push(rule);
            }
            let mut ports = Vec::new();
            let mut port_names = BTreeMap::new();
            for (no, info) in inst.sw.ports() {
                ports.push(no.0);
                port_names.insert(no.0, info.name.clone());
            }
            ports.sort_unstable();
            let attach: BTreeMap<u32, PortAttach> =
                inst.attach.iter().map(|(no, a)| (no.0, *a)).collect();
            for (no, a) in &attach {
                if let PortAttach::Vf(pf, vf) = a {
                    vf_role.insert((pf.0, vf.0), VfRole::VswitchPort { inst: i, port: *no });
                }
            }
            vswitches.push(VsModel {
                name: format!("vswitch{}", inst.index),
                tables,
                ports,
                port_names,
                attach,
            });
        }

        let mut b = DomainsBuilder::new();
        seed_domains(&mut b, plan, &pfs, &vswitches);
        let dom = b.build()?;

        let mut tenants = Vec::new();
        for t in &plan.tenants {
            let mut vfs = Vec::new();
            for (r, mac) in &t.vf {
                vfs.push((r.pf.0, r.vf.0, *mac));
                vf_role.insert((r.pf.0, r.vf.0), VfRole::Tenant { tenant: t.index });
            }
            tenants.push(TenantInfo {
                index: t.index,
                vlan: t.vlan,
                vfs,
            });
        }

        Ok(Model {
            dom,
            label: spec.label(),
            compartmentalized: spec.level.compartmentalized(),
            pfs,
            vswitches,
            vf_role,
            tenants,
        })
    }

    /// Collects into `b` every value the model's *current* switching state
    /// and the (immutable) address plan reference: the values the model
    /// was built with atomized, re-derived.
    ///
    /// Extraction seeds its domains through the same walk, so a model
    /// maintained delta by delta yields the atoms a from-scratch extraction
    /// would. The incremental checker compares `b` against its cached
    /// atomization ([`DomainsBuilder::same_atoms`]) after every mutating
    /// delta; a difference invalidates every cached symbolic set and forces
    /// a full recomputation.
    pub fn derive_domains(&self, plan: &AddressPlan, b: &mut DomainsBuilder) {
        b.reset();
        seed_domains(b, plan, &self.pfs, &self.vswitches);
    }

    /// Where unknown unicast in VLAN `vid` on PF `pf` can end up, over all
    /// possible learning histories.
    ///
    /// A fresh VEB floods unknown unicast to the VLAN's members minus the
    /// PF; once the learning table holds an entry for the destination, the
    /// frame instead goes wherever that entry points. An entry `(vid, mac)
    /// -> port` exists only if `port` previously *sourced* a frame with
    /// that VLAN and MAC, so the possible learned targets are:
    ///
    /// * the PF, for VLAN 0 only (trusted host software sends untagged);
    /// * VLAN members (tagged VFs source only their own VST tag; the wire
    ///   and untagged ports are members of every VLAN they can source);
    /// * untagged *tenant* VFs: an adversarial guest behind an untagged VF
    ///   can emit any `(tag, mac)` pair and poison any VLAN's table.
    ///
    /// Untagged *infrastructure* VFs (vswitch-attached) are not included
    /// beyond their membership: the vswitch VM is the trusted mediation
    /// layer and the controller's pipelines emit untagged frames to it, so
    /// it can only populate VLAN-0 entries — covered by `members(0)`.
    ///
    /// Every member qualifies (the PF exactly when `vid` is 0), so the
    /// targets are the members plus the untagged tenant VFs, in port order.
    fn learned_targets(&self, pf: u8, vid: u16) -> impl Iterator<Item = NicPort> + '_ {
        self.pfs[pf as usize].ports_where(vid, move |id, cfg| {
            let tenant_owned = matches!(self.vf_role.get(&(pf, id)), Some(VfRole::Tenant { .. }));
            in_vlan(cfg, vid) || (cfg.vlan.is_none() && tenant_owned)
        })
    }

    /// The symbolic match cube of a NIC security filter (its [`PortClass`]
    /// is checked separately against the ingress port).
    ///
    /// [`PortClass`]: mts_nic::PortClass
    pub fn filter_cube(&self, r: &FilterRule) -> Cube {
        let mut c = self.dom.full_cube();
        if let Some(m) = r.src_mac {
            c.src = self.dom.mac_bit(m);
        }
        if let Some(m) = r.dst_mac {
            c.dst = self.dom.mac_bit(m);
        }
        if let Some(v) = r.vlan {
            c.vlan = self.dom.vlan_bit(v);
        }
        if let Some(e) = r.ethertype {
            c.ether = self.dom.ether_bit(e);
        }
        c
    }

    /// The symbolic cube of a [`FlowMatch`] (minus `in_port`, which the
    /// caller checks), and whether the cube is *exact*.
    ///
    /// `ip_proto`, L4 ports and `tun_id` are outside the modelled header
    /// fields; a rule constraining them yields an inexact cube: the matched
    /// class is propagated through the rule (the match might happen) but is
    /// *not* subtracted from the fall-through class (it might not). This
    /// keeps the analysis an over-approximation of reachability.
    pub fn match_cube(&self, m: &FlowMatch) -> (Cube, bool) {
        let mut c = self.dom.full_cube();
        if let Some(mac) = m.eth_src {
            c.src = self.dom.mac_bit(mac);
        }
        if let Some(mac) = m.eth_dst {
            c.dst = self.dom.mac_bit(mac);
        }
        match m.vlan {
            VlanMatch::Any => {}
            VlanMatch::Untagged => c.vlan = 1,
            VlanMatch::Tag(v) => c.vlan = self.dom.vlan_bit(v),
        }
        if let Some(e) = m.ethertype {
            c.ether &= self.dom.ether_bit(e);
        }
        if let Some(p) = m.ip_src {
            c.ip_src = self.dom.ip_mask(p);
            c.ether &= self.dom.ether_bit(EtherType::Ipv4);
        }
        if let Some(p) = m.ip_dst {
            c.ip_dst = self.dom.ip_mask(p);
            c.ether &= self.dom.ether_bit(EtherType::Ipv4);
        }
        let exact = m.ip_proto.is_none() && m.l4_src.is_none() && m.l4_dst.is_none() && {
            // An L4-free IP match still requires a parsable IPv4 payload,
            // which the ether-type constraint models exactly.
            m.tun_id.is_none()
        };
        (c, exact)
    }
}

/// Registers every value the plan, the VEBs and the flow pipelines
/// reference. MAC, VLAN and IP atoms are sets; EtherType atoms keep
/// first-seen order, so NIC filters are walked in installation order (what
/// the live NIC's `filters()` returns), then flow rules table by table.
fn seed_domains(
    b: &mut DomainsBuilder,
    plan: &AddressPlan,
    pfs: &[PfModel],
    vswitches: &[VsModel],
) {
    b.add_mac(plan.lg_mac);
    b.add_mac(plan.sink_mac);
    b.add_ip(plan.lg_ip);
    for t in &plan.tenants {
        b.add_vlan(t.vlan);
        b.add_ip(t.ip);
        b.add_ip(t.gw_ip);
        for (_, mac) in &t.vf {
            b.add_mac(*mac);
        }
    }

    for pfm in pfs {
        for (vlan, mac, _) in &pfm.statics {
            b.add_vlan(*vlan);
            b.add_mac(*mac);
        }
        for cfg in pfm.vfs.values() {
            b.add_mac(cfg.mac);
            if let Some(v) = cfg.vlan {
                b.add_vlan(v);
            }
        }
        // Filters are stored in evaluation order; their original indices
        // are a permutation of the installation order.
        for i in 0..pfm.filters.len() {
            let Some((_, r)) = pfm.filters.iter().find(|(orig, _)| *orig == i) else {
                continue;
            };
            if let Some(m) = r.src_mac {
                b.add_mac(m);
            }
            if let Some(m) = r.dst_mac {
                b.add_mac(m);
            }
            if let Some(v) = r.vlan {
                b.add_vlan(v);
            }
            if let Some(e) = r.ethertype {
                b.add_ether(e);
            }
        }
    }

    for rule in vswitches.iter().flat_map(|vs| vs.tables.iter().flatten()) {
        seed_from_match(b, &rule.m);
        for a in &rule.actions {
            match a {
                Action::SetEthDst(m) | Action::SetEthSrc(m) => b.add_mac(*m),
                Action::PushVlan(v) => b.add_vlan(*v),
                Action::VxlanEncap {
                    src_ip,
                    dst_ip,
                    src_mac,
                    dst_mac,
                    ..
                } => {
                    b.add_ip(*src_ip);
                    b.add_ip(*dst_ip);
                    b.add_mac(*src_mac);
                    b.add_mac(*dst_mac);
                }
                _ => {}
            }
        }
    }
}

fn seed_from_match(b: &mut DomainsBuilder, m: &FlowMatch) {
    if let Some(mac) = m.eth_src {
        b.add_mac(mac);
    }
    if let Some(mac) = m.eth_dst {
        b.add_mac(mac);
    }
    if let VlanMatch::Tag(v) = m.vlan {
        b.add_vlan(v);
    }
    if let Some(e) = m.ethertype {
        b.add_ether(e);
    }
    if let Some(p) = m.ip_src {
        b.add_prefix(p);
    }
    if let Some(p) = m.ip_dst {
        b.add_prefix(p);
    }
}

/// A model-truncation note, recorded as the transfer functions meet it and
/// rendered once, by the warning pass.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Note {
    /// Vswitch `.0` has a NORMAL action, over-approximated as a flood.
    Normal(usize),
    /// Vswitch `.0` encapsulates or decapsulates VXLAN, which is not traced
    /// through.
    Vxlan(usize),
}

impl Note {
    /// The warning text.
    pub fn render(self, m: &Model) -> String {
        match self {
            Note::Normal(i) => format!(
                "{}: NORMAL action over-approximated as flood",
                m.vswitches[i].name
            ),
            Note::Vxlan(i) => format!(
                "{}: VXLAN tunnel not traced through (overlay headers are outside the \
                 modelled fields)",
                m.vswitches[i].name
            ),
        }
    }
}

/// Coverage facts accumulated while pushing header sets through the model,
/// consumed by the dead/shadowed-rule warning pass.
#[derive(Clone, Default)]
pub struct Collector {
    /// `(pf, original filter index)` of NIC filters that matched something.
    pub filter_hits: SortedSet<(u8, usize)>,
    /// `(vswitch, table, rule index)` of flow rules that matched something.
    pub rule_hits: SortedSet<(usize, u8, usize)>,
    /// `(pf, vf)` of VFs some frame was delivered to.
    pub vf_delivered: SortedSet<(u8, u8)>,
    /// Model-truncation notes (e.g. VXLAN tunnels not traced through).
    pub notes: SortedSet<Note>,
}

impl Collector {
    /// Set-unions another collector into this one. Collectors are
    /// write-only during analysis (only inserts; read solely by the final
    /// warning pass), so merging per-source collectors is exactly
    /// equivalent to accumulating into a single one.
    pub fn merge(&mut self, other: &Collector) {
        self.filter_hits.union(&other.filter_hits);
        self.rule_hits.union(&other.rule_hits);
        self.vf_delivered.union(&other.vf_delivered);
        self.notes.union(&other.notes);
    }

    /// Forgets every fact, keeping the capacity.
    pub fn clear(&mut self) {
        self.filter_hits.clear();
        self.rule_hits.clear();
        self.vf_delivered.clear();
        self.notes.clear();
    }
}

/// What a transfer function emits: one header set per egress port, in
/// ascending port order. Clearing keeps every set (and its capacity) for
/// the next port an entry is made for, so a list that is cleared and
/// refilled allocates nothing once it has held its largest output.
#[derive(Debug)]
pub struct PortSets<P> {
    slots: Vec<(P, HeaderSet)>,
    /// Slots in use; the rest hold empty sets kept for reuse.
    len: usize,
}

impl<P> Default for PortSets<P> {
    fn default() -> Self {
        PortSets {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<P: Copy + Ord> PortSets<P> {
    /// Removes every entry, keeping the sets for reuse.
    pub fn clear(&mut self) {
        for (_, s) in &mut self.slots[..self.len] {
            s.clear();
        }
        self.len = 0;
    }

    /// The set emitted on `port`, entered empty (in port order) if absent.
    pub fn entry(&mut self, port: P) -> &mut HeaderSet {
        let pos = self.slots[..self.len].partition_point(|(p, _)| *p < port);
        if pos == self.len || self.slots[pos].0 != port {
            if self.len == self.slots.len() {
                self.slots.push((port, HeaderSet::empty()));
            } else {
                self.slots[self.len].0 = port;
            }
            self.slots[pos..=self.len].rotate_right(1);
            self.len += 1;
        }
        &mut self.slots[pos].1
    }

    /// The ports with a non-empty set, in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = (P, &HeaderSet)> {
        self.slots[..self.len]
            .iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(p, s)| (*p, s))
    }
}

/// The temporaries of [`nic_transfer`] and [`vswitch_transfer`]. Their
/// caller keeps them, so that a transfer allocates nothing once they have
/// grown; their contents between calls mean nothing.
#[derive(Default)]
pub struct TransferScratch {
    cur: HeaderSet,
    admitted: HeaderSet,
    matched: HeaderSet,
    in_vlan: HeaderSet,
    splinters: Vec<Cube>,
    /// `vswitch_transfer`'s pending `GotoTable` branches.
    stack: Vec<(u8, HeaderSet)>,
    /// Empty sets recycled between `stack` entries.
    spare: Vec<HeaderSet>,
}

/// VEB admission at PF `pf`'s ingress port `from`, as `PfSwitch::ingress`
/// applies it before forwarding: anti-spoofing and VST for a VF (an
/// unconfigured VF admits nothing), then the security filters — first match
/// in evaluation order wins, and what no filter matches is allowed by
/// default. Returns the admitted class and whether some of it was admitted
/// by the default rule; `on_match` sees the original index and the action of
/// every filter that matched something.
pub(crate) fn admit<'s>(
    m: &Model,
    pf: u8,
    from: NicPort,
    arriving: &HeaderSet,
    sc: &'s mut TransferScratch,
    mut on_match: impl FnMut(usize, FilterAction),
) -> (&'s HeaderSet, bool) {
    let model = &m.pfs[pf as usize];
    let dom = &m.dom;
    let TransferScratch {
        cur,
        admitted,
        matched,
        splinters,
        ..
    } = sc;
    cur.clone_from(arriving);
    admitted.clear();

    // VF ingress policy: anti-spoofing constrains the source MAC; VST
    // drops tagged frames and tags the rest with the VF's VLAN.
    if let NicPort::Vf(VfId(id)) = from {
        let Some(cfg) = model.vfs.get(&id) else {
            return (admitted, false);
        };
        if cfg.spoof_check {
            let mut c = dom.full_cube();
            c.src = dom.mac_bit(cfg.mac);
            cur.intersect_in_place(&c);
        }
        if let Some(v) = cfg.vlan {
            let mut untagged = dom.full_cube();
            untagged.vlan = 1; // atom 0 = untagged
            cur.intersect_in_place(&untagged);
            cur.rewrite_in_place(Field::Vlan, u128::from(dom.vlan_bit(v)));
        }
    }

    for (orig, rule) in &model.filters {
        if cur.is_empty() {
            break;
        }
        if !rule.from.matches(from) {
            continue;
        }
        let cube = m.filter_cube(rule);
        matched.clear();
        cur.intersect_into(&cube, matched);
        if !matched.is_empty() {
            on_match(*orig, rule.action);
            if rule.action == FilterAction::Allow {
                admitted.union(matched);
            }
            cur.subtract_cube(&cube, splinters);
        }
    }
    let by_default = !cur.is_empty();
    admitted.union(cur);
    (admitted, by_default)
}

/// Pushes a header set into PF `pf` of the NIC at `from`, replacing `out`
/// with the egress deliveries. Mirrors `PfSwitch::ingress`: spoof check →
/// VST → security filters → forwarding (statics, then the learned-entry
/// over-approximation) → VST egress strip.
pub fn nic_transfer(
    m: &Model,
    pf: u8,
    from: NicPort,
    hs: &HeaderSet,
    col: &mut Collector,
    sc: &mut TransferScratch,
    out: &mut PortSets<NicPort>,
) {
    let model = &m.pfs[pf as usize];
    let dom = &m.dom;
    out.clear();
    admit(m, pf, from, hs, sc, |orig, _| {
        col.filter_hits.insert((pf, orig))
    });

    // Forwarding, per VLAN atom.
    let TransferScratch {
        cur: unicast,
        admitted,
        matched,
        in_vlan,
        splinters,
        ..
    } = sc;
    let mut deliver = |port: NicPort, set: &HeaderSet| {
        if port != from && !set.is_empty() {
            out.entry(port).union(set);
        }
    };
    for (atom, vid) in dom.vlans.iter().enumerate() {
        let mut vcube = dom.full_cube();
        vcube.vlan = 1 << atom;
        in_vlan.clear();
        admitted.intersect_into(&vcube, in_vlan);
        if in_vlan.is_empty() {
            continue;
        }

        // Multicast / broadcast: flood the VLAN's members.
        let mut mc = dom.full_cube();
        mc.dst = dom.mac_multicast();
        matched.clear();
        in_vlan.intersect_into(&mc, matched);
        if !matched.is_empty() {
            for port in model.members(*vid) {
                deliver(port, matched);
            }
        }

        // Unicast: static entries first (frames whose lookup equals the
        // ingress port are dropped by the VEB, hence the `!= from` guard
        // inside `deliver`), then the learned-entry over-approximation.
        let mut uc = dom.full_cube();
        uc.dst = dom.mac_unicast();
        unicast.clear();
        in_vlan.intersect_into(&uc, unicast);
        for (svlan, mac, port) in &model.statics {
            if svlan != vid || unicast.is_empty() {
                continue;
            }
            let mut c = dom.full_cube();
            c.dst = dom.mac_bit(*mac);
            matched.clear();
            unicast.intersect_into(&c, matched);
            deliver(*port, matched);
            unicast.subtract_cube(&c, splinters);
        }
        if !unicast.is_empty() {
            // Unknown unicast: union of the fresh-table flood and every
            // possible learned-entry delivery (see `Model::learned_targets`).
            for port in m.learned_targets(pf, *vid) {
                deliver(port, unicast);
            }
        }
    }

    // Egress: record VF deliveries and strip the VST tag towards VST VFs.
    for (port, set) in &mut out.slots[..out.len] {
        if let NicPort::Vf(VfId(id)) = *port {
            col.vf_delivered.insert((pf, id));
            if model.vfs.get(&id).and_then(|c| c.vlan).is_some() {
                set.rewrite_in_place(Field::Vlan, 1);
            }
        }
    }
}

/// Pushes a header set into vswitch `inst` at `in_port`, replacing `out`
/// with the emissions. Mirrors `VirtualSwitch::resolve`: one best-match
/// rule per table, actions applied in order, forward-only `GotoTable`,
/// table miss drops.
pub fn vswitch_transfer(
    m: &Model,
    inst: usize,
    in_port: u32,
    hs: &HeaderSet,
    col: &mut Collector,
    sc: &mut TransferScratch,
    out: &mut PortSets<u32>,
) {
    let vs = &m.vswitches[inst];
    let dom = &m.dom;
    out.clear();
    let TransferScratch {
        matched: work,
        splinters,
        stack,
        spare,
        ..
    } = sc;
    let mut first = spare.pop().unwrap_or_default();
    first.clone_from(hs);
    stack.push((0, first));

    while let Some((t, mut cur)) = stack.pop() {
        // A missing table is a table miss: drop.
        for (idx, rule) in vs.tables.get(t as usize).into_iter().flatten().enumerate() {
            if cur.is_empty() {
                break;
            }
            if let Some(p) = rule.m.in_port {
                if p.0 != in_port {
                    continue;
                }
            }
            let (cube, exact) = m.match_cube(&rule.m);
            work.clear();
            cur.intersect_into(&cube, work);
            if work.is_empty() {
                continue;
            }
            col.rule_hits.insert((inst, t, idx));
            if exact {
                cur.subtract_cube(&cube, splinters);
            }

            // Apply the action list to the matched class.
            let mut goto: Option<u8> = None;
            let mut dropped = false;
            for a in &rule.actions {
                match a {
                    Action::Output(p) => {
                        out.entry(p.0).union(work);
                    }
                    Action::Flood | Action::Normal => {
                        // Learning-switch NORMAL: over-approximated as a
                        // flood (learning can deliver to at most these).
                        if matches!(a, Action::Normal) {
                            col.notes.insert(Note::Normal(inst));
                        }
                        for p in &vs.ports {
                            if *p != in_port {
                                out.entry(*p).union(work);
                            }
                        }
                    }
                    Action::SetEthDst(mac) => {
                        work.rewrite_in_place(Field::Dst, dom.mac_bit(*mac));
                    }
                    Action::SetEthSrc(mac) => {
                        work.rewrite_in_place(Field::Src, dom.mac_bit(*mac));
                    }
                    Action::PushVlan(v) => {
                        work.rewrite_in_place(Field::Vlan, u128::from(dom.vlan_bit(*v)));
                    }
                    Action::PopVlan => {
                        work.rewrite_in_place(Field::Vlan, 1);
                    }
                    Action::DecTtl => {}
                    Action::VxlanEncap { .. } | Action::VxlanDecap => {
                        col.notes.insert(Note::Vxlan(inst));
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
                        let mut branch = spare.pop().unwrap_or_default();
                        std::mem::swap(&mut branch, work);
                        stack.push((next, branch));
                    }
                    // Backward goto drops, like the real pipeline.
                }
            }
        }
        // Whatever matched no rule is a table miss: dropped.
        cur.clear();
        spare.push(cur);
    }
}
