//! Symbolic header sets over finite, per-deployment atomized field domains.
//!
//! This is header-space analysis in the style of Kazemian et al., scaled to
//! the fields the MTS datapath actually switches on. Instead of bit-vectors
//! over raw headers, every field domain is *atomized*: the finitely many
//! values a deployment references (plan MACs, VST VLAN ids, flow-rule
//! prefixes, …) each become one atom, plus one representative atom for
//! "any other" value. A packet class is then a union of [`Cube`]s, where a
//! cube constrains each field to a bitmask of atoms. Set algebra
//! (intersection, difference, rewrite) is exact over this atomization, so
//! reachability verdicts are sound for every concrete header: two headers
//! that fall into the same atom vector are treated identically by every
//! filter, MAC table and flow rule of the deployment.

use mts_net::{EtherType, MacAddr};
use mts_vswitch::Ipv4Prefix;
use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

/// Upper bounds on atom counts, fixed by the mask widths in [`Cube`].
pub const MAX_MAC_ATOMS: usize = 128;
/// See [`MAX_MAC_ATOMS`].
pub const MAX_VLAN_ATOMS: usize = 32;
/// See [`MAX_MAC_ATOMS`].
pub const MAX_ETHER_ATOMS: usize = 16;
/// See [`MAX_MAC_ATOMS`].
pub const MAX_IP_ATOMS: usize = 64;

/// The deployment references more distinct values than a cube mask can
/// hold; the analysis refuses rather than silently coarsening.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainOverflow {
    /// Which field overflowed.
    pub field: &'static str,
    /// How many atoms it needed.
    pub needed: usize,
    /// The hard cap.
    pub cap: usize,
}

impl fmt::Display for DomainOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "header-space domain overflow: {} needs {} atoms (cap {})",
            self.field, self.needed, self.cap
        )
    }
}

impl std::error::Error for DomainOverflow {}

/// Collects every field value a deployment references, then atomizes.
///
/// The values are kept as sorted `Vec`s (EtherTypes in first-seen order),
/// so a builder that is [reset](DomainsBuilder::reset) and refilled keeps
/// its capacity, and [`DomainsBuilder::same_atoms`] can compare what it
/// would build against existing [`Domains`] without building them.
#[derive(Default)]
pub struct DomainsBuilder {
    macs: SortedSet<u64>,
    vlans: SortedSet<u16>,
    ethers: Vec<EtherType>,
    ip_bounds: SortedSet<u64>,
}

/// A set kept as a sorted `Vec`, so that clearing and refilling it keeps its
/// capacity (a `BTreeSet` frees its nodes on `clear`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SortedSet<T>(Vec<T>);

impl<T> Default for SortedSet<T> {
    fn default() -> Self {
        SortedSet(Vec::new())
    }
}

impl<T: Ord + Copy> SortedSet<T> {
    /// Adds a member.
    pub fn insert(&mut self, x: T) {
        if let Err(pos) = self.0.binary_search(&x) {
            self.0.insert(pos, x);
        }
    }

    /// Whether `x` is a member.
    pub fn contains(&self, x: &T) -> bool {
        self.0.binary_search(x).is_ok()
    }

    /// The members in ascending order.
    pub fn as_slice(&self) -> &[T] {
        &self.0
    }

    /// Iterates the members in ascending order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }

    /// Removes every member, keeping the capacity.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Adds every member of `other`.
    pub fn union(&mut self, other: &SortedSet<T>) {
        for x in &other.0 {
            self.insert(*x);
        }
    }

    /// Keeps the members `f` accepts.
    pub fn retain(&mut self, f: impl FnMut(&T) -> bool) {
        self.0.retain(f);
    }

    /// Rewrites members in place, dropping those `f` returns `false` for.
    /// `f` must keep the surviving members in ascending order.
    pub fn remap(&mut self, f: impl FnMut(&mut T) -> bool) {
        self.0.retain_mut(f);
        debug_assert!(self.0.windows(2).all(|w| w[0] < w[1]));
    }
}

impl DomainsBuilder {
    /// Creates a builder pre-seeded with the values every deployment has:
    /// broadcast, untagged/VLAN-0, IPv4 and ARP.
    pub fn new() -> Self {
        let mut b = DomainsBuilder::default();
        b.reset();
        b
    }

    /// Forgets every registered value, back to [`DomainsBuilder::new`]'s
    /// seeds, keeping the capacity.
    pub fn reset(&mut self) {
        self.macs.clear();
        self.vlans.clear();
        self.ethers.clear();
        self.ip_bounds.clear();
        self.add_mac(MacAddr::BROADCAST);
        self.add_vlan(0);
        self.add_ether(EtherType::Ipv4);
        self.add_ether(EtherType::Arp);
        self.ip_bounds.insert(0);
        self.ip_bounds.insert(1 << 32);
    }

    /// Registers a MAC address as an atom.
    pub fn add_mac(&mut self, m: MacAddr) {
        self.macs.insert(m.as_u64());
    }

    /// Registers a VLAN id as an atom.
    pub fn add_vlan(&mut self, v: u16) {
        self.vlans.insert(v);
    }

    /// Registers an EtherType as an atom.
    pub fn add_ether(&mut self, e: EtherType) {
        if !self.ethers.contains(&e) {
            self.ethers.push(e);
        }
    }

    /// Registers an IPv4 prefix: its boundaries split the address space
    /// into elementary intervals.
    pub fn add_prefix(&mut self, p: Ipv4Prefix) {
        let start = u64::from(u32::from(p.net));
        let size = if p.len == 0 {
            1u64 << 32
        } else {
            1u64 << (32 - p.len)
        };
        self.ip_bounds.insert(start);
        self.ip_bounds.insert(start + size);
    }

    /// Registers a single IPv4 address (a `/32` interval).
    pub fn add_ip(&mut self, a: Ipv4Addr) {
        self.add_prefix(Ipv4Prefix::host(a));
    }

    /// The representatives of "any other unicast" and "any other
    /// multicast" MAC: the first free address from a fixed start each.
    fn other_macs(&self) -> (u64, u64) {
        let pick = |mut candidate: u64| {
            while self.macs.contains(&candidate) {
                candidate += 1;
            }
            candidate
        };
        (
            pick(MacAddr::local(0x00ff_ff00).as_u64()),
            pick(0x0100_5e00_0001),
        )
    }

    /// The VLAN atoms: atom 0 is untagged / VLAN 0, then the referenced
    /// ids, then one unused id as the "any other tag" representative.
    fn vlan_atoms(&self) -> impl Iterator<Item = u16> + '_ {
        let mut other = 4000u16;
        while self.vlans.contains(&other) {
            other += 1;
        }
        std::iter::once(0)
            .chain(self.vlans.iter().copied().filter(|v| *v != 0))
            .chain(std::iter::once(other))
    }

    /// The EtherType atoms plus an "anything else" representative.
    fn ether_atoms(&self) -> impl Iterator<Item = EtherType> + '_ {
        let mut other = 0x88b5u16;
        while self.ethers.contains(&EtherType::Other(other)) {
            other += 1;
        }
        self.ethers
            .iter()
            .copied()
            .chain(std::iter::once(EtherType::Other(other)))
    }

    /// The IP atoms' starts: every boundary but the last closes an
    /// elementary interval.
    fn ip_starts(&self) -> &[u64] {
        let bounds = self.ip_bounds.as_slice();
        &bounds[..bounds.len() - 1]
    }

    /// Whether [`DomainsBuilder::build`] would assign exactly `dom`'s
    /// atoms to every field — the precondition for reusing symbolic header
    /// sets built under `dom`. Checked without building: the index maps and
    /// the multicast mask derive from the atom vectors.
    pub fn same_atoms(&self, dom: &Domains) -> bool {
        let (other_uni, other_multi) = self.other_macs();
        dom.macs.iter().map(|m| m.as_u64()).eq(self
            .macs
            .iter()
            .copied()
            .chain([other_uni, other_multi]))
            && dom.vlans.iter().copied().eq(self.vlan_atoms())
            && dom.ethers.iter().copied().eq(self.ether_atoms())
            && dom.ip_starts == self.ip_starts()
    }

    /// Atomizes the collected values into [`Domains`].
    pub fn build(&self) -> Result<Domains, DomainOverflow> {
        // MAC atoms: every referenced address, plus one representative each
        // for "any other unicast" and "any other multicast" source/dest.
        let (other_uni, other_multi) = self.other_macs();
        let macs: Vec<MacAddr> = self
            .macs
            .iter()
            .chain(&[other_uni, other_multi])
            .map(|m| MacAddr::from_u64(*m))
            .collect();
        if macs.len() > MAX_MAC_ATOMS {
            return Err(DomainOverflow {
                field: "mac",
                needed: macs.len(),
                cap: MAX_MAC_ATOMS,
            });
        }
        let mac_index: BTreeMap<u64, usize> = macs
            .iter()
            .enumerate()
            .map(|(i, m)| (m.as_u64(), i))
            .collect();
        let mut multicast_mask = 0u128;
        for (i, m) in macs.iter().enumerate() {
            if m.is_multicast() {
                multicast_mask |= 1 << i;
            }
        }

        let vlans: Vec<u16> = self.vlan_atoms().collect();
        if vlans.len() > MAX_VLAN_ATOMS {
            return Err(DomainOverflow {
                field: "vlan",
                needed: vlans.len(),
                cap: MAX_VLAN_ATOMS,
            });
        }
        let vlan_index: BTreeMap<u16, usize> =
            vlans.iter().enumerate().map(|(i, v)| (*v, i)).collect();

        let ethers: Vec<EtherType> = self.ether_atoms().collect();
        if ethers.len() > MAX_ETHER_ATOMS {
            return Err(DomainOverflow {
                field: "ethertype",
                needed: ethers.len(),
                cap: MAX_ETHER_ATOMS,
            });
        }

        // IP atoms: elementary intervals between the collected boundaries.
        let ip_starts = self.ip_starts().to_vec();
        if ip_starts.len() > MAX_IP_ATOMS {
            return Err(DomainOverflow {
                field: "ipv4",
                needed: ip_starts.len(),
                cap: MAX_IP_ATOMS,
            });
        }

        Ok(Domains {
            macs,
            mac_index,
            multicast_mask,
            vlans,
            vlan_index,
            ethers,
            ip_starts,
        })
    }
}

/// The finite atomization of every header field (see the module docs).
#[derive(Clone, Debug)]
pub struct Domains {
    /// Concrete representative per MAC atom.
    pub macs: Vec<MacAddr>,
    mac_index: BTreeMap<u64, usize>,
    multicast_mask: u128,
    /// VLAN id per atom; atom 0 is untagged / VLAN 0.
    pub vlans: Vec<u16>,
    vlan_index: BTreeMap<u16, usize>,
    /// EtherType per atom.
    pub ethers: Vec<EtherType>,
    /// Interval start per IPv4 atom (intervals are contiguous and cover
    /// the whole space; the start doubles as the representative address).
    pub ip_starts: Vec<u64>,
}

impl Domains {
    /// All-ones mask over the MAC atoms.
    pub fn mac_all(&self) -> u128 {
        mask_ones(self.macs.len())
    }

    /// All-ones mask over the VLAN atoms.
    pub fn vlan_all(&self) -> u32 {
        // lint:allow(lossy-cast): atom count is capped at the mask width at derive time (DomainOverflow)
        mask_ones(self.vlans.len()) as u32
    }

    /// All-ones mask over the EtherType atoms.
    pub fn ether_all(&self) -> u16 {
        // lint:allow(lossy-cast): atom count is capped at the mask width at derive time (DomainOverflow)
        mask_ones(self.ethers.len()) as u16
    }

    /// All-ones mask over the IPv4 atoms.
    pub fn ip_all(&self) -> u64 {
        // lint:allow(lossy-cast): atom count is capped at the mask width at derive time (DomainOverflow)
        mask_ones(self.ip_starts.len()) as u64
    }

    /// The atom bit of a known MAC (zero for unreferenced addresses, which
    /// by construction cannot appear in the configuration being analyzed).
    pub fn mac_bit(&self, m: MacAddr) -> u128 {
        self.mac_index.get(&m.as_u64()).map_or(0, |i| 1 << i)
    }

    /// Mask of all multicast (incl. broadcast) MAC atoms.
    pub fn mac_multicast(&self) -> u128 {
        self.multicast_mask
    }

    /// Mask of all unicast MAC atoms.
    pub fn mac_unicast(&self) -> u128 {
        self.mac_all() & !self.multicast_mask
    }

    /// The atom bit of a VLAN id (tag 0 and untagged share atom 0).
    pub fn vlan_bit(&self, v: u16) -> u32 {
        self.vlan_index.get(&v).map_or(0, |i| 1 << i)
    }

    /// The atom bit of an EtherType.
    pub fn ether_bit(&self, e: EtherType) -> u16 {
        self.ethers
            .iter()
            .position(|x| *x == e)
            .map_or(0, |i| 1 << i)
    }

    /// The IPv4 atom containing an address.
    pub fn ip_bit(&self, a: Ipv4Addr) -> u64 {
        let v = u64::from(u32::from(a));
        let idx = self.ip_starts.partition_point(|s| *s <= v) - 1;
        1 << idx
    }

    /// Mask of all IPv4 atoms whose interval lies within a prefix.
    ///
    /// Exact because every referenced prefix contributed its boundaries to
    /// the atomization, so intervals never straddle a prefix edge.
    pub fn ip_mask(&self, p: Ipv4Prefix) -> u64 {
        let mut mask = 0u64;
        for (i, s) in self.ip_starts.iter().enumerate() {
            // lint:allow(lossy-cast): ip_starts hold IPv4 addresses (< 2^32); u64 only so the 2^32 end bound fits
            if p.contains(Ipv4Addr::from(*s as u32)) {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// The cube constraining nothing.
    pub fn full_cube(&self) -> Cube {
        Cube {
            src: self.mac_all(),
            dst: self.mac_all(),
            vlan: self.vlan_all(),
            ether: self.ether_all(),
            ip_src: self.ip_all(),
            ip_dst: self.ip_all(),
        }
    }

    /// Picks one concrete header from a cube (lowest atom per field).
    pub fn concretize(&self, c: &Cube) -> ConcreteHeader {
        // lint:allow(lossy-cast): deliberate split of the u128 mask into low/high u64 halves
        let mac_at = |mask: u128| self.macs[lowest(mask as u64, (mask >> 64) as u64)];
        let vlan_atom = c.vlan.trailing_zeros() as usize;
        ConcreteHeader {
            src: mac_at(c.src),
            dst: mac_at(c.dst),
            vlan: match self.vlans[vlan_atom] {
                0 => None,
                v => Some(v),
            },
            ethertype: self.ethers[c.ether.trailing_zeros() as usize],
            // lint:allow(lossy-cast): ip_starts hold IPv4 addresses (< 2^32)
            ip_src: Ipv4Addr::from(self.ip_starts[c.ip_src.trailing_zeros() as usize] as u32),
            // lint:allow(lossy-cast): ip_starts hold IPv4 addresses (< 2^32)
            ip_dst: Ipv4Addr::from(self.ip_starts[c.ip_dst.trailing_zeros() as usize] as u32),
        }
    }
}

fn lowest(lo: u64, hi: u64) -> usize {
    if lo != 0 {
        lo.trailing_zeros() as usize
    } else {
        64 + hi.trailing_zeros() as usize
    }
}

fn mask_ones(n: usize) -> u128 {
    if n >= 128 {
        u128::MAX
    } else {
        (1u128 << n) - 1
    }
}

/// A concrete witness header sampled from a symbolic class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConcreteHeader {
    /// Source MAC.
    pub src: MacAddr,
    /// Destination MAC.
    pub dst: MacAddr,
    /// VLAN tag (`None` = untagged).
    pub vlan: Option<u16>,
    /// EtherType.
    pub ethertype: EtherType,
    /// IPv4 source.
    pub ip_src: Ipv4Addr,
    /// IPv4 destination.
    pub ip_dst: Ipv4Addr,
}

impl fmt::Display for ConcreteHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "src={} dst={} vlan={} ether={:?} ip {} -> {}",
            self.src,
            self.dst,
            match self.vlan {
                Some(v) => v.to_string(),
                None => "none".into(),
            },
            self.ethertype,
            self.ip_src,
            self.ip_dst
        )
    }
}

/// One packet class: per-field atom bitmasks; the class is the Cartesian
/// product of its fields. Empty in any field = empty class.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Cube {
    /// Source MAC atoms.
    pub src: u128,
    /// Destination MAC atoms.
    pub dst: u128,
    /// VLAN atoms.
    pub vlan: u32,
    /// EtherType atoms.
    pub ether: u16,
    /// IPv4 source atoms.
    pub ip_src: u64,
    /// IPv4 destination atoms.
    pub ip_dst: u64,
}

impl Cube {
    /// Returns whether the class is empty.
    pub fn is_empty(&self) -> bool {
        self.src == 0
            || self.dst == 0
            || self.vlan == 0
            || self.ether == 0
            || self.ip_src == 0
            || self.ip_dst == 0
    }

    /// Field-wise intersection.
    pub fn and(&self, o: &Cube) -> Cube {
        Cube {
            src: self.src & o.src,
            dst: self.dst & o.dst,
            vlan: self.vlan & o.vlan,
            ether: self.ether & o.ether,
            ip_src: self.ip_src & o.ip_src,
            ip_dst: self.ip_dst & o.ip_dst,
        }
    }

    /// Returns whether `o` is a (non-strict) subset.
    pub fn contains(&self, o: &Cube) -> bool {
        o.src & !self.src == 0
            && o.dst & !self.dst == 0
            && o.vlan & !self.vlan == 0
            && o.ether & !self.ether == 0
            && o.ip_src & !self.ip_src == 0
            && o.ip_dst & !self.ip_dst == 0
    }

    /// Appends the cubes of `self − o` to `out` (field-wise splintering).
    pub fn minus(&self, o: &Cube, out: &mut Vec<Cube>) {
        if self.and(o).is_empty() {
            out.push(*self);
            return;
        }
        let mut rem = *self;
        macro_rules! peel {
            ($f:ident) => {
                let cut = rem.$f & !o.$f;
                if cut != 0 {
                    let mut part = rem;
                    part.$f = cut;
                    out.push(part);
                    rem.$f &= o.$f;
                }
            };
        }
        peel!(src);
        peel!(dst);
        peel!(vlan);
        peel!(ether);
        peel!(ip_src);
        peel!(ip_dst);
        let _ = rem; // what remains is ⊆ o: removed
    }
}

/// A union of cubes, pruned of empty and subsumed members.
///
/// The cube *sequence*, not just the set it denotes, is part of the
/// contract: witnesses concretize a set's first cube and the witness search
/// takes the first hit of a breadth-first walk over cubes in order, so every
/// operation below yields exactly the sequence that inserting its result
/// cubes one by one into an empty set would ([`HeaderSet::insert`]: drop the
/// members the new cube subsumes, then push it). The operations work in
/// place or append into a caller's set, so a set that is cleared and
/// refilled keeps its capacity.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct HeaderSet {
    cubes: Vec<Cube>,
}

impl Clone for HeaderSet {
    fn clone(&self) -> Self {
        HeaderSet {
            cubes: self.cubes.clone(),
        }
    }

    /// Copies into the existing buffer.
    fn clone_from(&mut self, source: &Self) {
        self.cubes.clone_from(&source.cubes);
    }
}

impl HeaderSet {
    /// The empty class.
    pub fn empty() -> Self {
        HeaderSet::default()
    }

    /// A single-cube class.
    pub fn from_cube(c: Cube) -> Self {
        let mut s = HeaderSet::default();
        s.insert(c);
        s
    }

    /// Returns whether the class is empty.
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// The member cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Empties the class, keeping the capacity.
    pub fn clear(&mut self) {
        self.cubes.clear();
    }

    /// Adds a cube, keeping the union normalized.
    pub fn insert(&mut self, c: Cube) {
        if c.is_empty() || self.cubes.iter().any(|e| e.contains(&c)) {
            return;
        }
        self.cubes.retain(|e| !c.contains(e));
        self.cubes.push(c);
    }

    /// Unions another class into this one.
    pub fn union(&mut self, other: &HeaderSet) {
        for c in &other.cubes {
            self.insert(*c);
        }
    }

    /// Whether the class meets a cube.
    pub fn intersects(&self, c: &Cube) -> bool {
        self.cubes.iter().any(|e| !e.and(c).is_empty())
    }

    /// Unions `self ∩ c` into `out`.
    pub fn intersect_into(&self, c: &Cube, out: &mut HeaderSet) {
        for e in &self.cubes {
            out.insert(e.and(c));
        }
    }

    /// Narrows the class to `self ∩ c`.
    pub fn intersect_in_place(&mut self, c: &Cube) {
        self.map_in_place(|e| e.and(c));
    }

    /// Removes one cube from the class. `splinters` is scratch for the
    /// pieces each member splits into; its contents are discarded.
    pub fn subtract_cube(&mut self, c: &Cube, splinters: &mut Vec<Cube>) {
        splinters.clear();
        for e in &self.cubes {
            e.minus(c, splinters);
        }
        self.cubes.clear();
        for e in splinters.iter() {
            self.insert(*e);
        }
    }

    /// Replaces `out` with `self − other`. `splinters` is scratch, as in
    /// [`HeaderSet::subtract_cube`].
    pub fn minus_into(&self, other: &HeaderSet, out: &mut HeaderSet, splinters: &mut Vec<Cube>) {
        out.clone_from(self);
        for c in &other.cubes {
            out.subtract_cube(c, splinters);
        }
    }

    /// Rewrites a field to a fixed atom in every cube (empty target mask
    /// empties the class — an unknown rewrite value cannot be represented).
    pub fn rewrite_in_place(&mut self, field: Field, to: u128) {
        self.map_in_place(|mut c| {
            match field {
                Field::Src => c.src = to,
                Field::Dst => c.dst = to,
                // lint:allow(lossy-cast): the vlan mask is the low u32 of the rewrite value by contract
                Field::Vlan => c.vlan = to as u32,
            }
            c
        });
    }

    /// Replaces every member `e` by `f(e)`, leaving the sequence inserting
    /// the images one by one into an empty set would. The normalized prefix
    /// is built over the members already read: it never holds more cubes
    /// than were read, so a write never lands on an unread member.
    fn map_in_place(&mut self, f: impl Fn(Cube) -> Cube) {
        let mut len = 0;
        for i in 0..self.cubes.len() {
            let c = f(self.cubes[i]);
            if c.is_empty() || self.cubes[..len].iter().any(|e| e.contains(&c)) {
                continue;
            }
            let mut kept = 0;
            for j in 0..len {
                let e = self.cubes[j];
                if !c.contains(&e) {
                    self.cubes[kept] = e;
                    kept += 1;
                }
            }
            self.cubes[kept] = c;
            len = kept + 1;
        }
        self.cubes.truncate(len);
    }
}

/// Rewritable fields (the actions the MTS pipelines use).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Field {
    /// Source MAC.
    Src,
    /// Destination MAC.
    Dst,
    /// VLAN tag.
    Vlan,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dom() -> Domains {
        let mut b = DomainsBuilder::new();
        b.add_mac(MacAddr::local(1));
        b.add_mac(MacAddr::local(2));
        b.add_vlan(1);
        b.add_vlan(2);
        b.add_ip(Ipv4Addr::new(10, 0, 1, 1));
        b.add_prefix(Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 16));
        b.build().expect("small domains fit")
    }

    #[test]
    fn atomization_covers_and_separates() {
        let d = dom();
        assert!(d.mac_bit(MacAddr::local(1)) != 0);
        assert!(d.mac_bit(MacAddr::local(1)) != d.mac_bit(MacAddr::local(2)));
        assert_eq!(d.mac_bit(MacAddr::local(99)), 0, "unreferenced MAC");
        assert!(d.mac_multicast() & d.mac_bit(MacAddr::BROADCAST) != 0);
        assert_eq!(d.mac_unicast() & d.mac_bit(MacAddr::BROADCAST), 0);
        // The two "other" representatives exist and classify correctly.
        assert!(d.macs.iter().filter(|m| m.is_multicast()).count() >= 2);
        assert_eq!(d.vlan_bit(0), 1);
        assert!(d.vlan_bit(1) != d.vlan_bit(2));
        assert!(d.ether_bit(EtherType::Ipv4) != 0);
        // IP atoms: the /32 is its own atom, inside the /16.
        let host = d.ip_bit(Ipv4Addr::new(10, 0, 1, 1));
        let wide = d.ip_mask(Ipv4Prefix::new(Ipv4Addr::new(10, 0, 0, 0), 16));
        assert_eq!(host & wide, host);
        assert!(wide.count_ones() > 1);
        let outside = d.ip_bit(Ipv4Addr::new(192, 168, 0, 1));
        assert_eq!(outside & wide, 0);
        // Atoms cover the whole space.
        assert_eq!(
            d.ip_mask(Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 0)),
            d.ip_all()
        );
    }

    #[test]
    fn cube_algebra() {
        let d = dom();
        let full = d.full_cube();
        assert!(!full.is_empty());
        let a = Cube {
            dst: d.mac_bit(MacAddr::local(1)),
            ..full
        };
        let b = Cube {
            vlan: d.vlan_bit(1),
            ..full
        };
        let ab = a.and(&b);
        assert!(full.contains(&ab));
        assert!(a.contains(&ab) && b.contains(&ab));
        let mut rest = Vec::new();
        full.minus(&a, &mut rest);
        // full − a leaves everything not destined to mac 1.
        assert!(rest
            .iter()
            .all(|c| c.dst & d.mac_bit(MacAddr::local(1)) == 0));
        // (full − a) ∪ a ⊇ full: subtracting then re-adding loses nothing.
        let mut s = HeaderSet::empty();
        for c in rest {
            s.insert(c);
        }
        s.insert(a);
        let mut left = HeaderSet::empty();
        let mut splinters = Vec::new();
        s.minus_into(&HeaderSet::from_cube(full), &mut left, &mut splinters);
        assert_eq!(left, HeaderSet::empty());
        let mut t = HeaderSet::from_cube(full);
        t.subtract_cube(&a, &mut splinters);
        t.subtract_cube(&b, &mut splinters);
        // No cube retains mac-1 dst or vlan 1.
        for c in t.cubes() {
            assert_eq!(c.dst & d.mac_bit(MacAddr::local(1)), 0);
            assert_eq!(c.vlan & d.vlan_bit(1), 0);
        }
    }

    #[test]
    fn headerset_normalizes() {
        let d = dom();
        let full = d.full_cube();
        let sub = Cube {
            vlan: d.vlan_bit(1),
            ..full
        };
        let mut s = HeaderSet::from_cube(sub);
        s.insert(full);
        assert_eq!(s.cubes().len(), 1, "subsumed cube pruned");
        assert_eq!(s.cubes()[0], full);
        s.rewrite_in_place(Field::Vlan, u128::from(d.vlan_bit(2)));
        assert_eq!(s.cubes()[0].vlan, d.vlan_bit(2));
    }

    #[test]
    fn concretize_picks_members() {
        let d = dom();
        let c = Cube {
            dst: d.mac_bit(MacAddr::local(2)),
            vlan: d.vlan_bit(1),
            ip_dst: d.ip_bit(Ipv4Addr::new(10, 0, 1, 1)),
            ..d.full_cube()
        };
        let h = d.concretize(&c);
        assert_eq!(h.dst, MacAddr::local(2));
        assert_eq!(h.vlan, Some(1));
        assert_eq!(h.ip_dst, Ipv4Addr::new(10, 0, 1, 1));
    }

    #[test]
    fn overflow_is_reported() {
        let mut b = DomainsBuilder::new();
        for i in 0..200u32 {
            b.add_mac(MacAddr::local(i));
        }
        let err = b.build().expect_err("200 MACs exceed the cap");
        assert_eq!(err.field, "mac");
    }
}
