//! The exact-match flow cache (OvS "megaflow" analogue).
//!
//! First packet of a flow takes the *slow path* (full pipeline traversal);
//! the resolved concrete operation list is cached under the packet's header
//! key so subsequent packets take the *fast path*. Any table modification
//! or MAC-learning update bumps a generation counter, invalidating stale
//! entries — the same revalidation discipline OvS applies.
//!
//! Cached programs are interned: the op list and cookie list live in shared
//! `Arc<[_]>` storage, deduplicated across cache entries, so a fast-path hit
//! hands back two reference-count bumps instead of cloning two `Vec`s, and a
//! thousand flows resolved to the same actions share one allocation.

use crate::switch::{Op, PortNo};
use mts_net::{Frame, Transport, UdpPayload, VXLAN_UDP_PORT};
use mts_sim::{FastHashMap, FastHashSet};
use std::sync::Arc;

/// The exact-match key: every field the pipeline may branch on.
///
/// For VXLAN-encapsulated packets the key also covers the VNI and the
/// inner 5-tuple — a pipeline with a decapsulation stage branches on those
/// (real OvS un-wildcards tunnel metadata and inner fields the same way).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowKey {
    in_port: PortNo,
    src: u64,
    dst: u64,
    vlan: u16, // 0 = untagged (VLAN 0 is never a real tag here)
    ethertype: u16,
    ip: Option<(u32, u32, u8, u16, u16)>,
    /// `(vni, inner src ip, inner dst ip, inner sport, inner dport)`.
    tunnel: Option<(u32, u32, u32, u16, u16)>,
}

impl FlowKey {
    /// Extracts the key from a frame at its ingress port.
    pub fn of(in_port: PortNo, frame: &Frame) -> Self {
        let mut tunnel = None;
        let ip = frame.ipv4().map(|p| {
            let (sport, dport) = match &p.transport {
                Transport::Udp(u) => {
                    if u.dport == VXLAN_UDP_PORT {
                        if let UdpPayload::Vxlan { vni, inner } = &u.payload {
                            let (is, id, isp, idp) = inner
                                .ipv4()
                                .map(|iip| {
                                    let (a, b) = match &iip.transport {
                                        Transport::Udp(x) => (x.sport, x.dport),
                                        Transport::Tcp(x) => (x.sport, x.dport),
                                        Transport::Raw { .. } => (0, 0),
                                    };
                                    (u32::from(iip.src), u32::from(iip.dst), a, b)
                                })
                                .unwrap_or((0, 0, 0, 0));
                            tunnel = Some((vni.value(), is, id, isp, idp));
                        }
                    }
                    (u.sport, u.dport)
                }
                Transport::Tcp(t) => (t.sport, t.dport),
                Transport::Raw { .. } => (0, 0),
            };
            (
                u32::from(p.src),
                u32::from(p.dst),
                p.proto().to_u8(),
                sport,
                dport,
            )
        });
        FlowKey {
            in_port,
            src: frame.src.as_u64(),
            dst: frame.dst.as_u64(),
            vlan: frame.vlan.map(|t| t.vid).unwrap_or(0),
            ethertype: frame.ethertype().to_u16(),
            ip,
            tunnel,
        }
    }
}

/// A resolved action program in shared storage: the concrete op list plus
/// the cookies of the rules it came from (for statistics push-back).
///
/// Cloning is two reference-count bumps; the underlying slices are shared
/// by the cache, the switch fast path and any in-flight lookups alike.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlowProgram {
    ops: Arc<[Op]>,
    cookies: Arc<[u64]>,
}

impl FlowProgram {
    /// Builds a program in fresh (unshared, un-interned) storage.
    pub fn new(ops: Vec<Op>, cookies: Vec<u64>) -> Self {
        FlowProgram {
            ops: ops.into(),
            cookies: cookies.into(),
        }
    }

    /// The concrete operations to apply.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Cookies of the matched rules, for statistics credit.
    pub fn cookies(&self) -> &[u64] {
        &self.cookies
    }

    /// Whether two programs share both underlying allocations.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.ops, &other.ops) && Arc::ptr_eq(&self.cookies, &other.cookies)
    }
}

struct CacheEntry {
    prog: FlowProgram,
    generation: u64,
}

/// Statistics of the flow cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fast-path hits.
    pub hits: u64,
    /// Misses (slow-path traversals).
    pub misses: u64,
    /// Hits rejected because the entry was stale.
    pub stale: u64,
    /// Whole-cache flushes due to capacity.
    pub flushes: u64,
}

/// A bounded exact-match cache of resolved operation lists.
pub struct FlowCache {
    map: FastHashMap<FlowKey, CacheEntry>,
    /// Interning pools deduplicating program storage across entries. Never
    /// iterated (lookup only), so they introduce no ordering dependence.
    ops_pool: FastHashSet<Arc<[Op]>>,
    cookie_pool: FastHashSet<Arc<[u64]>>,
    capacity: usize,
    generation: u64,
    stats: CacheStats,
}

impl FlowCache {
    /// Creates a cache bounded to `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        FlowCache {
            map: FastHashMap::default(),
            ops_pool: FastHashSet::default(),
            cookie_pool: FastHashSet::default(),
            capacity: capacity.max(16),
            generation: 0,
            stats: CacheStats::default(),
        }
    }

    /// Returns cache statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Returns the current entry count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Invalidates all entries (table or learning state changed).
    pub fn bump_generation(&mut self) {
        self.generation += 1;
    }

    /// Looks up the resolved program for a key, if fresh.
    ///
    /// A hit returns a shared handle (two reference-count bumps); nothing
    /// is cloned or allocated on the fast path.
    pub fn get(&mut self, key: &FlowKey) -> Option<FlowProgram> {
        match self.map.get(key) {
            Some(e) if e.generation == self.generation => {
                self.stats.hits += 1;
                Some(e.prog.clone())
            }
            Some(_) => {
                self.stats.stale += 1;
                self.stats.misses += 1;
                self.map.remove(key);
                None
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts a resolved operation list (plus matched-rule cookies) for a
    /// key; returns the interned program for immediate use.
    ///
    /// The lists are borrowed: a program already in the pools is found by
    /// slice and shared, so a slow-path miss that resolves to known actions
    /// allocates nothing, and the caller keeps its buffers.
    pub fn insert(&mut self, key: FlowKey, ops: &[Op], cookies: &[u64]) -> FlowProgram {
        if self.map.len() >= self.capacity {
            // Capacity flush, as OvS does when revalidation falls behind.
            self.map.clear();
            self.ops_pool.clear();
            self.cookie_pool.clear();
            self.stats.flushes += 1;
        }
        let prog = FlowProgram {
            ops: Self::intern(&mut self.ops_pool, ops),
            cookies: Self::intern(&mut self.cookie_pool, cookies),
        };
        self.map.insert(
            key,
            CacheEntry {
                prog: prog.clone(),
                generation: self.generation,
            },
        );
        prog
    }

    /// Deduplicates a list into pool-shared storage.
    fn intern<T>(pool: &mut FastHashSet<Arc<[T]>>, items: &[T]) -> Arc<[T]>
    where
        T: std::hash::Hash + Eq + Clone,
    {
        if let Some(shared) = pool.get(items) {
            return shared.clone();
        }
        let shared: Arc<[T]> = Arc::from(items);
        pool.insert(shared.clone());
        shared
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_net::MacAddr;
    use std::net::Ipv4Addr;

    fn frame(dport: u16) -> Frame {
        Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            dport,
            10,
        )
    }

    #[test]
    fn key_distinguishes_flows_not_packets() {
        let a1 = FlowKey::of(PortNo(1), &frame(80));
        let a2 = FlowKey::of(PortNo(1), &frame(80));
        let b = FlowKey::of(PortNo(1), &frame(81));
        let c = FlowKey::of(PortNo(2), &frame(80));
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_ne!(a1, c);
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut c = FlowCache::new(100);
        let k = FlowKey::of(PortNo(1), &frame(80));
        assert!(c.get(&k).is_none());
        c.insert(k, &[Op::Emit(PortNo(3))], &[7]);
        let hit = c.get(&k).expect("fresh entry");
        assert_eq!(hit.ops(), &[Op::Emit(PortNo(3))]);
        assert_eq!(hit.cookies(), &[7]);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hits_share_storage_with_the_entry() {
        let mut c = FlowCache::new(100);
        let k = FlowKey::of(PortNo(1), &frame(80));
        let inserted = c.insert(k, &[Op::Emit(PortNo(3))], &[7]);
        let h1 = c.get(&k).unwrap();
        let h2 = c.get(&k).unwrap();
        assert!(h1.shares_storage_with(&inserted));
        assert!(h1.shares_storage_with(&h2));
    }

    #[test]
    fn equal_programs_intern_to_one_allocation() {
        let mut c = FlowCache::new(100);
        let k1 = FlowKey::of(PortNo(1), &frame(80));
        let k2 = FlowKey::of(PortNo(1), &frame(81));
        let p1 = c.insert(k1, &[Op::Emit(PortNo(3))], &[7]);
        let p2 = c.insert(k2, &[Op::Emit(PortNo(3))], &[7]);
        assert!(p1.shares_storage_with(&p2));
        // Different programs get their own storage.
        let k3 = FlowKey::of(PortNo(1), &frame(82));
        let p3 = c.insert(k3, &[Op::Emit(PortNo(4))], &[7]);
        assert!(!p3.shares_storage_with(&p1));
    }

    #[test]
    fn generation_bump_invalidates() {
        let mut c = FlowCache::new(100);
        let k = FlowKey::of(PortNo(1), &frame(80));
        c.insert(k, &[Op::Emit(PortNo(3))], &[]);
        c.bump_generation();
        assert!(c.get(&k).is_none());
        assert_eq!(c.stats().stale, 1);
        // Re-inserted entries are fresh again.
        c.insert(k, &[Op::Emit(PortNo(4))], &[]);
        let hit = c.get(&k).expect("fresh entry");
        assert_eq!(hit.ops(), &[Op::Emit(PortNo(4))]);
        assert!(hit.cookies().is_empty());
    }

    #[test]
    fn interning_from_a_reused_buffer_survives_a_capacity_flush() {
        let key = |i: u32| FlowKey::of(PortNo(i), &frame(80));
        let mut c = FlowCache::new(16);
        // The caller rewrites one buffer between inserts, as the switch does.
        let mut ops = vec![Op::Emit(PortNo(3))];
        let first = c.insert(key(0), &ops, &[7]);
        ops.clear();
        ops.push(Op::Emit(PortNo(3)));
        assert!(c.insert(key(1), &ops, &[7]).shares_storage_with(&first));
        for i in 2..16 {
            c.insert(key(i), &ops, &[7]);
        }
        assert_eq!(c.stats().flushes, 0);
        // The 17th entry flushes the map and both pools.
        let after = c.insert(key(16), &ops, &[7]);
        assert_eq!(c.stats().flushes, 1);
        assert_eq!(c.len(), 1);
        assert!(c.get(&key(0)).is_none());
        // Handles from before the flush stay valid; the program was interned
        // anew, and later equal programs share the new storage.
        assert_eq!(first.ops(), after.ops());
        assert!(!after.shares_storage_with(&first));
        assert!(c.insert(key(17), &ops, &[7]).shares_storage_with(&after));
        assert!(c.get(&key(16)).expect("fresh").shares_storage_with(&after));
    }

    #[test]
    fn capacity_flush() {
        let mut c = FlowCache::new(16);
        for i in 0..17 {
            c.insert(FlowKey::of(PortNo(i), &frame(80)), &[], &[]);
        }
        assert_eq!(c.stats().flushes, 1);
        assert!(c.len() <= 16);
    }
}
