//! CPU core contention model.
//!
//! Packet-processing work is charged to physical cores. A [`CpuCore`] is a
//! FIFO server: a request to spend `cost` of CPU time starting no earlier
//! than `now` is granted the interval `[max(now, next_free), … + cost)`.
//! When consecutive grants come from different *users* (different VMs or
//! threads pinned to the same core — the paper's *shared* resource mode), a
//! context-switch penalty is added, and an optional scheduling-jitter bound
//! models timeslice interference. This is what produces the higher latency
//! variance the paper reports for the shared mode (Fig. 5b).

use crate::hash::FastHashMap;
use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// Identifies a physical CPU core on the device under test.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct CoreId(pub u32);

/// Identifies a scheduling entity (VM vCPU thread, vhost thread, PMD thread).
pub type UserId = u64;

/// The interval a core granted to a work request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grant {
    /// When the work actually starts executing.
    pub start: Time,
    /// When the work completes.
    pub end: Time,
}

/// A single physical core modelled as a FIFO work-conserving server.
#[derive(Debug, Clone)]
pub struct CpuCore {
    id: CoreId,
    next_free: Time,
    last_user: Option<UserId>,
    ctx_switch: Dur,
    /// Multiplier applied to every cost (e.g. 1.05 models host-OS
    /// housekeeping stealing ~5% of a co-located vswitch's core).
    overhead: f64,
    busy_total: Dur,
    per_user_busy: FastHashMap<UserId, Dur>,
}

impl CpuCore {
    /// Creates an idle core with the given context-switch penalty.
    pub fn new(id: CoreId, ctx_switch: Dur) -> Self {
        CpuCore {
            id,
            next_free: Time::ZERO,
            last_user: None,
            ctx_switch,
            overhead: 1.0,
            busy_total: Dur::ZERO,
            per_user_busy: FastHashMap::default(),
        }
    }

    /// Sets the multiplicative overhead factor applied to every grant.
    ///
    /// Factors below 1.0 are clamped to 1.0.
    pub fn set_overhead(&mut self, factor: f64) {
        self.overhead = if factor.is_finite() {
            factor.max(1.0)
        } else {
            1.0
        };
    }

    /// Returns this core's identifier.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Returns the earliest instant at which new work could start.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Returns the total busy time accumulated so far.
    pub fn busy_total(&self) -> Dur {
        self.busy_total
    }

    /// Returns the busy time accumulated on behalf of `user`.
    pub fn busy_for(&self, user: UserId) -> Dur {
        self.per_user_busy.get(&user).copied().unwrap_or(Dur::ZERO)
    }

    /// Requests `cost` of CPU starting no earlier than `now` for `user`.
    ///
    /// Returns the granted execution interval; the core is busy until
    /// `grant.end`. A context-switch penalty is charged when the previous
    /// grant belonged to a different user.
    pub fn acquire(&mut self, now: Time, user: UserId, cost: Dur) -> Grant {
        let mut start = now.max(self.next_free);
        if self.last_user.is_some_and(|prev| prev != user) {
            start += self.ctx_switch;
        }
        let effective = cost.mul_f64(self.overhead).max(cost);
        let end = start + effective;
        self.next_free = end;
        self.last_user = Some(user);
        self.busy_total += effective;
        *self.per_user_busy.entry(user).or_insert(Dur::ZERO) += effective;
        Grant { start, end }
    }

    /// Returns how long a request issued at `now` would have to queue.
    pub fn backlog(&self, now: Time) -> Dur {
        self.next_free - now
    }
}

/// A pool of cores indexed by [`CoreId`].
#[derive(Debug, Default, Clone)]
pub struct CorePool {
    cores: Vec<CpuCore>,
}

impl CorePool {
    /// Creates a pool of `n` idle cores with a shared context-switch penalty.
    pub fn new(n: u32, ctx_switch: Dur) -> Self {
        CorePool {
            cores: (0..n)
                .map(|i| CpuCore::new(CoreId(i), ctx_switch))
                .collect(),
        }
    }

    /// Returns the number of cores in the pool.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Returns whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Returns a shared reference to a core, if it exists.
    pub fn get(&self, id: CoreId) -> Option<&CpuCore> {
        self.cores.get(id.0 as usize)
    }

    /// Returns a mutable reference to a core, if it exists.
    pub fn get_mut(&mut self, id: CoreId) -> Option<&mut CpuCore> {
        self.cores.get_mut(id.0 as usize)
    }

    /// Adds a core and returns its id.
    pub fn add(&mut self, ctx_switch: Dur) -> CoreId {
        let id = CoreId(self.cores.len() as u32);
        self.cores.push(CpuCore::new(id, ctx_switch));
        id
    }

    /// Iterates over all cores.
    pub fn iter(&self) -> impl Iterator<Item = &CpuCore> {
        self.cores.iter()
    }

    /// Total busy time across all cores.
    pub fn busy_total(&self) -> Dur {
        self.cores.iter().map(|c| c.busy_total()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_core_starts_immediately() {
        let mut c = CpuCore::new(CoreId(0), Dur::micros(3));
        let g = c.acquire(Time::from_nanos(100), 1, Dur::nanos(500));
        assert_eq!(g.start, Time::from_nanos(100));
        assert_eq!(g.end, Time::from_nanos(600));
    }

    #[test]
    fn busy_core_queues_fifo() {
        let mut c = CpuCore::new(CoreId(0), Dur::ZERO);
        let g1 = c.acquire(Time::ZERO, 1, Dur::nanos(1_000));
        let g2 = c.acquire(Time::from_nanos(200), 1, Dur::nanos(1_000));
        assert_eq!(g1.end, Time::from_nanos(1_000));
        assert_eq!(g2.start, Time::from_nanos(1_000));
        assert_eq!(g2.end, Time::from_nanos(2_000));
        assert_eq!(g2.start - Time::from_nanos(200), Dur::nanos(800));
    }

    #[test]
    fn context_switch_charged_only_across_users() {
        let mut c = CpuCore::new(CoreId(0), Dur::nanos(100));
        let _ = c.acquire(Time::ZERO, 1, Dur::nanos(10));
        let same = c.acquire(Time::ZERO, 1, Dur::nanos(10));
        assert_eq!(same.start, Time::from_nanos(10));
        let other = c.acquire(Time::ZERO, 2, Dur::nanos(10));
        // 20ns of work done, plus a 100ns switch.
        assert_eq!(other.start, Time::from_nanos(120));
    }

    #[test]
    fn overhead_inflates_costs() {
        let mut c = CpuCore::new(CoreId(0), Dur::ZERO);
        c.set_overhead(1.5);
        let g = c.acquire(Time::ZERO, 1, Dur::nanos(1_000));
        assert_eq!(g.end, Time::from_nanos(1_500));
        assert_eq!(c.busy_total(), Dur::nanos(1_500));
        // Sub-1.0 factors are clamped.
        c.set_overhead(0.1);
        let g = c.acquire(Time::from_nanos(10_000), 1, Dur::nanos(1_000));
        assert_eq!(g.end - g.start, Dur::nanos(1_000));
    }

    #[test]
    fn utilization_and_accounting() {
        let mut c = CpuCore::new(CoreId(0), Dur::ZERO);
        c.acquire(Time::ZERO, 7, Dur::nanos(400));
        c.acquire(Time::ZERO, 8, Dur::nanos(100));
        assert_eq!(c.busy_for(7), Dur::nanos(400));
        assert_eq!(c.busy_for(8), Dur::nanos(100));
        assert_eq!(c.busy_for(9), Dur::ZERO);
    }

    #[test]
    fn pool_indexing() {
        let mut p = CorePool::new(2, Dur::ZERO);
        assert_eq!(p.len(), 2);
        let id = p.add(Dur::ZERO);
        assert_eq!(id, CoreId(2));
        assert!(p.get(CoreId(2)).is_some());
        assert!(p.get(CoreId(3)).is_none());
        p.get_mut(CoreId(0))
            .unwrap()
            .acquire(Time::ZERO, 1, Dur::nanos(5));
        assert_eq!(p.busy_total(), Dur::nanos(5));
    }
}
