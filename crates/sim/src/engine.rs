//! The deterministic discrete-event engine.
//!
//! [`Engine`] is generic over a *world* type `W` — the mutable state of the
//! whole simulation — and an *event* type `E` implementing [`Event`]. Events
//! are ordered by `(time, sequence)`: two events scheduled for the same
//! instant fire in the order they were scheduled, which makes runs
//! reproducible bit-for-bit.
//!
//! The default event type, [`Boxed`], wraps a `FnOnce(&mut W, &mut Engine)`
//! closure, so `Engine<W>` behaves as a classic closure scheduler. Hot loops
//! can instead instantiate the engine with their own enum of typed event
//! entries ([`Engine::schedule_event`]): the payload then lives inline in
//! the slab slot, with no per-event heap allocation. An event type that also
//! implements `From<EventFn>` (as [`Boxed`] does, and a typed enum can via a
//! catch-all closure variant) keeps the closure-based `schedule_*` methods
//! available for cold paths.
//!
//! # Internals
//!
//! Events live in a slab: a `Vec` of slots recycled through a free list, so
//! steady-state scheduling allocates nothing beyond what the event payload
//! itself owns. Each slot carries a generation counter; [`EventId`] handles
//! returned by the `schedule_*` methods pair the slot index with the
//! generation observed at schedule time, so a stale handle (slot since
//! recycled) can never cancel an unrelated event.
//!
//! Ordering comes from an intrusive pairing heap threaded through the slots
//! (`child`/`sibling` links), keyed on `(time, seq)`. Keys are unique —
//! `seq` increments on every schedule — so delete-min is deterministic
//! regardless of meld order. Cancellation is lazy: [`Engine::cancel`] drops
//! the payload in place and the dead slot is skipped (and freed) when it
//! surfaces at the top of the heap.
//!
//! Dispatch is batched: the run loops drain same-timestamp runs of up to
//! [`BURST`] events in one pass, charging the per-kind dispatch counters
//! once per same-kind run rather than once per event (the DPDK poll-mode
//! burst shape). The counters' observable values are identical to per-event
//! charging at all times — [`Engine::dispatch_counts`] folds the in-flight
//! run back in — only the store granularity changes.

use crate::time::{Dur, Time};
use std::marker::PhantomData;

/// The boxed closure form cold-path events are stored as.
pub type EventFn<W, E = Boxed<W>> = Box<dyn FnOnce(&mut W, &mut Engine<W, E>)>;

/// A schedulable event: fired by value with the world and the engine.
///
/// Implement this on an enum of typed event entries to schedule hot-path
/// events without boxing ([`Engine::schedule_event`]). Add a variant holding
/// an [`EventFn`] and a `From<EventFn>` impl to keep the closure-based
/// `schedule_*` methods usable alongside the typed ones.
pub trait Event<W>: Sized {
    /// Consumes the event, mutating the world and scheduling follow-ups.
    fn fire(self, world: &mut W, engine: &mut Engine<W, Self>);
}

/// The default event type: a boxed `FnOnce` closure.
pub struct Boxed<W>(EventFn<W>);

impl<W> Event<W> for Boxed<W> {
    fn fire(self, world: &mut W, engine: &mut Engine<W, Self>) {
        (self.0)(world, engine)
    }
}

impl<W> From<EventFn<W>> for Boxed<W> {
    fn from(f: EventFn<W>) -> Self {
        Boxed(f)
    }
}

/// The dispatch-count tag given to events scheduled without an explicit
/// kind (plain [`Engine::schedule_at`] / [`Engine::schedule_after`]).
pub const UNTAGGED_EVENT: &str = "event";

/// Maximum number of same-timestamp events drained per dispatch burst.
pub const BURST: usize = 32;

/// Sentinel for "no slot" in the intrusive heap links.
const NIL: u32 = u32::MAX;

/// A handle to a scheduled event, usable with [`Engine::cancel`].
///
/// The handle is generational: once the event has fired, been cancelled or
/// been [`Engine::clear`]ed, the handle goes stale and `cancel` returns
/// `false` — it can never affect an event that later reuses the same slot.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    idx: u32,
    gen: u32,
}

/// One slab slot: event storage plus intrusive pairing-heap links.
struct Slot<E> {
    at: Time,
    seq: u64,
    kind: u16,
    gen: u32,
    occupied: bool,
    /// `None` while free, or after lazy cancellation.
    run: Option<E>,
    child: u32,
    sibling: u32,
}

/// A deterministic discrete-event scheduler over a world type `W`.
///
/// # Examples
///
/// ```
/// use mts_sim::{Engine, Dur, Time};
///
/// let mut engine: Engine<Vec<u64>> = Engine::new();
/// let mut world = Vec::new();
/// engine.schedule_after(Dur::micros(2), |w: &mut Vec<u64>, _e| w.push(2));
/// engine.schedule_after(Dur::micros(1), |w: &mut Vec<u64>, e| {
///     w.push(1);
///     // Events may schedule further events.
///     e.schedule_after(Dur::micros(5), |w: &mut Vec<u64>, _e| w.push(6));
/// });
/// engine.run(&mut world);
/// assert_eq!(world, vec![1, 2, 6]);
/// assert_eq!(engine.now(), Time::from_nanos(6_000));
/// ```
pub struct Engine<W, E = Boxed<W>> {
    now: Time,
    seq: u64,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    root: u32,
    /// Scheduled-and-not-cancelled event count (what [`Engine::pending`]
    /// reports); dead slots awaiting pop are excluded.
    live: usize,
    fired: u64,
    /// Registered dispatch tags, indexed by kind id.
    kinds: Vec<&'static str>,
    /// Fired-event counts parallel to `kinds`, excluding the in-flight run.
    counts: Vec<u64>,
    /// Kind id of the in-flight same-kind run (meaningful iff `burst_run > 0`).
    burst_kind: u16,
    /// Length of the in-flight same-kind run, not yet folded into `counts`.
    burst_run: u64,
    /// Reusable scratch for the two-pass pairing-heap merge.
    scratch: Vec<u32>,
    _world: PhantomData<fn(&mut W)>,
}

impl<W, E: Event<W>> Default for Engine<W, E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Closure-based scheduling, available whenever the event type can absorb a
/// boxed closure (the default [`Boxed`] always can; typed enums opt in via a
/// catch-all variant).
impl<W, E> Engine<W, E>
where
    E: Event<W> + From<EventFn<W, E>>,
{
    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// Events scheduled in the past fire "now" (the clock never goes
    /// backwards), preserving causal order. Returns a handle usable with
    /// [`Engine::cancel`].
    pub fn schedule_at<F>(&mut self, at: Time, event: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    {
        self.schedule_at_tagged(at, UNTAGGED_EVENT, event)
    }

    /// Schedules `event` at `at` under a dispatch-count tag.
    ///
    /// The tag groups events in [`Engine::dispatch_counts`] ("nic.rx",
    /// "vswitch.exec", ...). Semantics are otherwise identical to
    /// [`Engine::schedule_at`].
    pub fn schedule_at_tagged<F>(&mut self, at: Time, kind: &'static str, event: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    {
        let kind = self.kind_id(kind);
        self.schedule_raw(at, kind, E::from(Box::new(event)))
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after<F>(&mut self, delay: Dur, event: F) -> EventId
    where
        F: FnOnce(&mut W, &mut Engine<W, E>) + 'static,
    {
        self.schedule_at(self.now + delay, event)
    }

    /// Schedules a batch of events at the same instant under one tag.
    ///
    /// Equivalent to calling [`Engine::schedule_at_tagged`] once per event
    /// (they fire in iteration order), but resolves the tag once and grows
    /// the slab in one reallocation when the batch size is known up front.
    pub fn schedule_batch<F, I>(&mut self, at: Time, kind: &'static str, events: I)
    where
        F: FnOnce(&mut W, &mut Engine<W, E>) + 'static,
        I: IntoIterator<Item = F>,
    {
        let kind = self.kind_id(kind);
        let it = events.into_iter();
        let (lower, _) = it.size_hint();
        let need = lower.saturating_sub(self.free.len());
        self.slots.reserve(need);
        for event in it {
            self.schedule_raw(at, kind, E::from(Box::new(event)));
        }
    }
}

impl<W, E: Event<W>> Engine<W, E> {
    /// Creates an empty engine with the clock at [`Time::ZERO`].
    pub fn new() -> Self {
        Engine {
            now: Time::ZERO,
            seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            root: NIL,
            live: 0,
            fired: 0,
            kinds: Vec::new(),
            counts: Vec::new(),
            burst_kind: 0,
            burst_run: 0,
            scratch: Vec::new(),
            _world: PhantomData,
        }
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Returns how many events have fired so far.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Returns how many events are pending (scheduled and not cancelled).
    pub fn pending(&self) -> usize {
        self.live
    }

    /// Fired-event counts per event kind, in kind order.
    ///
    /// Events scheduled through [`Engine::schedule_at_tagged`] count under
    /// their tag; everything else under [`UNTAGGED_EVENT`]. The counts sum to
    /// [`Engine::events_fired`].
    pub fn dispatch_counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let mut v: Vec<(&'static str, u64)> = self
            .kinds
            .iter()
            .zip(self.counts.iter())
            .map(|(k, c)| (*k, *c))
            .collect();
        if self.burst_run > 0 {
            v[self.burst_kind as usize].1 += self.burst_run;
        }
        v.retain(|&(_, c)| c > 0);
        v.sort_unstable_by(|a, b| a.0.cmp(b.0));
        v.into_iter()
    }

    /// Schedules a typed event at `at` under a dispatch-count tag.
    ///
    /// The hot-path twin of [`Engine::schedule_at_tagged`]: the event
    /// payload is stored inline in the slab slot, no boxing involved.
    pub fn schedule_event(&mut self, at: Time, kind: &'static str, event: E) -> EventId {
        let kind = self.kind_id(kind);
        self.schedule_raw(at, kind, event)
    }

    /// Cancels a pending event. Returns `true` if the handle was live.
    ///
    /// Cancellation is lazy: the payload is dropped immediately but the
    /// slot is reclaimed when it reaches the top of the queue. A handle to
    /// an event that already fired (or was cancelled, or cleared) is stale
    /// and returns `false` without touching anything.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.idx as usize) {
            Some(s) if s.occupied && s.gen == id.gen && s.run.is_some() => {
                s.run = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self, world: &mut W) {
        while self.burst(world, None) {}
    }

    /// Runs events with a firing time `<= deadline`; later events stay queued.
    ///
    /// After returning, the clock rests at `deadline` (or later if an event at
    /// exactly `deadline` advanced it — the clock only moves to event times,
    /// so it rests at `max(now, deadline)` conceptually; we clamp to
    /// `deadline` if no event moved past it).
    pub fn run_until(&mut self, world: &mut W, deadline: Time) {
        while self.burst(world, Some(deadline)) {}
        self.now = self.now.max(deadline);
    }

    /// Runs events for `dur` of simulated time from the current instant.
    ///
    /// Shorthand for [`Engine::run_until`] at `now + dur`; the clock rests
    /// at that deadline afterwards.
    pub fn run_for(&mut self, world: &mut W, dur: Dur) {
        let deadline = self.now + dur;
        self.run_until(world, deadline);
    }

    /// Fires the single earliest event. Returns `false` if the queue is empty.
    pub fn step(&mut self, world: &mut W) -> bool {
        loop {
            let idx = self.pop_min();
            if idx == NIL {
                return false;
            }
            let slot = &mut self.slots[idx as usize];
            let at = slot.at;
            let kind = slot.kind;
            let run = slot.run.take();
            self.free_slot(idx);
            if let Some(f) = run {
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                self.fired += 1;
                self.live -= 1;
                self.flush_run();
                self.counts[kind as usize] += 1;
                f.fire(world, self);
                return true;
            }
            // Lazily-cancelled slot: reclaimed above, keep looking.
        }
    }

    /// Drops all pending events without firing them.
    ///
    /// Every occupied slot is individually released with a generation bump,
    /// so outstanding [`EventId`] handles go stale rather than aliasing
    /// whatever reuses their slots.
    pub fn clear(&mut self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].occupied {
                self.slots[idx].run = None;
                self.free_slot(idx as u32);
            }
        }
        self.root = NIL;
        self.live = 0;
    }

    /// Drains one burst: up to [`BURST`] events sharing the timestamp of
    /// the first live event popped (bounded by `deadline` if given).
    /// Returns whether any slot was popped — callers loop on that, so a
    /// burst spent skipping lazily-cancelled slots still makes progress.
    fn burst(&mut self, world: &mut W, deadline: Option<Time>) -> bool {
        let mut popped = false;
        let mut burst_at = None;
        for _ in 0..BURST {
            let root = self.root;
            if root == NIL {
                break;
            }
            let at = self.slots[root as usize].at;
            if let Some(d) = deadline {
                if at > d {
                    break;
                }
            }
            if let Some(b) = burst_at {
                if at != b {
                    break;
                }
            }
            let idx = self.pop_min();
            popped = true;
            let slot = &mut self.slots[idx as usize];
            let kind = slot.kind;
            let run = slot.run.take();
            self.free_slot(idx);
            let Some(f) = run else { continue };
            burst_at = Some(at);
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.fired += 1;
            self.live -= 1;
            // Charge the dispatch counter per same-kind run, not per event.
            if self.burst_run > 0 && self.burst_kind == kind {
                self.burst_run += 1;
            } else {
                self.flush_run();
                self.burst_kind = kind;
                self.burst_run = 1;
            }
            f.fire(world, self);
        }
        self.flush_run();
        popped
    }

    /// Folds the in-flight same-kind run into the dispatch counters.
    fn flush_run(&mut self) {
        if self.burst_run > 0 {
            self.counts[self.burst_kind as usize] += self.burst_run;
            self.burst_run = 0;
        }
    }

    /// Resolves a tag to its small dense id, registering it on first use.
    ///
    /// Tags are `&'static str` literals, so a pointer compare settles the
    /// common case before falling back to a content compare; simulations
    /// use around a dozen tags, so the scan is effectively O(1).
    fn kind_id(&mut self, kind: &'static str) -> u16 {
        for (i, k) in self.kinds.iter().enumerate() {
            if std::ptr::eq(*k, kind) || *k == kind {
                return i as u16;
            }
        }
        assert!(self.kinds.len() < u16::MAX as usize, "too many event kinds");
        self.kinds.push(kind);
        self.counts.push(0);
        (self.kinds.len() - 1) as u16
    }

    /// Allocates a slot (free list first), links it into the heap.
    fn schedule_raw(&mut self, at: Time, kind: u16, run: E) -> EventId {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let s = &mut self.slots[idx as usize];
                s.at = at;
                s.seq = seq;
                s.kind = kind;
                s.occupied = true;
                s.run = Some(run);
                s.child = NIL;
                s.sibling = NIL;
                idx
            }
            None => {
                assert!(self.slots.len() < NIL as usize, "event slab full");
                self.slots.push(Slot {
                    at,
                    seq,
                    kind,
                    gen: 0,
                    occupied: true,
                    run: Some(run),
                    child: NIL,
                    sibling: NIL,
                });
                (self.slots.len() - 1) as u32
            }
        };
        self.root = self.meld(self.root, idx);
        self.live += 1;
        EventId {
            idx,
            gen: self.slots[idx as usize].gen,
        }
    }

    /// Releases a popped slot back to the free list with a generation bump.
    fn free_slot(&mut self, idx: u32) {
        let s = &mut self.slots[idx as usize];
        debug_assert!(s.occupied, "double free of event slot");
        s.occupied = false;
        s.run = None;
        s.child = NIL;
        s.sibling = NIL;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Melds two pairing-heap roots; the smaller `(at, seq)` key wins.
    /// Keys are unique, so the meld order never changes which event is min.
    fn meld(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let (ka, kb) = {
            let sa = &self.slots[a as usize];
            let sb = &self.slots[b as usize];
            ((sa.at, sa.seq), (sb.at, sb.seq))
        };
        let (parent, child) = if ka <= kb { (a, b) } else { (b, a) };
        self.slots[child as usize].sibling = self.slots[parent as usize].child;
        self.slots[parent as usize].child = child;
        parent
    }

    /// Detaches and returns the minimum slot; heap root moves to the
    /// two-pass merge of its children. Returns [`NIL`] when empty.
    fn pop_min(&mut self) -> u32 {
        let root = self.root;
        if root == NIL {
            return NIL;
        }
        let child = self.slots[root as usize].child;
        self.slots[root as usize].child = NIL;
        self.root = self.merge_pairs(child);
        root
    }

    /// Classic two-pass pairing-heap merge of a sibling list.
    fn merge_pairs(&mut self, first: u32) -> u32 {
        debug_assert!(self.scratch.is_empty());
        let mut cur = first;
        while cur != NIL {
            let a = cur;
            let b = self.slots[a as usize].sibling;
            if b == NIL {
                self.slots[a as usize].sibling = NIL;
                self.scratch.push(a);
                break;
            }
            let next = self.slots[b as usize].sibling;
            self.slots[a as usize].sibling = NIL;
            self.slots[b as usize].sibling = NIL;
            let merged = self.meld(a, b);
            self.scratch.push(merged);
            cur = next;
        }
        let mut root = NIL;
        while let Some(x) = self.scratch.pop() {
            root = self.meld(root, x);
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        e.schedule_at(Time::from_nanos(30), |w: &mut Vec<u32>, _| w.push(3));
        e.schedule_at(Time::from_nanos(10), |w: &mut Vec<u32>, _| w.push(1));
        e.schedule_at(Time::from_nanos(20), |w: &mut Vec<u32>, _| w.push(2));
        e.run(&mut w);
        assert_eq!(w, vec![1, 2, 3]);
        assert_eq!(e.events_fired(), 3);
    }

    #[test]
    fn same_instant_fires_in_schedule_order() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        for i in 0..100 {
            e.schedule_at(Time::from_nanos(5), move |w: &mut Vec<u32>, _| w.push(i));
        }
        e.run(&mut w);
        assert_eq!(w, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn past_events_are_clamped_to_now() {
        let mut e: Engine<Vec<u64>> = Engine::new();
        let mut w = Vec::new();
        e.schedule_at(
            Time::from_nanos(100),
            |w: &mut Vec<u64>, e: &mut Engine<Vec<u64>>| {
                // Scheduling "in the past" must not rewind the clock.
                e.schedule_at(Time::from_nanos(1), |w: &mut Vec<u64>, e| {
                    w.push(e.now().as_nanos())
                });
                w.push(e.now().as_nanos());
            },
        );
        e.run(&mut w);
        assert_eq!(w, vec![100, 100]);
    }

    #[test]
    fn run_until_leaves_later_events_queued() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        e.schedule_at(Time::from_nanos(10), |w: &mut Vec<u32>, _| w.push(1));
        e.schedule_at(Time::from_nanos(20), |w: &mut Vec<u32>, _| w.push(2));
        e.run_until(&mut w, Time::from_nanos(15));
        assert_eq!(w, vec![1]);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.now(), Time::from_nanos(15));
        e.run(&mut w);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn cascading_events_run_to_completion() {
        // A chain of events each scheduling the next; checks depth behaviour.
        fn chain(n: u32) -> impl FnOnce(&mut u32, &mut Engine<u32>) {
            move |w: &mut u32, e: &mut Engine<u32>| {
                *w += 1;
                if n > 0 {
                    e.schedule_after(Dur::nanos(1), chain(n - 1));
                }
            }
        }
        let mut e: Engine<u32> = Engine::new();
        let mut w = 0u32;
        e.schedule_at(Time::ZERO, chain(999));
        e.run(&mut w);
        assert_eq!(w, 1000);
        assert_eq!(e.now(), Time::from_nanos(999));
    }

    #[test]
    fn dispatch_counts_group_by_tag() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..5u64 {
            e.schedule_at_tagged(Time::from_nanos(i), "nic.rx", |w: &mut u32, _| *w += 1);
        }
        e.schedule_at_tagged(Time::from_nanos(9), "vswitch.exec", |w: &mut u32, _| {
            *w += 1
        });
        e.schedule_at(Time::from_nanos(10), |w: &mut u32, _| *w += 1);
        let mut w = 0u32;
        e.run(&mut w);
        assert_eq!(w, 7);
        let counts: Vec<_> = e.dispatch_counts().collect();
        assert_eq!(
            counts,
            vec![(UNTAGGED_EVENT, 1), ("nic.rx", 5), ("vswitch.exec", 1)]
        );
        assert_eq!(
            e.dispatch_counts().map(|(_, v)| v).sum::<u64>(),
            e.events_fired()
        );
    }

    #[test]
    fn clear_discards_pending() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_after(Dur::secs(1), |w: &mut u32, _| *w += 1);
        e.clear();
        let mut w = 0;
        e.run(&mut w);
        assert_eq!(w, 0);
    }

    #[test]
    fn cancel_prevents_firing_and_handles_go_stale() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        let keep = e.schedule_at(Time::from_nanos(10), |w: &mut Vec<u32>, _| w.push(1));
        let drop_ = e.schedule_at(Time::from_nanos(20), |w: &mut Vec<u32>, _| w.push(2));
        assert_eq!(e.pending(), 2);
        assert!(e.cancel(drop_));
        assert_eq!(e.pending(), 1);
        // Double-cancel is a no-op.
        assert!(!e.cancel(drop_));
        e.run(&mut w);
        assert_eq!(w, vec![1]);
        // Handles to fired events are stale too.
        assert!(!e.cancel(keep));
    }

    #[test]
    fn stale_generational_handle_never_cancels_slot_reuse() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        let old = e.schedule_at(Time::from_nanos(1), |w: &mut Vec<u32>, _| w.push(1));
        e.run(&mut w);
        // The slot is free now; the next schedule reuses it with a bumped
        // generation, so the old handle must not cancel the new event.
        let new = e.schedule_at(Time::from_nanos(2), |w: &mut Vec<u32>, _| w.push(2));
        assert_eq!(new.idx, old.idx);
        assert_ne!(new.gen, old.gen);
        assert!(!e.cancel(old));
        e.run(&mut w);
        assert_eq!(w, vec![1, 2]);
    }

    #[test]
    fn clear_staleifies_outstanding_handles() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        let id = e.schedule_at(Time::from_nanos(5), |w: &mut Vec<u32>, _| w.push(1));
        e.clear();
        assert!(!e.cancel(id));
        // Slot reuse after clear: the cleared handle must stay inert.
        e.schedule_at(Time::from_nanos(5), |w: &mut Vec<u32>, _| w.push(2));
        assert!(!e.cancel(id));
        e.run(&mut w);
        assert_eq!(w, vec![2]);
    }

    #[test]
    fn same_timestamp_fifo_survives_burst_boundaries() {
        // 100 same-instant events cross three burst windows (32+32+32+4);
        // FIFO order must hold across the boundaries, including for events
        // scheduled mid-burst at the same instant.
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        for i in 0..50 {
            e.schedule_at(Time::from_nanos(5), move |w: &mut Vec<u32>, e| {
                w.push(i);
                if i == 0 {
                    // Scheduled mid-burst for the same instant: must fire
                    // after everything already queued at t=5.
                    for j in 50..100 {
                        e.schedule_at(Time::from_nanos(5), move |w: &mut Vec<u32>, _| w.push(j));
                    }
                }
            });
        }
        e.run(&mut w);
        assert_eq!(w, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_batch_preserves_iteration_order_and_tags() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        e.schedule_batch(
            Time::from_nanos(7),
            "batch.ev",
            (0..40).map(|i| move |w: &mut Vec<u32>, _: &mut Engine<Vec<u32>>| w.push(i)),
        );
        assert_eq!(e.pending(), 40);
        e.run(&mut w);
        assert_eq!(w, (0..40).collect::<Vec<_>>());
        let counts: Vec<_> = e.dispatch_counts().collect();
        assert_eq!(counts, vec![("batch.ev", 40)]);
    }

    #[test]
    fn run_for_advances_relative_to_now() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        e.schedule_at(Time::from_nanos(10), |w: &mut Vec<u32>, _| w.push(1));
        e.schedule_at(Time::from_nanos(30), |w: &mut Vec<u32>, _| w.push(2));
        e.run_for(&mut w, Dur::nanos(15));
        assert_eq!(w, vec![1]);
        assert_eq!(e.now(), Time::from_nanos(15));
        e.run_for(&mut w, Dur::nanos(15));
        assert_eq!(w, vec![1, 2]);
        assert_eq!(e.now(), Time::from_nanos(30));
    }

    #[test]
    fn dispatch_counts_are_exact_mid_run() {
        // A closure reading the counters mid-burst must see per-event
        // values even though the store is charged per run.
        let mut e: Engine<Vec<u64>> = Engine::new();
        let mut w = Vec::new();
        for _ in 0..10 {
            e.schedule_at_tagged(Time::from_nanos(3), "tick", |w: &mut Vec<u64>, e| {
                let n: u64 = e.dispatch_counts().map(|(_, v)| v).sum();
                assert_eq!(n, e.events_fired());
                w.push(n);
            });
        }
        e.run(&mut w);
        assert_eq!(w, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn slab_reuses_slots_instead_of_growing() {
        let mut e: Engine<u32> = Engine::new();
        let mut w = 0u32;
        for round in 0..100u64 {
            e.schedule_at(Time::from_nanos(round), |w: &mut u32, _| *w += 1);
            e.step(&mut w);
        }
        assert_eq!(w, 100);
        // One slot, recycled 100 times.
        assert_eq!(e.slots.len(), 1);
    }

    #[test]
    fn mixed_cancel_and_clear_under_load() {
        let mut e: Engine<Vec<u32>> = Engine::new();
        let mut w = Vec::new();
        let ids: Vec<_> = (0..64)
            .map(|i| {
                e.schedule_at(Time::from_nanos(i), move |w: &mut Vec<u32>, _| {
                    w.push(i as u32)
                })
            })
            .collect();
        for id in ids.iter().skip(1).step_by(2) {
            assert!(e.cancel(*id));
        }
        assert_eq!(e.pending(), 32);
        e.run(&mut w);
        assert_eq!(w, (0..64).step_by(2).map(|i| i as u32).collect::<Vec<_>>());
        assert_eq!(e.events_fired(), 32);
    }

    /// A typed event enum with a closure fallback variant, as the core
    /// runtime uses: typed entries avoid boxing; `Call` keeps the
    /// closure-based API usable on the same engine.
    enum Ev {
        Push(u32),
        Call(EventFn<Vec<u32>, Ev>),
    }

    impl Event<Vec<u32>> for Ev {
        fn fire(self, w: &mut Vec<u32>, e: &mut Engine<Vec<u32>, Ev>) {
            match self {
                Ev::Push(v) => {
                    w.push(v);
                    if v == 1 {
                        // Typed events can schedule typed follow-ups.
                        e.schedule_event(e.now(), "push", Ev::Push(99));
                    }
                }
                Ev::Call(f) => f(w, e),
            }
        }
    }

    impl From<EventFn<Vec<u32>, Ev>> for Ev {
        fn from(f: EventFn<Vec<u32>, Ev>) -> Self {
            Ev::Call(f)
        }
    }

    #[test]
    fn typed_events_interleave_with_closures_in_fifo_order() {
        let mut e: Engine<Vec<u32>, Ev> = Engine::new();
        let mut w = Vec::new();
        e.schedule_event(Time::from_nanos(5), "push", Ev::Push(1));
        e.schedule_at_tagged(Time::from_nanos(5), "call", |w: &mut Vec<u32>, _| w.push(2));
        e.schedule_event(Time::from_nanos(5), "push", Ev::Push(3));
        e.run(&mut w);
        // The mid-burst typed follow-up (99) lands after everything queued
        // at t=5, preserving schedule order across event representations.
        assert_eq!(w, vec![1, 2, 3, 99]);
        let counts: Vec<_> = e.dispatch_counts().collect();
        assert_eq!(counts, vec![("call", 1), ("push", 3)]);
    }

    #[test]
    fn typed_events_can_be_cancelled() {
        let mut e: Engine<Vec<u32>, Ev> = Engine::new();
        let mut w = Vec::new();
        let id = e.schedule_event(Time::from_nanos(5), "push", Ev::Push(7));
        assert!(e.cancel(id));
        e.run(&mut w);
        assert!(w.is_empty());
    }
}
