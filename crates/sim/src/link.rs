//! Transmission links and rate-limited servers.
//!
//! [`Link`] models a serial transmission medium (a 10G fabric port, the PCIe
//! bus): each frame occupies the link for its serialization time and then
//! propagates with fixed delay. [`Server`] models a bounded-rate packet
//! engine with a finite backlog — used for the SR-IOV NIC's VF↔VF *hairpin*
//! budget, the mechanism behind the paper's ≈2.3 Mpps DPDK p2v ceiling.

use crate::time::{Dur, Time};

/// A point-to-point transmission link with bandwidth and propagation delay.
#[derive(Debug, Clone)]
pub struct Link {
    bits_per_sec: u64,
    propagation: Dur,
    busy_until: Time,
}

impl Link {
    /// Creates a link with the given bandwidth (bits/second) and propagation
    /// delay. A bandwidth of zero is treated as one bit per second.
    pub fn new(bits_per_sec: u64, propagation: Dur) -> Self {
        Link {
            bits_per_sec: bits_per_sec.max(1),
            propagation,
            busy_until: Time::ZERO,
        }
    }

    /// Convenience constructor from gigabits per second.
    pub fn gbps(gbps: u64, propagation: Dur) -> Self {
        Link::new(gbps * 1_000_000_000, propagation)
    }

    /// Returns the serialization time of `bytes` on this link.
    pub fn serialization(&self, bytes: u64) -> Dur {
        // bits * 1e9 / bps, computed in u128 to avoid overflow.
        let ns = (bytes as u128 * 8 * 1_000_000_000) / self.bits_per_sec as u128;
        Dur::nanos(ns as u64)
    }

    /// Transmits a frame of `bytes` starting no earlier than `now`.
    ///
    /// Returns the arrival time at the far end. The link is occupied for the
    /// serialization time (FIFO), then the frame propagates.
    pub fn transmit(&mut self, now: Time, bytes: u64) -> Time {
        let start = now.max(self.busy_until);
        let done = start + self.serialization(bytes);
        self.busy_until = done;
        done + self.propagation
    }
}

/// Outcome of offering work to a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerDecision {
    /// The work was admitted and completes at the given time.
    Done(Time),
    /// The backlog bound was exceeded; the work is dropped.
    Dropped,
}

/// A fixed-rate server with a bounded backlog, for pps-limited engines.
#[derive(Debug, Clone)]
pub struct Server {
    service_ns: u64,
    next_free: Time,
    max_backlog: Dur,
    served: u64,
    dropped: u64,
}

impl Server {
    /// Creates a server processing `rate_per_sec` operations per second,
    /// refusing work once the backlog exceeds `max_backlog`.
    ///
    /// A rate of zero is treated as one operation per second.
    pub fn new(rate_per_sec: u64, max_backlog: Dur) -> Self {
        Server {
            service_ns: 1_000_000_000 / rate_per_sec.max(1),
            next_free: Time::ZERO,
            max_backlog,
            served: 0,
            dropped: 0,
        }
    }

    /// Offers one operation at `now`; returns completion time or a drop.
    pub fn offer(&mut self, now: Time) -> ServerDecision {
        let backlog = self.next_free - now;
        if backlog > self.max_backlog {
            self.dropped += 1;
            return ServerDecision::Dropped;
        }
        let start = now.max(self.next_free);
        let done = start + Dur::nanos(self.service_ns);
        self.next_free = done;
        self.served += 1;
        ServerDecision::Done(done)
    }

    /// Offers `n` back-to-back operations at `now`; returns the completion
    /// time of the last admitted one and how many were dropped.
    pub fn offer_batch(&mut self, now: Time, n: u64) -> (Option<Time>, u64) {
        let mut last = None;
        let mut drops = 0;
        for _ in 0..n {
            match self.offer(now) {
                ServerDecision::Done(t) => last = Some(t),
                ServerDecision::Dropped => drops += 1,
            }
        }
        (last, drops)
    }

    /// Returns the number of operations served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Returns the number of operations dropped due to backlog.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Returns the per-operation service time.
    pub fn service_time(&self) -> Dur {
        Dur::nanos(self.service_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_matches_line_rate() {
        let l = Link::gbps(10, Dur::ZERO);
        // 64B + preamble-free model: 64 * 8 / 10Gbps = 51.2ns, truncated.
        assert_eq!(l.serialization(64), Dur::nanos(51));
        assert_eq!(l.serialization(1500), Dur::nanos(1_200));
    }

    #[test]
    fn back_to_back_frames_queue_on_the_link() {
        let mut l = Link::gbps(10, Dur::nanos(5));
        let a1 = l.transmit(Time::ZERO, 1250); // 1us serialization
        let a2 = l.transmit(Time::ZERO, 1250);
        assert_eq!(a1, Time::from_nanos(1_005));
        assert_eq!(a2, Time::from_nanos(2_005));
    }

    #[test]
    fn idle_gap_is_not_accumulated() {
        let mut l = Link::gbps(10, Dur::ZERO);
        l.transmit(Time::ZERO, 1250);
        // Transmit long after the link went idle: starts immediately.
        let a = l.transmit(Time::from_nanos(10_000), 1250);
        assert_eq!(a, Time::from_nanos(11_000));
    }

    #[test]
    fn server_rate_limits() {
        let mut s = Server::new(1_000_000, Dur::MAX); // 1 Mops => 1us each
        assert_eq!(
            s.offer(Time::ZERO),
            ServerDecision::Done(Time::from_nanos(1_000))
        );
        assert_eq!(
            s.offer(Time::ZERO),
            ServerDecision::Done(Time::from_nanos(2_000))
        );
        assert_eq!(s.served(), 2);
    }

    #[test]
    fn server_drops_when_backlog_exceeded() {
        let mut s = Server::new(1_000_000, Dur::micros(2));
        // Fill up 3us of backlog: third offer sees 2us backlog (== bound, ok),
        // fourth sees 3us (> bound) and drops.
        assert!(matches!(s.offer(Time::ZERO), ServerDecision::Done(_)));
        assert!(matches!(s.offer(Time::ZERO), ServerDecision::Done(_)));
        assert!(matches!(s.offer(Time::ZERO), ServerDecision::Done(_)));
        assert_eq!(s.offer(Time::ZERO), ServerDecision::Dropped);
        assert_eq!(s.dropped(), 1);
    }

    #[test]
    fn batch_offer_reports_drops() {
        let mut s = Server::new(1_000_000, Dur::micros(1));
        let (last, drops) = s.offer_batch(Time::ZERO, 5);
        assert!(last.is_some());
        assert!(drops > 0);
        assert_eq!(s.served() + s.dropped(), 5);
    }
}
