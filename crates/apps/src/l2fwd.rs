//! The DPDK `l2fwd` application tenant VMs run in MTS.
//!
//! Paper Sec. 4, Setup: "In the tenant VMs, we adapted the DPDK-17.11
//! l2fwd app to rewrite the correct destination MAC address when using MTS,
//! and used the default l2fwd drain-interval (100 microseconds) and burst
//! size (32) parameters."
//!
//! The app receives frames on the tenant's VF, rewrites the destination
//! MAC to the configured next hop (the tenant's Gw VF, so the NIC switch
//! hands the frame back to the vswitch compartment), and transmits. TX is
//! buffered: a buffer flushes when it reaches the burst size or when the
//! drain interval elapses — at low rates this adds up to 100 µs latency,
//! at high rates bursts fill immediately.

use mts_net::{Frame, MacAddr};
use mts_sim::{Dur, Time};

/// Default TX drain interval (`BURST_TX_DRAIN_US` in l2fwd).
pub const DRAIN_INTERVAL: Dur = Dur::micros(100);
/// Default burst size (`MAX_PKT_BURST`).
pub const BURST: usize = 32;

/// The l2fwd forwarding state of one tenant VM.
pub struct L2Fwd {
    /// Next-hop MAC written into every forwarded frame.
    next_hop: MacAddr,
    /// Our own MAC (set as the source on forwarded frames).
    own_mac: MacAddr,
    buffer: Vec<Frame>,
    last_flush: Time,
    forwarded: u64,
    flushes_by_timer: u64,
    flushes_by_burst: u64,
}

impl L2Fwd {
    /// Creates the app: frames go out with `own_mac` → `next_hop`.
    pub fn new(own_mac: MacAddr, next_hop: MacAddr) -> Self {
        L2Fwd {
            next_hop,
            own_mac,
            // Grown by the first frames, kept across drains: a tenant
            // that never sees traffic holds no buffer.
            buffer: Vec::new(),
            last_flush: Time::ZERO,
            forwarded: 0,
            flushes_by_timer: 0,
            flushes_by_burst: 0,
        }
    }

    /// Total frames forwarded.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Flush cause counters: `(by_full_burst, by_drain_timer)`.
    pub fn flush_counters(&self) -> (u64, u64) {
        (self.flushes_by_burst, self.flushes_by_timer)
    }

    /// Handles one received frame; a full burst is appended to `out` for
    /// transmission *now* — otherwise the frame waits for the drain timer.
    pub fn on_frame(&mut self, mut frame: Frame, now: Time, out: &mut Vec<Frame>) {
        frame.src = self.own_mac;
        frame.dst = self.next_hop;
        self.buffer.push(frame);
        if self.buffer.len() >= BURST {
            self.flushes_by_burst += 1;
            self.flush(now, out);
        }
    }

    /// The next instant the drain timer should fire, if frames are waiting.
    pub fn next_drain(&self) -> Option<Time> {
        if self.buffer.is_empty() {
            None
        } else {
            Some(self.last_flush + DRAIN_INTERVAL)
        }
    }

    /// Fires the drain timer: appends whatever is buffered to `out`.
    pub fn on_drain(&mut self, now: Time, out: &mut Vec<Frame>) {
        if !self.buffer.is_empty() {
            self.flushes_by_timer += 1;
        }
        self.flush(now, out);
    }

    /// Moves the buffered frames to `out`; the buffer keeps its capacity.
    fn flush(&mut self, now: Time, out: &mut Vec<Frame>) {
        self.last_flush = now;
        self.forwarded += self.buffer.len() as u64;
        out.append(&mut self.buffer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn frame(n: u32) -> Frame {
        Frame::udp_data(
            MacAddr::local(0xee),
            MacAddr::local(0x01),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 1, (n % 200 + 1) as u8),
            1,
            2,
            64,
        )
    }

    #[test]
    fn rewrites_macs() {
        let own = MacAddr::local(0x42);
        let gw = MacAddr::local(0x11);
        let mut fwd = L2Fwd::new(own, gw);
        let mut out = Vec::new();
        fwd.on_frame(frame(0), Time::ZERO, &mut out);
        fwd.on_drain(Time::from_nanos(100_000), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].dst, gw);
        assert_eq!(out[0].src, own);
    }

    #[test]
    fn full_burst_flushes_immediately() {
        let mut fwd = L2Fwd::new(MacAddr::local(1), MacAddr::local(2));
        let mut out = Vec::new();
        for i in 0..BURST as u32 {
            assert!(out.is_empty(), "flushed before the burst filled");
            fwd.on_frame(frame(i), Time::ZERO, &mut out);
        }
        assert_eq!(out.len(), BURST);
        assert_eq!(fwd.forwarded(), BURST as u64);
        assert_eq!(fwd.flush_counters(), (1, 0));
        assert!(fwd.next_drain().is_none());
    }

    #[test]
    fn low_rate_waits_for_the_drain_timer() {
        let mut fwd = L2Fwd::new(MacAddr::local(1), MacAddr::local(2));
        let mut out = Vec::new();
        fwd.on_frame(frame(0), Time::ZERO, &mut out);
        assert!(out.is_empty());
        let deadline = fwd.next_drain().expect("timer armed");
        assert_eq!(deadline, Time::ZERO + DRAIN_INTERVAL);
        fwd.on_drain(deadline, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(fwd.flush_counters(), (0, 1));
    }

    #[test]
    fn empty_drain_is_harmless() {
        let mut fwd = L2Fwd::new(MacAddr::local(1), MacAddr::local(2));
        let mut out = Vec::new();
        fwd.on_drain(Time::from_nanos(5), &mut out);
        assert!(out.is_empty());
        assert_eq!(fwd.flush_counters(), (0, 0));
    }

    #[test]
    fn buffer_is_lazy_and_keeps_its_capacity_across_drains() {
        let mut fwd = L2Fwd::new(MacAddr::local(1), MacAddr::local(2));
        assert_eq!(fwd.buffer.capacity(), 0, "new() must not allocate");
        let mut out = vec![frame(99)];
        for i in 0..5 {
            fwd.on_frame(frame(i), Time::ZERO, &mut out);
        }
        let grown = fwd.buffer.capacity();
        assert!(grown >= 5);
        fwd.on_drain(Time::ZERO + DRAIN_INTERVAL, &mut out);
        // Appended behind what the caller already held, in arrival order.
        assert_eq!(out.len(), 6);
        assert_eq!(out[1].dst_ip(), frame(0).dst_ip());
        assert_eq!(out[5].dst_ip(), frame(4).dst_ip());
        assert!(fwd.buffer.is_empty());
        assert_eq!(fwd.buffer.capacity(), grown, "drain gave the buffer away");
    }
}
