//! The Linux bridge tenant VMs use in the Baseline.
//!
//! "For the Baseline, we used the default linux bridge in the tenant VMs"
//! (paper Sec. 4, Setup). It is a plain learning bridge running in the
//! guest kernel; its cost lands on the *tenant's* cores (two per VM, so it
//! is rarely the throughput bottleneck) but its interrupt-driven path adds
//! latency to every Baseline p2v/v2v traversal.

use mts_net::{Frame, MacAddr};
use mts_sim::Dur;
use std::collections::HashMap;

/// A guest-kernel learning bridge.
#[derive(Debug, Clone, Default)]
pub struct LinuxBridge {
    ports: u32,
    table: HashMap<u64, u32>,
    forwarded: u64,
    flooded: u64,
}

impl LinuxBridge {
    /// Guest-side interrupt + NAPI latency per traversal (virtio IRQ
    /// injection, softirq scheduling). Pure latency, charged to no core we
    /// track (tenant cores are dedicated).
    pub const WAKEUP_LATENCY: Dur = Dur::micros(28);

    /// Creates a bridge with `ports` ports (port ids `0..ports`).
    pub fn new(ports: u32) -> Self {
        LinuxBridge {
            ports,
            ..LinuxBridge::default()
        }
    }

    /// Forwards one frame entering at `in_port`; returns egress ports.
    pub fn forward(&mut self, in_port: u32, frame: &Frame) -> Vec<u32> {
        if frame.src.is_unicast() {
            self.table.insert(frame.src.as_u64(), in_port);
        }
        if frame.dst.is_unicast() {
            if let Some(&p) = self.table.get(&frame.dst.as_u64()) {
                if p == in_port {
                    return Vec::new();
                }
                self.forwarded += 1;
                return vec![p];
            }
        }
        self.flooded += 1;
        (0..self.ports).filter(|p| *p != in_port).collect()
    }

    /// Returns how many frames were learned-and-forwarded vs flooded.
    pub fn counters(&self) -> (u64, u64) {
        (self.forwarded, self.flooded)
    }

    /// Returns the port a MAC was learned on.
    pub fn learned(&self, mac: MacAddr) -> Option<u32> {
        self.table.get(&mac.as_u64()).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn frame(src: MacAddr, dst: MacAddr) -> Frame {
        Frame::udp_data(
            src,
            dst,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            10,
        )
    }

    #[test]
    fn learns_then_unicasts() {
        let mut b = LinuxBridge::new(2);
        let a = MacAddr::local(1);
        let c = MacAddr::local(2);
        // Unknown: flood out the other port.
        assert_eq!(b.forward(0, &frame(a, c)), vec![1]);
        assert_eq!(b.learned(a), Some(0));
        // Reply: unicast back to port 0.
        assert_eq!(b.forward(1, &frame(c, a)), vec![0]);
        let (fwd, fld) = b.counters();
        assert_eq!((fwd, fld), (1, 1));
    }

    #[test]
    fn hairpin_suppressed() {
        let mut b = LinuxBridge::new(2);
        let a = MacAddr::local(1);
        let c = MacAddr::local(9);
        b.forward(0, &frame(a, c)); // learn a -> port 0
        b.forward(1, &frame(c, a)); // learn c -> port 1
                                    // A frame entering port 1 destined to c (also on port 1): suppressed.
        assert_eq!(b.forward(1, &frame(a, c)), Vec::<u32>::new());
    }

    #[test]
    fn broadcast_floods() {
        let mut b = LinuxBridge::new(3);
        let out = b.forward(1, &frame(MacAddr::local(1), MacAddr::BROADCAST));
        assert_eq!(out, vec![0, 2]);
    }
}
