//! Per-packet CPU cost models for the two datapaths.
//!
//! The paper evaluates two vswitch datapaths: the OvS *kernel* datapath
//! (interrupt-driven, Baseline/Level-1/2) and the *DPDK* user-space
//! poll-mode datapath (Level-3). The constants here, combined with the
//! vhost/VF port costs in `mts-host`, produce the paper's throughput
//! anchors: ≈1 Mpps/core for the kernel path (Fig. 5d) and ≈7–8 Mpps/core
//! for DPDK (Fig. 5g, line rate with 2 cores). See DESIGN.md §3.

use mts_net::Frame;
use mts_sim::Dur;
use serde::{Deserialize, Serialize};

/// Which datapath a vswitch instance runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum DatapathKind {
    /// The kernel datapath: interrupt-driven, NAPI batching.
    Kernel,
    /// The DPDK user-space datapath: poll-mode, burst 32.
    Dpdk,
}

/// Per-packet and per-batch CPU costs of a datapath.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DatapathCosts {
    /// Cost of a cache-hit (fast path) lookup + action execution.
    pub cache_hit: Dur,
    /// Cost of a slow-path traversal (full pipeline, cache insert).
    pub slow_path: Dur,
    /// Additional per-byte cost (header/payload touching), picoseconds.
    pub ps_per_byte: u64,
    /// Per-VF-port packet cost in the driver (rx or tx, each way).
    pub vf_rx_tx: Dur,
    /// Per-batch overhead: interrupt + NAPI entry for the kernel path, or
    /// one poll-loop iteration for DPDK.
    pub per_batch: Dur,
    /// DPDK only: cost to poll one port's rx queue in an iteration, paid
    /// per polled port — this is why one core polling many ports saturates
    /// early (Sec. 4.1).
    pub poll_port: Dur,
    /// Receive burst size (DPDK burst / NAPI budget).
    pub burst: usize,
}

impl DatapathCosts {
    /// Calibrated costs for the kernel datapath.
    pub fn kernel() -> Self {
        DatapathCosts {
            cache_hit: Dur::nanos(650),
            slow_path: Dur::micros(8),
            ps_per_byte: 300,
            vf_rx_tx: Dur::nanos(180),
            per_batch: Dur::micros(2),
            poll_port: Dur::ZERO,
            burst: 64,
        }
    }

    /// Calibrated costs for the DPDK poll-mode datapath.
    pub fn dpdk() -> Self {
        DatapathCosts {
            cache_hit: Dur::nanos(70),
            slow_path: Dur::micros(3),
            ps_per_byte: 15,
            vf_rx_tx: Dur::nanos(25),
            per_batch: Dur::nanos(50),
            poll_port: Dur::nanos(35),
            burst: 32,
        }
    }

    /// Returns the calibrated costs for a datapath kind.
    pub fn for_kind(kind: DatapathKind) -> Self {
        match kind {
            DatapathKind::Kernel => Self::kernel(),
            DatapathKind::Dpdk => Self::dpdk(),
        }
    }

    /// Per-packet switching cost for a frame (fast or slow path).
    #[cfg(test)]
    fn packet_cost(&self, frame: &Frame, cache_hit: bool) -> Dur {
        self.packet_cost_amortized(frame, cache_hit, 1)
    }

    /// Per-packet cost with the fixed component amortized over `factor`
    /// frames — models TSO/GSO: bulk TCP traverses the datapath as
    /// super-segments, so descriptor/lookup costs are paid once per ~8
    /// MTU-frames while byte-touching costs remain per byte.
    pub fn packet_cost_amortized(&self, frame: &Frame, cache_hit: bool, factor: u64) -> Dur {
        let base = if cache_hit {
            self.cache_hit
        } else {
            self.slow_path
        };
        base / factor.max(1) + Dur::nanos(self.ps_per_byte * u64::from(frame.wire_len()) / 1000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_net::MacAddr;
    use std::net::Ipv4Addr;

    fn frame(wire: u32) -> Frame {
        Frame::udp_probe(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(1, 0, 0, 1),
            Ipv4Addr::new(1, 0, 0, 2),
            7,
            0,
            wire,
        )
    }

    #[test]
    fn kernel_is_about_one_mpps_per_core() {
        let c = DatapathCosts::kernel();
        let per_pkt = c.packet_cost(&frame(64), true) + c.vf_rx_tx;
        // One packet in ~0.9-1.3us => ~0.8-1.1 Mpps; the batch overhead
        // amortized over 64-packet batches adds ~31ns.
        let total_ns = per_pkt.as_nanos() + c.per_batch.as_nanos() / 64;
        let mpps = 1e9 / total_ns as f64 / 1e6;
        assert!((0.7..=1.2).contains(&mpps), "kernel mpps {mpps}");
    }

    #[test]
    fn dpdk_is_an_order_of_magnitude_faster() {
        let k = DatapathCosts::kernel();
        let d = DatapathCosts::dpdk();
        let fk = k.packet_cost(&frame(64), true);
        let fd = d.packet_cost(&frame(64), true);
        assert!(fk.as_nanos() > 6 * fd.as_nanos());
        // One DPDK core forwards ~7-9 Mpps p2p (needs 2 cores for 14.4).
        let per_pkt =
            fd + d.vf_rx_tx * 2 + Dur::nanos(d.per_batch.as_nanos() / 32) + d.poll_port * 2 / 32;
        let mpps = 1e9 / per_pkt.as_nanos() as f64 / 1e6;
        assert!((6.0..=10.0).contains(&mpps), "dpdk mpps {mpps}");
    }

    #[test]
    fn byte_cost_scales_with_frame_size() {
        let c = DatapathCosts::kernel();
        let small = c.packet_cost(&frame(64), true);
        let big = c.packet_cost(&frame(1500), true);
        assert!(big > small);
        assert_eq!(
            (big - small).as_nanos(),
            300 * 1500 / 1000 - 300 * 64 / 1000
        );
    }

    #[test]
    fn slow_path_dominates_misses() {
        let c = DatapathCosts::dpdk();
        assert!(c.packet_cost(&frame(64), false) > c.packet_cost(&frame(64), true) * 10);
    }

    #[test]
    fn for_kind_dispatches() {
        assert_eq!(
            DatapathCosts::for_kind(DatapathKind::Kernel),
            DatapathCosts::kernel()
        );
        assert_eq!(
            DatapathCosts::for_kind(DatapathKind::Dpdk),
            DatapathCosts::dpdk()
        );
    }
}
