//! Flow actions applied by matching rules.

use crate::switch::PortNo;
use crate::table::TableId;
use mts_net::{MacAddr, Vni};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// One action in a rule's action list, executed in order.
///
/// The action set covers what the MTS controller needs (paper Fig. 3 and
/// Sec. 3.2): rewriting destination MACs so the NIC switch delivers frames
/// to the right VF, VLAN push/pop, VXLAN encapsulation for overlay
/// networks, the learning-switch `NORMAL` behaviour, and plain forwarding.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Action {
    /// Emit the frame on a port.
    Output(PortNo),
    /// Emit the frame on every port except the ingress port.
    Flood,
    /// Behave as a learning L2 switch (learn source, forward or flood).
    Normal,
    /// Rewrite the destination MAC (e.g. to a tenant VF's address).
    SetEthDst(MacAddr),
    /// Rewrite the source MAC (e.g. to the gateway's address).
    SetEthSrc(MacAddr),
    /// Push an 802.1Q tag.
    PushVlan(u16),
    /// Pop the 802.1Q tag (no-op if untagged).
    PopVlan,
    /// Decrement the IPv4 TTL; the frame is dropped when it reaches zero.
    DecTtl,
    /// Encapsulate the frame in a VXLAN tunnel to a remote VTEP.
    VxlanEncap {
        /// Tunnel id.
        vni: Vni,
        /// Outer source IPv4 (this VTEP).
        src_ip: Ipv4Addr,
        /// Outer destination IPv4 (remote VTEP).
        dst_ip: Ipv4Addr,
        /// Outer source MAC.
        src_mac: MacAddr,
        /// Outer destination MAC (underlay next hop).
        dst_mac: MacAddr,
    },
    /// Decapsulate a VXLAN frame, exposing the inner frame and recording
    /// the VNI in pipeline metadata for later `tun_id` matches.
    VxlanDecap,
    /// Continue matching in another table.
    GotoTable(TableId),
    /// Drop the frame (explicit; absence of output also drops).
    Drop,
}

impl Action {
    /// Returns whether this action can emit frames.
    pub fn emits(&self) -> bool {
        matches!(self, Action::Output(_) | Action::Flood | Action::Normal)
    }
}

/// Convenience constructor for the common "rewrite dmac, output" pair used
/// by the MTS ingress chain (step 3 of Fig. 3a).
pub fn rewrite_and_output(dmac: MacAddr, port: PortNo) -> Vec<Action> {
    vec![Action::SetEthDst(dmac), Action::Output(port)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Action::Output(PortNo(1)).emits());
        assert!(Action::Flood.emits());
        assert!(Action::Normal.emits());
        assert!(!Action::SetEthDst(MacAddr::local(1)).emits());
        assert!(!Action::GotoTable(TableId(1)).emits());
    }

    #[test]
    fn rewrite_and_output_shape() {
        let acts = rewrite_and_output(MacAddr::local(5), PortNo(2));
        assert_eq!(
            acts,
            vec![
                Action::SetEthDst(MacAddr::local(5)),
                Action::Output(PortNo(2))
            ]
        );
    }
}
