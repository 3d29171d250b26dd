//! Virtual functions and NIC switch ports.

use mts_net::MacAddr;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a virtual function within one physical function.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct VfId(pub u8);

impl fmt::Display for VfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vf{}", self.0)
    }
}

/// A port of the embedded NIC switch, ordered wire, PF, then VFs by id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum NicPort {
    /// The physical fabric port (the wire).
    Wire,
    /// The physical function attached to the host OS.
    Pf,
    /// A virtual function attached to a VM.
    Vf(VfId),
}

impl NicPort {
    /// Returns whether this port is a VF.
    pub fn is_vf(self) -> bool {
        matches!(self, NicPort::Vf(_))
    }
}

impl fmt::Display for NicPort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicPort::Wire => write!(f, "wire"),
            NicPort::Pf => write!(f, "pf"),
            NicPort::Vf(id) => write!(f, "{id}"),
        }
    }
}

/// Host-side configuration of a virtual function.
///
/// Only the PF driver (the host) may mutate this — see
/// [`crate::nic::SriovNic`] for the privilege-checked API.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VfConfig {
    /// The MAC address assigned by the host.
    pub mac: MacAddr,
    /// VST VLAN id: frames from the VF are tagged with it, frames to the VF
    /// have it stripped. `None` means the VF carries untagged traffic.
    pub vlan: Option<u16>,
    /// When set, frames whose source MAC differs from `mac` are dropped at
    /// VF ingress ("source MAC address spoofing prevention must be enabled
    /// on all tenant VMs' VFs", Sec. 3.2).
    pub spoof_check: bool,
    /// Trusted VFs may override their MAC from inside the VM (off for
    /// tenants).
    pub trusted: bool,
}

impl VfConfig {
    /// A tenant-grade config: spoof-checked, untrusted.
    pub fn tenant(mac: MacAddr, vlan: u16) -> Self {
        VfConfig {
            mac,
            vlan: Some(vlan),
            spoof_check: true,
            trusted: false,
        }
    }

    /// An infrastructure-grade config (vswitch In/Out VFs): untagged and
    /// *not* spoof-checked — the vswitch VM forwards frames that carry
    /// tenant/external source MACs (the paper enables spoofing prevention
    /// "on all tenant VMs' VFs" only).
    pub fn infrastructure(mac: MacAddr) -> Self {
        VfConfig {
            mac,
            vlan: None,
            spoof_check: false,
            trusted: false,
        }
    }

    /// A gateway-VF config (vswitch VM side of a tenant VLAN): tagged but
    /// not spoof-checked, for the same reason as [`VfConfig::infrastructure`].
    pub fn gateway(mac: MacAddr, vlan: u16) -> Self {
        VfConfig {
            mac,
            vlan: Some(vlan),
            spoof_check: false,
            trusted: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(VfId(3).to_string(), "vf3");
        assert_eq!(NicPort::Wire.to_string(), "wire");
        assert_eq!(NicPort::Pf.to_string(), "pf");
        assert_eq!(NicPort::Vf(VfId(9)).to_string(), "vf9");
    }

    #[test]
    fn port_classification() {
        assert!(NicPort::Vf(VfId(0)).is_vf());
        assert!(!NicPort::Wire.is_vf());
        assert!(!NicPort::Pf.is_vf());
    }

    #[test]
    fn config_presets() {
        let t = VfConfig::tenant(MacAddr::local(1), 100);
        assert_eq!(t.vlan, Some(100));
        assert!(t.spoof_check);
        assert!(!t.trusted);
        let i = VfConfig::infrastructure(MacAddr::local(2));
        assert_eq!(i.vlan, None);
        assert!(!i.spoof_check);
        let g = VfConfig::gateway(MacAddr::local(3), 7);
        assert_eq!(g.vlan, Some(7));
        assert!(!g.spoof_check);
    }
}
