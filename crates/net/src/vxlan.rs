//! VXLAN (RFC 7348) identifiers and constants.
//!
//! Advanced multi-tenant cloud systems rely on tunneling protocols such as
//! VXLAN to build L2 virtual networks across servers (paper Sec. 3.2,
//! "System support"). The MTS controller installs flow rules that
//! encapsulate/decapsulate and uses the tunnel id together with the
//! destination IP to identify the tenant VM after decapsulation.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The IANA-assigned VXLAN UDP destination port.
pub const VXLAN_UDP_PORT: u16 = 4789;

/// A 24-bit VXLAN network identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Vni(u32);

impl Vni {
    /// Creates a VNI; the value is masked to 24 bits.
    pub const fn new(v: u32) -> Self {
        Vni(v & 0x00ff_ffff)
    }

    /// Returns the numeric identifier.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Vni {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vni{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vni_is_masked_to_24_bits() {
        assert_eq!(Vni::new(0xffff_ffff).value(), 0x00ff_ffff);
        assert_eq!(Vni::new(42).value(), 42);
    }

    #[test]
    fn vni_ordering_and_display() {
        assert!(Vni::new(1) < Vni::new(2));
        assert_eq!(Vni::new(7).to_string(), "vni7");
    }
}
