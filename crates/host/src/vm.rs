//! Virtual machines of the device under test.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a VM on the server.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct VmId(pub u32);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// What a VM is for.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum VmRole {
    /// A vswitch compartment (MTS Level-1/2).
    Vswitch,
    /// A tenant workload VM.
    Tenant {
        /// The tenant this VM belongs to (0-based).
        tenant: u8,
    },
}

/// Sizing of a VM.
///
/// The paper's setup: "each VM (vswitch and tenant) was allocated 4 GB of
/// which 1 GB is reserved as one 1 GB Huge page"; tenant VMs got two
/// physical cores so the forwarding app is never the bottleneck.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct VmSpec {
    /// Number of vCPUs (= pinned physical cores in the evaluation).
    pub vcpus: u32,
    /// Total memory in GB.
    pub mem_gb: u32,
    /// Reserved 1 GB hugepages.
    pub hugepages: u32,
}

impl VmSpec {
    /// The paper's vswitch-VM sizing: 1 vCPU, 4 GB, one 1 GB hugepage.
    fn vswitch_vm() -> Self {
        VmSpec {
            vcpus: 1,
            mem_gb: 4,
            hugepages: 1,
        }
    }

    /// The paper's tenant-VM sizing: 2 vCPUs, 4 GB, one 1 GB hugepage.
    fn tenant_vm() -> Self {
        VmSpec {
            vcpus: 2,
            mem_gb: 4,
            hugepages: 1,
        }
    }
}

/// A VM instance.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vm {
    /// Identifier.
    pub id: VmId,
    /// Human-readable name.
    pub name: String,
    /// Role.
    pub role: VmRole,
    /// Sizing.
    pub spec: VmSpec,
}

impl Vm {
    /// Creates a vswitch compartment VM.
    pub fn vswitch(id: VmId, name: impl Into<String>) -> Self {
        Vm {
            id,
            name: name.into(),
            role: VmRole::Vswitch,
            spec: VmSpec::vswitch_vm(),
        }
    }

    /// Creates a tenant VM.
    pub fn tenant(id: VmId, tenant: u8, name: impl Into<String>) -> Self {
        Vm {
            id,
            name: name.into(),
            role: VmRole::Tenant { tenant },
            spec: VmSpec::tenant_vm(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sizings() {
        let v = Vm::vswitch(VmId(0), "red-vswitch");
        assert_eq!(v.spec.vcpus, 1);
        assert_eq!(v.spec.mem_gb, 4);
        assert_eq!(v.spec.hugepages, 1);
        assert_eq!(v.role, VmRole::Vswitch);
        let t = Vm::tenant(VmId(1), 0, "tenant0");
        assert_eq!(t.spec.vcpus, 2);
        assert_eq!(t.role, VmRole::Tenant { tenant: 0 });
    }

    #[test]
    fn display_ids() {
        assert_eq!(VmId(3).to_string(), "vm3");
    }
}
