//! VF, VLAN, MAC and IP allocation (paper Sec. 3.2).
//!
//! Two pieces: [`VfBudget`] computes how many VFs a configuration needs
//! (the paper's arithmetic: a basic Level-1 setup with 1 tenant uses 3 VFs,
//! with 4 tenants 9; Level-2 with 2 tenants 6, with 4 tenants 12), and
//! [`AddressPlan`] assigns the concrete VF numbers, MAC addresses, VLAN
//! tags and tenant IP addresses the controller programs.

use crate::spec::{DeploymentSpec, SecurityLevel};
use mts_net::MacAddr;
use mts_nic::{PfId, VfId};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// VF counts for a configuration (per the Sec. 3.2 accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct VfBudget {
    /// VFs for external connectivity (In/Out).
    pub in_out: u32,
    /// Tenant-specific gateway VFs.
    pub gateways: u32,
    /// Tenant VM VFs.
    pub tenant_vms: u32,
}

impl VfBudget {
    /// Computes the budget for `level` with `tenants` tenants and
    /// `ports_per_vf_role` physical ports carrying each role (the paper's
    /// Sec. 3.2 examples use 1; the Sec. 4 testbed uses 2).
    pub fn for_level(level: SecurityLevel, tenants: u32, ports_per_vf_role: u32) -> VfBudget {
        let p = ports_per_vf_role.max(1);
        let compartments = match level {
            SecurityLevel::Baseline => 0, // no VFs needed at all
            SecurityLevel::Level1 => 1,
            SecurityLevel::Level2 { compartments } => u32::from(compartments.max(1)),
        };
        if compartments == 0 {
            return VfBudget {
                in_out: 0,
                gateways: 0,
                tenant_vms: 0,
            };
        }
        VfBudget {
            in_out: compartments * p,
            gateways: tenants * p,
            tenant_vms: tenants * p,
        }
    }

    /// Total VFs.
    pub fn total(&self) -> u32 {
        self.in_out + self.gateways + self.tenant_vms
    }
}

/// A VF on a specific physical function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VfRef {
    /// The physical function (= physical port).
    pub pf: PfId,
    /// The VF number within that PF.
    pub vf: VfId,
}

/// Addressing of one tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantAddr {
    /// Tenant index (0-based).
    pub index: u8,
    /// The tenant's VLAN tag (tenant 0 → VLAN 1, as in Fig. 3).
    pub vlan: u16,
    /// The tenant VM's IP address.
    pub ip: Ipv4Addr,
    /// The default-gateway IP the tenant is configured with.
    pub gw_ip: Ipv4Addr,
    /// The tenant VM's VF and MAC, one per physical port.
    pub vf: Vec<(VfRef, MacAddr)>,
}

/// Addressing of one vswitch compartment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompartmentAddr {
    /// Compartment index (0-based).
    pub index: u8,
    /// In/Out VFs (untagged), one per physical port.
    pub in_out: Vec<(VfRef, MacAddr)>,
    /// Gateway VFs: `(tenant, port) -> (vf, mac)`, tagged with the
    /// tenant's VLAN.
    pub gw: Vec<((u8, u8), (VfRef, MacAddr))>,
}

impl CompartmentAddr {
    /// The gateway VF+MAC for a tenant on a port, if this compartment
    /// serves that tenant.
    pub fn gw_for(&self, tenant: u8, port: u8) -> Option<(VfRef, MacAddr)> {
        self.gw
            .iter()
            .find(|((t, p), _)| *t == tenant && *p == port)
            .map(|(_, v)| *v)
    }
}

/// The full address plan for a deployment.
#[derive(Clone, Debug)]
pub struct AddressPlan {
    /// Number of physical ports (2 in the Sec. 4 testbed).
    pub ports: u8,
    /// Per-tenant addressing.
    pub tenants: Vec<TenantAddr>,
    /// Per-compartment addressing (empty for the Baseline).
    pub compartments: Vec<CompartmentAddr>,
    /// The load generator's MAC (external side of port 0).
    pub lg_mac: MacAddr,
    /// The sink's MAC (external side of port 1).
    pub sink_mac: MacAddr,
    /// The load generator's IP.
    pub lg_ip: Ipv4Addr,
}

/// MAC tag name spaces (`MacAddr::local(tag)`).
const TAG_INOUT: u32 = 0x0100_0000;
const TAG_GW: u32 = 0x0200_0000;
const TAG_TENANT: u32 = 0x0300_0000;
const TAG_EXTERNAL: u32 = 0x0400_0000;

impl AddressPlan {
    /// Builds the plan for a deployment with `ports` physical ports.
    pub fn build(spec: &DeploymentSpec, ports: u8) -> AddressPlan {
        let ports = ports.max(1);
        // Sequential VF allocation per PF.
        let mut next_vf = vec![0u8; ports as usize];
        let mut alloc = |port: u8| {
            let vf = VfId(next_vf[port as usize]);
            next_vf[port as usize] += 1;
            VfRef { pf: PfId(port), vf }
        };

        let compartmentalized = spec.level.compartmentalized();
        let mut compartments = Vec::new();
        let mut tenants = Vec::new();

        if compartmentalized {
            for c in 0..spec.compartments() {
                let in_out = (0..ports)
                    .map(|p| {
                        (
                            alloc(p),
                            MacAddr::local(TAG_INOUT | u32::from(c) << 8 | u32::from(p)),
                        )
                    })
                    .collect();
                let mut gw = Vec::new();
                for t in spec.tenants_of_compartment(c) {
                    for p in 0..ports {
                        gw.push((
                            (t, p),
                            (
                                alloc(p),
                                MacAddr::local(TAG_GW | u32::from(t) << 8 | u32::from(p)),
                            ),
                        ));
                    }
                }
                compartments.push(CompartmentAddr {
                    index: c,
                    in_out,
                    gw,
                });
            }
        }

        for t in 0..spec.tenants {
            let vf = if compartmentalized {
                (0..ports)
                    .map(|p| {
                        (
                            alloc(p),
                            MacAddr::local(TAG_TENANT | u32::from(t) << 8 | u32::from(p)),
                        )
                    })
                    .collect()
            } else {
                // Baseline tenants attach via vhost; still give them MACs.
                (0..ports)
                    .map(|p| {
                        (
                            VfRef {
                                pf: PfId(p),
                                vf: VfId(0xff),
                            },
                            MacAddr::local(TAG_TENANT | u32::from(t) << 8 | u32::from(p)),
                        )
                    })
                    .collect()
            };
            tenants.push(TenantAddr {
                index: t,
                vlan: u16::from(t) + 1,
                ip: Ipv4Addr::new(10, 0, t + 1, 1),
                gw_ip: Ipv4Addr::new(10, 0, t + 1, 254),
                vf,
            });
        }

        AddressPlan {
            ports,
            tenants,
            compartments,
            lg_mac: MacAddr::local(TAG_EXTERNAL),
            sink_mac: MacAddr::local(TAG_EXTERNAL | 1),
            lg_ip: Ipv4Addr::new(10, 255, 0, 1),
        }
    }

    /// Total VFs allocated across all PFs.
    pub fn total_vfs(&self) -> u32 {
        let mut n = 0;
        for c in &self.compartments {
            n += c.in_out.len() as u32 + c.gw.len() as u32;
        }
        if !self.compartments.is_empty() {
            n += self.tenants.iter().map(|t| t.vf.len() as u32).sum::<u32>();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn spec(level: SecurityLevel, tenants: u8) -> DeploymentSpec {
        let mut s = DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        );
        s.tenants = tenants;
        s
    }

    #[test]
    fn paper_vf_counts_level1() {
        // "In a basic Level-1 setup hosting 1 tenant … the total VFs is 3.
        //  Similarly for 4 tenants, the total VFs is 9."
        assert_eq!(VfBudget::for_level(SecurityLevel::Level1, 1, 1).total(), 3);
        assert_eq!(VfBudget::for_level(SecurityLevel::Level1, 4, 1).total(), 9);
    }

    #[test]
    fn paper_vf_counts_level2() {
        // "For a basic Level-2 setup hosting 2 tenants … the total VFs is
        //  6. Similarly for 4 tenants, the total VFs is 12."
        assert_eq!(
            VfBudget::for_level(SecurityLevel::Level2 { compartments: 2 }, 2, 1).total(),
            6
        );
        assert_eq!(
            VfBudget::for_level(SecurityLevel::Level2 { compartments: 4 }, 4, 1).total(),
            12
        );
    }

    #[test]
    fn baseline_needs_no_vfs() {
        assert_eq!(
            VfBudget::for_level(SecurityLevel::Baseline, 4, 2).total(),
            0
        );
    }

    #[test]
    fn dual_port_doubles_the_budget() {
        let single = VfBudget::for_level(SecurityLevel::Level1, 4, 1);
        let dual = VfBudget::for_level(SecurityLevel::Level1, 4, 2);
        assert_eq!(dual.total(), 2 * single.total());
    }

    #[test]
    fn plan_matches_budget() {
        for (level, tenants) in [
            (SecurityLevel::Level1, 4u8),
            (SecurityLevel::Level2 { compartments: 2 }, 4),
            (SecurityLevel::Level2 { compartments: 4 }, 4),
        ] {
            let s = spec(level, tenants);
            let plan = AddressPlan::build(&s, 2);
            let budget = VfBudget::for_level(level, u32::from(tenants), 2);
            assert_eq!(plan.total_vfs(), budget.total(), "{level:?}");
        }
    }

    #[test]
    fn macs_are_unique() {
        let s = spec(SecurityLevel::Level2 { compartments: 4 }, 4);
        let plan = AddressPlan::build(&s, 2);
        let mut macs: Vec<MacAddr> = Vec::new();
        for c in &plan.compartments {
            macs.extend(c.in_out.iter().map(|(_, m)| *m));
            macs.extend(c.gw.iter().map(|(_, (_, m))| *m));
        }
        for t in &plan.tenants {
            macs.extend(t.vf.iter().map(|(_, m)| *m));
        }
        macs.push(plan.lg_mac);
        macs.push(plan.sink_mac);
        let n = macs.len();
        macs.sort();
        macs.dedup();
        assert_eq!(macs.len(), n);
    }

    #[test]
    fn vf_numbers_are_sequential_per_pf() {
        let s = spec(SecurityLevel::Level1, 2);
        let plan = AddressPlan::build(&s, 2);
        let mut per_pf: Vec<Vec<u8>> = vec![Vec::new(), Vec::new()];
        for c in &plan.compartments {
            for (r, _) in &c.in_out {
                per_pf[r.pf.0 as usize].push(r.vf.0);
            }
            for (_, (r, _)) in &c.gw {
                per_pf[r.pf.0 as usize].push(r.vf.0);
            }
        }
        for t in &plan.tenants {
            for (r, _) in &t.vf {
                per_pf[r.pf.0 as usize].push(r.vf.0);
            }
        }
        for pf in per_pf {
            let mut sorted = pf.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), pf.len(), "no duplicate VF ids");
        }
    }

    #[test]
    fn tenant_addressing_is_deterministic() {
        let s = spec(SecurityLevel::Level1, 4);
        let plan = AddressPlan::build(&s, 2);
        assert_eq!(plan.tenants[0].vlan, 1);
        assert_eq!(plan.tenants[3].vlan, 4);
        assert_eq!(plan.tenants[2].ip, Ipv4Addr::new(10, 0, 3, 1));
        assert_eq!(plan.tenants[2].gw_ip, Ipv4Addr::new(10, 0, 3, 254));
    }

    #[test]
    fn compartment_gateway_lookup() {
        let s = spec(SecurityLevel::Level2 { compartments: 2 }, 4);
        let plan = AddressPlan::build(&s, 2);
        // Compartment 0 serves tenants 0 and 2.
        let c0 = &plan.compartments[0];
        assert!(c0.gw_for(0, 0).is_some());
        assert!(c0.gw_for(2, 1).is_some());
        assert!(c0.gw_for(1, 0).is_none());
    }
}
