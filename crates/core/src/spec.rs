//! Deployment specifications: security levels, scenarios, resource modes.

use mts_vswitch::DatapathKind;
use serde::{Deserialize, Serialize};
use std::fmt;

pub use mts_host::ResourceMode;

/// The security levels of Sec. 2.3.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum SecurityLevel {
    /// Per-tenant logical datapaths on a single vswitch co-located with the
    /// host OS (the state of the art the paper measures against).
    Baseline,
    /// One dedicated vswitch VM for all tenants ("single vswitch VM").
    Level1,
    /// Multiple vswitch VMs ("multiple vswitch VMs"), one per security
    /// zone or tenant group.
    Level2 {
        /// Number of vswitch compartments (the paper evaluates 2 and 4).
        compartments: u8,
    },
}

impl SecurityLevel {
    /// Number of vswitch compartments (Baseline and Level-1 have one
    /// datapath; Level-2 has `compartments`).
    pub fn compartments(self) -> u8 {
        match self {
            SecurityLevel::Baseline | SecurityLevel::Level1 => 1,
            SecurityLevel::Level2 { compartments } => compartments.max(1),
        }
    }

    /// Whether the vswitch runs inside dedicated VM compartments.
    pub fn compartmentalized(self) -> bool {
        !matches!(self, SecurityLevel::Baseline)
    }

    /// The short label used in the paper's figures.
    pub fn label(self) -> String {
        match self {
            SecurityLevel::Baseline => "Baseline".to_string(),
            SecurityLevel::Level1 => "L1 (1 vswitch VM)".to_string(),
            SecurityLevel::Level2 { compartments } => {
                format!("L2 ({compartments} vswitch VMs)")
            }
        }
    }
}

impl fmt::Display for SecurityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The three canonical traffic scenarios of Fig. 4.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// Physical-to-physical: vswitch forwards between the two fabric ports.
    P2p,
    /// Physical-to-virtual: via one tenant VM and back out.
    P2v,
    /// Virtual-to-virtual: chained through two tenant VMs (NFV-style).
    V2v,
}

impl Scenario {
    /// All scenarios, in the paper's order.
    pub const ALL: [Scenario; 3] = [Scenario::P2p, Scenario::P2v, Scenario::V2v];

    /// The figure label.
    pub fn label(self) -> &'static str {
        match self {
            Scenario::P2p => "p2p",
            Scenario::P2v => "p2v",
            Scenario::V2v => "v2v",
        }
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A full deployment description for one experiment configuration.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct DeploymentSpec {
    /// Security level.
    pub level: SecurityLevel,
    /// Kernel or DPDK datapath (DPDK = the paper's Level-3, composable
    /// with any level).
    pub datapath: DatapathKind,
    /// Shared or isolated vswitch cores. DPDK forces `Isolated` (a PMD
    /// core cannot be time-shared), as in the paper.
    pub resource_mode: ResourceMode,
    /// Number of tenants (the paper fixes 4).
    pub tenants: u8,
    /// Traffic scenario.
    pub scenario: Scenario,
    /// For the Baseline in isolated/DPDK modes: how many cores the host
    /// vswitch gets ("we allocated cores proportional to the number of
    /// vswitch compartments").
    pub baseline_cores: u8,
}

impl DeploymentSpec {
    /// The paper's default: 4 tenants.
    const DEFAULT_TENANTS: u8 = 4;

    /// A Baseline configuration.
    pub fn baseline(
        datapath: DatapathKind,
        mode: ResourceMode,
        cores: u8,
        scenario: Scenario,
    ) -> Self {
        DeploymentSpec {
            level: SecurityLevel::Baseline,
            datapath,
            resource_mode: Self::clamp_mode(datapath, mode),
            tenants: Self::DEFAULT_TENANTS,
            scenario,
            baseline_cores: cores.max(1),
        }
    }

    /// An MTS configuration at the given level.
    pub fn mts(
        level: SecurityLevel,
        datapath: DatapathKind,
        mode: ResourceMode,
        scenario: Scenario,
    ) -> Self {
        DeploymentSpec {
            level,
            datapath,
            resource_mode: Self::clamp_mode(datapath, mode),
            tenants: Self::DEFAULT_TENANTS,
            scenario,
            baseline_cores: 1,
        }
    }

    fn clamp_mode(datapath: DatapathKind, mode: ResourceMode) -> ResourceMode {
        match datapath {
            // "When DPDK was used in Level-3: one physical core needs to be
            // allocated for each ovs-DPDK compartment, hence, only the
            // isolated mode was used."
            DatapathKind::Dpdk => ResourceMode::Isolated,
            DatapathKind::Kernel => mode,
        }
    }

    /// Number of vswitch compartments (Baseline: 1 co-located vswitch).
    pub fn compartments(&self) -> u8 {
        self.level.compartments()
    }

    /// Number of vswitch cores this deployment uses.
    pub fn vswitch_cores(&self) -> u8 {
        match (self.level, self.resource_mode) {
            (SecurityLevel::Baseline, _) => self.baseline_cores,
            (_, ResourceMode::Shared) => 1,
            (_, ResourceMode::Isolated) => self.compartments(),
        }
    }

    /// Tenants served by compartment `i` (tenants are spread evenly; the
    /// paper: 2 vswitch VMs × 2 tenants, or 4 × 1).
    pub fn tenants_of_compartment(&self, i: u8) -> Vec<u8> {
        let k = self.compartments();
        (0..self.tenants).filter(|t| t % k == i).collect()
    }

    /// Which compartment serves tenant `t`.
    pub fn compartment_of_tenant(&self, t: u8) -> u8 {
        t % self.compartments()
    }

    /// A figure-friendly configuration label.
    pub fn label(&self) -> String {
        let dp = match self.datapath {
            DatapathKind::Kernel => "",
            DatapathKind::Dpdk => "+dpdk",
        };
        match self.level {
            SecurityLevel::Baseline => {
                format!("Baseline({} core){dp}", self.baseline_cores)
            }
            other => format!("{}{dp}", other.label()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compartment_counts() {
        assert_eq!(SecurityLevel::Baseline.compartments(), 1);
        assert_eq!(SecurityLevel::Level1.compartments(), 1);
        assert_eq!(SecurityLevel::Level2 { compartments: 4 }.compartments(), 4);
        assert_eq!(SecurityLevel::Level2 { compartments: 0 }.compartments(), 1);
        assert!(!SecurityLevel::Baseline.compartmentalized());
        assert!(SecurityLevel::Level1.compartmentalized());
    }

    #[test]
    fn dpdk_forces_isolated() {
        let s = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Dpdk,
            ResourceMode::Shared,
            Scenario::P2p,
        );
        assert_eq!(s.resource_mode, ResourceMode::Isolated);
        let k = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2p,
        );
        assert_eq!(k.resource_mode, ResourceMode::Shared);
    }

    #[test]
    fn tenant_spread_matches_the_paper() {
        // 2 vswitch VMs, 4 tenants: 2 tenants each.
        let s = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        );
        assert_eq!(s.tenants_of_compartment(0), vec![0, 2]);
        assert_eq!(s.tenants_of_compartment(1), vec![1, 3]);
        assert_eq!(s.compartment_of_tenant(3), 1);
        // 4 vswitch VMs: 1 tenant each.
        let s4 = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        );
        for t in 0..4 {
            assert_eq!(s4.tenants_of_compartment(t), vec![t]);
        }
    }

    #[test]
    fn vswitch_core_counts() {
        let shared = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2p,
        );
        assert_eq!(shared.vswitch_cores(), 1);
        let iso = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2p,
        );
        assert_eq!(iso.vswitch_cores(), 4);
        let base = DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            2,
            Scenario::P2p,
        );
        assert_eq!(base.vswitch_cores(), 2);
    }

    #[test]
    fn scenario_labels_and_hops() {
        assert_eq!(Scenario::ALL.len(), 3);
        assert_eq!(Scenario::V2v.to_string(), "v2v");
    }
}
