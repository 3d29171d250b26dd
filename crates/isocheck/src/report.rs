//! Verdict types and their rendering.

use crate::header::ConcreteHeader;
use std::fmt;

/// An isolation or complete-mediation breach, backed by a witness.
#[derive(Clone, Debug)]
pub struct Violation {
    /// What was breached.
    pub kind: ViolationKind,
    /// The source whose analysis found it (e.g. `tenant 0`, `wire pf1`).
    pub source: String,
    /// A concrete counterexample, when one could be constructed.
    pub witness: Option<Witness>,
}

/// The kinds of breach the analysis distinguishes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum ViolationKind {
    /// One tenant's frames reach another tenant's VM without vswitch
    /// mediation.
    CrossTenantReach {
        /// Sending tenant.
        attacker: u8,
        /// Receiving tenant.
        victim: u8,
    },
    /// A tenant's frames reach one of its *own* VMs directly through the
    /// NIC, bypassing the vswitch (complete mediation requires all
    /// VM-to-VM traffic to pass it).
    UnmediatedPeerReach {
        /// The tenant.
        tenant: u8,
    },
    /// Unicast tenant traffic leaves on the physical wire outside the
    /// tenant's own VST VLAN without vswitch mediation.
    UnmediatedEgress {
        /// The tenant.
        tenant: u8,
    },
    /// External wire traffic reaches a tenant VM without vswitch
    /// mediation.
    UnmediatedIngress {
        /// The tenant reached.
        tenant: u8,
    },
    /// Tenant traffic reaches the host OS through the PF.
    HostReach {
        /// The tenant.
        tenant: u8,
    },
    /// A tenant can emit frames whose source MAC is not one of its own
    /// (anti-spoofing gap).
    SpoofableSource {
        /// The tenant.
        tenant: u8,
    },
    /// A tenant VF's VEB filters admit traffic beyond the MTS policy
    /// envelope (gateway MACs + broadcast).
    EnvelopeBreach {
        /// The tenant.
        tenant: u8,
    },
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::CrossTenantReach { attacker, victim } => write!(
                f,
                "cross-tenant reach: tenant {attacker} -> tenant {victim} without mediation"
            ),
            ViolationKind::UnmediatedPeerReach { tenant } => write!(
                f,
                "unmediated peer reach: tenant {tenant} VM-to-VM traffic bypasses the vswitch"
            ),
            ViolationKind::UnmediatedEgress { tenant } => write!(
                f,
                "unmediated egress: tenant {tenant} unicast escapes to the wire outside its VLAN"
            ),
            ViolationKind::UnmediatedIngress { tenant } => write!(
                f,
                "unmediated ingress: wire traffic reaches tenant {tenant} without mediation"
            ),
            ViolationKind::HostReach { tenant } => {
                write!(f, "host reach: tenant {tenant} traffic reaches the host OS")
            }
            ViolationKind::SpoofableSource { tenant } => write!(
                f,
                "spoofable source: tenant {tenant} can emit foreign source MACs"
            ),
            ViolationKind::EnvelopeBreach { tenant } => write!(
                f,
                "envelope breach: tenant {tenant} VF admits traffic beyond gateway+broadcast"
            ),
        }
    }
}

/// A replay-validated counterexample.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The header injected at the source.
    pub injected: ConcreteHeader,
    /// The (possibly rewritten) header observed at the violating location.
    pub observed: ConcreteHeader,
    /// The hop-by-hop path from source to violation.
    pub path: Vec<String>,
}

impl fmt::Display for Witness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "      inject : {}", self.injected)?;
        writeln!(f, "      observe: {}", self.observed)?;
        for (i, hop) in self.path.iter().enumerate() {
            writeln!(f, "      [{i}] {hop}")?;
        }
        Ok(())
    }
}

/// Non-fatal findings: dead or shadowed rules, unreachable VFs, model
/// notes.
#[derive(Clone, Debug)]
pub struct Warning {
    /// Category.
    pub kind: WarningKind,
    /// Human-readable description.
    pub detail: String,
    /// A representative header, where meaningful (e.g. the class a
    /// shadowing rule steals).
    pub witness: Option<ConcreteHeader>,
}

/// Warning categories.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum WarningKind {
    /// A flow rule no analyzed traffic can ever match.
    DeadFlowRule,
    /// A flow rule completely covered by an earlier-precedence rule.
    ShadowedFlowRule,
    /// A NIC security filter no analyzed traffic can ever match.
    DeadNicFilter,
    /// A NIC security filter completely covered by an earlier one.
    ShadowedNicFilter,
    /// A configured VF that no analyzed frame is ever delivered to.
    UnreachableVf,
    /// A modelling note (over-approximations, truncated tunnels).
    ModelNote,
}

impl fmt::Display for WarningKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WarningKind::DeadFlowRule => "dead flow rule",
            WarningKind::ShadowedFlowRule => "shadowed flow rule",
            WarningKind::DeadNicFilter => "dead NIC filter",
            WarningKind::ShadowedNicFilter => "shadowed NIC filter",
            WarningKind::UnreachableVf => "unreachable VF",
            WarningKind::ModelNote => "model note",
        };
        f.write_str(s)
    }
}

/// Size figures for the analysis run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Sources analyzed (tenants + wire ports).
    pub sources: usize,
    /// Distinct locations reached across all sources.
    pub locations: usize,
    /// MAC atoms in the domain.
    pub mac_atoms: usize,
    /// VLAN atoms in the domain.
    pub vlan_atoms: usize,
    /// IPv4 interval atoms in the domain.
    pub ip_atoms: usize,
    /// Flow rules across all vswitch tables.
    pub flow_rules: usize,
    /// NIC security filters across all PFs.
    pub nic_filters: usize,
}

/// The result of statically verifying one deployment.
#[derive(Clone, Debug)]
pub struct VerifyReport {
    /// Deployment label.
    pub label: String,
    /// True for Baseline deployments, where the isolation verdicts do not
    /// apply (no NIC-level tenant isolation exists to verify).
    pub informational: bool,
    /// Isolation/mediation breaches found.
    pub violations: Vec<Violation>,
    /// Non-fatal findings.
    pub warnings: Vec<Warning>,
    /// Analysis size figures.
    pub stats: Stats,
}

impl VerifyReport {
    /// True when no violations were found (warnings do not count).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== isocheck: {}", self.label)?;
        let verdict = if self.informational {
            "INFO (baseline: no static isolation to verify)"
        } else if self.is_clean() {
            "PASS (isolation and complete mediation hold)"
        } else {
            "FAIL"
        };
        writeln!(f, "   verdict: {verdict}")?;
        writeln!(
            f,
            "   domain: {} MAC / {} VLAN / {} IPv4 atoms; {} flow rules, {} NIC \
                 filters, {} sources, {} locations",
            self.stats.mac_atoms,
            self.stats.vlan_atoms,
            self.stats.ip_atoms,
            self.stats.flow_rules,
            self.stats.nic_filters,
            self.stats.sources,
            self.stats.locations
        )?;
        for v in &self.violations {
            writeln!(f, "   VIOLATION [{}]: {}", v.source, v.kind)?;
            if let Some(w) = &v.witness {
                write!(f, "{w}")?;
            }
        }
        for w in &self.warnings {
            writeln!(f, "   warning ({}): {}", w.kind, w.detail)?;
            if let Some(h) = &w.witness {
                writeln!(f, "      example: {h}")?;
            }
        }
        Ok(())
    }
}
