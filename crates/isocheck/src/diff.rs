//! Cross-level differential reachability: what hardening *changed*.
//!
//! The per-deployment verdicts of [`crate::verify`] say whether one
//! configuration is safe. This module answers the complementary question:
//! between a Baseline deployment and its hardened (Level-1 / Level-2)
//! counterpart, which communication paths were cut and which appeared?
//! Every divergence is classified:
//!
//! * [`DivergenceKind::HardenedOk`] — an *expected* consequence of the
//!   hardened architecture: a cut cross-tenant or host path, the VF-based
//!   tenant egress the hardened plans add, or a controller-installed
//!   (vswitch-mediated) service flow.
//! * [`DivergenceKind::RegressionLost`] — legitimate tenant↔wire
//!   connectivity that the hardened level no longer provides.
//! * [`DivergenceKind::RegressionGained`] — exposure the hardened level
//!   added that Baseline did not have: an *unmediated* path delivering to
//!   a tenant that no vswitch ever sees.
//!
//! Reachability is compared at the *endpoint-pair* level: `(source
//! endpoint, delivery endpoint)` existence, with the mediated flag and the
//! physical port collapsed. The collapse matters — Baseline delivers
//! wire→tenant through the co-located vswitch (mediated) while Level-2
//! delivers it through VEB VLAN confinement (unmediated by design); both
//! are the same *connectivity* fact, and only connectivity is compared
//! here. Mediation policy is the per-deployment verifier's job.

use crate::engine::{fixed_point, seeds, Loc, Reach, Scratch, Source};
use crate::header::DomainOverflow;
use crate::model::{Collector, Model};
use mts_core::controller::{Deployment, PortAttach};
use std::collections::BTreeMap;
use std::fmt;

/// One end of a communication path, physical-port-collapsed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Endpoint {
    /// A tenant's VMs (behind VFs, or behind vhost channels in Baseline).
    Tenant(u8),
    /// The host OS (PF delivery).
    Host,
    /// The external fabric, over any physical port.
    Wire,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tenant(t) => write!(f, "tenant {t}"),
            Endpoint::Host => write!(f, "host"),
            Endpoint::Wire => write!(f, "wire"),
        }
    }
}

/// How a reachability divergence between two levels is judged.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum DivergenceKind {
    /// An expected consequence of the hardened architecture (a cut
    /// isolation-violating path, added VF egress, or a mediated
    /// controller-installed flow).
    HardenedOk,
    /// Legitimate connectivity the hardened level lost.
    RegressionLost,
    /// Unmediated exposure the hardened level gained.
    RegressionGained,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DivergenceKind::HardenedOk => write!(f, "hardened-ok"),
            DivergenceKind::RegressionLost => write!(f, "REGRESSION-LOST"),
            DivergenceKind::RegressionGained => write!(f, "REGRESSION-GAINED"),
        }
    }
}

/// One endpoint pair present in exactly one of the two levels.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Sending endpoint.
    pub src: Endpoint,
    /// Delivery endpoint.
    pub dst: Endpoint,
    /// The verdict.
    pub kind: DivergenceKind,
}

/// The differential-reachability comparison of two deployments.
#[derive(Clone, Debug)]
pub struct LevelDiff {
    /// Label of the baseline deployment.
    pub base_label: String,
    /// Label of the hardened deployment.
    pub level_label: String,
    /// Endpoint pairs present in both.
    pub shared: usize,
    /// Pairs present in exactly one, classified.
    pub divergences: Vec<Divergence>,
}

impl LevelDiff {
    /// Number of divergences the hardening is expected to produce.
    fn hardened(&self) -> usize {
        self.divergences
            .iter()
            .filter(|d| d.kind == DivergenceKind::HardenedOk)
            .count()
    }

    /// Number of lost-or-gained regressions.
    fn regressions(&self) -> usize {
        self.divergences
            .iter()
            .filter(|d| d.kind != DivergenceKind::HardenedOk)
            .count()
    }

    /// Whether every divergence is an expected hardening effect.
    pub fn is_clean(&self) -> bool {
        self.regressions() == 0
    }
}

impl fmt::Display for LevelDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} vs {}: {} shared pair(s), {} hardened, {} regression(s)",
            self.base_label,
            self.level_label,
            self.shared,
            self.hardened(),
            self.regressions()
        )?;
        for d in &self.divergences {
            writeln!(f, "  [{}] {} -> {}", d.kind, d.src, d.dst)?;
        }
        Ok(())
    }
}

/// Extracts the endpoint-pair reachability relation of a model.
///
/// In compartmentalized deployments tenants inject at their VFs (the
/// per-deployment verifier's seeds); in Baseline — where the address plan
/// still allocates VFs but the VMs actually sit behind vhost channels of
/// the co-located vswitch — tenants inject at their vhost-attached vswitch
/// ports. The wire injects untagged on every physical port. Self-delivery
/// pairs are dropped: `(a, a)` holds for every working deployment and
/// carries no comparative signal.
fn reach_pairs(m: &Model) -> BTreeMap<(Endpoint, Endpoint), bool> {
    let mut out = BTreeMap::new();
    let mut col = Collector::default();
    let mut reach = Reach::new();
    let mut sc = Scratch::default();
    for ti in &m.tenants {
        if m.compartmentalized {
            let seed_list = seeds(m, Source::Tenant(ti.index));
            fixed_point(m, seed_list, &mut col, &mut reach, &mut sc);
        } else {
            let full = m.dom.full_cube();
            let seed_list = m.vswitches.iter().enumerate().flat_map(|(i, vs)| {
                vs.attach
                    .iter()
                    .filter(|(_, a)| matches!(a, PortAttach::Vhost(t, _) if *t == ti.index))
                    .map(move |(port, _)| {
                        (
                            Loc::VsIn {
                                inst: i,
                                port: *port,
                            },
                            full,
                        )
                    })
            });
            fixed_point(m, seed_list, &mut col, &mut reach, &mut sc);
        }
        collect_pairs(Endpoint::Tenant(ti.index), &reach, &mut out);
    }
    for p in 0..m.pfs.len() {
        let pf = u8::try_from(p).unwrap_or(u8::MAX);
        fixed_point(
            m,
            seeds(m, Source::External(pf)),
            &mut col,
            &mut reach,
            &mut sc,
        );
        collect_pairs(Endpoint::Wire, &reach, &mut out);
    }
    out
}

/// Records each delivered pair, OR-ing in whether some delivery happened
/// *unmediated* (a path that never traversed a vswitch pipeline).
fn collect_pairs(src: Endpoint, reach: &Reach, out: &mut BTreeMap<(Endpoint, Endpoint), bool>) {
    for ((loc, mediated), hs) in reach {
        if hs.is_empty() {
            continue;
        }
        let dst = match loc {
            Loc::TenantRx { tenant, .. } | Loc::VhostRx { tenant, .. } => Endpoint::Tenant(*tenant),
            Loc::HostRx { .. } => Endpoint::Host,
            Loc::WireTx { .. } => Endpoint::Wire,
            Loc::NicIn { .. } | Loc::VsIn { .. } => continue,
        };
        if src == dst {
            continue;
        }
        let unmediated = out.entry((src, dst)).or_insert(false);
        *unmediated |= !mediated;
    }
}

/// A path Baseline had and the hardened level cut.
fn classify_lost(src: Endpoint, dst: Endpoint) -> DivergenceKind {
    match (src, dst) {
        // Host unreachability and cross-tenant cuts are the hardening's
        // stated goals (and Baseline's Host endpoint is structural: the
        // host *is* the vswitch host there).
        (_, Endpoint::Host) => DivergenceKind::HardenedOk,
        (Endpoint::Tenant(_), Endpoint::Tenant(_)) => DivergenceKind::HardenedOk,
        // Losing tenant<->wire connectivity breaks the service.
        _ => DivergenceKind::RegressionLost,
    }
}

/// A path the hardened level has and Baseline did not. `unmediated` is
/// whether the hardened level delivers it on some vswitch-free path.
fn classify_gained(src: Endpoint, dst: Endpoint, unmediated: bool) -> DivergenceKind {
    match (src, dst) {
        // Baseline folds the host into the co-located vswitch (PF delivery
        // feeds the vswitch, never the host OS), so a Host pair appearing
        // under compartmentalization is a modelling-structure difference,
        // not new exposure.
        (_, Endpoint::Host) => DivergenceKind::HardenedOk,
        // The hardened plans give every tenant VF-based egress even in
        // scenarios whose Baseline leaves tenants unattached — added
        // availability, not exposure.
        (Endpoint::Tenant(_), Endpoint::Wire) => DivergenceKind::HardenedOk,
        // Delivery *to* a tenant that Baseline didn't have: fine while the
        // controller mediates every such path (an installed service flow,
        // e.g. v2v re-pairing across compartments); an unmediated one is
        // VEB-level exposure the vswitch never sees.
        _ if unmediated => DivergenceKind::RegressionGained,
        _ => DivergenceKind::HardenedOk,
    }
}

/// Compares endpoint-pair reachability of two models, Baseline first.
fn diff_models(base: &Model, hardened: &Model) -> LevelDiff {
    let b = reach_pairs(base);
    let h = reach_pairs(hardened);
    let mut divergences = Vec::new();
    for (src, dst) in b.keys().filter(|k| !h.contains_key(*k)) {
        divergences.push(Divergence {
            src: *src,
            dst: *dst,
            kind: classify_lost(*src, *dst),
        });
    }
    for ((src, dst), unmediated) in h.iter().filter(|(k, _)| !b.contains_key(*k)) {
        divergences.push(Divergence {
            src: *src,
            dst: *dst,
            kind: classify_gained(*src, *dst, *unmediated),
        });
    }
    LevelDiff {
        base_label: base.label.clone(),
        level_label: hardened.label.clone(),
        shared: b.keys().filter(|k| h.contains_key(*k)).count(),
        divergences,
    }
}

/// Compares two built deployments (Baseline first).
pub fn diff_levels(base: &Deployment, hardened: &Deployment) -> Result<LevelDiff, DomainOverflow> {
    Ok(diff_models(&Model::of(base)?, &Model::of(hardened)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_core::{Controller, ResourceMode};
    use mts_vswitch::DatapathKind;

    fn deploy(level: SecurityLevel) -> Deployment {
        let spec = DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        );
        Controller::deploy(spec).unwrap()
    }

    #[test]
    fn baseline_vs_level2_hardens_without_regressions() {
        let base = deploy(SecurityLevel::Baseline);
        let hard = deploy(SecurityLevel::Level2 { compartments: 2 });
        let diff = diff_levels(&base, &hard).unwrap();
        assert!(diff.is_clean(), "unexpected regressions:\n{diff}");
        assert!(diff.shared > 0, "levels must share tenant<->wire paths");
    }

    #[test]
    fn vlan_reuse_shows_up_as_gained_regression() {
        let base = deploy(SecurityLevel::Baseline);
        let mut hard = deploy(SecurityLevel::Level2 { compartments: 2 });
        crate::Misconfig::VlanReuse.seed(&mut hard).unwrap();
        let diff = diff_levels(&base, &hard).unwrap();
        assert!(
            diff.divergences
                .iter()
                .any(|d| d.kind == DivergenceKind::RegressionGained
                    && matches!((d.src, d.dst), (Endpoint::Tenant(_), Endpoint::Tenant(_)))),
            "VLAN reuse must surface as an unmediated cross-tenant gain:\n{diff}"
        );
    }

    #[test]
    fn identical_levels_have_no_divergence() {
        let a = deploy(SecurityLevel::Level1);
        let b = deploy(SecurityLevel::Level1);
        let diff = diff_levels(&a, &b).unwrap();
        assert!(diff.divergences.is_empty(), "{diff}");
    }
}
