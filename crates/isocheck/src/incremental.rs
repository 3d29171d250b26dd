//! Delta-driven incremental verification.
//!
//! [`IncrementalChecker`] keeps the full per-source fixed-point analysis of
//! [`crate::engine`] *live* across a stream of [`ConfigDelta`]s (the typed
//! configuration-change events `mts-core`'s reconciliation, supervisor and
//! fault-injection paths emit). Instead of re-extracting the model and
//! re-running every source after each change, it:
//!
//! 1. **Maintains the model in place** — each delta is applied to the
//!    cached [`Model`] with mutations that mirror the live switch
//!    semantics exactly (`PfSwitch` static-table keying, VF-register
//!    survival across VEB flushes, `FlowTable`'s stable priority-descending
//!    insertion), so the maintained model stays equal to what
//!    [`Model::of_world`] builds from the mutated world's devices.
//! 2. **Marks only the affected cone dirty** — a source is marked for
//!    recomputation only if its cached reach can observe the change:
//!    NIC-side deltas affect sources whose reach enters that PF's VEB;
//!    vswitch rule deltas affect sources whose headers arriving at that
//!    vswitch intersect the rule's match cube (NetPlumber-style dependency
//!    pruning). A source whose frames never meet the changed element has a
//!    fixed point that is, provably, also a fixed point of the updated
//!    transfer — its cached analysis is reused verbatim.
//! 3. **Defers recomputation and atom revalidation to [`report`]** — a
//!    burst of deltas (a crash recovery reinstalling a pipeline, say)
//!    costs one affectedness scan per delta, and each dirty source is
//!    re-run once when the verdict is next demanded, not once per delta.
//!    At that point the atomization is re-derived
//!    ([`Model::derive_domains`], a value scan into a reused builder,
//!    compared against the current atoms in place); if any atom changed,
//!    every cached symbolic set is invalid and all sources recompute
//!    ("full rebuild"). Affectedness tests between flushes run against the
//!    possibly-stale atomization, which on its own is *not* sound: a MAC or
//!    VLAN the stale atomization does not name gets bit 0 (an empty cube),
//!    not the "other" atom, so a rule naming one intersects nothing and
//!    dirties no source. Soundness comes from the flush: a value new to the
//!    configuration changes the atomization, and the atom comparison then
//!    forces the full rebuild.
//! 4. **Reuses its storage** — a recomputed source refills its own reach
//!    sets and collector in place, and the fixed point, the witness search,
//!    the envelope check and report assembly run on scratch the checker
//!    owns, so a delta allocates its report and little else.
//!
//! The equivalence contract is *byte-identity*: whenever the verdict is
//! demanded, the rendered [`VerifyReport`] from
//! [`IncrementalChecker::report`] equals the report a from-scratch
//! [`crate::verify_world`] produces on the same state. The property-based
//! suite in `tests/incremental_equiv.rs` checks this after each delta of
//! randomized streams; `repro verify` checks it on every shipped
//! deployment and misconfiguration control.
//!
//! [`report`]: IncrementalChecker::report

use crate::engine::{analyze_source, assemble, source_list, Loc, Scratch, Source, SourceAnalysis};
use crate::header::{Cube, DomainOverflow, DomainsBuilder};
use crate::model::{Collector, Model};
use crate::report::VerifyReport;
use mts_core::controller::Deployment;
use mts_core::delta::ConfigDelta;
use mts_core::runtime::World;
use mts_core::vfplan::AddressPlan;
use mts_net::MacAddr;
use mts_nic::{NicPort, VfId};
use mts_vswitch::table::FlowStats;

/// Work counters the checker accumulates, for benchmarking and for the
/// fault panels' re-verification accounting.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrStats {
    /// Deltas applied via [`IncrementalChecker::apply`].
    pub deltas_applied: u64,
    /// Per-source fixed-point recomputations performed.
    pub sources_recomputed: u64,
    /// Source recomputations avoided by dependency pruning.
    pub sources_skipped: u64,
    /// Deltas that changed the header-field atomization and forced every
    /// source to recompute.
    pub full_rebuilds: u64,
}

/// What part of the dataplane a delta touched, for dependency pruning.
enum Touch {
    /// Nothing analysis-relevant (vswitch up/down, no-op removals).
    Nothing,
    /// PF `pf`'s VEB state (filters, statics, VF configs).
    Pf(u8),
    /// Vswitch `inst`'s whole pipeline (wipe).
    Vswitch(usize),
    /// One rule of vswitch `inst`; carries the rule's match cube so the
    /// affected check can intersect it with each source's arriving headers.
    VswitchRule(usize, Cube),
}

/// The incremental verifier: a maintained model plus cached per-source
/// analyses, updated delta by delta.
pub struct IncrementalChecker {
    model: Model,
    plan: AddressPlan,
    sources: Vec<Source>,
    states: Vec<SourceAnalysis>,
    /// Sources whose cached analysis is stale and recomputes at the next
    /// flush.
    dirty: Vec<bool>,
    /// Whether any model mutation since the last flush requires the
    /// atomization to be re-derived and compared.
    atoms_pending: bool,
    stats: IncrStats,
    /// The re-derived atom values, compared against the model's atoms.
    builder: DomainsBuilder,
    scratch: Scratch,
}

impl IncrementalChecker {
    /// Builds the checker from a deploy-time snapshot.
    pub fn of_deployment(d: &Deployment) -> Result<Self, DomainOverflow> {
        Ok(Self::from_model(Model::of(d)?, d.plan.clone()))
    }

    /// Builds the checker from the live state of a runtime world. Drain
    /// `World::deltas` from this point on and feed each event to
    /// [`IncrementalChecker::apply`] to keep the verdict current.
    pub fn of_world(w: &World) -> Result<Self, DomainOverflow> {
        Ok(Self::from_model(Model::of_world(w)?, w.plan.clone()))
    }

    /// Builds the checker from a world's intent ([`Model::of_intent`]):
    /// the verdict the controller's desired config earns, whatever the
    /// devices hold. Replaying the world's deltas since it was built then
    /// yields the verdict on its devices.
    pub fn of_intent(w: &World) -> Result<Self, DomainOverflow> {
        Ok(Self::from_model(Model::of_intent(w)?, w.plan.clone()))
    }

    fn from_model(model: Model, plan: AddressPlan) -> Self {
        let sources = source_list(&model);
        let mut scratch = Scratch::default();
        let states: Vec<SourceAnalysis> = sources
            .iter()
            .map(|s| {
                let mut st = SourceAnalysis::default();
                analyze_source(&model, *s, &mut st, &mut scratch);
                st
            })
            .collect();
        let dirty = vec![false; states.len()];
        IncrementalChecker {
            model,
            plan,
            sources,
            states,
            dirty,
            atoms_pending: false,
            stats: IncrStats::default(),
            builder: DomainsBuilder::default(),
            scratch,
        }
    }

    /// The maintained model (for inspection and tests).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Accumulated work counters.
    pub fn stats(&self) -> IncrStats {
        self.stats
    }

    /// Applies one configuration delta: mutates the maintained model and
    /// marks exactly the sources the change can affect for recomputation
    /// at the next [`IncrementalChecker::report`]. Returns how many
    /// sources were newly marked dirty.
    pub fn apply(&mut self, d: &ConfigDelta) -> usize {
        self.stats.deltas_applied += 1;
        let touch = self.mutate(d);
        if matches!(touch, Touch::Nothing) {
            return 0;
        }
        self.atoms_pending = true;
        let mut newly_dirty = 0usize;
        for i in 0..self.sources.len() {
            if self.dirty[i] {
                continue;
            }
            if self.affected(&self.states[i], &touch) {
                self.dirty[i] = true;
                newly_dirty += 1;
            } else {
                self.stats.sources_skipped += 1;
            }
        }
        newly_dirty
    }

    /// Flushes pending work — re-derives the atomization if any mutation
    /// is outstanding (a changed atom set invalidates every cached
    /// symbolic set and forces a full rebuild), then recomputes the dirty
    /// sources — and assembles the verdict from the per-source analyses.
    /// The result is byte-identical to a from-scratch verification of the
    /// same state.
    ///
    /// Errors only if the mutated configuration references more values
    /// than the header-space domains can atomize — the same condition
    /// under which a from-scratch verification would fail.
    pub fn report(&mut self) -> Result<VerifyReport, DomainOverflow> {
        self.flush()?;
        Ok(assemble(&self.model, &self.states, &mut self.scratch))
    }

    fn flush(&mut self) -> Result<(), DomainOverflow> {
        if self.atoms_pending {
            self.atoms_pending = false;
            self.model.derive_domains(&self.plan, &mut self.builder);
            if !self.builder.same_atoms(&self.model.dom) {
                self.model.dom = self.builder.build()?;
                self.stats.full_rebuilds += 1;
                self.dirty.iter_mut().for_each(|d| *d = true);
            }
        }
        for i in 0..self.sources.len() {
            if self.dirty[i] {
                let source = self.sources[i];
                analyze_source(&self.model, source, &mut self.states[i], &mut self.scratch);
                self.stats.sources_recomputed += 1;
                self.dirty[i] = false;
            }
        }
        Ok(())
    }

    /// Whether a cached source analysis can observe the touched element.
    ///
    /// Soundness: a source's reach sets are the least fixed point of its
    /// transfer functions from its seeds. If the touched element is never
    /// met by any header in the cached reach, the updated transfer agrees
    /// with the old one on every reached class, so the cached fixed point
    /// is also the updated least fixed point (seeds are unchanged — they
    /// derive from the immutable address plan).
    ///
    /// Reach entries left empty by a recomputation count as absent.
    fn affected(&self, state: &SourceAnalysis, touch: &Touch) -> bool {
        let reaches = |at: &dyn Fn(&Loc) -> bool| {
            state
                .reach
                .iter()
                .any(|((loc, _), hs)| at(loc) && !hs.is_empty())
        };
        match touch {
            Touch::Nothing => false,
            Touch::Pf(p) => reaches(&|loc| matches!(loc, Loc::NicIn { pf, .. } if pf == p)),
            Touch::Vswitch(i) => reaches(&|loc| matches!(loc, Loc::VsIn { inst, .. } if inst == i)),
            Touch::VswitchRule(i, cube) => {
                // The rule only alters the pipeline's behavior on headers
                // that can match it; in_port and table placement only
                // narrow that further, so intersecting the (over-approx)
                // match cube with everything this source delivers into the
                // vswitch is a sound affectedness test.
                state.reach.iter().any(|((loc, _), hs)| {
                    matches!(loc, Loc::VsIn { inst, .. } if inst == i) && hs.intersects(cube)
                })
            }
        }
    }

    /// Applies the delta to the maintained model, mirroring the live
    /// dataplane's mutation semantics exactly.
    fn mutate(&mut self, d: &ConfigDelta) -> Touch {
        match d {
            ConfigDelta::RuleInstalled {
                vswitch,
                table,
                rule,
            } => {
                let (cube, _) = self.model.match_cube(&rule.m);
                let Some(vs) = self.model.vswitches.get_mut(*vswitch) else {
                    return Touch::Nothing;
                };
                let t = usize::from(*table);
                if vs.tables.len() <= t {
                    vs.tables.resize_with(t + 1, Vec::new);
                }
                // `FlowTable::add`: stable priority-descending insertion.
                // `dump_rules` (the extraction source) zeroes statistics.
                let mut r = rule.clone();
                r.stats = FlowStats::default();
                let pos = vs.tables[t].partition_point(|x| x.priority >= r.priority);
                vs.tables[t].insert(pos, r);
                // Cached coverage facts index rules by table position;
                // shift the skipped sources' hits past the insertion point.
                for st in &mut self.states {
                    remap_rule_hits(&mut st.col, *vswitch, *table, |idx| {
                        if idx >= pos {
                            Some(idx + 1)
                        } else {
                            Some(idx)
                        }
                    });
                }
                Touch::VswitchRule(*vswitch, cube)
            }
            ConfigDelta::RuleRemoved {
                vswitch,
                table,
                rule,
            } => {
                // The removed rule's match equals `rule.m`.
                let (cube, _) = self.model.match_cube(&rule.m);
                let Some(vs) = self.model.vswitches.get_mut(*vswitch) else {
                    return Touch::Nothing;
                };
                let t = usize::from(*table);
                let Some(rules) = vs.tables.get_mut(t) else {
                    return Touch::Nothing;
                };
                // `VirtualSwitch::remove_rule`: the first rule with the
                // same configuration.
                let Some(pos) = rules.iter().position(|x| x.same_config(rule)) else {
                    return Touch::Nothing;
                };
                rules.remove(pos);
                // Extraction sizes the table vector to the last non-empty
                // table; keep the maintained model in the same shape.
                while vs.tables.last().is_some_and(Vec::is_empty) {
                    vs.tables.pop();
                }
                for st in &mut self.states {
                    remap_rule_hits(&mut st.col, *vswitch, *table, |idx| match idx {
                        i if i < pos => Some(i),
                        i if i == pos => None,
                        i => Some(i - 1),
                    });
                }
                Touch::VswitchRule(*vswitch, cube)
            }
            ConfigDelta::RulesWiped { vswitch } => {
                let Some(vs) = self.model.vswitches.get_mut(*vswitch) else {
                    return Touch::Nothing;
                };
                if vs.tables.iter().all(Vec::is_empty) {
                    vs.tables = Vec::new();
                    return Touch::Nothing;
                }
                vs.tables = Vec::new();
                for st in &mut self.states {
                    st.col.rule_hits.retain(|(i, _, _)| i != vswitch);
                }
                Touch::Vswitch(*vswitch)
            }
            ConfigDelta::FiltersSet { pf, filters } => {
                let Some(pfm) = self.model.pfs.get_mut(usize::from(*pf)) else {
                    return Touch::Nothing;
                };
                // Evaluation order: stable priority-descending over the
                // installation order, keeping original indices.
                pfm.filters.clear();
                pfm.filters.extend(filters.iter().cloned().enumerate());
                pfm.filters
                    .sort_by_key(|(_, r)| std::cmp::Reverse(r.priority));
                for st in &mut self.states {
                    st.col.filter_hits.retain(|(p, _)| p != pf);
                }
                Touch::Pf(*pf)
            }
            ConfigDelta::StaticInstalled {
                pf,
                vlan,
                mac,
                port,
            } => {
                let Some(pfm) = self.model.pfs.get_mut(usize::from(*pf)) else {
                    return Touch::Nothing;
                };
                // The VEB's table is keyed by (vlan, mac): inserting
                // replaces whatever the key held.
                upsert_static(&mut pfm.statics, *vlan, *mac, *port);
                Touch::Pf(*pf)
            }
            ConfigDelta::StaticRemoved { pf, vlan, mac } => {
                let Some(pfm) = self.model.pfs.get_mut(usize::from(*pf)) else {
                    return Touch::Nothing;
                };
                let before = pfm.statics.len();
                pfm.statics
                    .retain(|(v, m, _)| !(v == vlan && m.as_u64() == mac.as_u64()));
                if pfm.statics.len() == before {
                    return Touch::Nothing;
                }
                Touch::Pf(*pf)
            }
            ConfigDelta::VebFlushed { pf } => {
                let Some(pfm) = self.model.pfs.get_mut(usize::from(*pf)) else {
                    return Touch::Nothing;
                };
                // A flush drops every operator-provisioned static; entries
                // derived from VF registers are re-populated by the
                // hardware. Later VF ids win colliding (vlan, mac) keys,
                // matching ascending-id reinsertion into the keyed table.
                pfm.statics.clear();
                for (id, cfg) in &pfm.vfs {
                    upsert_static(
                        &mut pfm.statics,
                        cfg.vlan.unwrap_or(0),
                        cfg.mac,
                        NicPort::Vf(VfId(*id)),
                    );
                }
                Touch::Pf(*pf)
            }
            ConfigDelta::VfConfigured { pf, vf, cfg } => {
                let Some(pfm) = self.model.pfs.get_mut(usize::from(*pf)) else {
                    return Touch::Nothing;
                };
                // `configure_vf`: drop the old config's static entry (by
                // key), install the new one, replace the register.
                if let Some(old) = pfm.vfs.get(vf) {
                    let key_vlan = old.vlan.unwrap_or(0);
                    let key_mac = old.mac;
                    pfm.statics
                        .retain(|(v, m, _)| !(*v == key_vlan && m.as_u64() == key_mac.as_u64()));
                }
                upsert_static(
                    &mut pfm.statics,
                    cfg.vlan.unwrap_or(0),
                    cfg.mac,
                    NicPort::Vf(VfId(*vf)),
                );
                pfm.vfs.insert(*vf, cfg.clone());
                Touch::Pf(*pf)
            }
            ConfigDelta::VfRemoved { pf, vf } => {
                let Some(pfm) = self.model.pfs.get_mut(usize::from(*pf)) else {
                    return Touch::Nothing;
                };
                let Some(old) = pfm.vfs.remove(vf) else {
                    return Touch::Nothing;
                };
                let key_vlan = old.vlan.unwrap_or(0);
                pfm.statics
                    .retain(|(v, m, _)| !(*v == key_vlan && m.as_u64() == old.mac.as_u64()));
                Touch::Pf(*pf)
            }
            // Liveness transitions carry no switching state: a downed
            // vswitch's wiped pipeline is what the model already reflects
            // (the wipe arrives as its own delta), and coming back up
            // changes nothing until reconciliation reinstalls rules.
            ConfigDelta::VswitchUp { .. } | ConfigDelta::VswitchDown { .. } => Touch::Nothing,
        }
    }
}

/// Inserts or replaces a static entry under the VEB's `(vlan, mac)` key,
/// keeping the canonical `(vlan, mac)` sort the extraction produces.
fn upsert_static(
    statics: &mut Vec<(u16, MacAddr, NicPort)>,
    vlan: u16,
    mac: MacAddr,
    port: NicPort,
) {
    statics.retain(|(v, m, _)| !(*v == vlan && m.as_u64() == mac.as_u64()));
    let pos = statics.partition_point(|(v, m, _)| (*v, m.as_u64()) < (vlan, mac.as_u64()));
    statics.insert(pos, (vlan, mac, port));
}

/// Re-indexes one vswitch table's cached rule hits after an insertion or
/// removal shifted rule positions; `f` maps old index to new (or drops it).
/// Both shifts are monotone, so the hits stay sorted.
fn remap_rule_hits(
    col: &mut Collector,
    inst: usize,
    table: u8,
    f: impl Fn(usize) -> Option<usize>,
) {
    col.rule_hits.remap(|(i, t, idx)| {
        if *i != inst || *t != table {
            return true;
        }
        match f(*idx) {
            Some(nx) => {
                *idx = nx;
                true
            }
            None => false,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_core::{Controller, ResourceMode};
    use mts_vswitch::DatapathKind;

    fn deployment() -> Deployment {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        );
        Controller::deploy(spec).unwrap()
    }

    #[test]
    fn fresh_checker_matches_full_verify() {
        let d = deployment();
        let full = crate::verify(&d).unwrap();
        let mut inc = IncrementalChecker::of_deployment(&d).unwrap();
        assert_eq!(format!("{}", inc.report().unwrap()), format!("{full}"));
    }

    #[test]
    fn liveness_deltas_recompute_nothing() {
        let d = deployment();
        let mut inc = IncrementalChecker::of_deployment(&d).unwrap();
        let before = format!("{}", inc.report().unwrap());
        assert_eq!(inc.apply(&ConfigDelta::VswitchDown { vswitch: 0 }), 0);
        assert_eq!(inc.apply(&ConfigDelta::VswitchUp { vswitch: 0 }), 0);
        assert_eq!(inc.stats().sources_recomputed, 0);
        assert_eq!(format!("{}", inc.report().unwrap()), before);
    }

    #[test]
    fn wipe_and_reinstall_round_trips_to_the_original_verdict() {
        let d = deployment();
        let mut inc = IncrementalChecker::of_deployment(&d).unwrap();
        let before = format!("{}", inc.report().unwrap());
        let rules = d.desired.rules[0].clone();
        assert!(!rules.is_empty());
        inc.apply(&ConfigDelta::RulesWiped { vswitch: 0 });
        for (t, r) in rules {
            inc.apply(&ConfigDelta::RuleInstalled {
                vswitch: 0,
                table: t,
                rule: r,
            });
        }
        assert_eq!(format!("{}", inc.report().unwrap()), before);
    }

    #[test]
    fn out_of_range_victims_are_ignored() {
        let d = deployment();
        let mut inc = IncrementalChecker::of_deployment(&d).unwrap();
        let before = format!("{}", inc.report().unwrap());
        assert_eq!(inc.apply(&ConfigDelta::RulesWiped { vswitch: 99 }), 0);
        assert_eq!(inc.apply(&ConfigDelta::VebFlushed { pf: 9 }), 0);
        assert_eq!(format!("{}", inc.report().unwrap()), before);
    }
}
