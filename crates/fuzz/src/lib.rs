//! # mts-fuzz — deterministic structured fuzzing of the untrusted planes
//!
//! Four surfaces take input the rest of the stack must never trust:
//!
//! 1. **Wire** — raw bytes into [`mts_net::wire::parse`] (Ethernet, ARP,
//!    IPv4, UDP/TCP, nested VXLAN, truncation/corruption families).
//! 2. **Plan** — operator-authored fault-plan text into
//!    [`mts_faults::FaultPlan::parse`].
//! 3. **Delta** — [`ConfigDelta`](mts_core::delta::ConfigDelta) streams
//!    replayed through the [`IncrementalChecker`](mts_isocheck::IncrementalChecker)
//!    with the from-scratch verifier as differential oracle.
//! 4. **Reconcile** — out-of-band damage to live worlds repaired by the
//!    controller's reconciliation loop.
//!
//! Plus two live modes ([`live::nic_zero_leak`], [`live::world_injection`])
//! that drive mutant frames and fuzzed bytes against real deployments and
//! assert the paper's isolation invariants end to end.
//!
//! Everything is seeded from one [`DetRng`]: the same seed yields a
//! byte-identical [`CampaignReport`] across runs, so any finding is
//! replayable from the report alone. Failures shrink ([`shrink`]) to
//! minimal cases and are pinned into the committed corpus
//! ([`corpus`], `tests/corpus/`), which CI replays as ordinary
//! regression tests.
//!
//! The workspace's property tests run on the same engine: [`prop`] draws
//! each case from a [`DetRng`] named after the test and shrinks a failing
//! list input with [`shrink::shrink_set`].

pub mod corpus;
pub mod deltas;
pub mod live;
pub mod plan;
pub mod prop;
pub mod reconcile;
pub mod shrink;
pub mod wire;

use mts_sim::DetRng;
use std::collections::BTreeMap;
use std::fmt;

/// Which fuzz surface a case or crasher belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Surface {
    /// Byte-level wire parsing.
    Wire,
    /// Fault-plan text parsing.
    Plan,
    /// Config-delta streams against the incremental checker.
    Delta,
    /// Reconciliation of damaged worlds.
    Reconcile,
}

impl Surface {
    /// Stable lowercase label (used in reports and corpus headers).
    pub fn label(self) -> &'static str {
        match self {
            Surface::Wire => "wire",
            Surface::Plan => "plan",
            Surface::Delta => "delta",
            Surface::Reconcile => "reconcile",
        }
    }

    /// Parses a [`Surface::label`] back.
    pub fn from_label(s: &str) -> Option<Surface> {
        match s {
            "wire" => Some(Surface::Wire),
            "plan" => Some(Surface::Plan),
            "delta" => Some(Surface::Delta),
            "reconcile" => Some(Surface::Reconcile),
            _ => None,
        }
    }
}

/// The oracle's verdict on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// Parsed/ran cleanly; every invariant held.
    Accepted,
    /// Rejected with a typed error (the label names the error family).
    Rejected(&'static str),
    /// An invariant broke: panic, divergence, or leak.
    Violation(String),
}

/// A minimized failing case.
#[derive(Debug, Clone)]
pub struct Crasher {
    /// The surface that found it.
    pub surface: Surface,
    /// What went wrong.
    pub note: String,
    /// The minimized payload (bytes, or UTF-8 replay text).
    pub data: Vec<u8>,
}

impl Crasher {
    /// Renders the payload for humans: text when it is text, hex
    /// otherwise.
    fn render_data(&self) -> String {
        match std::str::from_utf8(&self.data) {
            Ok(s) if s.chars().all(|c| !c.is_control() || c == '\n') => s.to_string(),
            _ => self
                .data
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>(),
        }
    }
}

/// Per-surface campaign counters.
#[derive(Debug, Clone)]
pub struct SurfaceStats {
    /// The surface.
    pub surface: Surface,
    /// Cases executed.
    pub cases: u64,
    /// Cases that ran clean.
    pub accepted: u64,
    /// Typed rejections by error family.
    pub rejects: BTreeMap<&'static str, u64>,
    /// Minimized invariant violations.
    pub crashers: Vec<Crasher>,
}

impl SurfaceStats {
    /// Fresh counters for `surface`.
    pub fn new(surface: Surface) -> Self {
        SurfaceStats {
            surface,
            cases: 0,
            accepted: 0,
            rejects: BTreeMap::new(),
            crashers: Vec::new(),
        }
    }

    /// Counts one typed rejection.
    pub fn reject(&mut self, label: &'static str) {
        *self.rejects.entry(label).or_insert(0) += 1;
    }

    /// Total typed rejections.
    pub fn rejected(&self) -> u64 {
        self.rejects.values().sum()
    }
}

/// Runs a stream surface ([`Surface::Delta`] or [`Surface::Reconcile`])
/// for `budget` cases of `ops` operations each, one shipped configuration
/// after another. `run_case(seed, spec, ops)` replays an op-index subset
/// of a case (`Err` is an oracle violation); each op draws its randomness
/// from its index, so a failing case shrinks to a minimal subset that
/// replays deterministically.
fn fuzz_streams(
    surface: Surface,
    rng: &mut DetRng,
    budget: u64,
    ops: u64,
    run_case: fn(u64, mts_core::DeploymentSpec, &[u64]) -> Result<(), String>,
) -> SurfaceStats {
    let fails =
        |seed, spec, ops: &[u64]| match std::panic::catch_unwind(|| run_case(seed, spec, ops)) {
            Ok(outcome) => outcome.err(),
            Err(_) => Some(format!("panic in {} case", surface.label())),
        };
    let mut stats = SurfaceStats::new(surface);
    let matrix = mts_isocheck::shipped_matrix();
    let all_ops: Vec<u64> = (0..ops).collect();
    let case_label = format!("{}-case", surface.label());
    for i in 0..budget {
        let seed = rng.derive_indexed(&case_label, i).below(u64::MAX);
        let spec = matrix[(i as usize) % matrix.len()];
        stats.cases += 1;
        let Some(note) = fails(seed, spec, &all_ops) else {
            stats.accepted += 1;
            continue;
        };
        let minimized = shrink::shrink_set(&all_ops, |subset| fails(seed, spec, subset).is_some());
        let data = format!("seed={seed}\nspec={}\nops={minimized:?}", spec.label());
        stats.crashers.push(Crasher {
            surface,
            note,
            data: data.into_bytes(),
        });
    }
    stats
}

/// Per-surface case budgets for one campaign.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wire-parse byte cases.
    pub wire: u64,
    /// Fault-plan text cases.
    pub plan: u64,
    /// Delta-stream cases (12 ops each, a full verification after every
    /// delta of most ops).
    pub delta: u64,
    /// Reconciliation cases.
    pub reconcile: u64,
    /// Live zero-leak mutant frames per security level.
    pub leak_per_level: u64,
    /// Live world-injection batches (25 byte-cases each).
    pub world_batches: u64,
}

/// Byte-cases injected per world-injection batch.
const WORLD_BYTES_PER_BATCH: u64 = 25;

impl Budget {
    /// The CI budget: 10,000 structured cases plus the live modes.
    pub fn quick() -> Budget {
        Budget {
            wire: 8_400,
            plan: 1_400,
            delta: 150,
            reconcile: 50,
            leak_per_level: 200,
            world_batches: 8,
        }
    }

    /// The long-haul budget for local soak runs.
    pub fn full() -> Budget {
        Budget {
            wire: 42_000,
            plan: 7_000,
            delta: 600,
            reconcile: 150,
            leak_per_level: 1_000,
            world_batches: 12,
        }
    }

    /// Total structured (non-live) cases.
    #[cfg(test)]
    fn structured_cases(&self) -> u64 {
        self.wire + self.plan + self.delta + self.reconcile
    }
}

/// One campaign's parameters.
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Root seed; fixes every case in the campaign.
    pub seed: u64,
    /// Per-surface budgets.
    pub budget: Budget,
}

/// The result of a campaign. Rendering is byte-identical across runs
/// with the same [`FuzzConfig`].
#[derive(Debug)]
pub struct CampaignReport {
    /// The root seed the campaign ran under.
    pub seed: u64,
    /// Structured-surface counters, in fixed surface order.
    pub surfaces: Vec<SurfaceStats>,
    /// Live NIC zero-leak summary.
    pub zero_leak: live::LiveSummary,
    /// Live world-injection summary.
    pub world: live::LiveSummary,
}

impl CampaignReport {
    /// Every minimized crasher across all surfaces.
    pub fn crashers(&self) -> impl Iterator<Item = &Crasher> {
        self.surfaces.iter().flat_map(|s| s.crashers.iter())
    }

    /// True when no surface found a violation.
    pub fn clean(&self) -> bool {
        self.crashers().next().is_none()
            && self.zero_leak.violations.is_empty()
            && self.world.violations.is_empty()
    }

    /// Total cases across structured surfaces and live modes.
    fn total_cases(&self) -> u64 {
        self.surfaces.iter().map(|s| s.cases).sum::<u64>() + self.zero_leak.cases + self.world.cases
    }

    /// CSV rendering: `surface,cases,accepted,rejected,violations`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("surface,cases,accepted,rejected,violations\n");
        for s in &self.surfaces {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                s.surface.label(),
                s.cases,
                s.accepted,
                s.rejected(),
                s.crashers.len()
            ));
        }
        out.push_str(&format!(
            "live-zero-leak,{},{},0,{}\n",
            self.zero_leak.cases,
            self.zero_leak.accepted,
            self.zero_leak.violations.len()
        ));
        out.push_str(&format!(
            "live-world,{},{},{},{}\n",
            self.world.cases,
            self.world.accepted,
            self.world.malformed,
            self.world.violations.len()
        ));
        out
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fuzz campaign seed={:#x}", self.seed)?;
        for s in &self.surfaces {
            writeln!(
                f,
                "  {:<9} {:>6} cases: {} accepted, {} rejected, {} violations",
                s.surface.label(),
                s.cases,
                s.accepted,
                s.rejected(),
                s.crashers.len()
            )?;
            for (label, n) in &s.rejects {
                writeln!(f, "    reject {label}: {n}")?;
            }
            for c in &s.crashers {
                writeln!(f, "    CRASHER: {}\n      {}", c.note, c.render_data())?;
            }
        }
        writeln!(f, "  zero-leak {}", self.zero_leak)?;
        for v in &self.zero_leak.violations {
            writeln!(f, "    VIOLATION: {v}")?;
        }
        writeln!(f, "  world     {}", self.world)?;
        for v in &self.world.violations {
            writeln!(f, "    VIOLATION: {v}")?;
        }
        write!(
            f,
            "  total {} cases, {}",
            self.total_cases(),
            if self.clean() { "clean" } else { "NOT CLEAN" }
        )
    }
}

/// Runs a full campaign: all four structured surfaces plus both live
/// modes, deterministically from `cfg.seed`.
pub fn run_campaign(cfg: &FuzzConfig) -> CampaignReport {
    let root = DetRng::new(cfg.seed).derive("mts-fuzz");
    let b = cfg.budget;
    let surfaces = vec![
        wire::fuzz(&mut root.clone().derive("wire"), b.wire),
        plan::fuzz(&mut root.clone().derive("plan"), b.plan),
        deltas::fuzz(&mut root.clone().derive("delta"), b.delta),
        reconcile::fuzz(&mut root.clone().derive("reconcile"), b.reconcile),
    ];
    let zero_leak = live::nic_zero_leak(cfg.seed, b.leak_per_level);
    let world = live::world_injection(cfg.seed, b.world_batches, WORLD_BYTES_PER_BATCH);
    CampaignReport {
        seed: cfg.seed,
        surfaces,
        zero_leak,
        world,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FuzzConfig {
        FuzzConfig {
            seed: 0xF0_22,
            budget: Budget {
                wire: 120,
                plan: 60,
                delta: 3,
                reconcile: 2,
                leak_per_level: 20,
                world_batches: 2,
            },
        }
    }

    #[test]
    fn tiny_campaign_is_clean_and_counts_add_up() {
        let r = run_campaign(&tiny());
        assert!(r.clean(), "{r}");
        assert_eq!(r.surfaces.len(), 4);
        assert_eq!(r.surfaces[0].cases, 120);
        assert_eq!(r.surfaces[1].cases, 60);
        assert!(r.total_cases() > 185);
        assert!(r.to_csv().lines().count() >= 7);
    }

    #[test]
    fn same_seed_renders_byte_identical_reports() {
        let a = format!("{}", run_campaign(&tiny()));
        let b = format!("{}", run_campaign(&tiny()));
        assert_eq!(a, b);
    }

    #[test]
    fn budgets_hit_the_issue_floor() {
        assert_eq!(Budget::quick().structured_cases(), 10_000);
        assert!(Budget::full().structured_cases() > 10_000);
    }
}
