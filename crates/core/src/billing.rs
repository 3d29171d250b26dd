//! Per-tenant accounting and billing (paper Sec. 6), driven by the cycle
//! meters.
//!
//! "From an accounting and billing perspective, we strongly believe that
//! MTS is a new way to bill and monitor virtual networks at granularity
//! more than a simple flow rule: CPU, memory and I/O for virtual
//! networking can be charged."
//!
//! MTS makes this natural because each compartment's resources are its
//! tenants' alone: a compartment's core time, its VM memory, and the flow
//! statistics of its tenant-tagged rules (cookie = tenant + 1) add up to
//! an itemized bill. For the Baseline, only flow statistics are
//! attributable — the shared vswitch's CPU cannot be split honestly, which
//! is exactly the paper's point.
//!
//! **Conservation.** The bill is produced against the core ledger's
//! measured vswitch time (see [`World::measured_vswitch_cpu`]), and the
//! split is done in integer nanoseconds with a largest-remainder
//! apportionment, so the identity
//!
//! ```text
//! total_cpu() + unattributed_cpu == measured_cpu      (exactly, in ns)
//! ```
//!
//! holds at every security level, by construction, and is recorded in
//! [`BillingReport::conserved`] at collection time. No floating point
//! touches the billed nanoseconds.
//!
//! **Accuracy.** What a production biller can observe (rule hit counters,
//! cache misses, byte counts) is not the same as what the traffic truly
//! cost. [`billing_accuracy`] compares the bill against the simulator's
//! omniscient ground truth ([`crate::meters::CycleMeters`]) — the paper's
//! Level-2 claim is that dedicated compartments make the two coincide.

use crate::meters::Attribution;
use crate::runtime::World;
use mts_sim::Dur;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One tenant's itemized bill for a measurement window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TenantBill {
    /// Tenant index.
    pub tenant: u8,
    /// Packets matched by the tenant's flow rules (I/O, packet count).
    pub packets: u64,
    /// Bytes matched by the tenant's flow rules (I/O, volume).
    pub bytes: u64,
    /// Flow-cache misses the tenant's traffic caused (slow-path work: a
    /// miss costs an order of magnitude more than a hit, so the billing
    /// weight counts them separately).
    pub misses: u64,
    /// vswitch CPU time attributable to this tenant.
    pub vswitch_cpu: Dur,
    /// Whether the CPU attribution is exact (dedicated compartment) or
    /// proportional (compartment shared by several tenants).
    pub cpu_exact: bool,
    /// vswitch-VM memory attributable to this tenant, in GB.
    pub vswitch_ram_gb: f64,
}

/// The bill for a whole deployment run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BillingReport {
    /// Configuration label.
    pub config: String,
    /// Per-tenant lines.
    pub tenants: Vec<TenantBill>,
    /// CPU that could not be attributed to any tenant (Baseline: all of
    /// the shared vswitch's time beyond flow statistics).
    pub unattributed_cpu: Dur,
    /// Total vswitch CPU the core ledger measured — the amount the bill
    /// must conserve.
    pub measured_cpu: Dur,
    /// Whether `total_cpu() + unattributed_cpu == measured_cpu` held
    /// exactly when the bill was produced.
    pub conserved: bool,
}

impl BillingReport {
    /// Total billed packets.
    pub fn total_packets(&self) -> u64 {
        self.tenants.iter().map(|t| t.packets).sum()
    }

    /// Total billed vswitch CPU.
    pub fn total_cpu(&self) -> Dur {
        self.tenants.iter().map(|t| t.vswitch_cpu).sum()
    }
}

impl fmt::Display for BillingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "billing: {}", self.config)?;
        writeln!(
            f,
            "  {:>6} {:>12} {:>14} {:>8} {:>14} {:>7} {:>8}",
            "tenant", "packets", "bytes", "misses", "vswitch cpu", "exact", "ram GB"
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "  {:>6} {:>12} {:>14} {:>8} {:>14} {:>7} {:>8.2}",
                t.tenant,
                t.packets,
                t.bytes,
                t.misses,
                format!("{}", t.vswitch_cpu),
                if t.cpu_exact { "yes" } else { "prop." },
                t.vswitch_ram_gb
            )?;
        }
        writeln!(f, "  unattributed cpu: {}", self.unattributed_cpu)?;
        writeln!(
            f,
            "  measured cpu:     {} (conserved: {})",
            self.measured_cpu,
            if self.conserved { "yes" } else { "NO" }
        )
    }
}

/// Splits `total_ns` across `weights` with the largest-remainder method.
///
/// The shares always sum to exactly `total_ns`: each weight gets the floor
/// of its proportional share, then the leftover nanoseconds go one each to
/// the largest fractional remainders (ties broken toward the lower index,
/// so the split is deterministic). All-zero weights degrade to an equal
/// split rather than dividing by zero.
fn largest_remainder_split(total_ns: u64, weights: &[u128]) -> Vec<u64> {
    if weights.is_empty() {
        return Vec::new();
    }
    // Scale pathological weights down so `total_ns * weight` cannot
    // overflow the u128 intermediate; exactness is unaffected because it
    // comes from the remainder pass, not from weight precision.
    let raw_sum: u128 = weights.iter().sum();
    let scale = (raw_sum >> 64) + 1;
    let mut weights: Vec<u128> = weights.iter().map(|w| w / scale).collect();
    if weights.iter().sum::<u128>() == 0 {
        weights = vec![1; weights.len()];
    }
    let sum: u128 = weights.iter().sum();

    let mut shares = Vec::with_capacity(weights.len());
    let mut rems: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
    let mut assigned: u64 = 0;
    for (i, w) in weights.iter().enumerate() {
        let num = u128::from(total_ns) * w;
        // lint:allow(lossy-cast): w <= sum, so the quotient is bounded by total_ns, which is u64
        let share = (num / sum) as u64;
        shares.push(share);
        assigned += share;
        rems.push((num % sum, i));
    }
    // Hand out the leftover ns, largest remainder first, lower index on ties.
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut leftover = total_ns - assigned;
    for (_, i) in rems {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    shares
}

/// Produces the bill from a finished run's world state.
///
/// Flow I/O comes from the tenant-cookie rule statistics. CPU comes from
/// the per-user core accounting, split under the attribution regime the
/// meters fixed at deploy time: a compartment serving one tenant is billed
/// exactly; a compartment serving several splits its measured time by the
/// tenants' *observable* work — packets weighted at the cache-hit cost,
/// misses at the extra slow-path cost, bytes at the per-byte cost — using
/// integer largest-remainder apportionment so the split conserves the
/// compartment's total to the nanosecond. The Baseline's vswitch time is
/// unattributable (it runs as the host, one shared datapath) and lands in
/// [`BillingReport::unattributed_cpu`].
pub fn bill(w: &World) -> BillingReport {
    let n = w.spec.tenants as usize;
    let mut tenants = Vec::new();
    let mut unattributed = Dur::ZERO;
    let mut measured_total = Dur::ZERO;

    // Per-tenant I/O from rule statistics, summed across all vswitches.
    let mut io: Vec<(u64, u64, u64)> = vec![(0, 0, 0); n];
    for vs in &w.vswitches {
        for (t, slot) in io.iter_mut().enumerate() {
            // lint:allow(lossy-cast): tenant index widened usize -> u64; cannot truncate on supported targets
            let cookie = t as u64 + 1;
            let (p, b) = vs.inst.sw.stats_by_cookie(cookie);
            slot.0 += p;
            slot.1 += b;
            slot.2 += vs.inst.sw.misses_by_cookie(cookie);
        }
    }

    // CPU per compartment from the core ledger, in whole nanoseconds.
    let mut cpu: Vec<(u64, bool)> = vec![(0, false); n];
    for (i, vs) in w.vswitches.iter().enumerate() {
        let busy = w.measured_vswitch_cpu_of(i);
        measured_total += busy;
        match w.meters.vswitch_attribution(i) {
            Attribution::Unattributed => unattributed += busy,
            Attribution::Exact => {
                // lint:allow(lossy-cast): vswitch index mirrors the spec's u8 compartment id
                let members = w.spec.tenants_of_compartment(i as u8);
                if let Some(t) = members.first() {
                    cpu[*t as usize].0 += busy.as_nanos();
                    cpu[*t as usize].1 = true;
                } else {
                    unattributed += busy;
                }
            }
            Attribution::Proportional => {
                // Weight each member by the vswitch-local observable work
                // its rules accounted: hits at the cache-hit cost, misses
                // at the extra slow-path cost, bytes at the per-byte cost.
                // lint:allow(lossy-cast): vswitch index mirrors the spec's u8 compartment id
                let members = w.spec.tenants_of_compartment(i as u8);
                let hit_ps = u128::from(vs.costs.cache_hit.as_nanos()) * 1000;
                let miss_ps = u128::from(
                    vs.costs
                        .slow_path
                        .saturating_sub(vs.costs.cache_hit)
                        .as_nanos(),
                ) * 1000;
                let byte_ps = u128::from(vs.costs.ps_per_byte);
                let weights: Vec<u128> = members
                    .iter()
                    .map(|t| {
                        let cookie = u64::from(*t) + 1;
                        let (p, b) = vs.inst.sw.stats_by_cookie(cookie);
                        let m = vs.inst.sw.misses_by_cookie(cookie);
                        u128::from(p) * hit_ps + u128::from(m) * miss_ps + u128::from(b) * byte_ps
                    })
                    .collect();
                let shares = largest_remainder_split(busy.as_nanos(), &weights);
                for (t, share) in members.iter().zip(shares) {
                    cpu[*t as usize].0 += share;
                }
            }
        }
    }

    // RAM: each compartment VM is 4 GB, split across its tenants.
    let mut ram = vec![0.0f64; n];
    if w.spec.level.compartmentalized() {
        for i in 0..w.vswitches.len() {
            // lint:allow(lossy-cast): vswitch index mirrors the spec's u8 compartment id
            let members = w.spec.tenants_of_compartment(i as u8);
            for t in &members {
                ram[*t as usize] = 4.0 / members.len() as f64;
            }
        }
    }

    for (t, slot) in io.iter().enumerate() {
        tenants.push(TenantBill {
            // lint:allow(lossy-cast): tenant ids are u8 throughout the spec; the io vec is spec-sized
            tenant: t as u8,
            packets: slot.0,
            bytes: slot.1,
            misses: slot.2,
            vswitch_cpu: Dur::nanos(cpu[t].0),
            cpu_exact: cpu[t].1,
            vswitch_ram_gb: ram[t],
        });
    }

    let billed: Dur = tenants.iter().map(|t| t.vswitch_cpu).sum();
    let conserved = billed + unattributed == measured_total;
    debug_assert!(
        conserved,
        "billing must conserve measured cpu: {billed} + {unattributed} != {measured_total}"
    );

    BillingReport {
        config: w.spec.label(),
        tenants,
        unattributed_cpu: unattributed,
        measured_cpu: measured_total,
        conserved,
    }
}

/// One tenant's billed CPU compared against the meters' ground truth.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TenantAccuracy {
    /// Tenant index.
    pub tenant: u8,
    /// What the bill charged.
    pub billed: Dur,
    /// What the tenant's traffic truly cost (omniscient frame-level
    /// attribution across all vswitches).
    pub truth: Dur,
    /// Whether the charge was made under the exact regime.
    pub exact: bool,
}

impl TenantAccuracy {
    /// Absolute billed-vs-truth error.
    pub fn abs_error(&self) -> Dur {
        self.billed
            .saturating_sub(self.truth)
            .max(self.truth.saturating_sub(self.billed))
    }

    /// Relative error against truth (0 when both sides are zero).
    pub fn rel_error(&self) -> f64 {
        if self.truth.is_zero() {
            if self.billed.is_zero() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.abs_error().as_nanos() as f64 / self.truth.as_nanos() as f64
        }
    }
}

/// The billing-accuracy experiment's result for one deployment: does the
/// security level make bills more exact?
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BillingAccuracy {
    /// Configuration label.
    pub config: String,
    /// Per-tenant billed-vs-truth lines.
    pub tenants: Vec<TenantAccuracy>,
    /// Fraction of measured vswitch CPU the bill attributed to some tenant
    /// (Baseline: 0; compartmentalized levels: 1).
    pub attributed_fraction: f64,
}

impl BillingAccuracy {
    /// Worst per-tenant relative error.
    pub fn max_rel_error(&self) -> f64 {
        self.tenants
            .iter()
            .map(|t| t.rel_error())
            .fold(0.0, f64::max)
    }

    /// Mean per-tenant relative error.
    pub fn mean_rel_error(&self) -> f64 {
        if self.tenants.is_empty() {
            return 0.0;
        }
        self.tenants.iter().map(|t| t.rel_error()).sum::<f64>() / self.tenants.len() as f64
    }
}

/// Compares the bill a production biller could produce (rule statistics +
/// core ledger) against the simulator's omniscient per-frame ground truth.
///
/// The paper's billing claim falls out of the comparison: under Level-2
/// with singleton compartments the bill is the compartment's entire
/// measured time, so the only error left is the compartment's own
/// unresolved work (ARP — near zero); under Level-1 the proportional split
/// is an estimate; under the Baseline nothing beyond flow counters is
/// attributable at all.
pub fn billing_accuracy(w: &World) -> BillingAccuracy {
    let report = bill(w);
    let tenants = report
        .tenants
        .iter()
        .map(|t| TenantAccuracy {
            tenant: t.tenant,
            billed: t.vswitch_cpu,
            truth: w.meters.tenant_vswitch_truth(t.tenant as usize),
            exact: t.cpu_exact,
        })
        .collect();
    let attributed_fraction = if report.measured_cpu.is_zero() {
        0.0
    } else {
        report.total_cpu().as_nanos() as f64 / report.measured_cpu.as_nanos() as f64
    };
    BillingAccuracy {
        config: report.config,
        tenants,
        attributed_fraction,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
    use crate::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_host::ResourceMode;

    use mts_sim::Time;
    use mts_vswitch::DatapathKind;

    fn run(spec: DeploymentSpec) -> World {
        let d = Controller::deploy(spec).unwrap();
        let cfg = RuntimeCfg::for_spec(&spec);
        let mut w = World::new(d, cfg, 9);
        let mut e = Sim::new();
        let flows = w.tenant_flows();
        w.sink.window = (Time::ZERO, Time::MAX);
        start_udp_generator(&mut e, flows, 100_000.0, 64, Time::from_nanos(4_000_000));
        e.run_until(&mut w, Time::from_nanos(10_000_000));
        w
    }

    #[test]
    fn level2_4_bills_cpu_exactly_per_tenant() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let w = run(spec);
        let report = bill(&w);
        assert_eq!(report.tenants.len(), 4);
        for t in &report.tenants {
            assert!(t.cpu_exact, "singleton compartment must bill exactly");
            assert!(t.packets > 0, "tenant {} unbilled", t.tenant);
            assert!(t.vswitch_cpu > Dur::ZERO);
            assert!((t.vswitch_ram_gb - 4.0).abs() < 1e-9);
        }
        assert_eq!(report.unattributed_cpu, Dur::ZERO);
        assert!(report.conserved);
        assert_eq!(report.total_cpu(), report.measured_cpu);
    }

    #[test]
    fn level1_splits_proportionally_and_conserves_exactly() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let w = run(spec);
        let report = bill(&w);
        for t in &report.tenants {
            assert!(!t.cpu_exact, "shared compartment splits proportionally");
            assert!(t.vswitch_cpu > Dur::ZERO);
        }
        // The integer largest-remainder split conserves the compartment's
        // measured total to the nanosecond — not within a tolerance.
        assert!(report.conserved);
        assert_eq!(
            report.total_cpu() + report.unattributed_cpu,
            w.measured_vswitch_cpu(),
            "split must conserve exactly"
        );
    }

    #[test]
    fn baseline_cpu_is_unattributable() {
        let spec =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        let w = run(spec);
        let report = bill(&w);
        assert!(report.unattributed_cpu > Dur::ZERO);
        assert!(report.tenants.iter().all(|t| t.vswitch_cpu == Dur::ZERO));
        // But flow-rule I/O is still attributable.
        assert!(report.tenants.iter().all(|t| t.packets > 0));
        assert!(report.total_packets() > 0);
        // Even an all-unattributed bill conserves: measured == unattributed.
        assert!(report.conserved);
        assert_eq!(report.unattributed_cpu, report.measured_cpu);
    }

    #[test]
    fn report_renders() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        );
        let w = run(spec);
        let text = format!("{}", bill(&w));
        assert!(text.contains("tenant"));
        assert!(text.contains("unattributed"));
        assert!(text.contains("conserved: yes"));
    }

    #[test]
    fn largest_remainder_split_is_exact_and_deterministic() {
        // 100 ns over weights 1:1:1 — someone gets the extra ns; ties go
        // to the lower index.
        assert_eq!(largest_remainder_split(100, &[1, 1, 1]), vec![34, 33, 33]);
        // Zero weights degrade to an equal split.
        assert_eq!(largest_remainder_split(10, &[0, 0, 0]), vec![4, 3, 3]);
        // Proportionality with a remainder.
        let shares = largest_remainder_split(1000, &[2, 1]);
        assert_eq!(shares.iter().sum::<u64>(), 1000);
        assert_eq!(shares, vec![667, 333]);
        // Large weights do not overflow (u128 intermediate).
        let shares = largest_remainder_split(u64::MAX / 2, &[u128::MAX / 4, u128::MAX / 4]);
        assert_eq!(shares.iter().sum::<u64>(), u64::MAX / 2);
        assert!(largest_remainder_split(5, &[]).is_empty());
    }

    #[test]
    fn accuracy_improves_with_security_level() {
        let acc = |level| {
            let spec = DeploymentSpec::mts(
                level,
                DatapathKind::Kernel,
                ResourceMode::Isolated,
                Scenario::P2v,
            );
            billing_accuracy(&run(spec))
        };
        let l1 = acc(SecurityLevel::Level1);
        let l2 = acc(SecurityLevel::Level2 { compartments: 4 });
        // Level-2 singleton compartments bill exactly; the only error left
        // is the compartment's unresolved (ARP) work.
        assert!(l2.tenants.iter().all(|t| t.exact));
        assert!(l1.tenants.iter().all(|t| !t.exact));
        assert!(
            l2.max_rel_error() <= l1.max_rel_error() + 1e-12,
            "level-2 must not be less accurate than level-1: {} vs {}",
            l2.max_rel_error(),
            l1.max_rel_error()
        );
        // Both compartmentalized levels attribute all measured cycles.
        assert!((l1.attributed_fraction - 1.0).abs() < 1e-12);
        assert!((l2.attributed_fraction - 1.0).abs() < 1e-12);

        // The Baseline attributes nothing.
        let spec =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        let b = billing_accuracy(&run(spec));
        assert_eq!(b.attributed_fraction, 0.0);
    }
}
