//! The two-server measurement harness (paper Sec. 4).
//!
//! Reproduces the methodology: a load generator replays constant-rate UDP
//! probe streams (4 flows, one per tenant) into the device under test; a
//! passive tap with hardware-style timestamps measures one-way latency and
//! the sink counts throughput. Warm-up is trimmed exactly as in the paper
//! ("measurements are made from the 10–100 second marks" — scaled to
//! simulation windows; steady state is reached within milliseconds).

use crate::controller::{Controller, DeployError};
use crate::results::Measurement;
use crate::runtime::{start_udp_generator, RuntimeCfg, Sim, World};
use crate::spec::{DeploymentSpec, SecurityLevel};
use mts_host::{ResourceLedger, ResourceMode};
use mts_sim::{Dur, Time};
use mts_vswitch::DatapathKind;

/// Parameters of one forwarding-performance run.
#[derive(Clone, Copy, Debug)]
pub struct RunOpts {
    /// Offered aggregate rate in packets/second (14 Mpps ≈ 64 B line rate).
    pub rate_pps: f64,
    /// Frame size on the wire, bytes.
    pub wire_len: u32,
    /// Warm-up to trim before measuring.
    pub warmup: Dur,
    /// Measurement window length.
    pub measure: Dur,
    /// Seed for the deterministic RNG.
    pub seed: u64,
}

impl RunOpts {
    /// The paper's throughput methodology, scaled: 64 B at line rate.
    pub fn throughput() -> RunOpts {
        RunOpts {
            rate_pps: 14_000_000.0,
            wire_len: 64,
            warmup: Dur::millis(12),
            measure: Dur::millis(16),
            seed: 1,
        }
    }

    /// The paper's latency methodology: 10 kpps probes.
    pub fn latency() -> RunOpts {
        RunOpts {
            rate_pps: 10_000.0,
            wire_len: 64,
            warmup: Dur::millis(100),
            measure: Dur::millis(900),
            seed: 1,
        }
    }

    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the frame size.
    pub fn with_wire_len(mut self, wire_len: u32) -> Self {
        self.wire_len = wire_len;
        self
    }

    /// Builder: scales the measurement window (for quick tests/benches).
    ///
    /// The warm-up is never scaled: at saturation the rx-ring pipeline
    /// takes several milliseconds to reach equilibrium, and measuring
    /// earlier would undercount — exactly as a too-short real-world
    /// capture would.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.measure = self.measure.mul_f64(factor);
        self
    }
}

/// The measurement testbed for one deployment configuration.
pub struct Testbed {
    spec: DeploymentSpec,
}

impl Testbed {
    /// Creates a testbed for a configuration.
    pub fn new(spec: DeploymentSpec) -> Testbed {
        Testbed { spec }
    }

    /// Runs one forwarding experiment and reports the measurement.
    pub fn run(&self, opts: RunOpts) -> Result<Measurement, DeployError> {
        let d = Controller::deploy(self.spec)?;
        let mut cfg = RuntimeCfg::for_spec(&self.spec);
        cfg.offered_pps = opts.rate_pps;
        let mut w = World::new(d, cfg, opts.seed);
        let mut e = Sim::new();

        let start = Time::ZERO + opts.warmup;
        let end = start + opts.measure;
        w.sink.window = (start, end);
        let flows = w.tenant_flows();
        start_udp_generator(&mut e, flows, opts.rate_pps, opts.wire_len, end);
        // Let in-flight packets drain past the window.
        e.run_until(&mut w, end + Dur::millis(20));
        e.clear();

        let baseline = self.spec.level == SecurityLevel::Baseline;
        let ledger = ResourceLedger {
            compartments: if baseline {
                u32::from(self.spec.baseline_cores)
            } else {
                u32::from(self.spec.compartments())
            },
            colocated: baseline,
            mode: self.spec.resource_mode,
            dpdk: self.spec.datapath == DatapathKind::Dpdk,
        };
        let totals = ledger.totals();

        Ok(Measurement {
            config: self.spec.label(),
            scenario: self.spec.scenario.label().to_string(),
            offered_pps: opts.rate_pps,
            throughput_pps: w.sink.received as f64 / opts.measure.as_secs_f64(),
            sent: w.sink.sent,
            received: w.sink.received,
            latency: w.sink.latency.summary(),
            per_flow: w.sink.per_flow.clone(),
            drops: w
                .drops
                .iter()
                .map(|(k, v)| (k.as_str().to_string(), *v))
                .collect(),
            cores: totals.cores,
            hugepages: totals.hugepages,
        })
    }

    /// Runs the same experiment across `seeds`, merging latency samples
    /// and averaging throughput — the paper's repeated-runs methodology.
    pub fn run_repeated(&self, opts: RunOpts, seeds: &[u64]) -> Result<Measurement, DeployError> {
        let mut merged: Option<Measurement> = None;
        let mut tputs = Vec::new();
        for &seed in seeds {
            let m = self.run(opts.with_seed(seed))?;
            tputs.push(m.throughput_pps);
            match &mut merged {
                None => merged = Some(m),
                Some(acc) => {
                    acc.sent += m.sent;
                    acc.received += m.received;
                    for (a, b) in acc.per_flow.iter_mut().zip(m.per_flow.iter()) {
                        *a += b;
                    }
                }
            }
        }
        let mut out = merged.unwrap_or_default();
        if !tputs.is_empty() {
            out.throughput_pps = tputs.iter().sum::<f64>() / tputs.len() as f64;
        }
        Ok(out)
    }
}

/// The standard configuration matrix of Fig. 5, by resource mode row.
///
/// - `shared`: Baseline(1 core) vs L1, L2-2, L2-4 on one shared core.
/// - `isolated`: Baseline with 1/2/4 cores vs L1, L2-2, L2-4.
/// - `dpdk`: the same matrix with the DPDK datapath (isolated only).
pub fn fig5_matrix(
    mode: ResourceMode,
    datapath: DatapathKind,
    scenario: crate::spec::Scenario,
) -> Vec<DeploymentSpec> {
    let mut out = Vec::new();
    match mode {
        ResourceMode::Shared => {
            out.push(DeploymentSpec::baseline(datapath, mode, 1, scenario));
            out.push(DeploymentSpec::mts(
                SecurityLevel::Level1,
                datapath,
                mode,
                scenario,
            ));
            out.push(DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                datapath,
                mode,
                scenario,
            ));
            out.push(DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 4 },
                datapath,
                mode,
                scenario,
            ));
        }
        ResourceMode::Isolated => {
            for cores in [1u8, 2, 4] {
                out.push(DeploymentSpec::baseline(datapath, mode, cores, scenario));
            }
            out.push(DeploymentSpec::mts(
                SecurityLevel::Level1,
                datapath,
                mode,
                scenario,
            ));
            out.push(DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 2 },
                datapath,
                mode,
                scenario,
            ));
            out.push(DeploymentSpec::mts(
                SecurityLevel::Level2 { compartments: 4 },
                datapath,
                mode,
                scenario,
            ));
        }
    }
    // The paper could not run v2v with 4 singleton compartments.
    out.retain(|s| Controller::v2v_pairs(s).is_ok() || s.scenario != crate::spec::Scenario::V2v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    fn quick() -> RunOpts {
        RunOpts {
            rate_pps: 200_000.0,
            wire_len: 64,
            warmup: Dur::millis(1),
            measure: Dur::millis(4),
            seed: 3,
        }
    }

    #[test]
    fn low_rate_run_is_lossless() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2p,
        );
        let m = Testbed::new(spec).run(quick()).unwrap();
        assert!(m.loss() < 0.01, "loss {} drops {:?}", m.loss(), m.drops);
        assert!(m.throughput_pps > 150_000.0);
        assert_eq!(m.scenario, "p2p");
    }

    #[test]
    fn saturating_run_reports_capacity_not_offered() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let opts = RunOpts {
            rate_pps: 5_000_000.0,
            ..quick()
        };
        let m = Testbed::new(spec).run(opts).unwrap();
        assert!(m.throughput_pps < 1_500_000.0, "mpps {}", m.mpps());
        assert!(m.throughput_pps > 100_000.0);
        assert!(m.loss() > 0.5);
    }

    #[test]
    fn repeated_runs_average() {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2p,
        );
        let m = Testbed::new(spec)
            .run_repeated(quick(), &[1, 2, 3])
            .unwrap();
        assert!(m.sent > 0);
        assert!(m.throughput_pps > 0.0);
    }

    #[test]
    fn fig5_matrix_shapes() {
        let shared = fig5_matrix(ResourceMode::Shared, DatapathKind::Kernel, Scenario::P2v);
        assert_eq!(shared.len(), 4);
        let iso = fig5_matrix(ResourceMode::Isolated, DatapathKind::Kernel, Scenario::P2p);
        assert_eq!(iso.len(), 6);
        // v2v excludes L2-4.
        let v2v = fig5_matrix(ResourceMode::Isolated, DatapathKind::Kernel, Scenario::V2v);
        assert!(v2v
            .iter()
            .all(|s| s.compartments() != 4 || s.level == SecurityLevel::Baseline));
    }
}
