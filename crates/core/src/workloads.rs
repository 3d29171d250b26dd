//! The TCP workload harness (paper Sec. 5).
//!
//! Hosts the tenant servers (iperf sink, Apache-style web server,
//! Memcached) on tenant VMs and the benchmark clients (iperf, ApacheBench,
//! memslap) on the load generator, then measures application throughput
//! and response time exactly as the paper does: one client per server,
//! p2v and v2v patterns, single physical NIC port, means over repetitions
//! with 95% confidence.

use crate::controller::{Controller, DeployError};
use crate::runtime::{RuntimeCfg, Sim, WireEnd, World};
use crate::spec::{DeploymentSpec, Scenario};
use crate::tcphost::{add_lg_client, add_tenant_server, host_start};
use mts_apps::http::HTTP_PORT;
use mts_apps::iperf::IPERF_PORT;
use mts_apps::memcached::MEMCACHED_PORT;
use mts_apps::{AbClient, HttpServer, IperfClient, IperfServer, MemcachedServer, MemslapClient};
use mts_sim::{mean_ci95, Dur, Summary, Time};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// The three workloads of Sec. 5.1.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Workload {
    /// iperf bulk TCP throughput.
    Iperf,
    /// Apache web serving under ApacheBench.
    Apache,
    /// Memcached under memslap (90/10 Set/Get).
    Memcached,
}

impl Workload {
    /// All workloads.
    pub const ALL: [Workload; 3] = [Workload::Iperf, Workload::Apache, Workload::Memcached];

    /// Label for tables.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Iperf => "iperf",
            Workload::Apache => "apache",
            Workload::Memcached => "memcached",
        }
    }

    /// The unit of the throughput metric.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::Iperf => "Gbit/s",
            Workload::Apache => "req/s",
            Workload::Memcached => "ops/s",
        }
    }
}

/// Options for one workload run.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadOpts {
    /// Simulated benchmark duration.
    pub duration: Dur,
    /// Warm-up trimmed from the front (connections ramping up).
    pub warmup: Dur,
    /// ApacheBench concurrency per client (paper: up to 1,000).
    pub ab_concurrency: u32,
    /// memslap connections per client.
    pub memslap_connections: u32,
    /// Seed.
    pub seed: u64,
    /// Rx ring depth of every queue ([`RuntimeCfg::rx_ring`]). TCP needs
    /// queue headroom to absorb slow-start bursts, so the default is the
    /// full virtio/VF depth; a shallow ring turns bursts into tail drops.
    pub rx_ring: usize,
}

impl Default for WorkloadOpts {
    fn default() -> Self {
        WorkloadOpts {
            duration: Dur::millis(1_200),
            warmup: Dur::millis(1_200),
            ab_concurrency: 200,
            memslap_connections: 32,
            seed: 1,
            rx_ring: 1024,
        }
    }
}

impl WorkloadOpts {
    /// Builder: sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Result of one workload run.
#[derive(Clone, Debug, Serialize, Deserialize, Default)]
pub struct WorkloadResult {
    /// Configuration label.
    pub config: String,
    /// Scenario label.
    pub scenario: String,
    /// Workload label.
    pub workload: String,
    /// Aggregate throughput in [`Workload::unit`]s.
    pub throughput: f64,
    /// Response-time distribution (ns; iperf has none).
    pub latency: Summary,
    /// Per-tenant throughput contributions.
    pub per_tenant: Vec<f64>,
    /// 95% CI half-width of the throughput (repeated runs only).
    pub ci95: f64,
    /// Drop counters by cause (diagnostics).
    pub drops: std::collections::BTreeMap<String, u64>,
    /// Per-host TCP counters over the whole run, warm-up included, in host
    /// order: servers, then clients (diagnostics).
    pub tcp: Vec<(String, mts_tcp::ConnStats)>,
}

/// Runs one workload on one configuration.
pub fn run_workload(
    spec: DeploymentSpec,
    workload: Workload,
    opts: WorkloadOpts,
) -> Result<WorkloadResult, DeployError> {
    let d = Controller::deploy_workload(spec)?;
    let mut cfg = RuntimeCfg::for_spec(&spec);
    // TCP is self-clocked at high rates; the vhost drain anomaly of
    // Sec. 4.2 only concerns low-rate UDP probing.
    cfg.offered_pps = 1_000_000.0;
    // The shallow UDP setting would turn tail drops into constant ACK loss
    // and RTO storms on multi-hop chains (see `WorkloadOpts::rx_ring`).
    cfg.rx_ring = opts.rx_ring;
    let mut w = World::new(d, cfg, opts.seed);
    let mut e = Sim::new();

    // Which tenants run servers: all in p2v; the second of each pair in
    // v2v (the first forwards with l2fwd, as in the paper).
    let server_tenants: Vec<u8> = (0..spec.tenants)
        .filter(|t| spec.scenario != Scenario::V2v || Controller::is_v2v_server(&spec, *t))
        .collect();

    let per_segment = Dur::nanos(1_500);
    let mut servers = Vec::new();
    for &t in &server_tenants {
        let h = match workload {
            Workload::Iperf => add_tenant_server(
                &mut w,
                t,
                IPERF_PORT,
                Box::new(IperfServer::new()),
                per_segment,
            ),
            Workload::Apache => add_tenant_server(
                &mut w,
                t,
                HTTP_PORT,
                Box::new(HttpServer::new()),
                per_segment,
            ),
            Workload::Memcached => add_tenant_server(
                &mut w,
                t,
                MEMCACHED_PORT,
                Box::new(MemcachedServer::new()),
                per_segment,
            ),
        };
        servers.push(h);
    }

    // One LG client per server, with a static route to it.
    let mut clients = Vec::new();
    for (i, &t) in server_tenants.iter().enumerate() {
        let server_ip = w.plan.tenants[t as usize].ip;
        let dmac = w.route_mac(t);
        let client_ip = Ipv4Addr::new(10, 255, 0, 10 + i as u8);
        let name = format!("client-{}", i);
        let app: Box<dyn mts_apps::App> = match workload {
            Workload::Iperf => Box::new(IperfClient::new(vec![server_ip])),
            Workload::Apache => Box::new(AbClient::new(server_ip, opts.ab_concurrency)),
            Workload::Memcached => Box::new(MemslapClient::with_connections(
                server_ip,
                opts.memslap_connections,
            )),
        };
        let h = add_lg_client(&mut w, &name, client_ip, app, vec![(server_ip, dmac)]);
        clients.push(h);
    }
    w.wire_ends = vec![WireEnd::Host(clients[0])];

    // Boot the clients; run the benchmark window. Counters and latency
    // samples are reset at the end of the warm-up, exactly like the
    // paper's trimmed measurement interval.
    for &h in &clients {
        host_start(&mut w, &mut e, h);
    }
    let warmup_end = Time::ZERO + opts.warmup;
    e.schedule_at(warmup_end, |w: &mut World, _e| {
        for host in &mut w.hosts {
            host.latencies = mts_sim::Histogram::new();
            host.counters.clear();
        }
    });
    let end = warmup_end + opts.duration;
    e.run_until(&mut w, end);
    e.clear();

    // Harvest.
    let secs = opts.duration.as_secs_f64();
    let mut per_tenant = Vec::new();
    let mut total = 0.0;
    let mut latency = mts_sim::Histogram::new();
    match workload {
        Workload::Iperf => {
            for &h in &servers {
                let gbps = w.hosts[h].counter("iperf_bytes") as f64 * 8.0 / secs / 1e9;
                per_tenant.push(gbps);
                total += gbps;
            }
        }
        Workload::Apache => {
            for &h in &clients {
                let rps = w.hosts[h].counter("http_requests_done") as f64 / secs;
                per_tenant.push(rps);
                total += rps;
                latency.merge(&w.hosts[h].latencies);
            }
        }
        Workload::Memcached => {
            for &h in &clients {
                let ops = w.hosts[h].counter("memcached_ops_done") as f64 / secs;
                per_tenant.push(ops);
                total += ops;
                latency.merge(&w.hosts[h].latencies);
            }
        }
    }

    Ok(WorkloadResult {
        config: spec.label(),
        scenario: spec.scenario.label().to_string(),
        workload: workload.label().to_string(),
        throughput: total,
        latency: latency.summary(),
        per_tenant,
        ci95: 0.0,
        drops: w
            .drops
            .iter()
            .map(|(k, v)| (k.as_str().to_string(), *v))
            .collect(),
        tcp: w
            .hosts
            .iter()
            .map(|host| (host.name.clone(), host.tcp_stats()))
            .collect(),
    })
}

/// Runs a workload across seeds and reports mean throughput with 95% CI,
/// as the paper does ("We collected 5 such measurements … report the mean
/// with 95% confidence").
pub fn run_workload_repeated(
    spec: DeploymentSpec,
    workload: Workload,
    opts: WorkloadOpts,
    seeds: &[u64],
) -> Result<WorkloadResult, DeployError> {
    let mut results = Vec::new();
    for &s in seeds {
        results.push(run_workload(spec, workload, opts.with_seed(s))?);
    }
    let tputs: Vec<f64> = results.iter().map(|r| r.throughput).collect();
    let (mean, half) = mean_ci95(&tputs);
    let mut out = results.into_iter().next().unwrap_or_default();
    out.throughput = mean;
    out.ci95 = half;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SecurityLevel;
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn quick_opts() -> WorkloadOpts {
        WorkloadOpts {
            duration: Dur::millis(80),
            warmup: Dur::millis(20),
            ab_concurrency: 20,
            memslap_connections: 8,
            seed: 5,
            ..WorkloadOpts::default()
        }
    }

    fn spec(level: SecurityLevel, scenario: Scenario) -> DeploymentSpec {
        DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            scenario,
        )
    }

    #[test]
    fn iperf_moves_serious_traffic() {
        let r = run_workload(
            spec(SecurityLevel::Level1, Scenario::P2v),
            Workload::Iperf,
            quick_opts(),
        )
        .unwrap();
        assert_eq!(r.per_tenant.len(), 4);
        assert!(r.throughput > 0.2, "aggregate {} Gbit/s", r.throughput);
        assert!(r.throughput < 10.5, "cannot exceed the 10G link");
    }

    #[test]
    fn apache_serves_requests_and_measures_latency() {
        let r = run_workload(
            spec(SecurityLevel::Level1, Scenario::P2v),
            Workload::Apache,
            quick_opts(),
        )
        .unwrap();
        assert!(r.throughput > 100.0, "req/s {}", r.throughput);
        assert!(r.latency.count > 10);
        assert!(r.latency.p50 > 0);
    }

    #[test]
    fn memcached_completes_ops() {
        let r = run_workload(
            spec(SecurityLevel::Level1, Scenario::P2v),
            Workload::Memcached,
            quick_opts(),
        )
        .unwrap();
        assert!(r.throughput > 100.0, "ops/s {}", r.throughput);
        assert!(r.latency.count > 10);
    }

    #[test]
    fn v2v_uses_half_the_servers() {
        let r = run_workload(
            spec(SecurityLevel::Level1, Scenario::V2v),
            Workload::Iperf,
            quick_opts(),
        )
        .unwrap();
        assert_eq!(r.per_tenant.len(), 2);
        assert!(r.throughput > 0.05, "aggregate {} Gbit/s", r.throughput);
    }

    #[test]
    fn baseline_workload_runs() {
        let s =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        let r = run_workload(s, Workload::Iperf, quick_opts()).unwrap();
        assert!(r.throughput > 0.05, "aggregate {} Gbit/s", r.throughput);
    }

    #[test]
    fn repeated_runs_compute_ci() {
        let r = run_workload_repeated(
            spec(SecurityLevel::Level1, Scenario::P2v),
            Workload::Memcached,
            quick_opts(),
            &[1, 2, 3],
        )
        .unwrap();
        assert!(r.throughput > 0.0);
        assert!(r.ci95 >= 0.0);
    }
}
