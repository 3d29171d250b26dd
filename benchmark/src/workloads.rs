//! The six workloads: what each one deploys, the fixed work of one
//! repetition, and the checks on its simulated results.
//!
//! A repetition has three parts. [`prepare`] is everything before the timed
//! region (deploy, static pre-check, `World::new`, generator or stream
//! preparation) and is what `setup_s` measures. [`Prepared::run`] is the
//! timed region and nothing else. [`Prepared::harvest`] reads the results
//! out and checks them. The simulator is driven through public functions
//! only.

use crate::spans::Tracer;
use mts_apps::http::HTTP_PORT;
use mts_apps::{AbClient, HttpServer};
use mts_core::controller::Controller;
use mts_core::delta::ConfigDelta;
use mts_core::meters::Layer;
use mts_core::runtime::{start_udp_churn_generator, RuntimeCfg, Sim, WireEnd, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_core::tcphost::{add_lg_client, add_tenant_server, host_start};
use mts_core::workloads::{run_workload, Workload, WorkloadOpts};
use mts_faults::{FaultCase, FaultOpts};
use mts_host::ResourceMode;
use mts_isocheck::IncrementalChecker;
use mts_net::MacAddr;
use mts_nic::PfId;
use mts_sim::{Dur, Histogram, Time};
use mts_telemetry::Telemetry;
use mts_vswitch::DatapathKind;
use std::cell::Cell;
use std::fmt::Write as _;
use std::net::Ipv4Addr;
use std::rc::Rc;

/// A workload of the benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    UdpFast,
    MegaflowChurn,
    OverloadFlood,
    UdpFastTelemetry,
    TcpApache,
    VerifyChurn,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::UdpFast,
        Kind::MegaflowChurn,
        Kind::OverloadFlood,
        Kind::UdpFastTelemetry,
        Kind::TcpApache,
        Kind::VerifyChurn,
    ];

    /// The name used in `BENCHMARK.json`, on the command line and in
    /// every result.
    pub fn name(self) -> &'static str {
        match self {
            Kind::UdpFast => "udp-fast-l2-4",
            Kind::MegaflowChurn => "megaflow-churn-l2-2",
            Kind::OverloadFlood => "overload-flood-l2-2",
            Kind::UdpFastTelemetry => "udp-fast-l2-4-telemetry",
            Kind::TcpApache => "tcp-apache-baseline",
            Kind::VerifyChurn => "verify-churn-l2-4",
        }
    }

    /// The workload named `name`.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The unit of simulated work ("op") the per-op metrics divide by.
    pub fn op(self) -> &'static str {
        match self {
            Kind::TcpApache => "HTTP request",
            Kind::VerifyChurn => "delta",
            _ => "frame",
        }
    }

    /// Why the workload exists: one line, as `BENCHMARK.json` carries it.
    pub fn why(self) -> &'static str {
        match self {
            Kind::UdpFast => {
                "paper's p2v probe at 64 B, loss-free, flow-cache hit ratio ~1: engine, handlers, \
                 NIC VEB and cache hit do the work, the slow path none"
            }
            Kind::MegaflowChurn => {
                "16384 dports (2x cache capacity) at 100 kpps: every frame is a slow-path miss \
                 and is delivered; moves with classification, not with the fast path"
            }
            Kind::OverloadFlood => {
                "4 Mpps into the same layers: rings full, ~78% typed drops, meters and the drop \
                 path dominate; shows a forward-path gain that costs the drop path"
            }
            Kind::UdpFastTelemetry => {
                "udp-fast-l2-4 with telemetry recording on: the cost of journeys, trace events \
                 and metrics in time, allocations and heap"
            }
            Kind::TcpApache => {
                "only workload on the Baseline path (vhost copy), on mts-tcp/mts-apps, MTU-size \
                 frames and boxed-closure events; closed loop, 200 connections per client"
            }
            Kind::VerifyChurn => {
                "control plane only: replays the fault-recovery delta stream through \
                 IncrementalChecker apply+report; a datapath change must not move it"
            }
        }
    }

    fn udp_shape(self) -> Option<UdpShape> {
        let shape = |compartments, rate_pps, gen_ms, dport_span, telemetry| UdpShape {
            compartments,
            rate_pps,
            gen: Dur::millis(gen_ms),
            dport_span,
            telemetry,
        };
        match self {
            // 1.2 M frames.
            Kind::UdpFast => Some(shape(4, 200_000.0, 6_000, 1, false)),
            // 700 k frames. 100 kpps keeps the rings short of full, so every
            // miss is also a delivery; at Mpps rates this deployment drops
            // most frames before classification.
            Kind::MegaflowChurn => Some(shape(2, 100_000.0, 7_000, 16_384, false)),
            // 2.4 M frames.
            Kind::OverloadFlood => Some(shape(2, 4_000_000.0, 600, 1, false)),
            // 100 k frames: recording costs ~7x per frame and holds ~2.4 KB
            // of heap per frame.
            Kind::UdpFastTelemetry => Some(shape(4, 200_000.0, 500, 1, true)),
            Kind::TcpApache | Kind::VerifyChurn => None,
        }
    }
}

/// Shape of a UDP workload at full work.
struct UdpShape {
    compartments: u8,
    rate_pps: f64,
    gen: Dur,
    dport_span: u16,
    telemetry: bool,
}

/// Frames still in flight when the generator stops leave within this.
const UDP_DRAIN: Dur = Dur::millis(10);
/// `tcp-apache-baseline` at full work: connections ramp up, then the
/// measured window.
const TCP_WARMUP: Dur = Dur::millis(400);
const TCP_MEASURE: Dur = Dur::millis(2_600);
const TCP_CONCURRENCY: u32 = 200;
/// `verify-churn-l2-4` at full work: whole replays of the 33-delta stream.
const VERIFY_REPLAYS: u32 = 1_800;
/// Seed of the fault runs that generate the stream. It is a constant of
/// the workload, not `--seed`: which rules the rule-loss fault picks
/// changes the stream's length (28 to 33 deltas) and its allocations per
/// delta by 2 %, twenty times what any other workload's seed moves.
const VERIFY_STREAM_SEED: u64 = 1;

/// The divisor applied to the full work: 1 for timed repetitions, 4 for
/// the traced pass, 20 for `--quick`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scale(pub u32);

impl Scale {
    pub const FULL: Scale = Scale(1);
    pub const TRACED: Scale = Scale(4);
    pub const QUICK: Scale = Scale(20);

    fn dur(self, d: Dur) -> Dur {
        d / u64::from(self.0)
    }
}

/// The paper's Level-2 p2v deployment on the kernel datapath.
pub(crate) fn l2(compartments: u8) -> DeploymentSpec {
    DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    )
}

fn baseline() -> DeploymentSpec {
    DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v)
}

/// The next-hop MAC the load generator uses to reach tenant `t`.
fn route_mac(w: &World, t: u8) -> MacAddr {
    if w.spec.level.compartmentalized() {
        let c = w.spec.compartment_of_tenant(t) as usize;
        w.plan.compartments[c].in_out[0].1
    } else {
        Controller::baseline_router_mac(0)
    }
}

/// One `(dmac, dst_ip)` probe flow per tenant.
pub fn tenant_flows(w: &World) -> Vec<(MacAddr, Ipv4Addr)> {
    w.plan
        .tenants
        .iter()
        .map(|t| (route_mac(w, t.index), t.ip))
        .collect()
}

/// One pass/fail check on a repetition's simulated results.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    /// The numbers the verdict rests on.
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

/// Counts read from the layers after a repetition. All exact.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerCounts {
    /// Engine events fired, and per kind.
    pub events: u64,
    pub dispatch: Vec<(&'static str, u64)>,
    pub sent: u64,
    pub drops: u64,
    pub hairpin_served: u64,
    pub hairpin_drops: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_flushes: u64,
    /// Simulated busy nanoseconds per [`Layer`], in `Layer::ALL` order.
    pub cycles_ns: [u64; Layer::COUNT],
    /// Incremental-checker work (verify-churn only).
    pub sources_recomputed: u64,
    pub sources_skipped: u64,
    pub atom_rebuilds: u64,
}

/// What a repetition produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Units of simulated work done in the timed region.
    pub ops: u64,
    pub checks: Vec<Check>,
    /// Hash over the simulated results; see [`Digest`].
    pub sim_digest: u64,
    pub counts: LayerCounts,
    /// Application throughput in ops per simulated second (TCP only).
    pub app_throughput: f64,
}

impl Outcome {
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }
}

/// FNV-1a over the text form of the simulated results: sent, received,
/// drops by cause, simulated p50 and p99, application throughput, verdict
/// text. Two runs with equal digests simulated the same thing.
struct Digest(String);

impl Digest {
    fn new() -> Digest {
        Digest(String::new())
    }

    fn field(&mut self, key: &str, value: impl std::fmt::Display) {
        let _ = writeln!(self.0, "{key}={value}");
    }

    fn world(&mut self, w: &World, latency: &Histogram) {
        self.field("sent", w.sink.sent);
        self.field("received", w.sink.received);
        for (cause, n) in &w.drops {
            self.field(cause.as_str(), n);
        }
        self.field("p50_ns", latency.percentile(50.0));
        self.field("p99_ns", latency.percentile(99.0));
    }

    fn finish(&self) -> u64 {
        self.0.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

/// A simulation ready to run: world, engine and the simulated instant the
/// timed region runs to.
pub struct SimRun {
    kind: Kind,
    pub w: World,
    pub e: Sim,
    pub deadline: Time,
    /// Frames the generator will emit (UDP workloads).
    frames: u64,
    /// TCP client hosts and the measured simulated window.
    clients: Vec<usize>,
    measure: Dur,
}

/// The verification replay, ready to run.
pub struct VerifyRun {
    world: World,
    pub checker: IncrementalChecker,
    pub deltas: Vec<ConfigDelta>,
    pub replays: u32,
    /// The verdict before the stream; every replay must end on it.
    baseline: String,
    replays_matched: u32,
}

/// A repetition after its set-up, before its timed region.
pub enum Prepared {
    Sim(Box<SimRun>),
    Verify(Box<VerifyRun>),
}

/// Runs `f` as the set-up phase `name`: a span when tracing.
fn phase<T>(tracer: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, |_| f()),
        None => f(),
    }
}

fn deploy_checked(
    tracer: &mut Option<&mut Tracer>,
    spec: DeploymentSpec,
    workload_rules: bool,
    cfg: RuntimeCfg,
    seed: u64,
) -> Result<World, String> {
    let d = phase(tracer, "setup.deploy", || {
        if workload_rules {
            Controller::deploy_workload(spec)
        } else {
            Controller::deploy(spec)
        }
    })
    .map_err(|e| e.to_string())?;
    let report =
        phase(tracer, "setup.precheck", || mts_isocheck::verify(&d)).map_err(|e| e.to_string())?;
    if !report.informational && !report.is_clean() {
        return Err(format!("static pre-check failed:\n{report}"));
    }
    Ok(phase(tracer, "setup.world_new", || {
        World::new(d, cfg, seed)
    }))
}

/// Everything before the timed region of one repetition of `kind`.
pub fn prepare(
    kind: Kind,
    seed: u64,
    scale: Scale,
    mut tracer: Option<&mut Tracer>,
) -> Result<Prepared, String> {
    let tracer = &mut tracer;
    match kind.udp_shape() {
        Some(shape) => prepare_udp(kind, shape, seed, scale, tracer),
        None if kind == Kind::TcpApache => prepare_tcp(seed, scale, tracer),
        None => prepare_verify(seed, scale, tracer),
    }
}

fn prepare_udp(
    kind: Kind,
    shape: UdpShape,
    seed: u64,
    scale: Scale,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Prepared, String> {
    let spec = l2(shape.compartments);
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = shape.rate_pps;
    let mut w = deploy_checked(tracer, spec, false, cfg, seed)?;
    Ok(phase(tracer, "setup.prepare", || {
        let mut e = Sim::new();
        w.sink.window = (Time::ZERO, Time::MAX);
        if shape.telemetry {
            w.telemetry = Telemetry::enabled();
        }
        let gen = scale.dur(shape.gen);
        let until = Time::ZERO + gen;
        start_udp_churn_generator(
            &mut e,
            tenant_flows(&w),
            shape.rate_pps,
            64,
            until,
            shape.dport_span,
        );
        // The generator ticks at 0, gap, 2·gap, … while `now < until`.
        let gap = Dur::from_secs_f64(1.0 / shape.rate_pps);
        Prepared::Sim(Box::new(SimRun {
            kind,
            w,
            e,
            deadline: until + UDP_DRAIN,
            frames: gen.as_nanos().div_ceil(gap.as_nanos()),
            clients: Vec::new(),
            measure: Dur::ZERO,
        }))
    }))
}

/// The world `mts_core::workloads::run_workload` builds for Apache, built
/// here so that its set-up and its run can be timed apart.
fn prepare_tcp(
    seed: u64,
    scale: Scale,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Prepared, String> {
    let spec = baseline();
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = 1_000_000.0;
    cfg.rx_ring = 1024;
    let mut w = deploy_checked(tracer, spec, true, cfg, seed)?;
    Ok(phase(tracer, "setup.prepare", || {
        let mut e = Sim::new();
        let opts = tcp_opts(seed, scale);
        for t in 0..spec.tenants {
            add_tenant_server(
                &mut w,
                t,
                HTTP_PORT,
                Box::new(HttpServer::new()),
                Dur::nanos(1_500),
            );
        }
        let mut clients = Vec::new();
        for t in 0..spec.tenants {
            let server_ip = w.plan.tenants[t as usize].ip;
            let dmac = route_mac(&w, t);
            clients.push(add_lg_client(
                &mut w,
                &format!("client-{t}"),
                Ipv4Addr::new(10, 255, 0, 10 + t),
                Box::new(AbClient::new(server_ip, opts.ab_concurrency)),
                vec![(server_ip, dmac)],
            ));
        }
        w.wire_ends = vec![WireEnd::Host(clients[0])];
        for &h in &clients {
            host_start(&mut w, &mut e, h);
        }
        // Counters restart when the ramp-up ends, as in the paper's
        // trimmed measurement interval.
        let warmup_end = Time::ZERO + opts.warmup;
        e.schedule_at(warmup_end, |w: &mut World, _e| {
            for host in &mut w.hosts {
                host.latencies = Histogram::new();
                host.counters.clear();
            }
        });
        Prepared::Sim(Box::new(SimRun {
            kind: Kind::TcpApache,
            w,
            e,
            deadline: warmup_end + opts.duration,
            frames: 0,
            clients,
            measure: opts.duration,
        }))
    }))
}

fn prepare_verify(
    seed: u64,
    scale: Scale,
    tracer: &mut Option<&mut Tracer>,
) -> Result<Prepared, String> {
    let spec = l2(4);
    let opts = FaultOpts {
        rate_pps: 50_000.0,
        seed: VERIFY_STREAM_SEED,
        ..FaultOpts::default()
    };
    let deltas = phase(tracer, "setup.prepare", || delta_stream(spec, opts))?;
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = opts.rate_pps;
    let world = deploy_checked(tracer, spec, false, cfg, seed)?;
    let mut checker = IncrementalChecker::of_world(&world).map_err(|e| e.to_string())?;
    let baseline = checker.report().map_err(|e| e.to_string())?.to_string();
    Ok(Prepared::Verify(Box::new(VerifyRun {
        world,
        checker,
        deltas,
        replays: (VERIFY_REPLAYS / scale.0).max(1),
        baseline,
        replays_matched: 0,
    })))
}

fn tcp_opts(seed: u64, scale: Scale) -> WorkloadOpts {
    WorkloadOpts {
        duration: scale.dur(TCP_MEASURE),
        warmup: scale.dur(TCP_WARMUP),
        ab_concurrency: TCP_CONCURRENCY,
        seed,
        ..WorkloadOpts::default()
    }
}

/// The fault-recovery delta stream: a Level-2 (4 compartments) deployment
/// run under crash loop, flow wipe, rule loss, VEB flush and crash, each
/// with supervisor recovery and periodic reconciliation. Every scenario
/// ends recovered, so the streams concatenate into one that returns the
/// configuration to where it started.
fn delta_stream(spec: DeploymentSpec, opts: FaultOpts) -> Result<Vec<ConfigDelta>, String> {
    let mut deltas = Vec::new();
    for case in [
        FaultCase::CrashLoop,
        FaultCase::WipeFlows,
        FaultCase::LoseRules,
        FaultCase::FlushVeb,
        FaultCase::Crash,
    ] {
        let mut w = mts_faults::run_traced(spec, case, opts).map_err(|e| e.to_string())?;
        deltas.extend(w.deltas.drain().into_iter().map(|(_, d)| d));
    }
    if deltas.is_empty() {
        return Err("fault runs produced no configuration deltas".to_string());
    }
    Ok(deltas)
}

impl VerifyRun {
    /// One replay of the stream, `apply` + `report` after each delta.
    /// Returns the verdict text after the last delta.
    fn replay_once(&mut self, mut tracer: Option<&mut Tracer>) -> String {
        let mut last = None;
        for d in &self.deltas {
            match tracer.as_deref_mut() {
                Some(t) => {
                    let a = t.now_ns();
                    self.checker.apply(d);
                    let b = t.now_ns();
                    last = self.checker.report().ok();
                    let c = t.now_ns();
                    t.leaf("delta.apply", a, b);
                    t.leaf("delta.report", b, c);
                }
                None => {
                    self.checker.apply(d);
                    last = self.checker.report().ok();
                }
            }
        }
        last.map(|r| r.to_string()).unwrap_or_default()
    }

    fn run(&mut self, mut tracer: Option<&mut Tracer>) {
        for _ in 0..self.replays {
            if self.replay_once(tracer.as_deref_mut()) == self.baseline {
                self.replays_matched += 1;
            }
        }
    }
}

impl Prepared {
    /// The timed region: the fixed simulated work, and nothing else.
    pub fn run(&mut self) {
        match self {
            Prepared::Sim(s) => s.e.run_until(&mut s.w, s.deadline),
            Prepared::Verify(v) => v.run(None),
        }
    }

    /// The same work with a span around every call into the simulator:
    /// the engine is driven one `Engine::step` at a time, each step a span
    /// named after the event kind that fired; the replay gets a span per
    /// `apply` and per `report`.
    pub fn run_traced(&mut self, tracer: &mut Tracer) {
        match self {
            Prepared::Verify(v) => v.run(Some(tracer)),
            Prepared::Sim(s) => {
                // `step` has no deadline, so a sentinel event marks it.
                let reached = Rc::new(Cell::new(false));
                let flag = Rc::clone(&reached);
                s.e.schedule_at_tagged(s.deadline, SENTINEL, move |_w: &mut World, _e| {
                    flag.set(true)
                });
                let mut before: Vec<(&'static str, u64)> = s.e.dispatch_counts().collect();
                loop {
                    let a = tracer.now_ns();
                    let more = s.e.step(&mut s.w);
                    let b = tracer.now_ns();
                    if !more {
                        break;
                    }
                    if reached.get() {
                        // Events due at the deadline itself but scheduled
                        // after the sentinel: `run_until` fires them too.
                        s.e.run_until(&mut s.w, s.deadline);
                        break;
                    }
                    // Outside the span: which kind's count moved.
                    let after: Vec<(&'static str, u64)> = s.e.dispatch_counts().collect();
                    tracer.leaf(fired_kind(&before, &after), a, b);
                    before = after;
                }
            }
        }
    }

    /// Reads the results out and checks them.
    pub fn harvest(self) -> Outcome {
        match self {
            Prepared::Sim(s) => s.harvest(),
            Prepared::Verify(v) => v.harvest(),
        }
    }
}

/// Dispatch tag of the deadline sentinel in the stepped loop.
const SENTINEL: &str = "harness.deadline";

/// The kind whose count differs between two `dispatch_counts` listings
/// (both sorted by kind; a kind is absent until it first fires).
fn fired_kind(before: &[(&'static str, u64)], after: &[(&'static str, u64)]) -> &'static str {
    let mut old = before.iter().peekable();
    for &(kind, n) in after {
        match old.peek() {
            Some(&&(k, m)) if k == kind => {
                if m != n {
                    return kind;
                }
                old.next();
            }
            _ => return kind,
        }
    }
    mts_sim::engine::UNTAGGED_EVENT
}

impl SimRun {
    fn counts(&self) -> LayerCounts {
        let dispatch: Vec<(&'static str, u64)> = self
            .e
            .dispatch_counts()
            .filter(|(k, _)| *k != SENTINEL)
            .collect();
        let mut c = LayerCounts {
            events: dispatch.iter().map(|(_, n)| n).sum(),
            dispatch,
            sent: self.w.sink.sent,
            drops: self.w.total_drops(),
            ..LayerCounts::default()
        };
        for p in 0..self.w.nic.port_count() {
            c.hairpin_served += self.w.nic.hairpin_served(PfId(p as u8));
            c.hairpin_drops += self.w.nic.hairpin_drops(PfId(p as u8));
        }
        for vs in &self.w.vswitches {
            let cs = vs.inst.sw.cache_stats();
            c.cache_hits += cs.hits;
            c.cache_misses += cs.misses;
            c.cache_flushes += cs.flushes;
        }
        for (i, layer) in Layer::ALL.into_iter().enumerate() {
            c.cycles_ns[i] = self.w.meters.layer_total(layer).as_nanos();
        }
        c
    }

    fn harvest(mut self) -> Outcome {
        self.e.clear();
        let counts = self.counts();
        let w = &self.w;
        let mut digest = Digest::new();
        let mut checks = Vec::new();
        let (ops, app_throughput) = if self.kind == Kind::TcpApache {
            let secs = self.measure.as_secs_f64();
            let mut latency = Histogram::new();
            let (mut requests, mut rate) = (0u64, 0.0);
            for &h in &self.clients {
                let done = w.hosts[h].counter("http_requests_done");
                requests += done;
                // Summed per client, as `run_workload` sums it.
                rate += done as f64 / secs;
                latency.merge(&w.hosts[h].latencies);
            }
            digest.world(w, &latency);
            digest.field("requests", requests);
            checks.push(check(
                "requests-completed",
                requests > 0,
                format!("{requests} requests in {secs} simulated s"),
            ));
            (requests, rate)
        } else {
            let (sent, received, drops) = (w.sink.sent, w.sink.received, counts.drops);
            digest.world(w, &w.sink.latency);
            let hit_ratio = ratio(counts.cache_hits, counts.cache_hits + counts.cache_misses);
            if self.kind == Kind::OverloadFlood {
                let share = ratio(drops, sent);
                checks.push(check(
                    "frames-conserved",
                    sent == self.frames && sent == received + drops,
                    format!(
                        "sent {sent} of {}, received {received} + drops {drops}",
                        self.frames
                    ),
                ));
                checks.push(check(
                    "drop-share-0.70-to-0.85",
                    (0.70..=0.85).contains(&share),
                    format!("drop share {share:.4}"),
                ));
            } else {
                checks.push(check(
                    "loss-free",
                    sent == self.frames && received == sent && drops == 0,
                    format!(
                        "sent {sent} of {}, received {received}, drops {drops}",
                        self.frames
                    ),
                ));
            }
            match self.kind {
                Kind::UdpFast => checks.push(check(
                    "cache-hit-ratio-above-0.999",
                    hit_ratio > 0.999,
                    format!("hit ratio {hit_ratio:.6}"),
                )),
                Kind::MegaflowChurn => checks.push(check(
                    "cache-hit-ratio-below-0.01",
                    hit_ratio < 0.01,
                    format!("hit ratio {hit_ratio:.6}"),
                )),
                Kind::UdpFastTelemetry => {
                    let journeys = w.telemetry.recorder().map_or(0, |r| r.journeys.len());
                    checks.push(check(
                        "one-journey-per-frame",
                        journeys as u64 == self.frames,
                        format!("{journeys} journeys for {} frames", self.frames),
                    ));
                }
                _ => {}
            }
            (self.frames, 0.0)
        };
        digest.field("app_throughput", app_throughput);
        Outcome {
            ops,
            checks,
            sim_digest: digest.finish(),
            counts,
            app_throughput,
        }
    }
}

impl VerifyRun {
    fn harvest(mut self) -> Outcome {
        let last = self
            .checker
            .report()
            .map(|r| r.to_string())
            .unwrap_or_default();
        let scratch = mts_isocheck::verify_world(&self.world)
            .map(|r| r.to_string())
            .unwrap_or_default();
        let stats = self.checker.stats();
        let mut digest = Digest::new();
        digest.field("deltas", self.deltas.len());
        digest.field("verdict", &last);
        let checks = vec![
            check(
                "every-replay-ends-on-the-pre-stream-verdict",
                self.replays_matched == self.replays,
                format!("{} of {} replays", self.replays_matched, self.replays),
            ),
            check(
                "final-verdict-equals-from-scratch-verify",
                !scratch.is_empty() && last == scratch,
                format!(
                    "{} B incremental, {} B from scratch",
                    last.len(),
                    scratch.len()
                ),
            ),
        ];
        Outcome {
            ops: u64::from(self.replays) * self.deltas.len() as u64,
            checks,
            sim_digest: digest.finish(),
            counts: LayerCounts {
                sources_recomputed: stats.sources_recomputed,
                sources_skipped: stats.sources_skipped,
                atom_rebuilds: stats.full_rebuilds,
                ..LayerCounts::default()
            },
            app_throughput: 0.0,
        }
    }
}

/// `num / den`, zero when the denominator is.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The check that is too slow to repeat every repetition, run once per
/// process on the warm-up's outcome: the world the harness built itself
/// serves requests at exactly the rate `mts_core::workloads::run_workload`
/// reports for the same options.
pub fn reference_check(kind: Kind, seed: u64, scale: Scale, outcome: &Outcome) -> Option<Check> {
    if kind != Kind::TcpApache {
        return None;
    }
    let reference = run_workload(baseline(), Workload::Apache, tcp_opts(seed, scale))
        .map(|r| r.throughput)
        .unwrap_or(f64::NAN);
    Some(check(
        "request-rate-equals-run_workload",
        reference == outcome.app_throughput,
        format!(
            "harness {} req/s, run_workload {reference} req/s",
            outcome.app_throughput
        ),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_well_formed() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
            assert!(
                k.why().len() <= 200 && !k.why().contains('\n'),
                "{}",
                k.name()
            );
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn fired_kind_finds_the_moved_or_new_count() {
        let before = [("dma", 3), ("nic.rx", 5)];
        assert_eq!(fired_kind(&before, &[("dma", 3), ("nic.rx", 6)]), "nic.rx");
        assert_eq!(fired_kind(&before, &[("dma", 4), ("nic.rx", 5)]), "dma");
        assert_eq!(
            fired_kind(&before, &[("dma", 3), ("gen.tick", 1), ("nic.rx", 5)]),
            "gen.tick"
        );
        assert_eq!(fired_kind(&[], &[("wire.tx", 1)]), "wire.tx");
    }

    #[test]
    fn digest_depends_on_every_field() {
        let mut a = Digest::new();
        a.field("sent", 1);
        let mut b = Digest::new();
        b.field("sent", 2);
        assert_ne!(a.finish(), b.finish());
        let mut c = Digest::new();
        c.field("sent", 1);
        assert_eq!(a.finish(), c.finish());
    }
}
