//! The steady-state allocation budget of the datapath, inside tier-1.
//!
//! The frame itself — `Frame::new`'s shared payload — is the only heap
//! allocation a frame may cost on the cache-hit path, on the slow path and
//! on the overload drop path; everything else rides in caller-owned scratch
//! buffers (DESIGN.md §5). `benchmark/` reads the same quantity as
//! `allocs_per_op`, over whole runs and in release only; this test reads it
//! after a warm-up window, in whatever profile `cargo test` builds, so a
//! per-frame `Vec` or boxed closure sneaking back in fails here first.
//!
//! With telemetry recording the budget is two: the frame, plus the amortised
//! share of a journey-index node and of the hop-record chunks (OBSERVABILITY.md,
//! "Storage and cost") — and switching recording on costs set-up exactly one
//! allocation, because `benchmark/` enables it inside `setup_s`.
//!
//! The control plane has a row too: past its first replay of the
//! verify-churn-l2-4 stream, the incremental verifier allocates what each
//! delta's report owns and little else (DESIGN.md §5, "Checker-owned
//! scratch in the verifier").
//!
//! This is the one file in the workspace that needs `unsafe`: a
//! `GlobalAlloc` cannot be written without it.
#![allow(unsafe_code)]

use mts::apps::http::HTTP_PORT;
use mts::apps::{AbClient, HttpServer};
use mts::core::controller::Controller;
use mts::core::delta::ConfigDelta;
use mts::core::reconcile::reconcile;
use mts::core::runtime::{start_udp_churn_generator, RuntimeCfg, Sim, WireEnd, World};
use mts::core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts::core::tcphost::{add_lg_client, add_tenant_server, host_start};
use mts::faults::{run_traced, FaultCase, FaultOpts};
use mts::host::ResourceMode;
use mts::isocheck::{IncrementalChecker, Model};
use mts::net::TcpSegment;
use mts::sim::{DetRng, Dur, Time};
use mts::tcp::{Connection, Progress, TcpConfig};
use mts::telemetry::{Label, MetricsRegistry, Telemetry};
use mts::vswitch::DatapathKind;
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap allocations made by the process so far (a `realloc` counts as one,
/// as in `benchmark/`), and the bytes they asked for.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

struct Counting;

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract, and returns what `System` returned.
// The only addition is a relaxed increment of two statistics that publish
// no other data, never allocate and never touch the block.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above; `ptr` came from this allocator, that is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per op over `(warmup, warmup + measure]` of simulated time,
/// where `ops` reads the world's running count of completed ops.
fn allocs_per_op(
    w: &mut World,
    e: &mut Sim,
    warmup: Dur,
    measure: Dur,
    min_ops: u64,
    ops: impl Fn(&World) -> u64,
) -> f64 {
    e.run_until(w, Time::ZERO + warmup);
    let (ops_before, allocs_before) = (ops(w), ALLOCATIONS.load(Ordering::Relaxed));
    e.run_until(w, Time::ZERO + warmup + measure);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    let done = ops(w) - ops_before;
    assert!(done >= min_ops, "window too short: {done} ops");
    allocs as f64 / done as f64
}

/// The paper's Level-2 p2v deployment under a 64 B UDP probe stream, one
/// flow per tenant: `benchmark/`'s `prepare_udp`.
fn udp_world(compartments: u8, rate_pps: f64, dport_span: u16) -> (World, Sim) {
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = rate_pps;
    let mut w = World::new(Controller::deploy(spec).expect("deploys"), cfg, 11);
    let mut e = Sim::new();
    w.sink.window = (Time::ZERO, Time::MAX);
    let flows = w.tenant_flows();
    start_udp_churn_generator(&mut e, flows, rate_pps, 64, Time::MAX, dport_span);
    (w, e)
}

/// Baseline Apache under ApacheBench, one client per tenant server:
/// `benchmark/`'s `prepare_tcp`.
fn apache_world(concurrency: u32) -> (World, Sim, Vec<usize>) {
    let spec =
        DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = 1_000_000.0;
    cfg.rx_ring = 1024;
    let d = Controller::deploy_workload(spec).expect("deploys");
    let mut w = World::new(d, cfg, 11);
    let mut e = Sim::new();
    for t in 0..spec.tenants {
        let app = Box::new(HttpServer::new());
        add_tenant_server(&mut w, t, HTTP_PORT, app, Dur::nanos(1_500));
    }
    let dmac = Controller::baseline_router_mac(0);
    let mut clients = Vec::new();
    for t in 0..spec.tenants {
        let server_ip = w.plan.tenants[t as usize].ip;
        clients.push(add_lg_client(
            &mut w,
            &format!("client-{t}"),
            Ipv4Addr::new(10, 255, 0, 10 + t),
            Box::new(AbClient::new(server_ip, concurrency)),
            vec![(server_ip, dmac)],
        ));
    }
    w.wire_ends = vec![WireEnd::Host(clients[0])];
    for &h in &clients {
        host_start(&mut w, &mut e, h);
    }
    (w, e, clients)
}

/// One test, because the counter is process-wide: a second test on another
/// thread would be counted into this one's windows.
#[test]
fn steady_state_allocations_stay_within_budget() {
    let frames_sent = |w: &World| w.sink.sent;

    // Cache-hit path: 200 kpps into Level-2 with four compartments,
    // loss-free. The warm-up grows the event slab, the l2fwd buffers, the
    // scratch vectors and the histograms.
    let (mut w, mut e) = udp_world(4, 200_000.0, 1);
    let hit = allocs_per_op(
        &mut w,
        &mut e,
        Dur::millis(30),
        Dur::millis(120),
        20_000,
        frames_sent,
    );
    assert_eq!(w.total_drops(), 0, "drops: {:?}", w.drops);
    assert!(
        hit <= 1.01,
        "cache-hit path: {hit:.4} allocations per frame"
    );

    // Slow path: 16 384 destination ports against 8 192 cache entries, so
    // every frame is a miss and is delivered. The warm-up spans the first
    // capacity flush of every cache (after which the maps stop growing).
    let (mut w, mut e) = udp_world(2, 100_000.0, 16_384);
    let miss = allocs_per_op(
        &mut w,
        &mut e,
        Dur::millis(150),
        Dur::millis(250),
        20_000,
        frames_sent,
    );
    let (hits, misses, flushes) = w.vswitches.iter().fold((0, 0, 0), |acc, vs| {
        let cs = vs.inst.sw.cache_stats();
        (acc.0 + cs.hits, acc.1 + cs.misses, acc.2 + cs.flushes)
    });
    assert!(
        misses > 100 * hits.max(1) && flushes >= 4,
        "not a slow-path run: {hits} hits, {misses} misses, {flushes} flushes"
    );
    assert_eq!(w.total_drops(), 0, "drops: {:?}", w.drops);
    assert!(miss <= 1.01, "slow path: {miss:.4} allocations per frame");

    // Overload: 4 Mpps into two compartments, most frames die at a full
    // ring as typed drops.
    let (mut w, mut e) = udp_world(2, 4_000_000.0, 1);
    let flood = allocs_per_op(
        &mut w,
        &mut e,
        Dur::millis(5),
        Dur::millis(10),
        20_000,
        frames_sent,
    );
    assert!(
        w.total_drops() > w.sink.received,
        "not overloaded: {} drops, {} received",
        w.total_drops(),
        w.sink.received
    );
    assert!(flood <= 1.01, "drop path: {flood:.4} allocations per frame");

    // Recording on. Enabling it is what `benchmark/` does between
    // `World::new` and the timed region, so it may cost set-up one small
    // allocation — the box of empty containers — and nothing until an event
    // records something: no first chunk, no pre-registered series, no
    // histogram (each is a zeroed 15 KB buffer).
    let (mut w, mut e) = udp_world(4, 200_000.0, 1);
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    );
    w.telemetry = Telemetry::enabled();
    let enabling = (
        ALLOCATIONS.load(Ordering::Relaxed) - before.0,
        BYTES.load(Ordering::Relaxed) - before.1,
    );
    assert!(
        enabling.0 <= 1 && enabling.1 <= 512,
        "Telemetry::enabled(): {} allocations, {} bytes",
        enabling.0,
        enabling.1
    );
    let rec = w.telemetry.recorder().expect("enabled");
    assert!(rec.metrics.is_empty() && rec.trace.is_empty() && rec.journeys.is_empty());

    // The same cache-hit traffic, every hop and metric update recorded. The
    // warm-up registers every series and grows every histogram.
    let traced_hit = allocs_per_op(
        &mut w,
        &mut e,
        Dur::millis(30),
        Dur::millis(120),
        20_000,
        frames_sent,
    );
    assert_eq!(w.total_drops(), 0, "drops: {:?}", w.drops);
    let rec = w.telemetry.recorder().expect("enabled");
    assert_eq!(rec.journeys.len() as u64, w.sink.sent);
    assert!(
        traced_hit <= 2.0,
        "cache-hit path, recording on: {traced_hit:.4} allocations per frame"
    );

    // The overload flood recorded: `drop_frame_traced` and the `cause` label.
    let (mut w, mut e) = udp_world(2, 4_000_000.0, 1);
    w.telemetry = Telemetry::enabled();
    let traced_flood = allocs_per_op(
        &mut w,
        &mut e,
        Dur::millis(5),
        Dur::millis(10),
        20_000,
        frames_sent,
    );
    assert!(
        w.total_drops() > w.sink.received,
        "not overloaded: {} drops, {} received",
        w.total_drops(),
        w.sink.received
    );
    assert!(
        traced_flood <= 2.0,
        "drop path, recording on: {traced_flood:.4} allocations per frame"
    );

    // TCP: Baseline Apache, 200 connections per client. The warm-up is the
    // connection ramp; what remains per request (21.3 here) is its ~21
    // frames: the stack appends into the host's segment buffer, the host
    // and its app callbacks reuse the host's scratch, and the connect ramp
    // is a typed event. The 28 per-call emit lists, 21 stack `Output`s, 6
    // context buffers and 1 boxed connect closure a request used to cost
    // would each break the budget.
    let (mut w, mut e, clients) = apache_world(200);
    let apache = allocs_per_op(
        &mut w,
        &mut e,
        Dur::millis(100),
        Dur::millis(100),
        500,
        |w: &World| {
            clients
                .iter()
                .map(|&h| w.hosts[h].counter("http_requests_done"))
                .sum()
        },
    );
    assert!(
        apache <= 23.0,
        "Apache: {apache:.2} allocations per request"
    );

    // The stack alone: 1 MB over a lossy, reordering channel, through the
    // `_into` API with one reused buffer. Past the warm-up (which grows the
    // buffer, the channel and the reassembly ranges) a segment allocates
    // nothing at all.
    let mut ch = TcpChannel::new(7);
    ch.run(256 * 1024);
    let (segments, before) = (ch.segments, ALLOCATIONS.load(Ordering::Relaxed));
    ch.run(1 << 20);
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let segments = ch.segments - segments;
    assert!(
        ch.dropped > 0 && ch.reordered > 0,
        "a clean channel tests nothing"
    );
    assert!(segments > 500, "only {segments} segments");
    assert_eq!(allocs, 0, "{allocs} allocations over {segments} segments");

    // The verifier: `benchmark/`'s verify-churn-l2-4 replay, `apply` then
    // `report` after every delta. The first replay grows every reach set and
    // scratch buffer; after it a delta costs its report's strings, the
    // transient violations' witness paths and a rule clone per install
    // (11.18 measured; 505.88 before the checker kept its scratch). The
    // same sources recompute as before — fewer allocations, not less work.
    let (mut checker, deltas) = verify_churn();
    replay(&mut checker, &deltas);
    let stats = checker.stats();
    assert_eq!(
        (
            stats.sources_recomputed,
            stats.sources_skipped,
            stats.full_rebuilds
        ),
        (80, 64, 0),
        "work done by one replay"
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        replay(&mut checker, &deltas);
    }
    let per_delta =
        (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / (10 * deltas.len()) as f64;
    assert!(
        per_delta <= 1.1 * 11.18,
        "verifier: {per_delta:.4} allocations per delta"
    );

    // A liveness delta changes nothing, so its report costs only what the
    // report owns: the label, the warnings `Vec` and one string for each of
    // its four warnings.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    checker.apply(&ConfigDelta::VswitchDown { vswitch: 0 });
    let report = checker.report().expect("verdict");
    let liveness = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(report.is_clean() && report.warnings.len() == 4, "{report}");
    assert!(
        liveness <= 6,
        "VswitchDown + report: {liveness} allocations"
    );

    // The verifier's model of a deployment, which `benchmark/` builds in
    // `setup_s` through `verify(&d)`: the devices are read into the
    // controller's config format, whose rules and filters then move into
    // the model. 110 measured; 113 when the model cloned them out of the
    // devices itself.
    // Deploy converges an empty topology through `ConfigDelta::apply`:
    // each rule, filter list and VF configuration is cloned once into its
    // delta and once into the device. 151 measured.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let d = Controller::deploy(level2_4_p2v()).expect("deploys");
    let deploy = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(deploy <= 151, "Controller::deploy: {deploy} allocations");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let model = Model::of(&d).expect("model builds");
    let extraction = ALLOCATIONS.load(Ordering::Relaxed) - before;
    drop(model);
    assert!(extraction <= 110, "Model::of: {extraction} allocations");

    // The supervisor's periodic reconcile over a healthy world compares
    // statics and rules in place: the no-op pass allocates nothing (18 when
    // it collected each PF's statics and cloned every rule to compare).
    let mut w = World::new(d, RuntimeCfg::for_spec(&level2_4_p2v()), 11);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = reconcile(&mut w);
    let noop = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(report.churn(), 0, "{report}");
    assert_eq!(noop, 0, "no-op reconcile pass: {noop} allocations");

    // A metric update on a series that exists: typed labels, one index
    // probe, no formatting and no key to build. A kind's first series
    // allocates its slot chunk, the chunk list, the index and its labels;
    // a histogram, its buckets too.
    let mut m = MetricsRegistry::new();
    let labels = [
        ("layer", Label::Str("vswitch")),
        ("tenant", Label::Num(3)),
        ("attribution", Label::Str("exact")),
    ];
    let port = [("vswitch", Label::Num(1)), ("port", Label::Str("2"))];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for v in 0..1_000 {
        m.counter_add("mts_cycles_ns_total", &labels, v);
        m.observe("mts_cycles_grant_ns", &labels, v);
        m.gauge_max("mts_vswitch_ring_hwm", &port, v as f64);
    }
    let first_seen = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(
        first_seen <= 13,
        "three new series: {first_seen} allocations"
    );
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for v in 0..1_000 {
        m.counter_add("mts_cycles_ns_total", &labels, v);
        m.observe("mts_cycles_grant_ns", &labels, v);
        m.gauge_max("mts_vswitch_ring_hwm", &port, v as f64);
    }
    let updates = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(updates, 0, "3000 metric updates: {updates} allocations");
}

fn level2_4_p2v() -> DeploymentSpec {
    DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 4 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    )
}

/// `benchmark/`'s verify-churn-l2-4: the delta stream of five fault runs on
/// Level-2 with four compartments, and a checker over a fresh world.
fn verify_churn() -> (IncrementalChecker, Vec<ConfigDelta>) {
    let spec = level2_4_p2v();
    let opts = FaultOpts {
        rate_pps: 50_000.0,
        seed: 1,
        ..FaultOpts::default()
    };
    let mut deltas = Vec::new();
    for case in [
        FaultCase::CrashLoop,
        FaultCase::WipeFlows,
        FaultCase::LoseRules,
        FaultCase::FlushVeb,
        FaultCase::Crash,
    ] {
        let mut w = run_traced(spec, case, opts).expect("fault run deploys");
        deltas.extend(w.deltas.drain().into_iter().map(|(_, d)| d));
    }
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = opts.rate_pps;
    let w = World::new(Controller::deploy(spec).expect("deploys"), cfg, 11);
    let checker = IncrementalChecker::of_world(&w).expect("checker builds");
    (checker, deltas)
}

/// One replay of the stream, as `benchmark/` runs it.
fn replay(checker: &mut IncrementalChecker, deltas: &[ConfigDelta]) {
    for d in deltas {
        checker.apply(d);
        std::hint::black_box(checker.report().expect("verdict"));
    }
}

/// A client/server `Connection` pair and the channel between them, which
/// drops 2 % of segments and delays each by 50–250 us, so later segments
/// overtake earlier ones.
struct TcpChannel {
    client: Connection,
    server: Connection,
    /// Segments in flight: (arrival, towards the server?, segment).
    wire: Vec<(Time, bool, TcpSegment)>,
    /// The one segment buffer every stack call appends to.
    buf: Vec<TcpSegment>,
    rng: DetRng,
    now: Time,
    delivered: u64,
    segments: u64,
    dropped: u64,
    reordered: u64,
}

impl TcpChannel {
    fn new(seed: u64) -> TcpChannel {
        let cfg = TcpConfig::default();
        let mut buf = Vec::new();
        let client = Connection::client_into(cfg, 40_000, 80, 7, Time::ZERO, &mut buf);
        let syn = buf[0];
        let server =
            Connection::server_from_syn_into(cfg, &syn, 99, Time::ZERO, &mut buf).expect("a SYN");
        let mut ch = TcpChannel {
            client,
            server,
            wire: Vec::new(),
            buf: Vec::new(),
            rng: DetRng::new(seed),
            now: Time::ZERO,
            delivered: 0,
            segments: 0,
            dropped: 0,
            reordered: 0,
        };
        ch.transmit(false, buf.drain(1..));
        ch
    }

    /// Puts segments on the wire in one direction.
    fn transmit(&mut self, to_server: bool, segs: impl Iterator<Item = TcpSegment>) {
        for seg in segs {
            self.segments += 1;
            if self.rng.chance(0.02) {
                self.dropped += 1;
                continue;
            }
            let at = self.now + Dur::micros(self.rng.between(50, 250));
            self.reordered += u64::from(self.wire.iter().any(|w| w.1 == to_server && w.0 > at));
            self.wire.push((at, to_server, seg));
        }
    }

    /// Runs until the server has delivered `bytes` more to its app.
    fn run(&mut self, bytes: u64) {
        let goal = self.delivered + bytes;
        let p = self.client.send_into(bytes, self.now, &mut self.buf);
        assert_eq!(p, Progress::default());
        self.flush(true);
        while self.delivered < goal {
            let next = (0..self.wire.len()).min_by_key(|&i| self.wire[i].0);
            let timer = [self.client.next_timer(), self.server.next_timer()];
            let due = timer.iter().flatten().min().copied();
            match next {
                Some(i) if due.is_none_or(|t| self.wire[i].0 <= t) => {
                    let (at, to_server, seg) = self.wire.swap_remove(i);
                    self.now = at;
                    let conn = if to_server {
                        &mut self.server
                    } else {
                        &mut self.client
                    };
                    self.delivered += conn.on_segment_into(&seg, at, &mut self.buf).delivered;
                    self.flush(!to_server);
                }
                _ => {
                    let t = due.expect("the transfer stalled");
                    self.now = t;
                    self.client.on_timer_into(t, &mut self.buf);
                    self.flush(true);
                    self.server.on_timer_into(t, &mut self.buf);
                    self.flush(false);
                }
            }
        }
    }

    /// Transmits what the last call appended.
    fn flush(&mut self, to_server: bool) {
        let mut buf = std::mem::take(&mut self.buf);
        self.transmit(to_server, buf.drain(..));
        self.buf = buf;
    }
}
