//! The measurement procedure: repetitions of a workload's fixed work with
//! tracing off, and the traced pass that gives the per-layer numbers.

use crate::alloc;
use crate::layers::{run_probes, typed_event_ns, LayerMetric};
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::workloads::{prepare, ratio, reference_check, Check, Kind, Outcome, Scale};
use mts_core::meters::Layer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: measured with tracing off, defined on every
/// workload, with the share of the parent's median by which it may worsen
/// before a change counts as a regression.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    /// Absolute amount (in `unit`) below which `compare` calls no
    /// difference a regression, whatever its share. Not in `BENCHMARK.json`.
    pub floor: f64,
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them. Reps that failed
/// a check are reported beside them as `failed` of `attempted`
/// (`failed_share`), not among them: its value is 0 on a healthy tree, and
/// no share of 0 bounds anything.
///
/// A bound has to be three times clear of the spread (distance between the
/// quartiles over the median) of ten runs with ten seeds. On the shared
/// 2-core sandbox this was developed on, that spread is 2.4 % to 9.6 % for
/// the two timing metrics, so they take the largest bound the benchmark
/// contract allows. The allocation metrics repeat exactly for one seed and
/// move by up to 0.12 % between seeds, on `tcp-apache-baseline`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        // A set-up is 0.1 ms on five workloads: under 2 ms a difference
        // is scheduler noise.
        floor: 0.002,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
        floor: 0.0,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
    },
    EndToEnd {
        name: "alloc_bytes_per_op",
        unit: "B",
        better: Better::Lower,
        bound: 0.01,
        floor: 0.0,
    },
    EndToEnd {
        name: "peak_heap_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.02,
        floor: 0.0,
    },
];

/// How many repetitions to time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reps {
    /// Exactly this many.
    Count(usize),
    /// Until the timed regions add up to this many seconds, and at least
    /// [`MIN_REPS`].
    Seconds(f64),
}

/// Fewest repetitions a median is taken over.
pub const MIN_REPS: usize = 3;
/// Repetitions of the stand-alone run (`run`), after the warm-up.
pub const RUN_REPS: usize = 7;
/// `setup_s` is the median of at least this many set-ups: the repetitions'
/// own, then set-ups made only to be timed…
const SETUP_SAMPLES: usize = 31;
/// …for at most this long.
const EXTRA_SETUP_BUDGET_S: f64 = 0.6;
/// Events per calibration loop (about 10 ms). The loop runs three times and
/// the fastest counts: the first pass after a repetition runs on cold
/// caches and, after a large free, on pages the allocator has to fault in.
const CALIBRATION_EVENTS: u64 = 200_000;
const CALIBRATION_LOOPS: usize = 3;

/// A workload measured with tracing off.
#[derive(Clone, Debug)]
pub struct Measured {
    pub kind: Kind,
    /// Units of simulated work per repetition.
    pub ops: u64,
    /// Repetitions run, the warm-up included, and how many failed a check.
    pub attempted: u64,
    pub failed: u64,
    /// Checks of the warm-up repetition, the once-per-process reference
    /// check, and one digest comparison per timed repetition.
    pub checks: Vec<Check>,
    pub sim_digest: u64,
    /// End-to-end metrics by name.
    pub metrics: BTreeMap<&'static str, Summary>,
    /// Diagnostics: the calibration loop before each repetition, and the
    /// median wall time in units of it.
    pub calibration_ns: Summary,
    pub wall_norm: f64,
}

fn tally(attempted: &mut u64, failed: &mut u64, ok: bool) {
    *attempted += 1;
    *failed += u64::from(!ok);
}

/// Measures `kind`: one discarded warm-up repetition with the allocation
/// counters on, then timed repetitions with them off.
pub fn measure(kind: Kind, seed: u64, scale: Scale, reps: Reps) -> Result<Measured, String> {
    let (mut attempted, mut failed) = (0u64, 0u64);

    // Warm-up, and the counting pass: the simulator is deterministic, so
    // the allocations of this repetition are those of every repetition.
    alloc::start();
    let mut run = prepare(kind, seed, scale, None)?;
    let at_start = alloc::snapshot();
    alloc::reset_peak();
    run.run();
    let at_end = alloc::snapshot();
    alloc::stop();
    let mut warm = run.harvest();
    warm.checks
        .extend(reference_check(kind, seed, scale, &warm));
    tally(&mut attempted, &mut failed, warm.passed());
    let ops = warm.ops.max(1) as f64;
    let mut checks = warm.checks.clone();

    let (mut setups, mut walls, mut calibrations) = (Vec::new(), Vec::new(), Vec::new());
    loop {
        match reps {
            Reps::Count(n) if walls.len() >= n => break,
            Reps::Seconds(s) if walls.len() >= MIN_REPS && walls.iter().sum::<f64>() >= s => break,
            _ => {}
        }
        calibrations.push(
            (0..CALIBRATION_LOOPS)
                .map(|_| typed_event_ns(CALIBRATION_EVENTS))
                .fold(f64::INFINITY, f64::min),
        );
        let t = Instant::now();
        let mut run = prepare(kind, seed, scale, None)?;
        setups.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        run.run();
        walls.push(t.elapsed().as_secs_f64());
        let out = run.harvest();
        let same = out.sim_digest == warm.sim_digest && out.ops == warm.ops;
        tally(&mut attempted, &mut failed, out.passed() && same);
        checks.extend(out.checks.into_iter().filter(|c| !c.ok));
        checks.push(Check {
            name: "sim-digest-equals-warm-up",
            ok: same,
            detail: format!("{:016x} vs {:016x}", out.sim_digest, warm.sim_digest),
        });
    }
    // Set-up takes well under a millisecond on most workloads, so a median
    // over the repetitions alone would be a median over scheduler noise.
    let budget = Instant::now();
    while setups.len() < SETUP_SAMPLES && budget.elapsed().as_secs_f64() < EXTRA_SETUP_BUDGET_S {
        let t = Instant::now();
        let run = prepare(kind, seed, scale, None)?;
        setups.push(t.elapsed().as_secs_f64());
        drop(run);
    }

    let wall = Summary::of(walls);
    let calibration_ns = Summary::of(calibrations);
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", Summary::of(setups));
    metrics.insert(
        "ops_per_s",
        Summary::of(wall.samples.iter().map(|w| ops / w).collect()),
    );
    metrics.insert(
        "allocs_per_op",
        Summary::exact((at_end.allocs - at_start.allocs) as f64 / ops),
    );
    metrics.insert(
        "alloc_bytes_per_op",
        Summary::exact((at_end.bytes - at_start.bytes) as f64 / ops),
    );
    metrics.insert(
        "peak_heap_mib",
        Summary::exact(at_end.peak.max(0) as f64 / (1u64 << 20) as f64),
    );
    let wall_norm = wall.median / (calibration_ns.median * 1e-9);
    metrics.insert("wall_s", wall);
    Ok(Measured {
        kind,
        ops: warm.ops,
        attempted,
        failed,
        checks,
        sim_digest: warm.sim_digest,
        metrics,
        calibration_ns,
        wall_norm,
    })
}

/// The event kinds the engine dispatches, as `sim.dispatch.<kind>` and
/// `trace.<kind>.*` name them. The engine's tag for events scheduled
/// without one is `"event"`; the metrics call it `untagged`.
pub const EVENT_KINDS: [&str; 12] = [
    "gen.tick",
    "wire.rx",
    "wire.tx",
    "nic.rx",
    "dma",
    "vswitch.rx",
    "vswitch.exec",
    "tenant.rx",
    "tenant.exec",
    "tenant.drain",
    "vhost.deliver",
    "untagged",
];

fn engine_tag(kind: &str) -> &str {
    if kind == "untagged" {
        mts_sim::UNTAGGED_EVENT
    } else {
        kind
    }
}

/// The traced pass of one workload.
#[derive(Clone, Debug)]
pub struct Traced {
    pub kind: Kind,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Per-workload layer metrics: `(name, value)`; units are those of
    /// [`per_layer_defs`].
    pub metrics: Vec<(String, f64)>,
}

/// Runs `kind` twice at [`Scale::TRACED`] (or `scale`, if smaller work is
/// asked): once untraced, for the exact counts and the base of the
/// overhead ratio, and once with a span around every call into the
/// simulator.
pub fn trace_pass(
    kind: Kind,
    seed: u64,
    scale: Scale,
    tracer: &mut Tracer,
) -> Result<Traced, String> {
    tracer.begin_workload(kind.name());
    let (mut attempted, mut failed) = (0u64, 0u64);

    let mut run = prepare(kind, seed, scale, None)?;
    let t = Instant::now();
    run.run();
    let plain_wall = t.elapsed().as_secs_f64();
    let plain = run.harvest();
    tally(&mut attempted, &mut failed, plain.passed());

    tracer.open("workload");
    let mut run = prepare(kind, seed, scale, Some(tracer))?;
    tracer.open("run");
    run.run_traced(tracer);
    tracer.close();
    tracer.open("harvest");
    let mut traced = run.harvest();
    tracer.close();
    tracer.close();
    traced.checks.push(Check {
        name: "traced-digest-equals-untraced",
        ok: traced.sim_digest == plain.sim_digest,
        detail: format!("{:016x} vs {:016x}", traced.sim_digest, plain.sim_digest),
    });
    tally(&mut attempted, &mut failed, traced.passed());

    let aggs = tracer.aggregates();
    let run_ns = aggs.get("run").map_or(0, |a| a.total_ns) as f64;
    let stepped_ns: u64 = EVENT_KINDS
        .iter()
        .filter_map(|k| aggs.get(engine_tag(k)))
        .map(|a| a.total_ns)
        .sum();
    let mut metrics = layer_counts(&plain, plain_wall);
    for kind in EVENT_KINDS {
        let a = aggs.get(engine_tag(kind)).copied().unwrap_or_default();
        metrics.push((
            format!("trace.{kind}.ns"),
            if a.count == 0 {
                0.0
            } else {
                a.total_ns as f64 / a.count as f64
            },
        ));
        metrics.push((format!("trace.{kind}.share"), ratio(a.total_ns, stepped_ns)));
    }
    // Wall per op of the stepped, span-recording run over the untraced one.
    metrics.push((
        "trace.overhead_ratio".to_string(),
        run_ns * 1e-9 / plain_wall,
    ));

    let mut checks = plain.checks;
    checks.extend(traced.checks);
    Ok(Traced {
        kind,
        attempted,
        failed,
        checks,
        metrics,
    })
}

/// The exact per-workload numbers of the layers, from an untraced pass.
fn layer_counts(out: &Outcome, wall_s: f64) -> Vec<(String, f64)> {
    let c = &out.counts;
    let mut m = vec![
        ("sim.events_per_op".to_string(), ratio(c.events, out.ops)),
        ("sim.events_per_s".to_string(), c.events as f64 / wall_s),
    ];
    for kind in EVENT_KINDS {
        let n = c
            .dispatch
            .iter()
            .find(|(k, _)| *k == engine_tag(kind))
            .map_or(0, |(_, n)| *n);
        m.push((format!("sim.dispatch.{kind}"), n as f64));
    }
    m.push((
        "nic.hairpin_drop_share".to_string(),
        ratio(c.hairpin_drops, c.hairpin_drops + c.hairpin_served),
    ));
    m.push((
        "vswitch.hit_ratio".to_string(),
        ratio(c.cache_hits, c.cache_hits + c.cache_misses),
    ));
    m.push(("vswitch.evictions".to_string(), c.cache_flushes as f64));
    m.push(("core.drop_share".to_string(), ratio(c.drops, c.sent)));
    for (layer, ns) in Layer::ALL.into_iter().zip(c.cycles_ns) {
        m.push((format!("core.cycles.{}", layer.label()), ns as f64));
    }
    m
}

/// A per-layer metric: `(name, unit, better)`.
pub type LayerDef = (String, &'static str, Better);

/// Every per-layer metric the benchmark emits, as
/// `BENCHMARK.json` lists them. The probes of [`crate::layers`] first, then
/// the per-workload numbers of [`trace_pass`].
pub fn per_layer_defs() -> Vec<LayerDef> {
    use Better::{Higher, Lower};
    let mut d: Vec<LayerDef> = Vec::new();
    let mut put = |name: &str, unit, better| d.push((name.to_string(), unit, better));
    for name in [
        "sim.typed_event_ns",
        "sim.closure_event_ns",
        "sim.batch_event_ns",
        "sim.cancel_ns",
        "sim.histogram_record_ns",
        "net.frame_build_ns",
        "net.frame_clone_ns",
        "net.serialize_64_ns",
        "net.parse_64_ns",
        "net.serialize_1514_ns",
        "net.parse_1514_ns",
        "net.parse_reject_ns",
        "net.vxlan_encap_ns",
        "net.vxlan_decap_ns",
        "nic.ingress_wire_ns",
        "nic.ingress_vf_ns",
        "nic.ingress_drop_ns",
        "vswitch.cache_hit_ns",
        "vswitch.slow_miss_ns",
        "vswitch.install_ns",
        "host.bridge_forward_ns",
        "host.vhost_copy_cost_ns",
        "tcp.handshake_ns",
        "tcp.segment_ns",
    ] {
        put(name, "ns", Lower);
    }
    for name in [
        "core.deploy_us",
        "core.world_new_us",
        "core.reconcile_noop_us",
        "core.reconcile_repair_us",
    ] {
        put(name, "us", Lower);
    }
    put("telemetry.hop_on_ns", "ns", Lower);
    put("telemetry.hop_off_ns", "ns", Lower);
    put("telemetry.export_jsonl_ms", "ms", Lower);
    put("telemetry.on_overhead_ratio", "ratio", Lower);
    put("isocheck.verify_full_us", "us", Lower);
    put("isocheck.delta_apply_ns", "ns", Lower);
    put("isocheck.delta_report_p50_us", "us", Lower);
    put("isocheck.delta_report_p99_us", "us", Lower);
    put("isocheck.recompute_ratio", "ratio", Lower);
    put("isocheck.atom_rebuilds", "count", Lower);
    put("faults.plan_parse_us", "us", Lower);
    put("fuzz.wire_cases_per_s", "1/s", Higher);

    put("sim.events_per_op", "count", Lower);
    put("sim.events_per_s", "1/s", Higher);
    for kind in EVENT_KINDS {
        put(&format!("sim.dispatch.{kind}"), "count", Lower);
    }
    put("nic.hairpin_drop_share", "ratio", Lower);
    put("vswitch.hit_ratio", "ratio", Higher);
    put("vswitch.evictions", "count", Lower);
    put("core.drop_share", "ratio", Lower);
    for layer in Layer::ALL {
        put(&format!("core.cycles.{}", layer.label()), "ns", Lower);
    }
    for kind in EVENT_KINDS {
        put(&format!("trace.{kind}.ns"), "ns", Lower);
        put(&format!("trace.{kind}.share"), "ratio", Lower);
    }
    put("trace.overhead_ratio", "ratio", Lower);
    d
}

/// The per-layer side of one workload, as contract mode prints it: the
/// layer probes, then the traced pass, as one value per entry of
/// [`per_layer_defs`] and nothing else.
pub struct LayerReport {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// `(name, value, unit)` in [`per_layer_defs`] order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Probes the layers and traces `kind`. The work is fixed: the probes,
/// then a quarter repetition untraced and traced.
pub fn layer_report(kind: Kind, seed: u64, tracer: &mut Tracer) -> Result<LayerReport, String> {
    let layers = run_probes(tracer, seed, false)?;
    let t = trace_pass(kind, seed, Scale::TRACED, tracer)?;
    let mut metrics = Vec::new();
    for (name, unit, _) in per_layer_defs() {
        let value = layers
            .iter()
            .find(|l| l.0 == name)
            .map(|l| l.1)
            .or_else(|| t.metrics.iter().find(|m| m.0 == name).map(|m| m.1))
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        metrics.push((name, value, unit));
    }
    let emitted = layers.len() + t.metrics.len();
    if emitted != metrics.len() {
        return Err(format!(
            "{emitted} per-layer values measured, {} listed",
            metrics.len()
        ));
    }
    Ok(LayerReport {
        attempted: t.attempted,
        failed: t.failed,
        checks: t.checks,
        metrics,
    })
}

/// Everything the stand-alone `run` measures.
pub struct FullRun {
    pub measured: Vec<Measured>,
    pub layers: Vec<LayerMetric>,
    pub traced: Vec<Traced>,
    pub tracer: Tracer,
}

impl FullRun {
    /// Repetitions and passes that failed a check, over all workloads.
    pub fn failed(&self) -> u64 {
        self.measured.iter().map(|m| m.failed).sum::<u64>()
            + self.traced.iter().map(|t| t.failed).sum::<u64>()
    }
}

/// All six workloads with tracing off, then the layer probes, then one
/// traced pass per workload. `quick` does a twentieth of the work once and
/// still runs every check; its numbers are not comparable with anything.
pub fn run_all(seed: u64, quick: bool, progress: impl Fn(&str)) -> Result<FullRun, String> {
    let (scale, reps, traced_scale) = if quick {
        (Scale::QUICK, Reps::Count(1), Scale::QUICK)
    } else {
        (Scale::FULL, Reps::Count(RUN_REPS), Scale::TRACED)
    };
    let mut measured = Vec::new();
    for kind in Kind::ALL {
        progress(&format!("measuring {}", kind.name()));
        measured.push(measure(kind, seed, scale, reps)?);
    }
    let mut tracer = Tracer::new();
    progress("probing layers");
    let layers = run_probes(&mut tracer, seed, quick)?;
    let mut traced = Vec::new();
    for kind in Kind::ALL {
        progress(&format!("tracing {}", kind.name()));
        traced.push(trace_pass(kind, seed, traced_scale, &mut tracer)?);
    }
    Ok(FullRun {
        measured,
        layers,
        traced,
        tracer,
    })
}
