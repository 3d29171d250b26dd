//! Per-layer probes: timing calls into each crate's public functions, with
//! objects taken from a deployed `World` where that is what the runtime
//! hands the function. Each value is the median of [`BATCHES`] batches; the
//! set-up of a batch (building frames, engines, worlds) is outside its
//! timed part. One span is recorded per batch.

use crate::spans::Tracer;
use crate::stats::{median, percentile};
use crate::workloads::{l2, prepare, ratio, tenant_flows, Kind, Prepared, Scale};
use mts_core::controller::{Controller, PortAttach};
use mts_core::reconcile::reconcile;
use mts_core::runtime::{Owner, RuntimeCfg, World};
use mts_faults::FaultPlan;
use mts_host::{LinuxBridge, VhostCosts};
use mts_net::{parse, serialize, Frame, MacAddr, Vni};
use mts_nic::{NicPort, PfId};
use mts_sim::{DetRng, Dur, Engine, Event, Histogram, Time};
use mts_tcp::{Connection, TcpConfig};
use mts_telemetry::{Hop, Telemetry};
use mts_vswitch::{Action, FlowMatch, FlowRule, PortKind, PortNo, TableId, VirtualSwitch};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Batches per probe; the reported value is their median.
pub const BATCHES: usize = 5;

/// A probe result: metric name, value, unit.
pub type LayerMetric = (&'static str, f64, &'static str);

/// The cheapest event there is: the calibration loop's and
/// `sim.typed_event_ns`'s payload.
struct Tick;

impl Event<u64> for Tick {
    fn fire(self, world: &mut u64, _engine: &mut Engine<u64, Tick>) {
        *world += 1;
    }
}

/// Empty-handler `schedule_event` + dispatch, ns per event. Runs before
/// every repetition as the machine-speed calibration.
pub fn typed_event_ns(events: u64) -> f64 {
    let mut e: Engine<u64, Tick> = Engine::new();
    let mut w = 0u64;
    let t = Instant::now();
    for i in 0..events {
        e.schedule_event(Time::from_nanos(i), "tick", Tick);
    }
    e.run(&mut w);
    let ns = t.elapsed().as_nanos() as f64;
    assert_eq!(black_box(w), events);
    ns / events as f64
}

struct Probes<'a> {
    tracer: &'a mut Tracer,
    /// Divisor on the operations per batch (`--quick`).
    shrink: u64,
    out: Vec<LayerMetric>,
}

impl Probes<'_> {
    fn n(&self, ops: u64) -> u64 {
        (ops / self.shrink).max(1)
    }

    /// Times `run` over [`BATCHES`] fresh `setup()` states; `run` returns
    /// how many operations it did. Returns the median nanoseconds per
    /// operation.
    fn median_ns<S>(
        &mut self,
        name: &'static str,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(&mut S) -> u64,
    ) -> f64 {
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let mut state = setup();
            let a = self.tracer.now_ns();
            let ops = run(&mut state);
            let b = self.tracer.now_ns();
            self.tracer.leaf(name, a, b);
            samples.push((b - a) as f64 / ops.max(1) as f64);
        }
        median(&samples)
    }

    /// [`Probes::median_ns`], reported as metric `name` in `unit` (`ns`,
    /// `us` or `ms` per operation).
    fn time<S>(
        &mut self,
        name: &'static str,
        unit: &'static str,
        setup: impl FnMut() -> S,
        run: impl FnMut(&mut S) -> u64,
    ) {
        let per = match unit {
            "ns" => 1.0,
            "us" => 1e3,
            "ms" => 1e6,
            _ => unreachable!("probe unit {unit}"),
        };
        let ns = self.median_ns(name, setup, run);
        self.put(name, ns / per, unit);
    }

    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push((name, value, unit));
    }
}

fn deployed_world(seed: u64) -> World {
    let spec = l2(4);
    let d = Controller::deploy(spec).expect("the shipped Level-2 spec deploys");
    World::new(d, RuntimeCfg::for_spec(&spec), seed)
}

/// The probe frame the UDP generator sends to tenant 0.
fn wire_probe(w: &World, dport: u16, wire_len: u32) -> Frame {
    let (dmac, dst_ip) = tenant_flows(w)[0];
    Frame::udp_probe(
        w.plan.lg_mac,
        dmac,
        w.plan.lg_ip,
        dst_ip,
        dport,
        0,
        wire_len,
    )
}

/// What the deployed datapath hands each layer for one wire probe: the
/// frame and port at the vswitch, then the frame and VF back at the NIC.
struct PathSample {
    vswitch: usize,
    vswitch_port: PortNo,
    at_vswitch: Frame,
    back_vf: NicPort,
    at_nic_again: Frame,
}

fn path_sample(w: &mut World) -> PathSample {
    let probe = wire_probe(w, 5001, 64);
    let first = w
        .nic
        .ingress(PfId(0), NicPort::Wire, probe)
        .expect("PF 0 exists")
        .into_iter()
        .next()
        .expect("the VEB forwards the probe to the In/Out VF");
    let NicPort::Vf(vf) = first.port else {
        panic!("Level-2 ingress lands on a VF, got {:?}", first.port);
    };
    let Some(Owner::Vswitch(vswitch, vswitch_port)) = w.vf_owner.get(&(0, vf.0)).copied() else {
        panic!("the In/Out VF belongs to a vswitch");
    };
    let (out_port, at_nic_again) = w.vswitches[vswitch]
        .inst
        .sw
        .process(vswitch_port, first.frame.clone())
        .into_iter()
        .next()
        .expect("the vswitch forwards the probe to the tenant's gateway port");
    let Some(PortAttach::Vf(_, back)) = w.vswitches[vswitch].inst.attach.get(&out_port) else {
        panic!("Level-2 vswitch ports are VFs");
    };
    PathSample {
        vswitch,
        vswitch_port,
        at_vswitch: first.frame,
        back_vf: NicPort::Vf(*back),
        at_nic_again,
    }
}

/// Runs every layer probe. `quick` shrinks the batches twentyfold.
pub fn run_probes(tracer: &mut Tracer, seed: u64, quick: bool) -> Result<Vec<LayerMetric>, String> {
    tracer.begin_workload("layer-probes");
    let mut p = Probes {
        tracer,
        shrink: if quick { 20 } else { 1 },
        out: Vec::new(),
    };
    sim_probes(&mut p);
    net_probes(&mut p);
    datapath_probes(&mut p, seed);
    host_and_tcp_probes(&mut p);
    core_probes(&mut p, seed);
    telemetry_probes(&mut p, seed)?;
    isocheck_probes(&mut p, seed)?;
    faults_and_fuzz_probes(&mut p, seed);
    Ok(p.out)
}

fn sim_probes(p: &mut Probes) {
    let n = p.n(200_000);
    // The calibration loop itself, reported under its metric name.
    p.time(
        "sim.typed_event_ns",
        "ns",
        || (),
        |_| {
            black_box(typed_event_ns(n));
            n
        },
    );
    p.time(
        "sim.closure_event_ns",
        "ns",
        || (Engine::<u64>::new(), 0u64),
        |(e, w)| {
            for i in 0..n {
                e.schedule_at(Time::from_nanos(i), |w: &mut u64, _e| *w += 1);
            }
            e.run(w);
            n
        },
    );
    p.time(
        "sim.batch_event_ns",
        "ns",
        || (Engine::<u64>::new(), 0u64),
        |(e, w)| {
            let events = (0..n).map(|_| |w: &mut u64, _e: &mut Engine<u64>| *w += 1);
            e.schedule_batch(Time::from_nanos(1), "batch", events);
            e.run(w);
            n
        },
    );
    p.time(
        "sim.cancel_ns",
        "ns",
        || (Engine::<u64, Tick>::new(), 0u64),
        |(e, w)| {
            let ids: Vec<_> = (0..n)
                .map(|i| e.schedule_event(Time::from_nanos(i), "tick", Tick))
                .collect();
            for id in ids {
                e.cancel(id);
            }
            // Cancellation is lazy: the run reclaims the dead slots.
            e.run(w);
            n
        },
    );
    p.time("sim.histogram_record_ns", "ns", Histogram::new, |h| {
        for i in 0..n {
            h.record(i.wrapping_mul(2_654_435_761) % 10_000_000);
        }
        black_box(h.count());
        n
    });
}

fn net_probes(p: &mut Probes) {
    let n = p.n(50_000);
    let (smac, dmac) = (MacAddr::local(1), MacAddr::local(2));
    let (sip, dip) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 1, 1));
    p.time(
        "net.frame_build_ns",
        "ns",
        || (),
        |_| {
            for i in 0..n {
                black_box(Frame::udp_probe(smac, dmac, sip, dip, 5001, i, 64).stamped(i));
            }
            n
        },
    );
    let small = Frame::udp_probe(smac, dmac, sip, dip, 5001, 7, 64);
    let large = Frame::udp_probe(smac, dmac, sip, dip, 5001, 7, 1514);
    p.time(
        "net.frame_clone_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(small.clone());
            }
            n
        },
    );
    for (frame, ser, par) in [
        (&small, "net.serialize_64_ns", "net.parse_64_ns"),
        (&large, "net.serialize_1514_ns", "net.parse_1514_ns"),
    ] {
        p.time(
            ser,
            "ns",
            || (),
            |_| {
                for _ in 0..n {
                    black_box(serialize(black_box(frame)));
                }
                n
            },
        );
        let bytes = serialize(frame);
        p.time(
            par,
            "ns",
            || (),
            |_| {
                for _ in 0..n {
                    black_box(parse(black_box(&bytes)).expect("round trips"));
                }
                n
            },
        );
    }
    // A flipped payload byte: rejected by the frame check sequence, after
    // the CRC over the whole frame.
    let mut damaged = serialize(&small);
    damaged[30] ^= 0x55;
    p.time(
        "net.parse_reject_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                assert!(black_box(parse(black_box(&damaged))).is_err());
            }
            n
        },
    );

    // VXLAN encapsulation is public only as a vswitch action, so these two
    // time `VirtualSwitch::process` on a one-rule switch (a flow-cache hit
    // plus the action), not the bare header push and pop.
    let vni = Vni::new(42);
    let mut encap = VirtualSwitch::new("encap");
    let (a, b) = (
        encap.add_port("a", PortKind::Physical),
        encap.add_port("b", PortKind::Physical),
    );
    let tunnel = Action::VxlanEncap {
        vni,
        src_ip: Ipv4Addr::new(172, 16, 0, 1),
        dst_ip: Ipv4Addr::new(172, 16, 0, 2),
        src_mac: MacAddr::local(0xf1),
        dst_mac: MacAddr::local(0xf2),
    };
    encap
        .install(
            0,
            FlowRule::new(10, FlowMatch::on_port(a), vec![tunnel, Action::Output(b)]),
        )
        .expect("table 0 exists");
    let outer = encap.process(a, small.clone()).remove(0).1;
    p.time(
        "net.vxlan_encap_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(encap.process(a, small.clone()));
            }
            n
        },
    );
    let mut decap = VirtualSwitch::new("decap");
    let (a, b) = (
        decap.add_port("a", PortKind::Physical),
        decap.add_port("b", PortKind::Physical),
    );
    let pop = vec![Action::VxlanDecap, Action::GotoTable(TableId(1))];
    decap
        .install(0, FlowRule::new(10, FlowMatch::on_port(a), pop))
        .expect("table 0 exists");
    decap
        .install(
            1,
            FlowRule::new(10, FlowMatch::any().and_tun(vni), vec![Action::Output(b)]),
        )
        .expect("table 1 exists");
    p.time(
        "net.vxlan_decap_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(decap.process(a, outer.clone()));
            }
            n
        },
    );
}

/// `mts-nic` and `mts-vswitch`, on the NIC and switch of a deployed world
/// and on the frames the runtime would hand them.
fn datapath_probes(p: &mut Probes, seed: u64) {
    let n = p.n(50_000);
    let mut w = deployed_world(seed);
    let path = path_sample(&mut w);
    let probe = wire_probe(&w, 5001, 64);

    p.time(
        "nic.ingress_wire_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(w.nic.ingress(PfId(0), NicPort::Wire, probe.clone())).ok();
            }
            n
        },
    );
    p.time(
        "nic.ingress_vf_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                let out = w
                    .nic
                    .ingress(PfId(0), path.back_vf, path.at_nic_again.clone());
                debug_assert!(out.is_ok_and(|d| !d.is_empty()), "the hairpin delivers");
            }
            n
        },
    );
    // A forged source MAC on tenant 0's VF: dropped by the anti-spoof check.
    let (tenant_vf, _) = w.plan.tenants[0].vf[0];
    let mut forged = path.at_nic_again.clone();
    forged.src = MacAddr::local(0x00ba_d5ed);
    let spoofed_before = w.nic.counters().dropped_spoof;
    p.time(
        "nic.ingress_drop_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(
                    w.nic
                        .ingress(tenant_vf.pf, NicPort::Vf(tenant_vf.vf), forged.clone()),
                )
                .ok();
            }
            n
        },
    );
    assert_eq!(
        w.nic.counters().dropped_spoof - spoofed_before,
        n * BATCHES as u64,
        "nic.ingress_drop_ns must time drops"
    );

    let sw = &mut w.vswitches[path.vswitch].inst.sw;
    p.time(
        "vswitch.cache_hit_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(sw.process(path.vswitch_port, path.at_vswitch.clone()));
            }
            n
        },
    );
    // 16384 destination ports against an 8192-entry cache that flushes when
    // full: a key is gone before it comes round again, so every frame walks
    // the deployed rule set.
    let misses: Vec<Frame> = (0..16_384u16)
        .map(|i| {
            let mut f = path.at_vswitch.clone();
            if let mts_net::Payload::Ipv4(ip) = f.payload.make_mut() {
                if let mts_net::Transport::Udp(u) = &mut ip.transport {
                    u.dport = 5001u16.wrapping_add(i);
                }
            }
            f
        })
        .collect();
    let before = sw.cache_stats();
    let mut next = 0usize;
    p.time(
        "vswitch.slow_miss_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(sw.process(path.vswitch_port, misses[next % misses.len()].clone()));
                next += 1;
            }
            n
        },
    );
    let after = sw.cache_stats();
    assert!(
        ratio(after.hits - before.hits, after.misses - before.misses) < 0.01,
        "vswitch.slow_miss_ns must time misses"
    );

    let rules: u64 = p.n(2_000).min(250 * 8);
    p.time(
        "vswitch.install_ns",
        "ns",
        || {
            let mut sw = VirtualSwitch::new("install");
            let port = sw.add_port("in", PortKind::Physical);
            (sw, port)
        },
        |(sw, port)| {
            for i in 0..rules {
                let ip = Ipv4Addr::new(10, (i / 250) as u8, (i % 250) as u8, 1);
                let rule =
                    FlowRule::new(20, FlowMatch::to_ip(ip).and_port(*port), vec![Action::Drop]);
                sw.install(0, rule).expect("table 0 exists");
            }
            rules
        },
    );
}

fn host_and_tcp_probes(p: &mut Probes) {
    let n = p.n(100_000);
    let (a, b) = (MacAddr::local(1), MacAddr::local(2));
    let ip = Ipv4Addr::new(10, 0, 0, 1);
    let there = Frame::udp_data(a, b, ip, ip, 1, 2, 1_400);
    let back = Frame::udp_data(b, a, ip, ip, 2, 1, 1_400);
    p.time(
        "host.bridge_forward_ns",
        "ns",
        || LinuxBridge::new(2),
        |br| {
            for _ in 0..n / 2 {
                black_box(br.forward(0, &there));
                black_box(br.forward(1, &back));
            }
            n / 2 * 2
        },
    );
    let vhost = VhostCosts::kernel();
    p.time(
        "host.vhost_copy_cost_ns",
        "ns",
        || (),
        |_| {
            for _ in 0..n {
                black_box(black_box(&vhost).copy_cost(black_box(&there)));
            }
            n
        },
    );

    let cfg = TcpConfig::default();
    let handshakes = p.n(20_000);
    p.time(
        "tcp.handshake_ns",
        "ns",
        || (),
        |_| {
            for i in 0..handshakes {
                black_box(handshake(cfg, i as u32));
            }
            handshakes
        },
    );
    // A 1 MB in-memory transfer between two stacks, per segment handled.
    let transfers = p.n(20);
    p.time(
        "tcp.segment_ns",
        "ns",
        || (),
        |_| {
            let mut segments = 0u64;
            for i in 0..transfers {
                segments += transfer_1mb(cfg, i as u32);
            }
            segments
        },
    );
}

fn handshake(cfg: TcpConfig, iss: u32) -> (Connection, Connection) {
    let now = Time::ZERO;
    let (mut client, syn) = Connection::client(cfg, 40_000, 80, iss, now);
    let (mut server, syn_ack) =
        Connection::server_from_syn(cfg, &syn.segments[0], iss ^ 0x5555, now).expect("a SYN");
    let ack = client.on_segment(&syn_ack.segments[0], now);
    let _ = server.on_segment(&ack.segments[0], now);
    (client, server)
}

/// Moves 1 MB from client to server; returns segments handled by either.
fn transfer_1mb(cfg: TcpConfig, iss: u32) -> u64 {
    let (mut client, mut server) = handshake(cfg, iss);
    let mut t = Time::ZERO;
    let mut inflight = client.send(1_000_000, t).segments;
    let (mut handled, mut delivered) = (0u64, 0u64);
    while !inflight.is_empty() {
        t += Dur::micros(50);
        let mut back = Vec::new();
        for s in inflight.drain(..) {
            let o = server.on_segment(&s, t);
            delivered += o.delivered;
            back.extend(o.segments);
            handled += 1;
        }
        let mut next = Vec::new();
        for s in back {
            next.extend(client.on_segment(&s, t).segments);
            handled += 1;
        }
        if next.is_empty() {
            // A delayed ACK is the only thing left to wait for.
            if let Some(due) = server.next_timer() {
                for s in server.on_timer(due).segments {
                    next.extend(client.on_segment(&s, due).segments);
                    handled += 1;
                }
            }
        }
        inflight = next;
    }
    assert_eq!(delivered, 1_000_000, "the transfer completes");
    handled
}

fn core_probes(p: &mut Probes, seed: u64) {
    let spec = l2(4);
    let n = p.n(40);
    p.time(
        "core.deploy_us",
        "us",
        || (),
        |_| {
            for _ in 0..n {
                black_box(Controller::deploy(spec)).ok();
            }
            n
        },
    );
    p.time(
        "core.world_new_us",
        "us",
        || -> Vec<_> {
            (0..n)
                .filter_map(|_| Controller::deploy(spec).ok())
                .collect()
        },
        |deployments| {
            let built = deployments.len() as u64;
            for d in deployments.drain(..) {
                black_box(World::new(d, RuntimeCfg::for_spec(&spec), seed));
            }
            built
        },
    );
    p.time(
        "core.reconcile_noop_us",
        "us",
        || deployed_world(seed),
        |w| {
            for _ in 0..n {
                assert_eq!(
                    reconcile(w).churn(),
                    0,
                    "a fresh world has nothing to repair"
                );
            }
            n
        },
    );
    // Vswitch 0 lost every flow rule: the pass rebuilds its tables.
    p.time(
        "core.reconcile_repair_us",
        "us",
        || -> Vec<World> {
            (0..n)
                .map(|_| {
                    let mut w = deployed_world(seed);
                    w.vswitches[0].inst.sw.clear();
                    w
                })
                .collect()
        },
        |worlds| {
            for w in worlds.iter_mut() {
                assert!(reconcile(w).rules_installed > 0, "the wipe is repaired");
            }
            worlds.len() as u64
        },
    );
}

fn telemetry_probes(p: &mut Probes, seed: u64) -> Result<(), String> {
    let n = p.n(50_000);
    let hop = |i: u64| Hop::VswitchForward {
        vswitch: (i % 4) as u8,
        cache_hit: true,
        outputs: 1,
    };
    for (name, make) in [
        (
            "telemetry.hop_on_ns",
            Telemetry::enabled as fn() -> Telemetry,
        ),
        ("telemetry.hop_off_ns", Telemetry::disabled),
    ] {
        // The instrumentation site as the runtime writes it.
        p.time(name, "ns", make, |tel| {
            for i in 0..n {
                if let Some(rec) = black_box(&mut *tel).rec() {
                    rec.hop(i / 8, Time::from_nanos(i), hop(i));
                }
            }
            n
        });
    }
    p.time(
        "telemetry.export_jsonl_ms",
        "ms",
        || {
            let mut tel = Telemetry::enabled();
            if let Some(rec) = tel.rec() {
                for i in 0..n {
                    rec.hop(i / 8, Time::from_nanos(i), hop(i));
                }
            }
            tel
        },
        |tel| {
            black_box(tel.recorder().map(|r| r.trace.to_jsonl().len()));
            1
        },
    );

    // Wall time per frame of the telemetry workload over the plain one,
    // 10 000 frames each (a tenth and a hundred-and-twentieth of their
    // work), both through the harness's own `prepare` and `run`.
    let mut per_frame = [0.0f64; 2];
    for (slot, (kind, name, divisor)) in [
        (Kind::UdpFastTelemetry, "telemetry.pass_on", 10),
        (Kind::UdpFast, "telemetry.pass_off", 120),
    ]
    .into_iter()
    .enumerate()
    {
        let scale = Scale(divisor * p.shrink as u32);
        let mut samples = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let mut run = prepare(kind, seed, scale, None)?;
            let a = p.tracer.now_ns();
            run.run();
            let b = p.tracer.now_ns();
            p.tracer.leaf(name, a, b);
            samples.push((b - a) as f64 / run.harvest().ops as f64);
        }
        per_frame[slot] = median(&samples);
    }
    p.put(
        "telemetry.on_overhead_ratio",
        per_frame[0] / per_frame[1],
        "ratio",
    );
    Ok(())
}

fn isocheck_probes(p: &mut Probes, seed: u64) -> Result<(), String> {
    let n = p.n(200);
    p.time(
        "isocheck.verify_full_us",
        "us",
        || deployed_world(seed),
        |w| {
            for _ in 0..n {
                black_box(mts_isocheck::verify_world(w)).ok();
            }
            n
        },
    );
    // The verify-churn stream at one twelfth of the workload's replays,
    // with a clock read around every `apply` and every `report`.
    let Prepared::Verify(mut run) =
        prepare(Kind::VerifyChurn, seed, Scale(12 * p.shrink as u32), None)?
    else {
        unreachable!("verify-churn prepares a replay");
    };
    let (mut apply_ns, mut report_us) = (Vec::new(), Vec::new());
    let a = p.tracer.now_ns();
    for _ in 0..run.replays {
        for d in &run.deltas {
            let t0 = Instant::now();
            run.checker.apply(d);
            let t1 = Instant::now();
            black_box(run.checker.report()).map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            apply_ns.push((t1 - t0).as_nanos() as f64);
            report_us.push((t2 - t1).as_nanos() as f64 / 1e3);
        }
    }
    let b = p.tracer.now_ns();
    p.tracer.leaf("isocheck.delta_replay", a, b);
    let stats = run.checker.stats();
    p.put("isocheck.delta_apply_ns", median(&apply_ns), "ns");
    p.put(
        "isocheck.delta_report_p50_us",
        percentile(&report_us, 50.0),
        "us",
    );
    p.put(
        "isocheck.delta_report_p99_us",
        percentile(&report_us, 99.0),
        "us",
    );
    p.put(
        "isocheck.recompute_ratio",
        ratio(
            stats.sources_recomputed,
            stats.sources_recomputed + stats.sources_skipped,
        ),
        "ratio",
    );
    p.put(
        "isocheck.atom_rebuilds",
        stats.full_rebuilds as f64,
        "count",
    );
    Ok(())
}

fn faults_and_fuzz_probes(p: &mut Probes, seed: u64) {
    // One line per fault kind, as the module documentation of
    // `mts_faults::plan` lists them.
    const PLAN: &str = "\
@10ms  crash           vswitch=0 crashloop=2
@10ms  hang            vswitch=1 heal=5ms
@10ms  slow            vswitch=0 factor=4 heal=5ms
@10ms  flush-veb       pf=1
@10ms  wipe-flows      vswitch=0
@10ms  lose-rules      vswitch=0 fraction=0.5
@10ms  link-flap       pf=1 down=2ms
@10ms  vhost-stall     tenant=2 stall=3ms
@10ms  controller-loss down=20ms
";
    let n = p.n(2_000);
    p.time(
        "faults.plan_parse_us",
        "us",
        || (),
        |_| {
            for _ in 0..n {
                black_box(FaultPlan::parse(black_box(PLAN))).expect("the documented plan parses");
            }
            n
        },
    );
    let cases = p.n(20_000);
    let per_case_ns = p.median_ns(
        "fuzz.wire_cases_per_s",
        || DetRng::new(seed),
        |rng| {
            let stats = mts_fuzz::wire::fuzz(rng, cases);
            assert!(
                stats.crashers.is_empty(),
                "the wire codec holds its invariants"
            );
            stats.cases
        },
    );
    p.put("fuzz.wire_cases_per_s", 1e9 / per_case_ns, "1/s");
}
