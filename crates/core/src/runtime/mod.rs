//! The packet-pipeline runtime.
//!
//! Binds the configured [`crate::controller::Deployment`] (NIC, vswitches,
//! tenant VMs) to the discrete-event engine: frames travel hop by hop,
//! every processing step is charged to a simulated CPU core (with
//! context-switch penalties and scheduler jitter in the *shared* resource
//! mode), and every transfer is charged to the NIC's links and hairpin
//! budget. The same `World` carries
//! the UDP measurement machinery (Sec. 4) and the TCP hosts (Sec. 5,
//! driven by [`crate::workloads`]).
//!
//! Timing composition per hop (see DESIGN.md §3 for the calibration):
//!
//! ```text
//! wire/link serialization + propagation
//!   → NIC switch (cut-through latency, VF↔VF hairpin budget)
//!   → PCIe DMA (shared link)
//!   → [kernel path: interrupt latency]
//!   → CPU core grant (datapath per-packet cost, vhost copies, batching)
//!   → ... next hop
//! ```
//!
//! One file per layer: [`World`] and its calibration in `world.rs`; the
//! NIC's embedded switch and PCIe crossings in `nic.rs`; vswitch rings, the
//! datapath grant and the pipeline in `vswitch.rs`; tenant VMs in
//! `tenant.rs`; the physical links, the sink and the probe generator in
//! `wire.rs`. Every handler makes its core grants, journey hops and drops
//! through the methods in `hop.rs` (`World::grant`, `World::trace`,
//! [`World::drop_frame_traced`]).

mod hop;
mod nic;
mod tenant;
mod vswitch;
mod wire;
mod world;

pub(crate) use hop::with_scratch;
pub use hop::Charge;
pub use nic::{nic_rx, vf_inject_bytes, Owner};
pub use tenant::{tenant_rx, TenantKind, TenantRt};
use vswitch::VswitchScratch;
pub use vswitch::{tso_factor, vswitch_rx, VswitchHealth, VswitchRt};
pub use wire::{
    start_udp_churn_generator, start_udp_generator, wire_inject, wire_inject_bytes, SinkRec,
    WireEnd, PROBE_DPORT,
};
pub use world::{RuntimeCfg, World};

use crate::tcphost::{HostAttach, Quad};
use mts_apps::ConnId;
use mts_net::{Frame, MacAddr};
use mts_nic::{NicPort, PfId};
use mts_sim::{CoreId, Dur, Engine, Event, EventFn, Time};
use mts_vswitch::PortNo;

/// The engine type driving a [`World`].
pub type Sim = Engine<World, CoreEvent>;

/// Typed event entries for the hot datapath.
///
/// Each variant is one step of a frame's journey, stored inline in the
/// engine's slab (no per-event boxing); the [`CoreEvent::Call`] fallback
/// carries a boxed closure so cold paths (supervisor ticks, fault
/// injections, workload setup) keep using the closure `schedule_*` API.
/// Dispatch-count tags are passed at the schedule site, so
/// `Engine::dispatch_counts` breaks a run down per kind. The TCP-host
/// variants ([`CoreEvent::HostExec`], [`CoreEvent::HostTx`],
/// [`CoreEvent::ConnTimer`], [`CoreEvent::HostConnect`], and the
/// `NicRx`/`VhostTx` a host's attachment schedules) fire under
/// [`mts_sim::UNTAGGED_EVENT`] (`"event"`), the tag of the closures they
/// replaced.
pub enum CoreEvent {
    /// A frame arrives at the NIC embedded switch (`"nic.rx"`).
    NicRx {
        pf: PfId,
        port: NicPort,
        frame: Frame,
    },
    /// A frame starts serialization onto the wire of `pf` (`"wire.tx"`).
    WireTx { pf: PfId, frame: Frame },
    /// A frame fully arrives at the external end of `pf` (`"wire.rx"`).
    WireRx { pf: PfId, frame: Frame },
    /// PCIe crossing toward vswitch `i` port `port` (`"dma"`).
    DmaToVswitch {
        i: usize,
        port: PortNo,
        frame: Frame,
    },
    /// PCIe crossing toward tenant `t` side `side` (`"dma"`).
    DmaToTenant { t: usize, side: u8, frame: Frame },
    /// PCIe crossing back into the NIC at `port` (`"dma"`).
    DmaToNic {
        pf: PfId,
        port: NicPort,
        frame: Frame,
    },
    /// A frame reaches a vswitch rx ring (`"vswitch.rx"`).
    VswitchRx {
        i: usize,
        port: PortNo,
        frame: Frame,
        via_vhost: bool,
    },
    /// The datapath grant ends; the pipeline runs (`"vswitch.exec"`).
    VswitchExec {
        i: usize,
        port: PortNo,
        frame: Frame,
        core: CoreId,
    },
    /// A frame is delivered into tenant `t` (`"tenant.rx"`/`"vhost.deliver"`).
    TenantRx { t: usize, side: u8, frame: Frame },
    /// A tenant l2fwd grant ends (`"tenant.exec"`).
    TenantFwdExec { t: usize, side: u8, frame: Frame },
    /// A tenant guest-bridge grant ends (`"tenant.exec"`).
    TenantBridgeExec { t: usize, side: u8, frame: Frame },
    /// The l2fwd batching drain timer fires (`"tenant.drain"`).
    TenantDrain { t: usize, side: u8 },
    /// A guest-bridge frame reaches the host vhost queue (`"vswitch.rx"`).
    VhostTx { tenant: u8, side: u8, frame: Frame },
    /// The UDP probe generator emits one frame (`"gen.tick"`).
    GenTick {
        flows: std::sync::Arc<[(MacAddr, std::net::Ipv4Addr)]>,
        gap: Dur,
        wire_len: u32,
        until: Time,
        seq: u64,
        /// Destination ports cycled per frame: `PROBE_DPORT + seq % span`.
        /// 1 keeps the classic single-port probe stream.
        dport_span: u16,
    },
    /// A TCP host's receive grant ends; its stack runs (`"event"`).
    HostExec { h: usize, frame: Frame },
    /// A TCP host's frame leaves through its attachment (`"event"`).
    HostTx { attach: HostAttach, frame: Frame },
    /// A connection's retransmission/delayed-ACK timer fires; stale
    /// generations do nothing (`"event"`).
    ConnTimer { h: usize, quad: Quad, gen: u64 },
    /// A TCP host opens the client connection its app asked for, at its
    /// paced slot in the connection ramp (`"event"`).
    HostConnect {
        h: usize,
        id: ConnId,
        rip: std::net::Ipv4Addr,
        rport: u16,
    },
    /// Cold-path fallback: a boxed closure event.
    Call(EventFn<World, CoreEvent>),
}

impl Event<World> for CoreEvent {
    fn fire(self, w: &mut World, e: &mut Sim) {
        match self {
            CoreEvent::NicRx { pf, port, frame } => nic_rx(w, e, pf, port, frame),
            CoreEvent::WireTx { pf, frame } => wire::wire_tx(w, e, pf, frame),
            CoreEvent::WireRx { pf, frame } => wire::external_rx(w, e, pf, frame),
            CoreEvent::DmaToVswitch { i, port, frame } => {
                let len = frame.wire_len();
                let next = CoreEvent::VswitchRx {
                    i,
                    port,
                    frame,
                    via_vhost: false,
                };
                nic::dma_in(w, e, len, "vswitch.rx", next);
            }
            CoreEvent::DmaToTenant { t, side, frame } => {
                let len = frame.wire_len();
                nic::dma_in(
                    w,
                    e,
                    len,
                    "tenant.rx",
                    CoreEvent::TenantRx { t, side, frame },
                );
            }
            CoreEvent::DmaToNic { pf, port, frame } => {
                let arr = w.nic.dma(e.now(), u64::from(frame.wire_len()));
                e.schedule_event(arr, "nic.rx", CoreEvent::NicRx { pf, port, frame });
            }
            CoreEvent::VswitchRx {
                i,
                port,
                frame,
                via_vhost,
            } => vswitch_rx(w, e, i, port, frame, via_vhost),
            CoreEvent::VswitchExec {
                i,
                port,
                frame,
                core,
            } => vswitch::vswitch_exec(w, e, i, port, frame, core),
            CoreEvent::TenantRx { t, side, frame } => tenant_rx(w, e, t, side, frame),
            CoreEvent::TenantFwdExec { t, side, frame } => {
                tenant::tenant_fwd(w, e, t, side, Some(frame))
            }
            CoreEvent::TenantBridgeExec { t, side, frame } => {
                tenant::tenant_bridge_exec(w, e, t, side, frame)
            }
            CoreEvent::TenantDrain { t, side } => tenant::tenant_fwd(w, e, t, side, None),
            CoreEvent::VhostTx {
                tenant,
                side,
                frame,
            } => vswitch::vhost_tx(w, e, tenant, side, frame),
            CoreEvent::GenTick {
                flows,
                gap,
                wire_len,
                until,
                seq,
                dport_span,
            } => wire::generator_tick(w, e, flows, gap, wire_len, until, seq, dport_span),
            CoreEvent::HostExec { h, frame } => crate::tcphost::host_exec(w, e, h, frame),
            CoreEvent::HostTx { attach, frame } => {
                crate::tcphost::dispatch_frame(w, e, attach, frame)
            }
            CoreEvent::ConnTimer { h, quad, gen } => {
                crate::tcphost::conn_timer_fire(w, e, h, quad, gen)
            }
            CoreEvent::HostConnect { h, id, rip, rport } => {
                crate::tcphost::open_client_conn(w, e, h, id, rip, rport)
            }
            CoreEvent::Call(f) => f(w, e),
        }
    }
}

impl From<EventFn<World, CoreEvent>> for CoreEvent {
    fn from(f: EventFn<World, CoreEvent>) -> Self {
        CoreEvent::Call(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::delta::{ConfigDelta, DeltaError};
    use crate::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_apps::L2Fwd;
    use mts_host::ResourceMode;
    use mts_telemetry::DropCause;
    use mts_vswitch::DatapathKind;

    fn world(level: SecurityLevel, scenario: Scenario, mode: ResourceMode) -> World {
        let spec = DeploymentSpec::mts(level, DatapathKind::Kernel, mode, scenario);
        let d = Controller::deploy(spec).unwrap();
        let cfg = RuntimeCfg::for_spec(&spec);
        World::new(d, cfg, 42)
    }

    fn run_probes(w: &mut World, e: &mut Sim, n: u64, rate: f64) {
        let flows = w.tenant_flows();
        let until = Time::ZERO + Dur::from_secs_f64(n as f64 / rate);
        w.sink.window = (Time::ZERO, Time::MAX);
        start_udp_generator(e, flows, rate, 64, until);
        e.run(w);
    }

    #[test]
    fn l1_p2v_probes_reach_the_sink() {
        let mut w = world(SecurityLevel::Level1, Scenario::P2v, ResourceMode::Isolated);
        let mut e = Sim::new();
        run_probes(&mut w, &mut e, 100, 10_000.0);
        assert_eq!(w.sink.sent, 100);
        assert_eq!(w.sink.received, 100, "drops: {:?}", w.drops);
        // All four flows arrived.
        assert!(w.sink.per_flow.iter().all(|&c| c > 0));
        // Latency is sane: above the bare NIC latency, below 10 ms.
        let p50 = w.sink.latency.percentile(50.0);
        assert!(p50 > 2_000, "p50 {p50} ns too small");
        assert!(p50 < 10_000_000, "p50 {p50} ns too large");
    }

    #[test]
    fn p2p_bypasses_tenants() {
        let mut w = world(SecurityLevel::Level1, Scenario::P2p, ResourceMode::Isolated);
        let mut e = Sim::new();
        run_probes(&mut w, &mut e, 50, 10_000.0);
        assert_eq!(w.sink.received, 50);
        // No tenant VM saw any packet: tenant cores stayed idle.
        for t in &w.tenants {
            for c in t.cores {
                assert_eq!(w.cores.get(c).unwrap().busy_total(), Dur::ZERO);
            }
        }
    }

    #[test]
    fn v2v_chains_two_tenants() {
        let mut w = world(SecurityLevel::Level1, Scenario::V2v, ResourceMode::Isolated);
        let mut e = Sim::new();
        run_probes(&mut w, &mut e, 40, 10_000.0);
        assert_eq!(w.sink.received, 40, "drops: {:?}", w.drops);
        // Both tenants of each pair did work.
        let busy: Vec<bool> = w
            .tenants
            .iter()
            .map(|t| {
                t.cores
                    .iter()
                    .any(|c| w.cores.get(*c).unwrap().busy_total() > Dur::ZERO)
            })
            .collect();
        assert!(busy.iter().all(|b| *b), "tenant activity: {busy:?}");
        // v2v latency exceeds p2v latency.
        let mut wp = world(SecurityLevel::Level1, Scenario::P2v, ResourceMode::Isolated);
        let mut ep = Sim::new();
        run_probes(&mut wp, &mut ep, 40, 10_000.0);
        assert!(w.sink.latency.percentile(50.0) > wp.sink.latency.percentile(50.0));
    }

    #[test]
    fn baseline_p2v_works_via_vhost() {
        let spec =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        let d = Controller::deploy(spec).unwrap();
        let cfg = RuntimeCfg::for_spec(&spec);
        let mut w = World::new(d, cfg, 7);
        let mut e = Sim::new();
        let flows = w.tenant_flows();
        w.sink.window = (Time::ZERO, Time::MAX);
        start_udp_generator(&mut e, flows, 10_000.0, 64, Time::from_nanos(5_000_000));
        e.run(&mut w);
        assert!(w.sink.sent >= 49);
        assert_eq!(w.sink.received, w.sink.sent, "drops: {:?}", w.drops);
    }

    #[test]
    fn saturation_causes_loss_not_deadlock() {
        // Offer far more than one kernel core can forward.
        let mut w = world(SecurityLevel::Level1, Scenario::P2v, ResourceMode::Shared);
        let mut e = Sim::new();
        run_probes(&mut w, &mut e, 20_000, 5_000_000.0);
        assert!(w.sink.received < w.sink.sent, "must overload");
        assert!(w.sink.received > 0, "but still forward");
        assert!(w.total_drops() > 0);
    }

    #[test]
    fn a_tenant_without_its_tx_vf_drops_every_frame_of_a_burst() {
        let mut w = world(SecurityLevel::Level1, Scenario::P2v, ResourceMode::Isolated);
        let mut e = Sim::new();
        let flows = w.tenant_flows();
        w.sink.window = (Time::ZERO, Time::MAX);
        // 400 kpps over four tenants: ten frames per 100 us l2fwd drain.
        start_udp_generator(&mut e, flows, 400_000.0, 64, Time::from_nanos(4_000_000));
        e.run_until(&mut w, Time::from_nanos(2_000_000));
        let forwarded = |w: &World| match &w.tenants[0].kind {
            TenantKind::Fwd { fwd, .. } => fwd.iter().map(L2Fwd::forwarded).sum::<u64>(),
            _ => unreachable!("MTS tenants run l2fwd"),
        };
        let before = forwarded(&w);
        assert!(before > 0 && w.total_drops() == 0, "drops: {:?}", w.drops);
        w.tenants[0].vf.clear();
        e.run(&mut w);
        // Every frame tenant 0 flushed after losing its VFs is a typed
        // drop, so the sink's books still balance.
        let lost = forwarded(&w) - before;
        assert!(lost > 100, "tenant 0 flushed only {lost} frames");
        assert_eq!(w.drops.get(&DropCause::TenantNoVf), Some(&lost));
        assert_eq!(w.sink.sent, w.sink.received + w.total_drops());
    }

    #[test]
    fn hot_unplugging_a_tenant_vf_only_kills_that_tenant() {
        let mut w = world(
            SecurityLevel::Level2 { compartments: 2 },
            Scenario::P2v,
            ResourceMode::Isolated,
        );
        let mut e = Sim::new();
        let flows = w.tenant_flows();
        w.sink.window = (Time::ZERO, Time::MAX);
        start_udp_generator(&mut e, flows, 40_000.0, 64, Time::from_nanos(20_000_000));
        // At t = 8 ms, tenant 0's VF disappears (VM crash / hot-unplug).
        e.schedule_at(Time::from_nanos(8_000_000), |w: &mut World, _e| {
            let (vf, _) = w.plan.tenants[0].vf[0];
            w.vf_owner.remove(&(vf.pf.0, vf.vf.0));
        });
        e.run_until(&mut w, Time::from_nanos(40_000_000));
        // Tenant 0 received roughly the first 8 ms worth; the others the
        // full 20 ms worth (10 kpps each).
        let [t0, t1, t2, t3] = w.sink.per_flow[..] else {
            panic!("four tenants: {:?}", w.sink.per_flow);
        };
        assert!(t0 < 110, "tenant 0 should stop around 80 frames: {t0}");
        assert!(t1 > 180, "tenant 1 must be unaffected: {t1}");
        assert!(t2 > 180 && t3 > 180);
        // The loss is visible and attributed.
        assert!(w.drops.get(&DropCause::VfUnclaimed).copied().unwrap_or(0) > 0);
    }

    #[test]
    fn zero_rate_and_empty_flow_lists_are_noops() {
        let mut w = world(SecurityLevel::Level1, Scenario::P2v, ResourceMode::Isolated);
        let mut e = Sim::new();
        let flows = w.tenant_flows();
        w.sink.window = (Time::ZERO, Time::MAX);
        let until = Time::from_nanos(1_000_000);
        start_udp_generator(&mut e, Vec::new(), 40_000.0, 64, until);
        start_udp_generator(&mut e, flows, 0.0, 64, until);
        e.run_until(&mut w, Time::from_nanos(5_000_000));
        assert_eq!(w.sink.sent, 0);
        assert_eq!(w.sink.received, 0);
    }

    #[test]
    fn core_event_stays_within_its_slab_slot_budget() {
        // Every pending event occupies one slab slot of this size; the
        // typed host events must not widen it.
        assert!(std::mem::size_of::<CoreEvent>() <= 72);
    }

    #[test]
    fn tso_factor_distinguishes_bulk_tcp() {
        use mts_net::{Ipv4Packet, Payload, TcpFlags, TcpSegment, Transport};
        let bulk = Frame::new(
            MacAddr::local(1),
            MacAddr::local(2),
            Payload::Ipv4(Ipv4Packet {
                src: std::net::Ipv4Addr::new(1, 0, 0, 1),
                dst: std::net::Ipv4Addr::new(1, 0, 0, 2),
                ttl: 64,
                tos: 0,
                transport: Transport::Tcp(TcpSegment {
                    sport: 1,
                    dport: 2,
                    seq: 0,
                    ack: 0,
                    flags: TcpFlags::ACK,
                    window: 100,
                    payload_len: 1448,
                }),
            }),
        );
        assert_eq!(tso_factor(&bulk), 2);
        let mut ack = bulk.clone();
        if let Payload::Ipv4(ip) = ack.payload.make_mut() {
            if let Transport::Tcp(t) = &mut ip.transport {
                t.payload_len = 0;
            }
        }
        assert_eq!(tso_factor(&ack), 1);
        let udp = Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            std::net::Ipv4Addr::new(1, 0, 0, 1),
            std::net::Ipv4Addr::new(1, 0, 0, 2),
            1,
            2,
            1_400,
        );
        assert_eq!(tso_factor(&udp), 1);
    }

    #[test]
    fn runtime_cfg_derivation_follows_the_datapath() {
        let kernel = RuntimeCfg::for_spec(&DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2p,
        ));
        assert!(kernel.vswitch_irq > Dur::ZERO);
        let base = RuntimeCfg::for_spec(&DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Shared,
            1,
            Scenario::P2p,
        ));
        assert!(base.vswitch_irq < kernel.vswitch_irq, "VM exits cost more");
        let dpdk = RuntimeCfg::for_spec(&DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Dpdk,
            ResourceMode::Isolated,
            Scenario::P2p,
        ));
        assert!(dpdk.vswitch_irq.is_zero(), "poll mode has no interrupts");
    }

    #[test]
    fn a_pf_the_deployment_lacks_drops_typed_on_both_wire_entry_points() {
        let mut w = world(SecurityLevel::Level1, Scenario::P2v, ResourceMode::Isolated);
        assert_eq!(w.link_up.len(), 2, "a 2-port world");
        let mut e = Sim::new();
        let probe = || {
            let t = &w.plan.tenants[0];
            Frame::udp_probe(
                w.plan.lg_mac,
                t.vf[0].1,
                w.plan.lg_ip,
                t.ip,
                PROBE_DPORT,
                0,
                64,
            )
        };
        let (frame, bytes) = (probe(), mts_net::wire::serialize(&probe()));
        wire_inject(&mut w, &mut e, PfId(7), frame);
        wire_inject_bytes(&mut w, &mut e, PfId(7), &bytes).expect("the bytes parse");
        // The same answer a VF on that port gets from the NIC (no FCS on
        // the VF path).
        let body = &bytes[..bytes.len() - 4];
        vf_inject_bytes(&mut w, &mut e, PfId(7), mts_nic::VfId(0), body).expect("the bytes parse");
        e.run(&mut w);
        assert_eq!(
            w.drops.get(&DropCause::NicError),
            Some(&3),
            "drops: {:?}",
            w.drops
        );
        assert_eq!(w.total_drops(), 3);
    }

    #[test]
    fn shared_mode_has_more_latency_variance_than_isolated() {
        let mut shared = world(
            SecurityLevel::Level2 { compartments: 4 },
            Scenario::P2v,
            ResourceMode::Shared,
        );
        let mut es = Sim::new();
        run_probes(&mut shared, &mut es, 400, 10_000.0);
        let mut iso = world(
            SecurityLevel::Level2 { compartments: 4 },
            Scenario::P2v,
            ResourceMode::Isolated,
        );
        let mut ei = Sim::new();
        run_probes(&mut iso, &mut ei, 400, 10_000.0);
        let spread_s = shared.sink.latency.percentile(90.0) - shared.sink.latency.percentile(10.0);
        let spread_i = iso.sink.latency.percentile(90.0) - iso.sink.latency.percentile(10.0);
        assert!(
            spread_s > spread_i,
            "shared spread {spread_s} vs isolated {spread_i}"
        );
    }

    #[test]
    fn megaflow_churn_defeats_the_flow_cache() {
        // Per-tenant UDP into a Level-2 deployment; returns the flow caches'
        // (hits, misses) after checking that frames were forwarded and that
        // the engine's per-kind dispatch counts account for every event.
        let run = |spec: DeploymentSpec, rate_pps: f64, dport_span: u16| {
            let d = Controller::deploy(spec).unwrap();
            let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 11);
            let mut e = Sim::new();
            w.sink.window = (Time::ZERO, Time::MAX);
            let flows = w.tenant_flows();
            start_udp_churn_generator(
                &mut e,
                flows,
                rate_pps,
                64,
                Time::from_nanos(3_000_000),
                dport_span,
            );
            e.run_until(&mut w, Time::from_nanos(8_000_000));
            assert!(w.sink.received > 0, "no frame was forwarded");
            let dispatch: Vec<(&str, u64)> = e.dispatch_counts().collect();
            let total: u64 = dispatch.iter().map(|(_, n)| *n).sum();
            assert_eq!(total, e.events_fired(), "dispatch imbalance");
            for expected in ["nic.rx", "vswitch.rx", "vswitch.exec", "gen.tick"] {
                assert!(
                    dispatch.iter().any(|(k, _)| *k == expected),
                    "missing dispatch tag {expected}"
                );
            }
            let mut hits = 0;
            let mut misses = 0;
            for vs in &w.vswitches {
                let cs = vs.inst.sw.cache_stats();
                hits += cs.hits;
                misses += cs.misses;
            }
            (hits, misses)
        };
        // The same deployment and rate, with and without port churn: churn
        // must turn a hit-dominated cache into a miss-dominated one.
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let (steady_hits, steady_misses) = run(spec, 1_000_000.0, 1);
        let (churn_hits, churn_misses) = run(spec, 1_000_000.0, 16_384);
        assert!(
            steady_hits > steady_misses * 10,
            "steady traffic should be hit-dominated (hits {steady_hits}, misses {steady_misses})"
        );
        assert!(
            churn_misses > churn_hits * 10,
            "port churn should be miss-dominated (hits {churn_hits}, misses {churn_misses})"
        );
        // Fan-out rather than per-flow rate: sixteen tenants across eight
        // compartments must deploy, forward and balance the same way.
        let mut fanout = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 8 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        fanout.tenants = 16;
        run(fanout, 500_000.0, 1);
    }

    #[test]
    fn a_delta_naming_no_vswitch_is_refused_and_not_logged() {
        let mut w = world(
            SecurityLevel::Level2 { compartments: 2 },
            Scenario::P2v,
            ResourceMode::Isolated,
        );
        assert_eq!(w.vswitches.len(), 2);
        assert_eq!(
            w.apply(ConfigDelta::RulesWiped { vswitch: 99 }),
            Err(DeltaError::NoSuchVswitch(99))
        );
        assert!(w.deltas.is_empty());
    }
}
