//! The vswitch layer: rx rings, the datapath grant, the pipeline and the
//! tx-side fan-out (VF, PF or vhost).

use super::hop::{with_scratch, Charge};
use super::{CoreEvent, Sim, World};
use crate::controller::{PortAttach, VswitchInstance};
use crate::meters::Layer;
use mts_net::Frame;
use mts_nic::NicPort;
use mts_sim::{CoreId, Dur, Time};
use mts_telemetry::{Decimal, DropCause, Hop};
use mts_vswitch::{DatapathCosts, PortKind, PortNo};

/// Liveness of a vswitch VM, driven by fault injection (`mts-faults`) and
/// the [`crate::supervisor`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum VswitchHealth {
    /// Processing frames normally.
    #[default]
    Healthy,
    /// Alive but not making progress: frames die, heartbeats stop, flow
    /// state survives (a hang can clear by itself).
    Hung,
    /// The VM is dead. Flow state is gone; only a supervisor restart plus
    /// controller reconciliation brings the compartment back.
    Down,
}

/// Runtime state of one vswitch (compartment or Baseline).
pub struct VswitchRt {
    /// Port map and flow tables.
    pub inst: VswitchInstance,
    /// The cores this vswitch's datapath threads run on.
    pub cores: Vec<CoreId>,
    /// Datapath cost model.
    pub costs: DatapathCosts,
    /// Kernel (interrupt) or DPDK (poll) semantics.
    pub kernel: bool,
    /// Packets queued for the datapath but not yet processed, indexed by
    /// rx port number (dense — port numbers are small and per-vswitch).
    pub inflight: Vec<usize>,
    /// Compartments sharing each of this switch's cores (for jitter).
    pub sharers: u32,
    /// VM liveness (fault injection).
    pub health: VswitchHealth,
    /// CPU slowdown multiplier (fault injection; 1.0 = nominal).
    pub slow_factor: f64,
    /// Flow rules diverge from the controller's desired state (wiped or
    /// partially lost); drops in this window are typed
    /// [`DropCause::RuleLostRaceWindow`] until reconciliation clears it.
    pub rules_dirty: bool,
}

/// The buffers [`vswitch_exec`] reuses from frame to frame.
#[derive(Default)]
pub(super) struct VswitchScratch {
    /// The pipeline's emissions (`VirtualSwitch::process_into`).
    out: Vec<(PortNo, Frame)>,
    /// The same emissions with their attachment and port kind, held while
    /// the tx-side grant is computed.
    plans: Vec<(Option<PortAttach>, Option<PortKind>, Frame)>,
}

/// RSS queue selection: the testbed's per-tenant flows align with the
/// NIC's indirection table (as the paper's clean 1→2→4 Mpps core scaling
/// implies); unparseable frames fall back to the flow hash.
fn rss_index(frame: &Frame, n: usize) -> usize {
    let n = n.max(1);
    match frame.dst_ip() {
        Some(ip) => ((u32::from(ip) >> 8) as usize) % n,
        None => (frame.flow_hash() % n as u64) as usize,
    }
}

/// GSO/GRO amortization factor: bulk TCP data segments traverse software
/// hops partially aggregated, so fixed per-packet costs are paid once per
/// ~2 MTU frames (the testbed's effective aggregation with the default
/// offload settings — full 64 KB TSO would let a single kernel vswitch
/// core saturate 10G, which the paper's shared-mode iperf rules out).
/// Small/control segments and UDP pay full freight.
pub fn tso_factor(frame: &Frame) -> u64 {
    match frame.ipv4().map(|ip| &ip.transport) {
        Some(mts_net::Transport::Tcp(t)) if t.payload_len >= 1_000 => 2,
        _ => 1,
    }
}

/// Whether vswitch `i` serves frames: a dead or wedged VM does not serve
/// its virtio/VF queues, and frame `fid` dies as `vswitch-down`.
fn vswitch_serving(w: &mut World, i: usize, at: Time, fid: u64) -> bool {
    if w.vswitches[i].health == VswitchHealth::Healthy {
        return true;
    }
    w.drop_frame_traced(at, fid, DropCause::VswitchDown);
    false
}

/// A guest-bridge frame reaches the host side of tenant `tenant`'s vhost
/// channel `side`, and enters the vswitch that owns that port.
pub(super) fn vhost_tx(w: &mut World, e: &mut Sim, tenant: u8, side: u8, frame: Frame) {
    let Some((i, port)) = w
        .vswitches
        .iter()
        .enumerate()
        .find_map(|(i, vs)| vs.inst.vhost.get(&(tenant, side)).map(|p| (i, *p)))
    else {
        let now = e.now();
        w.drop_frame_traced(now, frame.id, DropCause::VhostUnrouted);
        return;
    };
    vswitch_rx(w, e, i, port, frame, true);
}

/// A frame arrives at a vswitch port (from a VF, the PF, or via vhost).
pub fn vswitch_rx(
    w: &mut World,
    e: &mut Sim,
    i: usize,
    port: PortNo,
    frame: Frame,
    via_vhost: bool,
) {
    let now = e.now();
    if !vswitch_serving(w, i, now, frame.id) {
        return;
    }
    // Attribution ground truth, resolved before the datapath borrows.
    let tenant = w.tenant_of_frame(&frame);
    let vs = &mut w.vswitches[i];
    let cap = w.cfg.rx_ring;
    let idx = port.0 as usize;
    if idx >= vs.inflight.len() {
        vs.inflight.resize(idx + 1, 0);
    }
    let queued = &mut vs.inflight[idx];
    if *queued >= cap {
        w.drop_frame_traced(now, frame.id, DropCause::VswitchRing);
        return;
    }
    *queued += 1;
    let occupancy = *queued;
    let hop = Hop::VswitchRecv {
        vswitch: i as u8,
        port: port.0,
    };
    w.trace(frame.id, now, hop, Dur::ZERO);
    if let Some(rec) = w.telemetry.rec() {
        rec.metrics.gauge_max(
            "mts_vswitch_ring_hwm",
            &[
                ("vswitch", &Decimal::of(i as u64)),
                ("port", &Decimal::of(port.0.into())),
            ],
            occupancy as f64,
        );
    }

    // Cost estimate: fast-path lookup + amortized batch overhead + the
    // rx-side device cost; a cache miss extends the grant afterwards.
    let vs = &w.vswitches[i];
    let costs = vs.costs;
    let tso = tso_factor(&frame);
    let mut cost = costs.packet_cost_amortized(&frame, true, tso)
        + Dur::nanos(costs.per_batch.as_nanos() / (costs.burst.max(1) as u64 * tso));
    if !costs.poll_port.is_zero() {
        let polled = vs.inst.sw.port_count() as u64;
        cost += Dur::nanos(costs.poll_port.as_nanos() * polled / costs.burst.max(1) as u64);
    }
    let rx_kind = vs.inst.sw.port(port).map(|p| p.kind);
    match rx_kind {
        Some(PortKind::VfBacked) | Some(PortKind::Physical) => cost += costs.vf_rx_tx / tso,
        _ => {}
    }
    let mut vhost_copy = Dur::ZERO;
    if via_vhost {
        vhost_copy = w.cfg.vhost.copy_cost_amortized(&frame, tso);
        cost += vhost_copy;
    }
    if vs.slow_factor > 1.0 {
        // Injected slowdown (CPU steal, thermal throttling).
        cost = Dur::nanos((cost.as_nanos() as f64 * vs.slow_factor) as u64);
    }

    // Interrupt latency for the kernel path; scheduler jitter when several
    // compartments share the core (Fig. 5b's variance).
    let mut ready = now;
    let mut irq_delay = Dur::ZERO;
    if vs.kernel {
        // Interrupt + NAPI wake-up latency, with scheduler noise.
        let irq = w.cfg.vswitch_irq.as_nanos();
        irq_delay = Dur::nanos(irq * 7 / 10 + w.rng.below(irq * 6 / 10 + 1));
        ready += irq_delay;
    }
    let sharers = vs.sharers;
    if sharers > 1 {
        let bound = w.cfg.jitter_quantum.as_nanos() * u64::from(sharers - 1);
        ready += Dur::nanos(w.rng.below(bound + 1));
    }

    let core = vs.cores[rss_index(&frame, vs.cores.len())];
    let grant = w.grant(core, ready, Charge::Vswitch { i, tenant }, cost);
    // Sub-meters: the vhost copy rides inside the grant; the kernel IRQ
    // path is host-kernel involvement (latency, not core occupancy).
    w.meter_layer(Layer::Vhost, tenant, vhost_copy);
    w.meter_layer(Layer::HostKernel, tenant, irq_delay);
    let ev = CoreEvent::VswitchExec {
        i,
        port,
        frame,
        core,
    };
    e.schedule_event(grant.end, "vswitch.exec", ev);
}

/// The datapath thread picks the frame up and runs the pipeline.
pub(super) fn vswitch_exec(
    w: &mut World,
    e: &mut Sim,
    i: usize,
    port: PortNo,
    frame: Frame,
    core: CoreId,
) {
    let now = e.now();
    if let Some(q) = w.vswitches[i].inflight.get_mut(port.0 as usize) {
        *q = q.saturating_sub(1);
    }
    // The VM may have died between rx admission and the datapath grant:
    // frames already queued go down with it.
    if !vswitch_serving(w, i, now, frame.id) {
        return;
    }
    // Attribution ground truth and encap state, before the frame moves.
    let tenant = w.tenant_of_frame(&frame);
    let was_encap = crate::overlay::is_encapsulated(&frame);
    let vs = &w.vswitches[i];
    // Proxy-ARP (Sec. 3.2): the controller configured this vswitch as the
    // ARP responder for its tenants' gateway IPs; requests are answered
    // directly out of the ingress port.
    if let mts_net::Payload::Arp(req) = frame.payload.get() {
        if req.op == mts_net::ArpOp::Request {
            if let Some((_, gw_mac)) = vs
                .inst
                .proxy_arp
                .iter()
                .find(|(ip, _)| *ip == req.target_ip)
                .copied()
            {
                let reply = Frame::arp(gw_mac, req.reply_to(gw_mac));
                if let Some(PortAttach::Vf(pf, vf)) = vs.inst.attach.get(&port).copied() {
                    let ev = CoreEvent::DmaToNic {
                        pf,
                        port: NicPort::Vf(vf),
                        frame: reply,
                    };
                    e.schedule_event(now, "dma", ev);
                }
                return;
            }
        }
    }
    with_scratch(
        w,
        e,
        |w| &mut w.vswitch_scratch,
        |w, e, s| {
            let fid = frame.id;
            let vs = &mut w.vswitches[i];
            let misses_before = vs.inst.sw.cache_stats().misses;
            vs.inst.sw.process_into(port, frame, &mut s.out);
            let missed = vs.inst.sw.cache_stats().misses > misses_before;
            if s.out.is_empty() {
                // The pipeline swallowed the frame: no rule matched (or a rule
                // dropped it). Inside a rule-loss race window this is typed as
                // the fault it is; otherwise it is an ordinary table miss.
                let cause = if vs.rules_dirty {
                    DropCause::RuleLostRaceWindow
                } else {
                    DropCause::FlowMiss
                };
                w.drop_frame_traced(now, fid, cause);
                return;
            }

            // Charge the extra slow-path cost and all tx-side costs.
            let costs = vs.costs;
            let mut extra = Dur::ZERO;
            if missed {
                extra += costs.slow_path.saturating_sub(costs.cache_hit);
            }
            let mut vhost_extra = Dur::ZERO;
            let mut overlay_extra = Dur::ZERO;
            for (out_port, out_frame) in s.out.drain(..) {
                let attach = vs.inst.attach.get(&out_port).copied();
                let kind = vs.inst.sw.port(out_port).map(|p| p.kind);
                let tso = tso_factor(&out_frame);
                match kind {
                    Some(PortKind::VfBacked) | Some(PortKind::Physical) => {
                        extra += costs.vf_rx_tx / tso;
                    }
                    Some(PortKind::Vhost) | Some(PortKind::DpdkVhostUser) => {
                        let copy = w.cfg.vhost.copy_cost_amortized(&out_frame, tso);
                        vhost_extra += copy;
                        extra += copy;
                    }
                    _ => {}
                }
                // The overlay sub-meter counts the action-execution share of
                // frames whose encapsulation state the pipeline changed.
                if crate::overlay::is_encapsulated(&out_frame) != was_encap {
                    overlay_extra += costs.cache_hit;
                }
                s.plans.push((attach, kind, out_frame));
            }
            let dpdk = !vs.kernel;
            // The tx-side grant's occupancy is metered inside `grant`; the
            // vhost-copy and overlay-encap sub-meters ride inside it.
            let deliver_at = if extra.is_zero() {
                now
            } else {
                w.grant(core, now, Charge::Vswitch { i, tenant }, extra).end
            };
            w.meter_layer(Layer::Vhost, tenant, vhost_extra);
            w.meter_layer(Layer::OverlayEncap, tenant, overlay_extra);
            let hop = Hop::VswitchForward {
                vswitch: i as u8,
                cache_hit: !missed,
                outputs: s.plans.len() as u8,
            };
            w.trace(fid, now, hop, deliver_at.saturating_since(now));

            for (attach, kind, out_frame) in s.plans.drain(..) {
                let mut t = deliver_at;
                // DPDK tx to VF-backed ports: descriptor/doorbell batching adds
                // latency at low offered rates (Sec. 4.2's untuned-drain
                // effect); at high rates bursts fill and the effect vanishes.
                let low_rate = w.cfg.offered_pps > 0.0 && w.cfg.offered_pps < 200_000.0;
                if dpdk
                    && low_rate
                    && kind == Some(PortKind::VfBacked)
                    && !w.cfg.dpdk_vf_tx_drain.is_zero()
                {
                    t += Dur::nanos(w.rng.below(w.cfg.dpdk_vf_tx_drain.as_nanos() * 2 + 1) / 2);
                }
                let (pf, port) = match attach {
                    Some(PortAttach::Vf(pf, vf)) => (pf, NicPort::Vf(vf)),
                    Some(PortAttach::Pf(pf)) => (pf, NicPort::Pf),
                    Some(PortAttach::Vhost(tenant, side)) => {
                        let mut arr = t + w.cfg.vhost.guest_notify;
                        arr += w.cfg.vhost.batching_latency(w.cfg.offered_pps);
                        let t_idx = tenant as usize;
                        // The guest-notify eventfd kick is host-kernel work
                        // done for exactly this tenant's vhost channel.
                        let notify = w.cfg.vhost.guest_notify;
                        w.meter_layer(Layer::HostKernel, Some(t_idx), notify);
                        // An injected vhost stall holds the channel; frames
                        // queue and drain when it clears (delay, not loss).
                        if let Some(stall) = w.vhost_stall_until.get(t_idx) {
                            arr = arr.max(*stall);
                        }
                        let ev = CoreEvent::TenantRx {
                            t: t_idx,
                            side,
                            frame: out_frame,
                        };
                        e.schedule_event(arr, "vhost.deliver", ev);
                        continue;
                    }
                    None => {
                        w.drop_frame_traced(t, out_frame.id, DropCause::UnattachedPort);
                        continue;
                    }
                };
                let ev = CoreEvent::DmaToNic {
                    pf,
                    port,
                    frame: out_frame,
                };
                e.schedule_event(t, "dma", ev);
            }
        },
    );
}
