//! The tenant layer: frames delivered into a tenant VM, its l2fwd app or
//! guest bridge, and what it transmits back.

use super::hop::{with_scratch, Charge};
use super::{CoreEvent, Sim, World};
use crate::meters::Layer;
use mts_apps::L2Fwd;
use mts_host::LinuxBridge;
use mts_net::Frame;
use mts_nic::{NicPort, PfId, VfId};
use mts_sim::{CoreId, Dur};
use mts_telemetry::{DropCause, Hop};

/// How tenant VM `t` processes packets.
pub enum TenantKind {
    /// MTS tenants: the DPDK l2fwd app, one instance per rx side.
    Fwd {
        /// `fwd[side]` handles frames received on that side.
        fwd: Vec<L2Fwd>,
        /// `tx_side[side]`: which VF side the forwarded frames leave on.
        tx_side: Vec<u8>,
        /// Whether a drain-timer event is pending, per rx side.
        drain_armed: Vec<bool>,
    },
    /// Baseline tenants: the guest Linux bridge between two virtio NICs.
    Bridge(LinuxBridge),
    /// The tenant hosts a TCP endpoint (workload evaluation); index into
    /// [`World::hosts`].
    Endpoint(usize),
}

/// Runtime state of one tenant VM.
pub struct TenantRt {
    /// Tenant index.
    pub index: u8,
    /// Processing behaviour.
    pub kind: TenantKind,
    /// The tenant's two pinned cores.
    pub cores: [CoreId; 2],
    /// The tenant's VFs per side (empty for Baseline tenants).
    pub vf: Vec<(PfId, VfId)>,
}

/// A frame arrives at tenant VM `t` on `side`.
pub fn tenant_rx(w: &mut World, e: &mut Sim, t: usize, side: u8, frame: Frame) {
    let now = e.now();
    if t >= w.tenants.len() {
        w.drop_frame_traced(now, frame.id, DropCause::NoSuchTenant);
        return;
    }
    let hop = Hop::TenantRx {
        tenant: t as u8,
        side,
    };
    w.trace(frame.id, now, hop, Dur::ZERO);
    let tenant = &w.tenants[t];
    let core = tenant.cores[usize::from(side) % 2];
    let (ready, cost, ev) = match tenant.kind {
        TenantKind::Fwd { .. } => (
            now,
            w.cfg.tenant_fwd_cost,
            CoreEvent::TenantFwdExec { t, side, frame },
        ),
        // Guest bridge: virtio IRQ latency, then kernel forwarding.
        TenantKind::Bridge(_) => (
            now + LinuxBridge::WAKEUP_LATENCY,
            w.cfg.tenant_bridge_cost,
            CoreEvent::TenantBridgeExec { t, side, frame },
        ),
        TenantKind::Endpoint(h) => return crate::tcphost::host_rx(w, e, h, frame),
    };
    let grant = w.grant(core, ready, Charge::TenantVm { t, side }, cost);
    e.schedule_event(grant.end, "tenant.exec", ev);
}

/// One l2fwd step on tenant `t`'s rx side `side`: a received frame at the
/// end of its grant (`Some`), or the drain timer (`None`). The burst the
/// step releases leaves on the paired tx side; a frame that releases
/// nothing arms the drain timer, once.
pub(super) fn tenant_fwd(w: &mut World, e: &mut Sim, t: usize, side: u8, frame: Option<Frame>) {
    with_scratch(
        w,
        e,
        |w| &mut w.tenant_burst,
        |w, e, burst| {
            let now = e.now();
            let TenantKind::Fwd {
                fwd,
                tx_side,
                drain_armed,
            } = &mut w.tenants[t].kind
            else {
                return;
            };
            let s = usize::from(side);
            let fwd = &mut fwd[s];
            match frame {
                Some(frame) => {
                    fwd.on_frame(frame, now, burst);
                    if burst.is_empty() && !drain_armed[s] {
                        drain_armed[s] = true;
                        let deadline = fwd.next_drain().unwrap_or(now + Dur::micros(100));
                        let ev = CoreEvent::TenantDrain { t, side };
                        e.schedule_event(deadline.max(now), "tenant.drain", ev);
                    }
                }
                None => {
                    drain_armed[s] = false;
                    fwd.on_drain(now, burst);
                }
            }
            let tx = tx_side[s];
            tenant_emit(w, e, t, tx, burst);
        },
    );
}

/// Emits `frames` from tenant `t` out its `tx` side VF, leaving the buffer
/// empty.
fn tenant_emit(w: &mut World, e: &mut Sim, t: usize, tx: u8, frames: &mut Vec<Frame>) {
    let now = e.now();
    let Some((pf, vf)) = w.tenants[t].vf.get(usize::from(tx)).copied() else {
        for frame in frames.drain(..) {
            w.drop_frame_traced(now, frame.id, DropCause::TenantNoVf);
        }
        return;
    };
    for frame in frames.drain(..) {
        let hop = Hop::TenantTx {
            tenant: t as u8,
            side: tx,
        };
        w.trace(frame.id, now, hop, Dur::ZERO);
        let arr = w.nic.dma(now, u64::from(frame.wire_len()));
        let port = NicPort::Vf(vf);
        e.schedule_event(arr, "nic.rx", CoreEvent::NicRx { pf, port, frame });
    }
}

/// A tenant guest-bridge grant ends: the bridge forwards the frame back
/// toward the host over its vhost channels.
pub(super) fn tenant_bridge_exec(w: &mut World, e: &mut Sim, t: usize, side: u8, frame: Frame) {
    let now = e.now();
    let TenantKind::Bridge(bridge) = &mut w.tenants[t].kind else {
        return;
    };
    let outs = bridge.forward(u32::from(side), &frame);
    for out_side in outs {
        let frame = frame.clone();
        // The host-side vhost notify syscall runs in the host kernel on
        // behalf of exactly this tenant.
        let notify = w.cfg.host_notify;
        w.meter_layer(Layer::HostKernel, Some(t), notify);
        let mut arr = now + w.cfg.host_notify;
        if let Some(stall) = w.vhost_stall_until.get(t) {
            arr = arr.max(*stall);
        }
        let ev = CoreEvent::VhostTx {
            tenant: t as u8,
            side: out_side as u8,
            frame,
        };
        e.schedule_event(arr, "vswitch.rx", ev);
    }
}
