//! The NIC layer: the embedded switch (VEB), the VF↔VF hairpin budget and
//! the PCIe crossings into host memory.

use super::hop::with_scratch;
use super::wire::malformed_cause;
use super::{CoreEvent, Sim, World};
use crate::meters::Layer;
use mts_net::Frame;
use mts_nic::{NicPort, PfId, VfId};
use mts_sim::Dur;
use mts_telemetry::{DropCause, Hop, NicEndpoint};
use mts_vswitch::PortNo;

/// Who owns a NIC function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Owner {
    /// A vswitch port.
    Vswitch(usize, PortNo),
    /// A tenant VM side.
    Tenant(usize, u8),
}

/// Classifies a NIC port as a journey endpoint (for `NicSwitch` hops).
/// Unclaimed VFs are classified as [`NicEndpoint::Pf`] best-effort; the
/// frames heading there are dropped as `vf-unclaimed` anyway.
fn nic_endpoint(w: &World, pf: PfId, port: NicPort) -> NicEndpoint {
    match port {
        NicPort::Wire => NicEndpoint::Wire,
        NicPort::Pf => NicEndpoint::Pf,
        NicPort::Vf(vf) => match w.vf_owner.get(&(pf.0, vf.0)) {
            Some(Owner::Tenant(t, _)) => NicEndpoint::TenantVf { tenant: *t as u8 },
            Some(Owner::Vswitch(i, _)) => NicEndpoint::VswitchVf { vswitch: *i as u8 },
            None => NicEndpoint::Pf,
        },
    }
}

/// Injects raw, untrusted bytes as if a (compromised) tenant VM wrote
/// them into VF `vf` of `pf` — no FCS on this path, exactly like a real
/// VF tx ring. Malformed bytes drop with a typed cause; parsed frames
/// enter the NIC's embedded switch and face the usual spoof/VST/filter
/// policy.
pub fn vf_inject_bytes(
    w: &mut World,
    e: &mut Sim,
    pf: PfId,
    vf: VfId,
    bytes: &[u8],
) -> Result<u64, mts_net::wire::WireError> {
    match mts_net::wire::parse_without_fcs(bytes) {
        Ok(frame) => {
            let id = frame.id;
            nic_rx(w, e, pf, NicPort::Vf(vf), frame);
            Ok(id)
        }
        Err(err) => {
            w.drop_frame(malformed_cause(&err));
            Err(err)
        }
    }
}

/// A frame arrives at the NIC's embedded switch on PF `pf`, port `port`.
pub fn nic_rx(w: &mut World, e: &mut Sim, pf: PfId, port: NicPort, frame: Frame) {
    with_scratch(
        w,
        e,
        |w| &mut w.nic_scratch,
        |w, e, deliveries| {
            let now = e.now();
            let switch_latency = w.nic.model().switch_latency;
            let fid = frame.id;
            let from = nic_endpoint(w, pf, port);
            let before = w.nic.counters();
            deliveries.clear();
            if w.nic.ingress_into(pf, port, frame, deliveries).is_err() {
                w.drop_frame_traced(now, fid, DropCause::NicError);
                return;
            }
            let after = w.nic.counters();
            if after.dropped_spoof > before.dropped_spoof {
                w.drop_frame_traced(now, fid, DropCause::NicSpoof);
            }
            if after.dropped_filter > before.dropped_filter {
                w.drop_frame_traced(now, fid, DropCause::NicFilter);
            }
            if after.dropped_vlan > before.dropped_vlan {
                w.drop_frame_traced(now, fid, DropCause::NicVlan);
            }
            for d in deliveries.drain(..) {
                if w.telemetry.is_enabled() {
                    let to = nic_endpoint(w, pf, d.port);
                    let hop = Hop::NicSwitch {
                        pf: pf.0,
                        from,
                        to,
                        hairpin: d.hairpin,
                    };
                    w.trace(d.frame.id, now, hop, Dur::ZERO);
                }
                // NIC-VEB layer: one embedded-switch pipeline traversal per
                // delivered frame, charged to the NIC's own busy ledger and to
                // the attribution meters (conservation: the two must agree).
                let veb_tenant = w.tenant_of_frame(&d.frame);
                w.nic.note_veb_work(pf, switch_latency);
                w.meter_layer(Layer::NicVeb, veb_tenant, switch_latency);
                let mut t = now + switch_latency;
                let owner = match d.port {
                    NicPort::Wire => None,
                    NicPort::Pf => {
                        w.pf_owner[pf.0 as usize].map(|(i, port)| Owner::Vswitch(i, port))
                    }
                    NicPort::Vf(vf) => w.vf_owner.get(&(pf.0, vf.0)).copied(),
                };
                // The VF↔VF hairpin budget binds on VM-bound loopback
                // deliveries (frames scheduled into a tenant VF's rx queue):
                // this single bottleneck stage reproduces the paper's
                // ≈2.3 Mpps saturation in both p2v and v2v (Sec. 4.1).
                if d.hairpin && matches!(owner, Some(Owner::Tenant(..))) {
                    match w.nic.admit_hairpin(pf, t) {
                        Some(done) => {
                            if let Some(rec) = w.telemetry.rec() {
                                rec.metrics.observe(
                                    "mts_hairpin_wait_ns",
                                    &[],
                                    (done - t).as_nanos(),
                                );
                            }
                            t = done;
                        }
                        None => {
                            w.drop_frame_traced(t, d.frame.id, DropCause::HairpinOverflow);
                            continue;
                        }
                    }
                }
                // A PCIe crossing is charged at its actual instant, by its own
                // `dma` event: charging shared links with future timestamps
                // would create phantom reservations other traffic queues
                // behind.
                let frame = d.frame;
                let (tag, ev) = match (d.port, owner) {
                    (NicPort::Wire, _) => ("wire.tx", CoreEvent::WireTx { pf, frame }),
                    (_, Some(Owner::Vswitch(i, port))) => {
                        ("dma", CoreEvent::DmaToVswitch { i, port, frame })
                    }
                    (_, Some(Owner::Tenant(t, side))) => {
                        ("dma", CoreEvent::DmaToTenant { t, side, frame })
                    }
                    (NicPort::Pf, None) => {
                        w.drop_frame_traced(t, frame.id, DropCause::PfUnclaimed);
                        continue;
                    }
                    (NicPort::Vf(_), None) => {
                        w.drop_frame_traced(t, frame.id, DropCause::VfUnclaimed);
                        continue;
                    }
                };
                e.schedule_event(t, tag, ev);
            }
        },
    );
}

/// A PCIe crossing from the NIC into host memory, toward a vswitch port or
/// a tenant VM: the shared link is charged now, and `next` fires under
/// `tag` when the frame has crossed.
pub(super) fn dma_in(w: &mut World, e: &mut Sim, len: u32, tag: &'static str, next: CoreEvent) {
    let now = e.now();
    let arr = w.nic.dma(now, u64::from(len));
    if let Some(rec) = w.telemetry.rec() {
        rec.metrics
            .observe("mts_dma_wait_ns", &[], (arr - now).as_nanos());
    }
    e.schedule_event(arr, tag, next);
}
