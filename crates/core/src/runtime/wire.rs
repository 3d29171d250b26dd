//! The wire: physical links in and out of the device under test, the
//! external sink/tap at their far end and the UDP probe generator.

use super::{CoreEvent, Sim, World};
use mts_net::{Frame, MacAddr};
use mts_nic::{NicPort, PfId};
use mts_sim::{Dur, Histogram, Time};
use mts_telemetry::{DropCause, Hop, Label};

/// Where frames leaving a physical port end up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireEnd {
    /// The measurement sink + passive tap (UDP experiments).
    SinkTap,
    /// A TCP host (the load generator in workload experiments).
    Host(usize),
}

/// UDP measurement record (the Endace-tap analogue).
#[derive(Default)]
pub struct SinkRec {
    /// One-way latency histogram (ns), frames inside the window only.
    pub latency: Histogram,
    /// Per-flow (per-tenant) latency histograms.
    pub latency_by_flow: Vec<Histogram>,
    /// Per-flow receive counts inside the window.
    pub per_flow: Vec<u64>,
    /// Per-flow send counts inside the window (offered load per tenant,
    /// for blast-radius accounting).
    pub sent_by_flow: Vec<u64>,
    /// Frames sent inside the window (stamped by the LG).
    pub sent: u64,
    /// Frames received inside the window.
    pub received: u64,
    /// Measurement window.
    pub window: (Time, Time),
}

impl SinkRec {
    /// Whether an instant falls inside the measurement window.
    pub fn in_window(&self, at: Time) -> bool {
        at >= self.window.0 && at < self.window.1
    }
}

/// Whether physical port `pf` carries frame `fid` now. A port the
/// deployment lacks drops it as `nic-error` — what the NIC answers for a
/// VF on such a port — and a downed link as `link-down`.
fn link_carries(w: &mut World, pf: PfId, at: Time, fid: u64) -> bool {
    let cause = match w.link_up.get(usize::from(pf.0)) {
        Some(true) => return true,
        Some(false) => DropCause::LinkDown,
        None => DropCause::NicError,
    };
    w.drop_frame_traced(at, fid, cause);
    false
}

/// Injects a frame from the external side onto physical port `pf`.
pub fn wire_inject(w: &mut World, e: &mut Sim, pf: PfId, frame: Frame) {
    let now = e.now();
    if !link_carries(w, pf, now, frame.id) {
        return;
    }
    w.trace(frame.id, now, Hop::WireIngress { pf: pf.0 }, Dur::ZERO);
    let arrival = w.wires_in[pf.0 as usize].transmit(now, u64::from(frame.wire_len()));
    let port = NicPort::Wire;
    e.schedule_event(arrival, "nic.rx", CoreEvent::NicRx { pf, port, frame });
}

/// Maps a parse failure to its drop cause: decap-bomb nesting is
/// accounted separately from garden-variety garbage.
pub(super) fn malformed_cause(err: &mts_net::wire::WireError) -> DropCause {
    match err {
        mts_net::wire::WireError::EncapTooDeep => DropCause::MalformedEncap,
        _ => DropCause::MalformedFrame,
    }
}

/// Injects raw, untrusted bytes from the external wire onto port `pf`.
///
/// This is the byte-level ingress boundary the fuzzer drives: bytes that
/// fail to parse are dropped with a typed cause ([`DropCause::MalformedEncap`]
/// for VXLAN nesting past the cap, [`DropCause::MalformedFrame`] otherwise)
/// instead of reaching — let alone panicking — the structural datapath.
/// Returns the accepted frame's id so callers can account for it.
pub fn wire_inject_bytes(
    w: &mut World,
    e: &mut Sim,
    pf: PfId,
    bytes: &[u8],
) -> Result<u64, mts_net::wire::WireError> {
    match mts_net::wire::parse(bytes) {
        Ok(frame) => {
            let id = frame.id;
            wire_inject(w, e, pf, frame);
            Ok(id)
        }
        Err(err) => {
            w.drop_frame(malformed_cause(&err));
            Err(err)
        }
    }
}

/// A frame leaves the NIC onto the wire of `pf` (link-down drops here).
pub(super) fn wire_tx(w: &mut World, e: &mut Sim, pf: PfId, frame: Frame) {
    let now = e.now();
    if !link_carries(w, pf, now, frame.id) {
        return;
    }
    let len = u64::from(frame.wire_len());
    let arr = w.wires_out[pf.0 as usize].transmit(now, len);
    e.schedule_event(arr, "wire.rx", CoreEvent::WireRx { pf, frame });
}

/// A frame leaves the DUT on physical port `pf`.
pub(super) fn external_rx(w: &mut World, e: &mut Sim, pf: PfId, frame: Frame) {
    let now = e.now();
    w.trace(frame.id, now, Hop::WireEgress { pf: pf.0 }, Dur::ZERO);
    match w.wire_ends[pf.0 as usize] {
        WireEnd::SinkTap => {
            let origin = Time::from_nanos(frame.origin_ns);
            // The sink counts by *arrival* time (as a real monitor does);
            // latency pairs arrival with the probe's origin stamp.
            if w.sink.in_window(now) {
                w.sink.received += 1;
                let lat = (now - origin).as_nanos();
                w.sink.latency.record(lat);
                // Flow attribution sees through one overlay layer.
                let flow = crate::overlay::inner_dst_ip(&frame)
                    .and_then(|ip| w.ip_tenant.get(&u32::from(ip)))
                    .map(|&t| usize::from(t));
                if let Some(idx) = flow {
                    if idx < w.sink.per_flow.len() {
                        w.sink.per_flow[idx] += 1;
                        w.sink.latency_by_flow[idx].record(lat);
                    }
                }
                if let Some(rec) = w.telemetry.rec() {
                    rec.metrics.observe("mts_e2e_latency_ns", &[], lat);
                    if let Some(idx) = flow {
                        rec.metrics.observe(
                            "mts_e2e_latency_ns_by_tenant",
                            &[("tenant", Label::Num(idx as u64))],
                            lat,
                        );
                    }
                }
            }
        }
        WireEnd::Host(h) => crate::tcphost::external_host_rx(w, e, h, frame),
    }
}

/// Starts a constant-rate UDP probe generator (the dagflood analogue).
///
/// `flows` are `(dmac, dst_ip)` pairs cycled round-robin; `wire_len` is the
/// frame size; generation stops at `until`.
pub fn start_udp_generator(
    e: &mut Sim,
    flows: Vec<(MacAddr, std::net::Ipv4Addr)>,
    rate_pps: f64,
    wire_len: u32,
    until: Time,
) {
    start_udp_churn_generator(e, flows, rate_pps, wire_len, until, 1);
}

/// Like [`start_udp_generator`], but cycles the UDP destination port through
/// `dport_span` consecutive values so every frame can present a fresh
/// microflow key to the vswitch flow cache. `dport_span == 1` is the classic
/// single-port probe stream; a span larger than the cache makes the workload
/// perpetually miss-heavy.
pub fn start_udp_churn_generator(
    e: &mut Sim,
    flows: Vec<(MacAddr, std::net::Ipv4Addr)>,
    rate_pps: f64,
    wire_len: u32,
    until: Time,
    dport_span: u16,
) {
    if flows.is_empty() || rate_pps <= 0.0 {
        return;
    }
    let gap = Dur::from_secs_f64(1.0 / rate_pps);
    let flows: std::sync::Arc<[(MacAddr, std::net::Ipv4Addr)]> = flows.into();
    e.schedule_event(
        Time::ZERO,
        "gen.tick",
        CoreEvent::GenTick {
            flows,
            gap,
            wire_len,
            until,
            seq: 0,
            dport_span: dport_span.max(1),
        },
    );
}

/// Base destination port for generated UDP probes.
pub const PROBE_DPORT: u16 = 5001;

#[allow(clippy::too_many_arguments)]
pub(super) fn generator_tick(
    w: &mut World,
    e: &mut Sim,
    flows: std::sync::Arc<[(MacAddr, std::net::Ipv4Addr)]>,
    gap: Dur,
    wire_len: u32,
    until: Time,
    seq: u64,
    dport_span: u16,
) {
    let now = e.now();
    if now >= until {
        return;
    }
    let (dmac, dst_ip) = flows[(seq % flows.len() as u64) as usize];
    let dport = PROBE_DPORT.wrapping_add((seq % u64::from(dport_span)) as u16);
    let frame = Frame::udp_probe(
        w.plan.lg_mac,
        dmac,
        w.plan.lg_ip,
        dst_ip,
        dport,
        seq,
        wire_len,
    )
    .stamped(now.as_nanos());
    if w.sink.in_window(now) {
        w.sink.sent += 1;
        if let Some(&t) = w.ip_tenant.get(&u32::from(dst_ip)) {
            let idx = usize::from(t);
            if idx < w.sink.sent_by_flow.len() {
                w.sink.sent_by_flow[idx] += 1;
            }
        }
    }
    wire_inject(w, e, PfId(0), frame);
    e.schedule_event(
        now + gap,
        "gen.tick",
        CoreEvent::GenTick {
            flows,
            gap,
            wire_len,
            until,
            seq: seq + 1,
            dport_span,
        },
    );
}
