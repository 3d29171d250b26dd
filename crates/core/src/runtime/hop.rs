//! One path through a hop.
//!
//! Every core grant, journey hop and drop a handler makes goes through the
//! [`World`] methods here, so the core ledger, the cycle meters and the
//! telemetry mirror are written in one place each: [`World::grant`] is the
//! runtime's only caller of [`mts_sim::CpuCore::acquire`], [`World::trace`]
//! the only writer of journey hops, and [`World::drop_frame_traced`] the
//! way a frame with a journey dies. [`with_scratch`] is the one way a
//! handler borrows a reusable buffer.

use super::{Sim, World};
use crate::meters::{Attribution, Layer};
use mts_sim::cpu::{Grant, UserId};
use mts_sim::{CoreId, Dur, Time};
use mts_telemetry::{DropCause, Hop, Label, Recorder};

/// Who a core grant is charged to. The variant fixes both the core
/// ledger's user id and the meter the grant's occupancy goes to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Charge {
    /// Vswitch `i`'s datapath, working on `tenant`'s frame when that is
    /// known: metered as [`Layer::Vswitch`] under the vswitch's
    /// attribution regime.
    Vswitch { i: usize, tenant: Option<usize> },
    /// Tenant VM `t` on the core serving its rx side `side`: metered as
    /// [`Layer::TenantVm`], exact.
    TenantVm { t: usize, side: u8 },
    /// TCP host `h`'s stack and application: charged to the core, metered
    /// nowhere. A host is the load generator (outside the device under
    /// test) or a tenant-hosted server, whose CPU is not billed as
    /// [`Layer::TenantVm`] (OBSERVABILITY.md names that gap).
    Host(usize),
}

impl Charge {
    /// The core ledger's user id; consecutive grants to different users
    /// on one core pay a context switch.
    pub fn user(self) -> UserId {
        match self {
            Charge::Vswitch { i, .. } => 0x1000 + i as u64,
            Charge::TenantVm { t, side } => 0x2000 + (t as u64) * 4 + u64::from(side),
            Charge::Host(h) => 0x3000 + h as u64,
        }
    }
}

/// Runs `step` with the buffer `slot` names taken out of `w`, then puts it
/// back. `step` can only return, so the buffer comes back on every path
/// out. Handlers never re-enter one another (they only schedule follow-up
/// events), so no second handler can find a buffer missing.
pub(crate) fn with_scratch<B: Default>(
    w: &mut World,
    e: &mut Sim,
    slot: impl Fn(&mut World) -> &mut B,
    step: impl FnOnce(&mut World, &mut Sim, &mut B),
) {
    let mut buf = std::mem::take(slot(w));
    step(w, e, &mut buf);
    *slot(w) = buf;
}

impl World {
    /// Grants `cost` of CPU on `core`, starting no earlier than `ready`, to
    /// `charge`, and meters the grant's effective occupancy — exactly what
    /// the core ledger recorded, which is what the conservation identity
    /// billing enforces depends on. A zero-length occupancy is not
    /// recorded (the meters skip it).
    pub(crate) fn grant(&mut self, core: CoreId, ready: Time, charge: Charge, cost: Dur) -> Grant {
        let grant = self
            .cores
            .get_mut(core)
            // lint:allow(no-unwrap): every core a handler names is allocated at deploy time
            .expect("core exists")
            .acquire(ready, charge.user(), cost);
        let occupied = grant.end - grant.start;
        match charge {
            Charge::Vswitch { i, tenant } if !occupied.is_zero() => {
                // A biller may claim the vswitch's regime only for work it
                // can tie to a tenant.
                let attr = match tenant {
                    Some(_) => self.meters.vswitch_attribution(i),
                    None => Attribution::Unattributed,
                };
                self.meters.charge_vswitch(i, tenant, occupied);
                self.mirror_cycles(Layer::Vswitch, tenant, attr, occupied);
            }
            Charge::TenantVm { t, .. } => self.meter_layer(Layer::TenantVm, Some(t), occupied),
            Charge::Vswitch { .. } | Charge::Host(_) => {}
        }
        grant
    }

    /// Records hop `hop` of frame `fid`'s journey at `at` — a slice of
    /// `dur` when that is non-zero — and counts it in the hop kind's
    /// series. With telemetry off this is one `None` check at the call
    /// site, hence `inline(always)`: LLVM otherwise keeps the call and
    /// makes every hop of an untraced run pay for it.
    #[inline(always)]
    pub(crate) fn trace(&mut self, fid: u64, at: Time, hop: Hop, dur: Dur) {
        if let Some(rec) = self.telemetry.rec() {
            record_hop(rec, fid, at, hop, dur);
        }
    }

    /// Increments a drop counter (and its telemetry mirror).
    pub fn drop_frame(&mut self, cause: DropCause) {
        *self.drops.entry(cause).or_insert(0) += 1;
        if let Some(rec) = self.telemetry.rec() {
            rec.metrics
                .counter_inc("mts_drops_total", &[("cause", Label::Str(cause.as_str()))]);
        }
    }

    /// Like [`World::drop_frame`], additionally closing frame `fid`'s
    /// journey with a drop hop at simulated time `at`.
    pub fn drop_frame_traced(&mut self, at: Time, fid: u64, cause: DropCause) {
        self.drop_frame(cause);
        self.trace(fid, at, Hop::Drop { cause }, Dur::ZERO);
    }

    /// Charges layer work to the cycle meters and mirrors the charge into
    /// telemetry. Non-vswitch layers attribute exactly (the charge maps
    /// to one tenant by construction) or not at all.
    pub(super) fn meter_layer(&mut self, layer: Layer, tenant: Option<usize>, d: Dur) {
        if d.is_zero() {
            return;
        }
        let attr = if tenant.is_some() {
            Attribution::Exact
        } else {
            Attribution::Unattributed
        };
        self.meters.charge(layer, tenant, d);
        self.mirror_cycles(layer, tenant, attr, d);
    }

    fn mirror_cycles(&mut self, layer: Layer, tenant: Option<usize>, attr: Attribution, d: Dur) {
        if let Some(rec) = self.telemetry.rec() {
            let tenant = tenant.map_or(Label::Str("unresolved"), |t| Label::Num(t as u64));
            let labels = [
                ("layer", Label::Str(layer.label())),
                ("tenant", tenant),
                ("attribution", Label::Str(attr.label())),
            ];
            rec.metrics
                .counter_add("mts_cycles_ns_total", &labels, d.as_nanos());
            rec.metrics
                .observe("mts_cycles_grant_ns", &labels, d.as_nanos());
        }
    }
}

/// [`World::trace`] with telemetry on: the journey record, and the count in
/// the series of the hop's kind, keyed by the component the hop names.
/// `drop_frame` counts traced and untraced drops alike, so a drop hop
/// counts nowhere here.
fn record_hop(rec: &mut Recorder, fid: u64, at: Time, hop: Hop, dur: Dur) {
    rec.hop_timed(fid, at, hop, if dur.is_zero() { None } else { Some(dur) });
    let (name, key, id, extra) = match hop {
        Hop::WireIngress { pf } => ("mts_wire_ingress_total", "pf", pf, None),
        Hop::WireEgress { pf } => ("mts_wire_egress_total", "pf", pf, None),
        Hop::NicSwitch { pf, hairpin, .. } => {
            let hairpin = ("hairpin", Label::Num(hairpin.into()));
            ("mts_nic_switch_total", "pf", pf, Some(hairpin))
        }
        Hop::VswitchRecv { vswitch, .. } => ("mts_vswitch_rx_total", "vswitch", vswitch, None),
        Hop::VswitchForward {
            vswitch, cache_hit, ..
        } => {
            let result = ("result", Label::Str(if cache_hit { "hit" } else { "miss" }));
            ("mts_vswitch_cache_total", "vswitch", vswitch, Some(result))
        }
        Hop::TenantRx { tenant, .. } => ("mts_tenant_rx_total", "tenant", tenant, None),
        Hop::TenantTx { tenant, .. } => ("mts_tenant_tx_total", "tenant", tenant, None),
        Hop::Drop { .. } => return,
    };
    let id = (key, Label::Num(id.into()));
    match extra {
        None => rec.metrics.counter_inc(name, &[id]),
        Some(extra) => rec.metrics.counter_inc(name, &[id, extra]),
    }
}
