//! The packet-pipeline runtime.
//!
//! Binds the configured [`Deployment`] (NIC, vswitches, tenant VMs) to the
//! discrete-event engine: frames travel hop by hop, every processing step
//! is charged to a simulated CPU core (with context-switch penalties and
//! scheduler jitter in the *shared* resource mode), and every transfer is
//! charged to the NIC's links and hairpin budget. The same `World` carries
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

use crate::controller::{Deployment, PortAttach, VswitchInstance};
use crate::meters::{Attribution, CycleMeters, Layer};
use crate::spec::{DeploymentSpec, SecurityLevel};
use crate::tcphost::{HostAttach, Quad, TcpHostRt};
use crate::vfplan::AddressPlan;
use mts_apps::{ConnId, L2Fwd};
use mts_host::{LinuxBridge, ResourceMode, VhostCosts};
use mts_net::{Frame, MacAddr};
use mts_nic::{Delivery, NicPort, PfId, SriovNic, VfId};
use mts_sim::{
    CoreId, CorePool, DetRng, Dur, Engine, Event, EventFn, FastHashMap, Histogram, Link, Time,
};
use mts_telemetry::{Decimal, DropCause, Hop, NicEndpoint, Telemetry};
use mts_vswitch::{DatapathCosts, DatapathKind, PortKind, PortNo};
use std::collections::{BTreeMap, HashMap};

/// Runtime configuration and calibration knobs.
#[derive(Clone, Debug)]
pub struct RuntimeCfg {
    /// vhost channel cost model (Baseline tenant connectivity).
    pub vhost: VhostCosts,
    /// Interrupt + NAPI latency before a kernel datapath touches a packet.
    pub vswitch_irq: Dur,
    /// Multiplicative CPU overhead of running the vswitch inside a VM
    /// (exits, shadow interrupts). Applied to vswitch-VM cores.
    pub vm_overhead: f64,
    /// Multiplicative CPU overhead of host-OS housekeeping on the
    /// Baseline's co-located vswitch core.
    pub host_overhead: f64,
    /// Per-packet CPU cost of the tenant l2fwd app (MTS tenants).
    pub tenant_fwd_cost: Dur,
    /// Per-packet CPU cost of the tenant Linux bridge (Baseline tenants).
    pub tenant_bridge_cost: Dur,
    /// Guest→host notification latency for vhost returns.
    pub host_notify: Dur,
    /// Scheduler wake-up jitter quantum in the shared mode: each packet
    /// on a core shared by `k` compartments waits `U(0, (k-1)·quantum)`.
    pub jitter_quantum: Dur,
    /// Mean extra TX latency of DPDK VF-backed ports at low rates
    /// (doorbell/descriptor batching with default OvS-DPDK parameters —
    /// the effect the paper attributes to untuned drain intervals).
    pub dpdk_vf_tx_drain: Dur,
    /// Offered aggregate packet rate, used by the vhost multi-queue
    /// batching-anomaly model (Sec. 4.2).
    pub offered_pps: f64,
    /// Context-switch penalty between users of a shared core. Kept small:
    /// real schedulers amortize switches over timeslice bursts; the
    /// user-visible effect of sharing (latency variance) is modelled by
    /// `jitter_quantum`.
    pub ctx_switch: Dur,
    /// Per-VF/port rx ring capacity (packets queued awaiting CPU).
    pub rx_ring: usize,
}

impl Default for RuntimeCfg {
    fn default() -> Self {
        RuntimeCfg {
            vhost: VhostCosts::kernel(),
            vswitch_irq: Dur::micros(6),
            vm_overhead: 1.06,
            host_overhead: 1.18,
            tenant_fwd_cost: Dur::nanos(150),
            tenant_bridge_cost: Dur::nanos(900),
            host_notify: Dur::micros(8),
            jitter_quantum: Dur::micros(25),
            dpdk_vf_tx_drain: Dur::micros(150),
            offered_pps: 0.0,
            ctx_switch: Dur::nanos(100),
            rx_ring: 256,
        }
    }
}

impl RuntimeCfg {
    /// Derives the calibrated config for a deployment spec.
    pub fn for_spec(spec: &DeploymentSpec) -> RuntimeCfg {
        let mut cfg = RuntimeCfg::default();
        match spec.datapath {
            DatapathKind::Kernel => {
                cfg.vhost = VhostCosts::kernel();
                cfg.vswitch_irq = if spec.level.compartmentalized() {
                    // VF interrupt into the vswitch VM costs more than a
                    // host-local NAPI wake-up.
                    Dur::micros(14)
                } else {
                    Dur::micros(6)
                };
            }
            DatapathKind::Dpdk => {
                cfg.vhost = VhostCosts::dpdk_user(u32::from(spec.vswitch_cores()));
                cfg.vswitch_irq = Dur::ZERO;
            }
        }
        cfg
    }
}

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

/// Where frames leaving a physical port end up.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireEnd {
    /// The measurement sink + passive tap (UDP experiments).
    SinkTap,
    /// A TCP host (the load generator in workload experiments).
    Host(usize),
}

/// Who owns a NIC function.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Owner {
    /// A vswitch port.
    Vswitch(usize, PortNo),
    /// A tenant VM side.
    Tenant(usize, u8),
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

/// The complete simulated device under test plus measurement endpoints.
pub struct World {
    /// Deployment spec.
    pub spec: DeploymentSpec,
    /// Address plan.
    pub plan: AddressPlan,
    /// The SR-IOV NIC.
    pub nic: SriovNic,
    /// The vswitches.
    pub vswitches: Vec<VswitchRt>,
    /// The tenant VMs.
    pub tenants: Vec<TenantRt>,
    /// TCP hosts (load generator + tenant servers), workload mode.
    pub hosts: Vec<TcpHostRt>,
    /// Physical cores.
    pub cores: CorePool,
    /// Egress wire links (DUT → external), one per physical port.
    pub wires_out: Vec<Link>,
    /// Ingress wire links (external → DUT), one per physical port.
    pub wires_in: Vec<Link>,
    /// What sits at the far end of each physical port.
    pub wire_ends: Vec<WireEnd>,
    /// Runtime configuration.
    pub cfg: RuntimeCfg,
    /// VF ownership.
    pub vf_owner: FastHashMap<(u8, u8), Owner>,
    /// Tenant index by tenant-VM IPv4 address — the hot-path equivalent of
    /// [`AddressPlan::tenant_by_ip`]'s linear scan, consulted per frame for
    /// cycle attribution and sink flow accounting.
    pub ip_tenant: FastHashMap<u32, u8>,
    /// Reusable NIC-delivery scratch buffer ([`nic_rx`] is not reentrant:
    /// the delivery loop only schedules future events), so the per-frame
    /// switching path never allocates.
    nic_scratch: Vec<Delivery>,
    /// Pipeline emissions of the frame [`vswitch_exec`] is handling, and
    /// where each one goes once its tx-side cost is known. Taken and put
    /// back like `nic_scratch`, for the same reason.
    vswitch_out: Vec<(PortNo, Frame)>,
    vswitch_plans: Vec<(Option<PortAttach>, Option<PortKind>, Frame)>,
    /// The l2fwd burst being transmitted ([`tenant_emit`]).
    tenant_burst: Vec<Frame>,
    /// PF ownership (Baseline host switch), per physical port.
    pub pf_owner: Vec<Option<(usize, PortNo)>>,
    /// UDP sink/tap record.
    pub sink: SinkRec,
    /// Drop counters by cause.
    pub drops: BTreeMap<DropCause, u64>,
    /// Deterministic randomness (traffic path: IRQ jitter, tx drain).
    pub rng: DetRng,
    /// Independent RNG stream for fault selection (`mts-faults`): fault
    /// draws must never perturb the traffic stream above.
    pub fault_rng: DetRng,
    /// Physical link state per port, both directions (fault injection).
    pub link_up: Vec<bool>,
    /// Per-tenant vhost channel stall deadline (fault injection): frames
    /// crossing a tenant's vhost channel are delayed to this instant.
    pub vhost_stall_until: Vec<Time>,
    /// The controller channel is unreachable until this instant; restarts
    /// and reconciliation passes wait it out (fault injection).
    pub controller_down_until: Time,
    /// Remaining immediate re-crashes on supervisor restart, per vswitch
    /// (a crash-looping VM, set by fault injection).
    pub crashloop: Vec<u32>,
    /// Tenants marked degraded after an exhausted restart budget.
    pub degraded: Vec<bool>,
    /// Desired dataplane state for controller reconciliation, captured at
    /// deploy time.
    pub desired: Option<crate::reconcile::DesiredConfig>,
    /// Supervisor state (heartbeats, backoff, recovery log), when started.
    pub supervisor: Option<crate::supervisor::Supervisor>,
    /// Diagnostics: worst hairpin queueing delay observed.
    pub max_hairpin_wait: Dur,
    /// Diagnostics: worst PCIe DMA queueing delay observed.
    pub max_dma_wait: Dur,
    /// Optional packet capture at the tap (frames leaving the DUT).
    pub capture: Option<mts_net::pcap::PcapWriter>,
    /// Telemetry sink (disabled by default; see `mts-telemetry`).
    pub telemetry: Telemetry,
    /// Configuration-delta stream for incremental verification: every
    /// config-mutating path ([`crate::reconcile`], supervisor restarts,
    /// fault injection) records what it changed (see [`crate::delta`]).
    pub deltas: crate::delta::DeltaLog,
    /// Per-tenant cycle-attribution meters (the `mts-slo` substrate).
    pub meters: CycleMeters,
}

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
            CoreEvent::WireTx { pf, frame } => wire_tx(w, e, pf, frame),
            CoreEvent::WireRx { pf, frame } => external_rx(w, e, pf, frame),
            CoreEvent::DmaToVswitch { i, port, frame } => {
                let now = e.now();
                let arr = w.nic.dma(now, u64::from(frame.wire_len()));
                w.max_dma_wait = w.max_dma_wait.max(arr - now);
                if let Some(rec) = w.telemetry.rec() {
                    rec.metrics
                        .observe("mts_dma_wait_ns", &[], (arr - now).as_nanos());
                }
                e.schedule_event(
                    arr,
                    "vswitch.rx",
                    CoreEvent::VswitchRx {
                        i,
                        port,
                        frame,
                        via_vhost: false,
                    },
                );
            }
            CoreEvent::DmaToTenant { t, side, frame } => {
                let now = e.now();
                let arr = w.nic.dma(now, u64::from(frame.wire_len()));
                w.max_dma_wait = w.max_dma_wait.max(arr - now);
                if let Some(rec) = w.telemetry.rec() {
                    rec.metrics
                        .observe("mts_dma_wait_ns", &[], (arr - now).as_nanos());
                }
                e.schedule_event(arr, "tenant.rx", CoreEvent::TenantRx { t, side, frame });
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
            } => vswitch_exec(w, e, i, port, frame, core),
            CoreEvent::TenantRx { t, side, frame } => tenant_rx(w, e, t, side, frame),
            CoreEvent::TenantFwdExec { t, side, frame } => tenant_fwd_exec(w, e, t, side, frame),
            CoreEvent::TenantBridgeExec { t, side, frame } => {
                tenant_bridge_exec(w, e, t, side, frame)
            }
            CoreEvent::TenantDrain { t, side } => tenant_drain(w, e, t, side),
            CoreEvent::VhostTx {
                tenant,
                side,
                frame,
            } => {
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
            CoreEvent::GenTick {
                flows,
                gap,
                wire_len,
                until,
                seq,
                dport_span,
            } => generator_tick(w, e, flows, gap, wire_len, until, seq, dport_span),
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

impl World {
    /// Builds the runtime world from a deployment.
    pub fn new(d: Deployment, cfg: RuntimeCfg, seed: u64) -> World {
        let spec = d.spec;
        let ports = d.ports as usize;
        let mut cores = CorePool::new(0, cfg.ctx_switch);

        // Core 0: host OS housekeeping (always dedicated, Sec. 4.3).
        let host_core = cores.add(cfg.ctx_switch);
        let _ = host_core;

        // vswitch cores.
        let compartments = d.vswitches.len();
        let vswitch_cores: Vec<Vec<CoreId>> = match spec.level {
            SecurityLevel::Baseline => {
                // One switch with `baseline_cores` cores (RSS across them).
                let mut ids = Vec::new();
                for i in 0..spec.baseline_cores {
                    let id = if i == 0 && spec.resource_mode == ResourceMode::Shared {
                        // Shared Baseline: OvS shares the host core.
                        CoreId(0)
                    } else {
                        cores.add(cfg.ctx_switch)
                    };
                    ids.push(id);
                }
                // Host-OS housekeeping steals cycles from co-located
                // kernel-datapath cores; dedicated PMD cores are exempt.
                if spec.datapath == DatapathKind::Kernel {
                    for id in &ids {
                        if let Some(c) = cores.get_mut(*id) {
                            c.set_overhead(cfg.host_overhead);
                        }
                    }
                }
                vec![ids]
            }
            _ => match spec.resource_mode {
                ResourceMode::Shared => {
                    let shared = cores.add(cfg.ctx_switch);
                    if let Some(c) = cores.get_mut(shared) {
                        c.set_overhead(cfg.vm_overhead);
                    }
                    (0..compartments).map(|_| vec![shared]).collect()
                }
                ResourceMode::Isolated => (0..compartments)
                    .map(|_| {
                        let id = cores.add(cfg.ctx_switch);
                        if let Some(c) = cores.get_mut(id) {
                            c.set_overhead(cfg.vm_overhead);
                        }
                        vec![id]
                    })
                    .collect(),
            },
        };

        // Sharer counts for jitter: how many compartments per core.
        let mut per_core_users: HashMap<CoreId, u32> = HashMap::new();
        for ids in &vswitch_cores {
            for id in ids {
                *per_core_users.entry(*id).or_insert(0) += 1;
            }
        }

        let kernel = spec.datapath == DatapathKind::Kernel;
        let mut vswitches = Vec::new();
        let mut vf_owner = FastHashMap::default();
        let mut pf_owner = vec![None; ports];
        for (i, inst) in d.vswitches.into_iter().enumerate() {
            for (port, attach) in &inst.attach {
                match attach {
                    PortAttach::Vf(pf, vf) => {
                        vf_owner.insert((pf.0, vf.0), Owner::Vswitch(i, *port));
                    }
                    PortAttach::Pf(pf) => {
                        pf_owner[pf.0 as usize] = Some((i, *port));
                    }
                    PortAttach::Vhost(..) => {}
                }
            }
            let cores_i = vswitch_cores[i].clone();
            let sharers = cores_i
                .iter()
                .map(|c| per_core_users.get(c).copied().unwrap_or(1))
                .max()
                .unwrap_or(1);
            vswitches.push(VswitchRt {
                inst,
                cores: cores_i,
                costs: d.costs,
                kernel,
                inflight: Vec::new(),
                sharers,
                health: VswitchHealth::Healthy,
                slow_factor: 1.0,
                rules_dirty: false,
            });
        }

        // Tenant VMs: 2 cores each; MTS tenants run l2fwd over their VFs.
        let mut tenants = Vec::new();
        for t in &d.plan.tenants {
            let c0 = cores.add(cfg.ctx_switch);
            let c1 = cores.add(cfg.ctx_switch);
            let (kind, vfs) = if spec.level.compartmentalized() {
                let comp_idx = spec.compartment_of_tenant(t.index) as usize;
                let comp = &d.plan.compartments[comp_idx];
                let sides = t.vf.len();
                let mut fwd = Vec::new();
                let mut tx_side = Vec::new();
                for side in 0..sides {
                    // Frames received on `side` leave on the *other* side
                    // (or the same side in single-port mode), addressed to
                    // that side's gateway VF.
                    let out = if sides > 1 { (side ^ 1) as u8 } else { 0 };
                    let gw_mac = comp
                        .gw_for(t.index, out)
                        .map(|(_, m)| m)
                        .unwrap_or(MacAddr::ZERO);
                    fwd.push(L2Fwd::new(t.vf[out as usize].1, gw_mac));
                    tx_side.push(out);
                }
                let vfs: Vec<(PfId, VfId)> = t.vf.iter().map(|(r, _)| (r.pf, r.vf)).collect();
                for (side, (pf, vf)) in vfs.iter().enumerate() {
                    vf_owner.insert((pf.0, vf.0), Owner::Tenant(t.index as usize, side as u8));
                }
                (
                    TenantKind::Fwd {
                        fwd,
                        tx_side,
                        drain_armed: vec![false; sides],
                    },
                    vfs,
                )
            } else {
                (TenantKind::Bridge(LinuxBridge::new(2)), Vec::new())
            };
            tenants.push(TenantRt {
                index: t.index,
                kind,
                cores: [c0, c1],
                vf: vfs,
            });
        }

        let model = *d.nic.model();
        let n_vswitches = vswitches.len();
        // The attribution regime each vswitch's cycles fall under is fixed
        // by the deployment: Baseline's shared switch is unattributable,
        // a compartment serving one tenant bills exactly, several tenants
        // sharing a compartment split proportionally (Sec. 6).
        let vswitch_attr: Vec<Attribution> = (0..n_vswitches)
            .map(|i| match spec.level {
                SecurityLevel::Baseline => Attribution::Unattributed,
                _ => {
                    if spec.tenants_of_compartment(i as u8).len() == 1 {
                        Attribution::Exact
                    } else {
                        Attribution::Proportional
                    }
                }
            })
            .collect();
        let ip_tenant: FastHashMap<u32, u8> = d
            .plan
            .tenants
            .iter()
            .map(|t| (u32::from(t.ip), t.index))
            .collect();
        let root = DetRng::new(seed);
        let mut w = World {
            spec,
            plan: d.plan,
            nic: d.nic,
            vswitches,
            tenants,
            hosts: Vec::new(),
            cores,
            wires_out: (0..ports).map(|_| model.wire_link()).collect(),
            wires_in: (0..ports).map(|_| model.wire_link()).collect(),
            wire_ends: vec![WireEnd::SinkTap; ports],
            cfg,
            vf_owner,
            ip_tenant,
            nic_scratch: Vec::new(),
            vswitch_out: Vec::new(),
            vswitch_plans: Vec::new(),
            tenant_burst: Vec::new(),
            pf_owner,
            sink: SinkRec {
                per_flow: vec![0; spec.tenants as usize],
                sent_by_flow: vec![0; spec.tenants as usize],
                latency_by_flow: (0..spec.tenants).map(|_| Histogram::new()).collect(),
                ..SinkRec::default()
            },
            drops: BTreeMap::new(),
            rng: root.clone(),
            fault_rng: root.derive("faults"),
            link_up: vec![true; ports],
            vhost_stall_until: vec![Time::ZERO; spec.tenants as usize],
            controller_down_until: Time::ZERO,
            crashloop: vec![0; n_vswitches],
            degraded: vec![false; spec.tenants as usize],
            desired: None,
            supervisor: None,
            max_hairpin_wait: Dur::ZERO,
            max_dma_wait: Dur::ZERO,
            capture: None,
            telemetry: Telemetry::disabled(),
            deltas: crate::delta::DeltaLog::default(),
            meters: CycleMeters::new(spec.tenants as usize, vswitch_attr),
        };
        // The controller remembers what it programmed: the reconciliation
        // target after any fault (see `crate::reconcile`).
        w.desired = Some(crate::reconcile::DesiredConfig::capture(&w));
        w
    }

    /// Records a configuration delta (and its telemetry mirror). Every
    /// config-mutating runtime path must call this for each mutation it
    /// performs — the incremental verifier's equivalence against the full
    /// checker machine-checks that completeness.
    pub fn emit_delta(&mut self, d: crate::delta::ConfigDelta) {
        if let Some(rec) = self.telemetry.rec() {
            rec.metrics
                .counter_inc("mts_config_deltas_total", &[("kind", d.kind())]);
        }
        self.deltas.push(d);
    }

    /// Increments a drop counter (and its telemetry mirror).
    pub fn drop_frame(&mut self, cause: DropCause) {
        *self.drops.entry(cause).or_insert(0) += 1;
        if let Some(rec) = self.telemetry.rec() {
            rec.metrics
                .counter_inc("mts_drops_total", &[("cause", cause.as_str())]);
        }
    }

    /// Like [`World::drop_frame`], additionally closing frame `fid`'s
    /// journey with a drop hop at simulated time `at`.
    pub fn drop_frame_traced(&mut self, at: Time, fid: u64, cause: DropCause) {
        self.drop_frame(cause);
        if let Some(rec) = self.telemetry.rec() {
            rec.hop(fid, at, Hop::Drop { cause });
        }
    }

    /// Total drops across causes.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Drops attributable to injected faults (typed `Fault*` causes).
    pub fn fault_drops(&self) -> u64 {
        self.drops
            .iter()
            .filter(|(c, _)| c.is_fault())
            .map(|(_, n)| *n)
            .sum()
    }

    /// User id for core accounting: distinguishes compartments/tenants.
    pub(crate) fn user_vswitch(i: usize) -> u64 {
        0x1000 + i as u64
    }

    /// CPU time the core ledger measured for vswitch `i`'s datapath, summed
    /// over all cores. This is the independent side of the conservation
    /// identity: the meters' vswitch totals must equal it exactly.
    pub fn measured_vswitch_cpu_of(&self, i: usize) -> Dur {
        let user = Self::user_vswitch(i);
        let mut sum = Dur::ZERO;
        for c in self.cores.iter() {
            sum += c.busy_for(user);
        }
        sum
    }

    /// Core-ledger CPU time across every vswitch — the total the bill (plus
    /// its unattributed remainder) must conserve.
    pub fn measured_vswitch_cpu(&self) -> Dur {
        let mut sum = Dur::ZERO;
        for i in 0..self.vswitches.len() {
            sum += self.measured_vswitch_cpu_of(i);
        }
        sum
    }

    fn user_tenant(t: usize, side: u8) -> u64 {
        0x2000 + (t as u64) * 4 + u64::from(side)
    }

    /// Maps a frame to the tenant whose traffic it is, seeing through one
    /// VXLAN layer. Destination tenant wins; source is the fallback so
    /// return traffic (tenant → remote) still attributes.
    pub fn tenant_of_frame(&self, frame: &Frame) -> Option<usize> {
        let (src, dst) = crate::overlay::inner_ips(frame)?;
        self.ip_tenant
            .get(&u32::from(dst))
            .or_else(|| self.ip_tenant.get(&u32::from(src)))
            .map(|&t| usize::from(t))
    }

    /// Charges layer work to the cycle meters and mirrors the charge into
    /// telemetry. Non-vswitch layers attribute exactly (the charge maps
    /// to one tenant by construction) or not at all.
    fn meter_layer(&mut self, layer: Layer, tenant: Option<usize>, d: Dur) {
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

    /// Charges vswitch-datapath work on vswitch `i`, flagged with the
    /// attribution regime a biller could honestly claim for it.
    fn meter_vswitch(&mut self, i: usize, tenant: Option<usize>, d: Dur) {
        if d.is_zero() {
            return;
        }
        let attr = if tenant.is_some() {
            self.meters.vswitch_attribution(i)
        } else {
            Attribution::Unattributed
        };
        self.meters.charge_vswitch(i, tenant, d);
        self.mirror_cycles(Layer::Vswitch, tenant, attr, d);
    }

    fn mirror_cycles(&mut self, layer: Layer, tenant: Option<usize>, attr: Attribution, d: Dur) {
        if let Some(rec) = self.telemetry.rec() {
            let tenant_index = tenant.map(|t| Decimal::of(t as u64));
            let labels = [
                ("layer", layer.label()),
                ("tenant", tenant_index.as_deref().unwrap_or("unresolved")),
                ("attribution", attr.label()),
            ];
            rec.metrics
                .counter_add("mts_cycles_ns_total", &labels, d.as_nanos());
            rec.metrics
                .observe("mts_cycles_grant_ns", &labels, d.as_nanos());
        }
    }
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

/// Injects a frame from the external side onto physical port `pf`.
pub fn wire_inject(w: &mut World, e: &mut Sim, pf: PfId, frame: Frame) {
    let now = e.now();
    if !w.link_up[pf.0 as usize] {
        w.drop_frame_traced(now, frame.id, DropCause::LinkDown);
        return;
    }
    if let Some(rec) = w.telemetry.rec() {
        rec.hop(frame.id, now, Hop::WireIngress { pf: pf.0 });
        rec.metrics.counter_inc(
            "mts_wire_ingress_total",
            &[("pf", &Decimal::of(pf.0.into()))],
        );
    }
    let arrival = w.wires_in[pf.0 as usize].transmit(now, u64::from(frame.wire_len()));
    e.schedule_event(
        arrival,
        "nic.rx",
        CoreEvent::NicRx {
            pf,
            port: NicPort::Wire,
            frame,
        },
    );
}

/// Maps a parse failure to its drop cause: decap-bomb nesting is
/// accounted separately from garden-variety garbage.
fn malformed_cause(err: &mts_net::wire::WireError) -> DropCause {
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

/// A frame leaves the NIC onto the wire of `pf` (link-down drops here).
fn wire_tx(w: &mut World, e: &mut Sim, pf: PfId, frame: Frame) {
    if !w.link_up[pf.0 as usize] {
        let now = e.now();
        w.drop_frame_traced(now, frame.id, DropCause::LinkDown);
        return;
    }
    let len = u64::from(frame.wire_len());
    let arr = w.wires_out[pf.0 as usize].transmit(e.now(), len);
    e.schedule_event(arr, "wire.rx", CoreEvent::WireRx { pf, frame });
}

/// A frame arrives at the NIC's embedded switch on PF `pf`, port `port`.
pub fn nic_rx(w: &mut World, e: &mut Sim, pf: PfId, port: NicPort, frame: Frame) {
    let now = e.now();
    let switch_latency = w.nic.model().switch_latency;
    let fid = frame.id;
    let from = nic_endpoint(w, pf, port);
    let before = w.nic.counters();
    let mut deliveries = std::mem::take(&mut w.nic_scratch);
    deliveries.clear();
    if w.nic
        .ingress_into(pf, port, frame, &mut deliveries)
        .is_err()
    {
        w.nic_scratch = deliveries;
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
            if let Some(rec) = w.telemetry.rec() {
                rec.hop(
                    d.frame.id,
                    now,
                    Hop::NicSwitch {
                        pf: pf.0,
                        from,
                        to,
                        hairpin: d.hairpin,
                    },
                );
                rec.metrics.counter_inc(
                    "mts_nic_switch_total",
                    &[
                        ("pf", &Decimal::of(pf.0.into())),
                        ("hairpin", if d.hairpin { "1" } else { "0" }),
                    ],
                );
            }
        }
        // NIC-VEB layer: one embedded-switch pipeline traversal per
        // delivered frame, charged to the NIC's own busy ledger and to
        // the attribution meters (conservation: the two must agree).
        let veb_tenant = w.tenant_of_frame(&d.frame);
        w.nic.note_veb_work(pf, switch_latency);
        w.meter_layer(Layer::NicVeb, veb_tenant, switch_latency);
        let mut t = now + switch_latency;
        // The VF↔VF hairpin budget binds on VM-bound loopback deliveries
        // (frames scheduled into a tenant VF's rx queue): this single
        // bottleneck stage reproduces the paper's ≈2.3 Mpps saturation in
        // both p2v and v2v (Sec. 4.1).
        let vm_bound = match d.port {
            NicPort::Vf(vf) => {
                matches!(w.vf_owner.get(&(pf.0, vf.0)), Some(Owner::Tenant(_, _)))
            }
            _ => false,
        };
        if d.hairpin && vm_bound {
            match w.nic.admit_hairpin(pf, t) {
                Some(done) => {
                    w.max_hairpin_wait = w.max_hairpin_wait.max(done - t);
                    if let Some(rec) = w.telemetry.rec() {
                        rec.metrics
                            .observe("mts_hairpin_wait_ns", &[], (done - t).as_nanos());
                    }
                    t = done;
                }
                None => {
                    w.drop_frame_traced(t, d.frame.id, DropCause::HairpinOverflow);
                    continue;
                }
            }
        }
        match d.port {
            NicPort::Wire => {
                e.schedule_event(t, "wire.tx", CoreEvent::WireTx { pf, frame: d.frame });
            }
            NicPort::Pf => {
                match w.pf_owner[pf.0 as usize] {
                    Some((i, port)) => {
                        // Charge the PCIe crossing at its actual instant:
                        // charging shared links with future timestamps
                        // would create phantom reservations other traffic
                        // queues behind.
                        e.schedule_event(
                            t,
                            "dma",
                            CoreEvent::DmaToVswitch {
                                i,
                                port,
                                frame: d.frame,
                            },
                        );
                    }
                    None => w.drop_frame_traced(t, d.frame.id, DropCause::PfUnclaimed),
                }
            }
            NicPort::Vf(vf) => match w.vf_owner.get(&(pf.0, vf.0)).copied() {
                Some(Owner::Vswitch(i, port)) => {
                    e.schedule_event(
                        t,
                        "dma",
                        CoreEvent::DmaToVswitch {
                            i,
                            port,
                            frame: d.frame,
                        },
                    );
                }
                Some(Owner::Tenant(t_idx, side)) => {
                    e.schedule_event(
                        t,
                        "dma",
                        CoreEvent::DmaToTenant {
                            t: t_idx,
                            side,
                            frame: d.frame,
                        },
                    );
                }
                None => w.drop_frame_traced(t, d.frame.id, DropCause::VfUnclaimed),
            },
        }
    }
    w.nic_scratch = deliveries;
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
    if w.vswitches[i].health != VswitchHealth::Healthy {
        // The VM is dead or wedged: its virtio/VF queues are not served.
        w.drop_frame_traced(now, frame.id, DropCause::VswitchDown);
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
    if let Some(rec) = w.telemetry.rec() {
        rec.hop(
            frame.id,
            now,
            Hop::VswitchRecv {
                vswitch: i as u8,
                port: port.0,
            },
        );
        let vs_label = Decimal::of(i as u64);
        rec.metrics
            .counter_inc("mts_vswitch_rx_total", &[("vswitch", &vs_label)]);
        rec.metrics.gauge_max(
            "mts_vswitch_ring_hwm",
            &[
                ("vswitch", &vs_label),
                ("port", &Decimal::of(port.0.into())),
            ],
            occupancy as f64,
        );
    }

    // Cost estimate: fast-path lookup + amortized batch overhead + the
    // rx-side device cost; a cache miss extends the grant afterwards.
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

    let core_id = vs.cores[rss_index(&frame, vs.cores.len())];
    let user = World::user_vswitch(i);
    let grant = w
        .cores
        .get_mut(core_id)
        // lint:allow(no-unwrap): vswitch cores are allocated at deploy time
        .expect("vswitch core exists")
        .acquire(ready, user, cost);
    // Vswitch layer: the grant's effective occupancy is exactly what the
    // core ledger recorded for this acquire — the conservation identity
    // billing enforces depends on metering every grant this way.
    w.meter_vswitch(i, tenant, grant.end - grant.start);
    // Sub-meters: the vhost copy rides inside the grant; the kernel IRQ
    // path is host-kernel involvement (latency, not core occupancy).
    w.meter_layer(Layer::Vhost, tenant, vhost_copy);
    w.meter_layer(Layer::HostKernel, tenant, irq_delay);
    e.schedule_event(
        grant.end,
        "vswitch.exec",
        CoreEvent::VswitchExec {
            i,
            port,
            frame,
            core: core_id,
        },
    );
}

/// The datapath thread picks the frame up and runs the pipeline.
fn vswitch_exec(w: &mut World, e: &mut Sim, i: usize, port: PortNo, frame: Frame, core: CoreId) {
    let now = e.now();
    let vs = &mut w.vswitches[i];
    if let Some(q) = vs.inflight.get_mut(port.0 as usize) {
        *q = q.saturating_sub(1);
    }
    if vs.health != VswitchHealth::Healthy {
        // The VM died between rx admission and the datapath grant: frames
        // already queued go down with it.
        w.drop_frame_traced(now, frame.id, DropCause::VswitchDown);
        return;
    }
    // Attribution ground truth and encap state, before the frame moves.
    let tenant = w.tenant_of_frame(&frame);
    let was_encap = crate::overlay::is_encapsulated(&frame);
    let vs = &mut w.vswitches[i];
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
                let attach = vs.inst.attach.get(&port).copied();
                if let Some(PortAttach::Vf(pf, vf)) = attach {
                    e.schedule_event(
                        now,
                        "dma",
                        CoreEvent::DmaToNic {
                            pf,
                            port: NicPort::Vf(vf),
                            frame: reply,
                        },
                    );
                }
                return;
            }
        }
    }
    let fid = frame.id;
    let misses_before = vs.inst.sw.cache_stats().misses;
    let mut outputs = std::mem::take(&mut w.vswitch_out);
    vs.inst.sw.process_into(port, frame, &mut outputs);
    let missed = vs.inst.sw.cache_stats().misses > misses_before;
    if outputs.is_empty() {
        // The pipeline swallowed the frame: no rule matched (or a rule
        // dropped it). Inside a rule-loss race window this is typed as the
        // fault it is; otherwise it is an ordinary table miss.
        let cause = if vs.rules_dirty {
            DropCause::RuleLostRaceWindow
        } else {
            DropCause::FlowMiss
        };
        w.vswitch_out = outputs;
        w.drop_frame_traced(now, fid, cause);
        return;
    }

    // Charge the extra slow-path cost and all tx-side costs.
    let costs = vs.costs;
    let mut extra = Dur::ZERO;
    if missed {
        extra += costs.slow_path.saturating_sub(costs.cache_hit);
    }
    let mut out_plans = std::mem::take(&mut w.vswitch_plans);
    let mut vhost_extra = Dur::ZERO;
    let mut overlay_extra = Dur::ZERO;
    for (out_port, out_frame) in outputs.drain(..) {
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
        out_plans.push((attach, kind, out_frame));
    }
    w.vswitch_out = outputs;
    let user = World::user_vswitch(i);
    let mut exec_eff = Dur::ZERO;
    let deliver_at = if extra.is_zero() {
        now
    } else {
        let grant = w
            .cores
            .get_mut(core)
            // lint:allow(no-unwrap): vswitch cores are allocated at deploy time
            .expect("vswitch core exists")
            .acquire(now, user, extra);
        exec_eff = grant.end - grant.start;
        grant.end
    };
    // Meter the tx-side grant's effective occupancy (conservation) plus
    // the vhost-copy and overlay-encap sub-meters riding inside it.
    w.meter_vswitch(i, tenant, exec_eff);
    w.meter_layer(Layer::Vhost, tenant, vhost_extra);
    w.meter_layer(Layer::OverlayEncap, tenant, overlay_extra);
    if let Some(rec) = w.telemetry.rec() {
        let dur = deliver_at.saturating_since(now);
        rec.hop_timed(
            fid,
            now,
            Hop::VswitchForward {
                vswitch: i as u8,
                cache_hit: !missed,
                outputs: out_plans.len() as u8,
            },
            if dur.is_zero() { None } else { Some(dur) },
        );
        rec.metrics.counter_inc(
            "mts_vswitch_cache_total",
            &[
                ("result", if missed { "miss" } else { "hit" }),
                ("vswitch", &Decimal::of(i as u64)),
            ],
        );
    }

    let dpdk = !w.vswitches[i].kernel;
    for (attach, kind, out_frame) in out_plans.drain(..) {
        let mut t = deliver_at;
        // DPDK tx to VF-backed ports: descriptor/doorbell batching adds
        // latency at low offered rates (Sec. 4.2's untuned-drain effect);
        // at high rates bursts fill and the effect vanishes.
        let low_rate = w.cfg.offered_pps > 0.0 && w.cfg.offered_pps < 200_000.0;
        if dpdk && low_rate && kind == Some(PortKind::VfBacked) && !w.cfg.dpdk_vf_tx_drain.is_zero()
        {
            t += Dur::nanos(w.rng.below(w.cfg.dpdk_vf_tx_drain.as_nanos() * 2 + 1) / 2);
        }
        match attach {
            Some(PortAttach::Vf(pf, vf)) => {
                e.schedule_event(
                    t,
                    "dma",
                    CoreEvent::DmaToNic {
                        pf,
                        port: NicPort::Vf(vf),
                        frame: out_frame,
                    },
                );
            }
            Some(PortAttach::Pf(pf)) => {
                e.schedule_event(
                    t,
                    "dma",
                    CoreEvent::DmaToNic {
                        pf,
                        port: NicPort::Pf,
                        frame: out_frame,
                    },
                );
            }
            Some(PortAttach::Vhost(tenant, side)) => {
                let mut arr = t + w.cfg.vhost.guest_notify;
                arr += w.cfg.vhost.batching_latency(w.cfg.offered_pps);
                let t_idx = tenant as usize;
                // The guest-notify eventfd kick is host-kernel work done
                // for exactly this tenant's vhost channel.
                let notify = w.cfg.vhost.guest_notify;
                w.meter_layer(Layer::HostKernel, Some(t_idx), notify);
                // An injected vhost stall holds the channel; frames queue
                // and drain when it clears (delay, not loss).
                if let Some(stall) = w.vhost_stall_until.get(t_idx) {
                    arr = arr.max(*stall);
                }
                e.schedule_event(
                    arr,
                    "vhost.deliver",
                    CoreEvent::TenantRx {
                        t: t_idx,
                        side,
                        frame: out_frame,
                    },
                );
            }
            None => w.drop_frame_traced(t, out_frame.id, DropCause::UnattachedPort),
        }
    }
    w.vswitch_plans = out_plans;
}

/// A frame arrives at tenant VM `t` on `side`.
pub fn tenant_rx(w: &mut World, e: &mut Sim, t: usize, side: u8, frame: Frame) {
    let now = e.now();
    if t >= w.tenants.len() {
        w.drop_frame_traced(now, frame.id, DropCause::NoSuchTenant);
        return;
    }
    if let Some(rec) = w.telemetry.rec() {
        rec.hop(
            frame.id,
            now,
            Hop::TenantRx {
                tenant: t as u8,
                side,
            },
        );
        rec.metrics
            .counter_inc("mts_tenant_rx_total", &[("tenant", &Decimal::of(t as u64))]);
    }
    let tenant = &mut w.tenants[t];
    let core = tenant.cores[usize::from(side) % 2];
    match &mut tenant.kind {
        TenantKind::Fwd { .. } => {
            let cost = w.cfg.tenant_fwd_cost;
            let user = World::user_tenant(t, side);
            let grant = w
                .cores
                .get_mut(core)
                // lint:allow(no-unwrap): tenant cores are allocated at deploy time
                .expect("tenant core exists")
                .acquire(now, user, cost);
            // Tenant-VM layer: always exact — the VM is the tenant's.
            w.meter_layer(Layer::TenantVm, Some(t), grant.end - grant.start);
            e.schedule_event(
                grant.end,
                "tenant.exec",
                CoreEvent::TenantFwdExec { t, side, frame },
            );
        }
        TenantKind::Bridge(_) => {
            // Guest bridge: virtio IRQ latency, then kernel forwarding.
            let cost = w.cfg.tenant_bridge_cost;
            let user = World::user_tenant(t, side);
            let ready = now + LinuxBridge::WAKEUP_LATENCY;
            let grant = w
                .cores
                .get_mut(core)
                // lint:allow(no-unwrap): tenant cores are allocated at deploy time
                .expect("tenant core exists")
                .acquire(ready, user, cost);
            w.meter_layer(Layer::TenantVm, Some(t), grant.end - grant.start);
            e.schedule_event(
                grant.end,
                "tenant.exec",
                CoreEvent::TenantBridgeExec { t, side, frame },
            );
        }
        TenantKind::Endpoint(h) => {
            let h = *h;
            crate::tcphost::host_rx(w, e, h, frame);
        }
    }
}

fn tenant_fwd_exec(w: &mut World, e: &mut Sim, t: usize, side: u8, frame: Frame) {
    let now = e.now();
    let tenant = &mut w.tenants[t];
    let TenantKind::Fwd {
        fwd,
        tx_side,
        drain_armed,
    } = &mut tenant.kind
    else {
        return;
    };
    let s = usize::from(side);
    let mut burst = std::mem::take(&mut w.tenant_burst);
    fwd[s].on_frame(frame, now, &mut burst);
    let tx = tx_side[s];
    if burst.is_empty() {
        if !drain_armed[s] {
            drain_armed[s] = true;
            let deadline = fwd[s].next_drain().unwrap_or(now + Dur::micros(100));
            e.schedule_event(
                deadline.max(now),
                "tenant.drain",
                CoreEvent::TenantDrain { t, side },
            );
        }
    } else {
        tenant_emit(w, e, t, tx, &mut burst);
    }
    w.tenant_burst = burst;
}

/// The l2fwd drain timer fires for tenant `t`, rx side `side`.
fn tenant_drain(w: &mut World, e: &mut Sim, t: usize, side: u8) {
    let now = e.now();
    let tenant = &mut w.tenants[t];
    let TenantKind::Fwd {
        fwd,
        tx_side,
        drain_armed,
    } = &mut tenant.kind
    else {
        return;
    };
    let s = usize::from(side);
    drain_armed[s] = false;
    let mut burst = std::mem::take(&mut w.tenant_burst);
    fwd[s].on_drain(now, &mut burst);
    let tx = tx_side[s];
    tenant_emit(w, e, t, tx, &mut burst);
    w.tenant_burst = burst;
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
        if let Some(rec) = w.telemetry.rec() {
            rec.hop(
                frame.id,
                now,
                Hop::TenantTx {
                    tenant: t as u8,
                    side: tx,
                },
            );
            rec.metrics
                .counter_inc("mts_tenant_tx_total", &[("tenant", &Decimal::of(t as u64))]);
        }
        let arr = w.nic.dma(now, u64::from(frame.wire_len()));
        e.schedule_event(
            arr,
            "nic.rx",
            CoreEvent::NicRx {
                pf,
                port: NicPort::Vf(vf),
                frame,
            },
        );
    }
}

fn tenant_bridge_exec(w: &mut World, e: &mut Sim, t: usize, side: u8, frame: Frame) {
    let now = e.now();
    let tenant = &mut w.tenants[t];
    let TenantKind::Bridge(bridge) = &mut tenant.kind else {
        return;
    };
    let outs = bridge.forward(u32::from(side), &frame);
    // Find the vswitch that owns this tenant's vhost ports (the Baseline
    // has exactly one switch).
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
        let tenant_idx = t as u8;
        e.schedule_event(
            arr,
            "vswitch.rx",
            CoreEvent::VhostTx {
                tenant: tenant_idx,
                side: out_side as u8,
                frame,
            },
        );
    }
}

/// A frame leaves the DUT on physical port `pf`.
fn external_rx(w: &mut World, e: &mut Sim, pf: PfId, frame: Frame) {
    let now = e.now();
    if let Some(rec) = w.telemetry.rec() {
        rec.hop(frame.id, now, Hop::WireEgress { pf: pf.0 });
        rec.metrics.counter_inc(
            "mts_wire_egress_total",
            &[("pf", &Decimal::of(pf.0.into()))],
        );
    }
    if let Some(cap) = &mut w.capture {
        cap.record(now.as_nanos(), &frame);
    }
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
                            &[("tenant", &Decimal::of(idx as u64))],
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
fn generator_tick(
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::spec::Scenario;
    use mts_host::ResourceMode;

    fn world(level: SecurityLevel, scenario: Scenario, mode: ResourceMode) -> World {
        let spec = DeploymentSpec::mts(level, DatapathKind::Kernel, mode, scenario);
        let d = Controller::deploy(spec).unwrap();
        let cfg = RuntimeCfg::for_spec(&spec);
        World::new(d, cfg, 42)
    }

    fn run_probes(w: &mut World, e: &mut Sim, n: u64, rate: f64) {
        let flows: Vec<(MacAddr, std::net::Ipv4Addr)> = w
            .plan
            .tenants
            .iter()
            .map(|t| {
                let c = w.spec.compartment_of_tenant(t.index) as usize;
                let dmac = w.plan.compartments[c].in_out[0].1;
                (dmac, t.ip)
            })
            .collect();
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
        let flows: Vec<(MacAddr, std::net::Ipv4Addr)> = w
            .plan
            .tenants
            .iter()
            .map(|t| (Controller::baseline_router_mac(0), t.ip))
            .collect();
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
        let flows: Vec<(MacAddr, std::net::Ipv4Addr)> = w
            .plan
            .tenants
            .iter()
            .map(|t| (w.plan.compartments[0].in_out[0].1, t.ip))
            .collect();
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
    fn tap_capture_produces_valid_pcap() {
        let mut w = world(SecurityLevel::Level1, Scenario::P2v, ResourceMode::Isolated);
        w.capture = Some(mts_net::pcap::PcapWriter::new());
        let mut e = Sim::new();
        run_probes(&mut w, &mut e, 25, 10_000.0);
        let cap = w.capture.take().expect("capture attached");
        assert_eq!(cap.records(), 25);
        let bytes = cap.into_bytes();
        // Magic + at least 25 record headers.
        assert_eq!(&bytes[0..4], &0xa1b2_c3d4u32.to_le_bytes());
        assert!(bytes.len() > 24 + 25 * 16);
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
            let flows: Vec<(MacAddr, std::net::Ipv4Addr)> = w
                .plan
                .tenants
                .iter()
                .map(|t| {
                    let c = spec.compartment_of_tenant(t.index) as usize;
                    (w.plan.compartments[c].in_out[0].1, t.ip)
                })
                .collect();
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
}
