//! The [`World`]: the simulated device under test plus its measurement
//! endpoints, its calibration ([`RuntimeCfg`]) and how it is built from a
//! [`Deployment`].

use super::hop::Charge;
use super::{
    Owner, SinkRec, TenantKind, TenantRt, VswitchHealth, VswitchRt, VswitchScratch, WireEnd,
};
use crate::controller::{Controller, Deployment, PortAttach};
use crate::delta::{ConfigDelta, DeltaError, DeltaLog};
use crate::meters::{Attribution, CycleMeters};
use crate::spec::{DeploymentSpec, SecurityLevel};
use crate::tcphost::TcpHostRt;
use crate::vfplan::AddressPlan;
use mts_apps::L2Fwd;
use mts_host::{LinuxBridge, ResourceMode, VhostCosts};
use mts_net::{Frame, MacAddr};
use mts_nic::{Delivery, PfId, SriovNic, VfId};
use mts_sim::{CoreId, CorePool, DetRng, Dur, FastHashMap, Histogram, Link, Time};
use mts_telemetry::{DropCause, Label, Telemetry};
use mts_vswitch::{DatapathKind, PortNo};
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

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
    /// Tenant index by tenant-VM IPv4 address (the plan's tenants, hashed
    /// for the hot path), consulted per frame for cycle attribution and
    /// sink flow accounting.
    pub ip_tenant: FastHashMap<u32, u8>,
    /// The NIC deliveries of the frame `nic_rx` is switching; borrowed
    /// through `with_scratch` so the per-frame path never allocates.
    pub(super) nic_scratch: Vec<Delivery>,
    /// The pipeline emissions `vswitch_exec` plans; borrowed the same way.
    pub(super) vswitch_scratch: VswitchScratch,
    /// The l2fwd burst being transmitted; borrowed the same way.
    pub(super) tenant_burst: Vec<Frame>,
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
    /// Desired dataplane state: computed by the controller, applied by the
    /// converge pass ([`crate::reconcile::converge`]) at deploy and by
    /// every reconciliation after a fault.
    pub desired: crate::reconcile::DesiredConfig,
    /// Supervisor state (heartbeats, backoff, recovery log), when started.
    pub supervisor: Option<crate::supervisor::Supervisor>,
    /// Telemetry sink (disabled by default; see `mts-telemetry`).
    pub telemetry: Telemetry,
    /// Configuration-delta stream for incremental verification: the
    /// changes reconciliation, supervisor restarts and fault injection
    /// programmed, in order (see [`crate::delta`]).
    pub deltas: DeltaLog,
    /// Per-tenant cycle-attribution meters (the `mts-slo` substrate).
    pub meters: CycleMeters,
}

impl World {
    /// Builds the runtime world from a deployment.
    pub fn new(d: Deployment, cfg: RuntimeCfg, seed: u64) -> World {
        let spec = d.spec;
        let ports = d.ports as usize;
        let mut cores = CorePool::new(0, cfg.ctx_switch);

        // Core 0: host OS housekeeping (always dedicated, Sec. 4.3).
        cores.add(cfg.ctx_switch);

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
        World {
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
            vswitch_scratch: VswitchScratch::default(),
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
            desired: d.desired,
            supervisor: None,
            telemetry: Telemetry::disabled(),
            deltas: DeltaLog::default(),
            meters: CycleMeters::new(spec.tenants as usize, vswitch_attr),
        }
    }

    /// Applies a configuration change to the world's devices
    /// ([`ConfigDelta::apply`]), marks a vswitch whose rules were wiped or
    /// removed as diverged (`rules_dirty`, cleared by the next reconcile),
    /// and records the delta ([`World::emit_delta`]). A delta the devices
    /// refuse changed nothing and is not recorded.
    pub fn apply(&mut self, d: ConfigDelta) -> Result<(), DeltaError> {
        let vswitches = &mut self.vswitches;
        d.apply(&mut self.nic, |i| {
            vswitches.get_mut(i).map(|vs| &mut vs.inst.sw)
        })?;
        if let ConfigDelta::RulesWiped { vswitch } | ConfigDelta::RuleRemoved { vswitch, .. } = d {
            if let Some(vs) = self.vswitches.get_mut(vswitch) {
                vs.rules_dirty = true;
            }
        }
        self.emit_delta(d);
        Ok(())
    }

    /// Records a delta the devices already ran (and its telemetry mirror):
    /// [`World::apply`] and a reconcile pass, whose deltas
    /// [`crate::reconcile::converge`] applied, end here.
    pub fn emit_delta(&mut self, d: ConfigDelta) {
        if let Some(rec) = self.telemetry.rec() {
            rec.metrics
                .counter_inc("mts_config_deltas_total", &[("kind", Label::Str(d.kind()))]);
        }
        self.deltas.push(d);
    }

    /// The next-hop MAC the load generator addresses tenant `t`'s traffic
    /// to: its compartment's first In/Out VF (MTS), or the host PF's
    /// address on port 0 (Baseline).
    pub fn route_mac(&self, t: u8) -> MacAddr {
        if self.spec.level.compartmentalized() {
            let c = usize::from(self.spec.compartment_of_tenant(t));
            self.plan.compartments[c].in_out[0].1
        } else {
            Controller::baseline_router_mac(0)
        }
    }

    /// One `(dmac, dst_ip)` probe flow per tenant, routed through
    /// [`World::route_mac`].
    pub fn tenant_flows(&self) -> Vec<(MacAddr, Ipv4Addr)> {
        self.plan
            .tenants
            .iter()
            .map(|t| (self.route_mac(t.index), t.ip))
            .collect()
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

    /// CPU time the core ledger measured for vswitch `i`'s datapath, summed
    /// over all cores. This is the independent side of the conservation
    /// identity: the meters' vswitch totals must equal it exactly.
    pub fn measured_vswitch_cpu_of(&self, i: usize) -> Dur {
        let user = Charge::Vswitch { i, tenant: None }.user();
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
}
