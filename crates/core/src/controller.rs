//! The logically-centralized controller.
//!
//! Computes a [`Deployment`] from a [`DeploymentSpec`]: the empty topology
//! (PFs, vswitches with their ports — one per compartment, or the single
//! co-located Baseline switch — attach maps and proxy-ARP tables) and, as
//! plain data, the desired config: SR-IOV VFs with their VST VLAN tags and
//! MAC anti-spoofing, static MAC entries, wildcard security filters, and
//! the ingress/egress chain flow rules of Fig. 3 for the chosen traffic
//! scenario. The desired config is computed by the controller and applied
//! by the converge pass ([`crate::reconcile::converge`]), one
//! [`ConfigDelta`] at a time: deploy is reconcile from empty. Sec. 3.2 "System support" lists exactly these
//! duties: "modify the centralized controllers to appropriately configure
//! tenant specific VFs with Vlan tags and MAC addresses, and insert correct
//! flow rules to ensure the vswitch-tenant connectivity".

use crate::delta::ConfigDelta;
use crate::reconcile::{DesiredConfig, ReconcileReport};
use crate::spec::{DeploymentSpec, Scenario};
use crate::vfplan::{AddressPlan, VfRef};
use mts_net::MacAddr;
use mts_nic::{FilterRule, NicError, NicModel, NicPort, PfId, PortClass, SriovNic, VfConfig, VfId};
use mts_vswitch::{Action, DatapathCosts, FlowMatch, FlowRule, PortKind, PortNo, VirtualSwitch};
use std::collections::BTreeMap;
use std::fmt;

/// What backs a vswitch port in the runtime.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PortAttach {
    /// An SR-IOV VF (MTS vswitch-VM port).
    Vf(PfId, VfId),
    /// Direct PF attachment (Baseline physical port).
    Pf(PfId),
    /// A vhost channel to a tenant VM (Baseline), with a side index (the
    /// tenant's first or second virtio NIC).
    Vhost(u8, u8),
}

/// One vswitch instance plus its port map.
pub struct VswitchInstance {
    /// Compartment index (0 for the Baseline's single switch).
    pub index: u8,
    /// The switch.
    pub sw: VirtualSwitch,
    /// In/Out ports per physical port index (MTS).
    pub in_out: Vec<PortNo>,
    /// Gateway ports: `(tenant, physical port) -> port` (MTS).
    pub gw: BTreeMap<(u8, u8), PortNo>,
    /// Physical ports per physical port index (Baseline).
    pub phys: Vec<PortNo>,
    /// Vhost ports: `(tenant, side) -> port` (Baseline).
    pub vhost: BTreeMap<(u8, u8), PortNo>,
    /// Attachment of every port.
    pub attach: BTreeMap<PortNo, PortAttach>,
    /// Proxy-ARP table: gateway IPs this vswitch answers ARP requests for
    /// (the paper's alternative to static tenant ARP entries, Sec. 3.2).
    pub proxy_arp: Vec<(std::net::Ipv4Addr, MacAddr)>,
}

impl VswitchInstance {
    /// The ports facing the physical NIC ports: In/Out VF ports (MTS) or PF
    /// ports (Baseline).
    fn uplinks(&self) -> &[PortNo] {
        if self.phys.is_empty() {
            &self.in_out
        } else {
            &self.phys
        }
    }

    /// Tenant `t`'s port on `side`: its gateway VF port (MTS) or its vhost
    /// port (Baseline).
    fn tenant_port(&self, t: u8, side: u8) -> PortNo {
        match self.gw.get(&(t, side)) {
            Some(port) => *port,
            None => self.vhost[&(t, side)],
        }
    }

    fn new(index: u8, name: String) -> Self {
        VswitchInstance {
            index,
            sw: VirtualSwitch::new(name),
            in_out: Vec::new(),
            gw: BTreeMap::new(),
            phys: Vec::new(),
            vhost: BTreeMap::new(),
            attach: BTreeMap::new(),
            proxy_arp: Vec::new(),
        }
    }
}

/// A fully-configured deployment, ready for the runtime.
pub struct Deployment {
    /// The specification it was built from.
    pub spec: DeploymentSpec,
    /// Number of physical NIC ports in use (2 for Sec. 4, 1 for Sec. 5).
    pub ports: u8,
    /// The address plan.
    pub plan: AddressPlan,
    /// The configured NIC.
    pub nic: SriovNic,
    /// The vswitches (one for Baseline/Level-1, several for Level-2).
    pub vswitches: Vec<VswitchInstance>,
    /// Datapath cost model in effect.
    pub costs: DatapathCosts,
    /// The dataplane state the controller wants: computed from the spec,
    /// applied to `nic` and `vswitches` by [`Deployment::converge`].
    pub desired: DesiredConfig,
}

impl Deployment {
    /// Converges the NIC and the vswitches to [`Deployment::desired`]
    /// through the converge pass ([`crate::reconcile::converge`]), handing
    /// each delta it programmed to `emit`.
    pub fn converge(
        &mut self,
        emit: &mut dyn FnMut(ConfigDelta),
    ) -> Result<ReconcileReport, NicError> {
        crate::reconcile::converge(
            &self.desired,
            &mut self.nic,
            self.vswitches.iter_mut().map(|inst| &mut inst.sw),
            emit,
        )
    }
}

/// Errors while building a deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// NIC configuration failed.
    Nic(NicError),
    /// The scenario is not supported by the configuration (the paper could
    /// not run v2v with 4 vswitch VMs either).
    Unsupported(String),
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::Nic(e) => write!(f, "NIC configuration: {e}"),
            DeployError::Unsupported(s) => write!(f, "unsupported configuration: {s}"),
        }
    }
}

impl std::error::Error for DeployError {}

impl From<NicError> for DeployError {
    fn from(e: NicError) -> Self {
        DeployError::Nic(e)
    }
}

/// Adds a table-0 rule to vswitch `vswitch`: traffic matching `m` is
/// re-addressed to `dst`, when given, and sent out of `out`.
fn fwd(
    want: &mut DesiredConfig,
    vswitch: usize,
    priority: u16,
    m: FlowMatch,
    dst: Option<MacAddr>,
    out: PortNo,
    cookie: u64,
) {
    let actions = match dst {
        Some(mac) => vec![Action::SetEthDst(mac), Action::Output(out)],
        None => vec![Action::Output(out)],
    };
    want.add_rule(
        vswitch,
        0,
        FlowRule::new(priority, m, actions).with_cookie(cookie),
    );
}

/// The centralized controller.
pub struct Controller;

impl Controller {
    /// Builds and fully configures a deployment for the UDP forwarding
    /// experiments (Sec. 4): dual-port, scenario rules installed.
    pub fn deploy(spec: DeploymentSpec) -> Result<Deployment, DeployError> {
        Self::converged(spec, 2, Self::scenario_rules)
    }

    /// Builds and configures a deployment for the TCP workload experiments
    /// (Sec. 5): single-port, server rules installed.
    pub fn deploy_workload(spec: DeploymentSpec) -> Result<Deployment, DeployError> {
        Self::converged(spec, 1, Self::workload_rules)
    }

    /// Builds the NIC and vswitches without flow rules.
    pub fn build(spec: DeploymentSpec, ports: u8) -> Result<Deployment, DeployError> {
        Self::converged(spec, ports, |_| Ok(()))
    }

    /// Adds the flow rules `rules` computes to the topology's desired
    /// config, then converges the empty devices to it.
    fn converged(
        spec: DeploymentSpec,
        ports: u8,
        rules: impl FnOnce(&mut Deployment) -> Result<(), DeployError>,
    ) -> Result<Deployment, DeployError> {
        let mut d = Self::topology(spec, ports);
        let rules = rules(&mut d);
        // Deploy's deltas describe a build from nothing: nobody keeps them.
        // A NIC error takes precedence over an unsupported scenario.
        d.converge(&mut |_| {})?;
        rules?;
        Ok(d)
    }

    /// The deployment before any device is programmed: the PFs, the
    /// vswitches with their ports, attach maps and proxy-ARP tables, and a
    /// desired config that holds the NIC state and no flow rules yet.
    pub fn topology(spec: DeploymentSpec, ports: u8) -> Deployment {
        let ports = ports.max(1);
        let plan = AddressPlan::build(&spec, ports);
        let per_pf = usize::from(ports);
        let mut desired = DesiredConfig {
            statics: vec![Vec::new(); per_pf],
            filters: vec![Vec::new(); per_pf],
            vfs: vec![Vec::new(); per_pf],
            rules: Vec::new(),
        };
        for p in 0..ports {
            let pf_mac = Self::baseline_router_mac(p);
            let statics = &mut desired.statics[usize::from(p)];
            // External MACs are reachable via the wire on every PF.
            statics.push((0, plan.lg_mac, NicPort::Wire));
            statics.push((0, plan.sink_mac, NicPort::Wire));
            // The host PF is addressable on every port (management plane;
            // in the Baseline, the LG-facing MAC that delivers wire traffic
            // to the host switch). In MTS a wildcard filter stops any VF
            // from reaching it — "to prevent the Host from receiving
            // packets from the tenant VMs" (Sec. 3.2).
            statics.push((0, pf_mac, NicPort::Pf));
            if spec.level.compartmentalized() {
                desired.filters[usize::from(p)].push(FilterRule {
                    priority: 50,
                    from: PortClass::AnyVf,
                    src_mac: None,
                    dst_mac: Some(pf_mac),
                    vlan: None,
                    ethertype: None,
                    action: mts_nic::FilterAction::Drop,
                });
            }
        }

        let mut vswitches = Vec::new();
        if spec.level.compartmentalized() {
            Self::desired_nic_mts(&spec, &plan, &mut desired);
            for c in &plan.compartments {
                let mut inst = VswitchInstance::new(c.index, format!("vswitch-vm{}", c.index));
                // The compartment answers ARP for its tenants' gateways.
                for t in spec.tenants_of_compartment(c.index) {
                    let ta = &plan.tenants[t as usize];
                    if let Some((_, gw_mac)) = c.gw_for(t, 0) {
                        inst.proxy_arp.push((ta.gw_ip, gw_mac));
                    }
                }
                for (p, (vf, _mac)) in c.in_out.iter().enumerate() {
                    let port = inst.sw.add_port(format!("in_out{p}"), PortKind::VfBacked);
                    inst.in_out.push(port);
                    inst.attach.insert(port, PortAttach::Vf(vf.pf, vf.vf));
                }
                for ((t, p), (vf, _mac)) in &c.gw {
                    let port = inst
                        .sw
                        .add_port(format!("gw-t{t}-p{p}"), PortKind::VfBacked);
                    inst.gw.insert((*t, *p), port);
                    inst.attach.insert(port, PortAttach::Vf(vf.pf, vf.vf));
                }
                vswitches.push(inst);
            }
        } else {
            // Baseline: one switch, PF-attached, vhost tenant ports.
            let mut inst = VswitchInstance::new(0, "br-int".into());
            for p in 0..ports {
                let port = inst.sw.add_port(format!("phy{p}"), PortKind::Physical);
                inst.phys.push(port);
                inst.attach.insert(port, PortAttach::Pf(PfId(p)));
            }
            let vhost_kind = match spec.datapath {
                mts_vswitch::DatapathKind::Kernel => PortKind::Vhost,
                mts_vswitch::DatapathKind::Dpdk => PortKind::DpdkVhostUser,
            };
            // Tenant VMs always have two virtio NICs bridged inside the
            // guest, even when the server uses a single physical port.
            let sides = 2;
            for t in 0..spec.tenants {
                for side in 0..sides {
                    let port = inst.sw.add_port(format!("vhost-t{t}-{side}"), vhost_kind);
                    inst.vhost.insert((t, side), port);
                    inst.attach.insert(port, PortAttach::Vhost(t, side));
                }
            }
            vswitches.push(inst);
        }

        for statics in &mut desired.statics {
            statics.sort_unstable_by_key(|&(vlan, mac, _)| (vlan, mac.as_u64()));
        }
        // Held for the whole run: no spare capacity.
        for filters in &mut desired.filters {
            filters.shrink_to_fit();
        }
        desired.rules = vec![Vec::new(); vswitches.len()];
        Deployment {
            spec,
            ports,
            plan,
            nic: SriovNic::new(ports, NicModel::default()),
            vswitches,
            costs: DatapathCosts::for_kind(spec.datapath),
            desired,
        }
    }

    /// The MAC the load generator addresses Baseline traffic to (the host
    /// PF's address on physical port `p`).
    pub fn baseline_router_mac(p: u8) -> MacAddr {
        MacAddr::local(0x0500_0000 | u32::from(p))
    }

    /// The MTS NIC state: VFs with their VLANs and anti-spoofing (each
    /// with its static MAC entry), and the wildcard filters.
    fn desired_nic_mts(spec: &DeploymentSpec, plan: &AddressPlan, desired: &mut DesiredConfig) {
        let mut vf = |r: &VfRef, cfg: VfConfig| {
            let pf = usize::from(r.pf.0);
            desired.statics[pf].push((cfg.vlan.unwrap_or(0), cfg.mac, NicPort::Vf(r.vf)));
            desired.vfs[pf].push((r.vf, cfg));
        };
        // In/Out VFs: untagged infrastructure VFs of each compartment.
        for c in &plan.compartments {
            for (r, mac) in &c.in_out {
                vf(r, VfConfig::infrastructure(*mac));
            }
            for ((t, _p), (r, mac)) in &c.gw {
                vf(r, VfConfig::gateway(*mac, plan.tenants[*t as usize].vlan));
            }
        }
        // Tenant VM VFs: tagged, spoof-checked.
        for t in &plan.tenants {
            for (r, mac) in &t.vf {
                vf(r, VfConfig::tenant(*mac, t.vlan));
            }
        }
        // Wildcard filters (Sec. 3.2): tenant VFs may only talk to their
        // gateway (or broadcast for ARP); everything else from them drops.
        for t in &plan.tenants {
            let comp = &plan.compartments[spec.compartment_of_tenant(t.index) as usize];
            for (p, (r, _mac)) in t.vf.iter().enumerate() {
                let filters = &mut desired.filters[usize::from(r.pf.0)];
                if let Some((_, gw_mac)) = comp.gw_for(t.index, p as u8) {
                    filters.push(FilterRule::allow_to(PortClass::Vf(r.vf), gw_mac, 10));
                }
                filters.push(FilterRule::allow_to(
                    PortClass::Vf(r.vf),
                    MacAddr::BROADCAST,
                    5,
                ));
                filters.push(FilterRule::drop_all_from(PortClass::Vf(r.vf)));
            }
        }
    }

    /// Adds the forwarding rules for the spec's traffic scenario (dual-port
    /// Sec. 4 layouts) to the desired config. Baseline and MTS share the
    /// chains; they differ in the tenant ports (vhost or gateway VF) and in
    /// MTS re-addressing frames to the tenant VF, as the NIC switches on MAC.
    fn scenario_rules(d: &mut Deployment) -> Result<(), DeployError> {
        let pairs = Self::pairs_for(&d.spec)?;
        let (plan, mts) = (&d.plan, d.spec.level.compartmentalized());
        let mac = |t: u8, side: usize| mts.then(|| plan.tenants[usize::from(t)].vf[side].1);
        let (sink, lg) = (Some(plan.sink_mac), Some(plan.lg_mac));
        let want = &mut d.desired;
        for (i, inst) in d.vswitches.iter().enumerate() {
            let (up0, up1) = (inst.uplinks()[0], inst.uplinks()[1]);
            if d.spec.scenario == Scenario::P2p {
                fwd(want, i, 10, FlowMatch::on_port(up0), sink, up1, 0);
                fwd(want, i, 10, FlowMatch::on_port(up1), lg, up0, 0);
                continue;
            }
            for t in d.spec.tenants_of_compartment(inst.index) {
                let ip = plan.tenants[usize::from(t)].ip;
                let to = |port| FlowMatch::to_ip(ip).and_port(port);
                let (t0, t1) = (inst.tenant_port(t, 0), inst.tenant_port(t, 1));
                match pairs.as_ref().map(|p| p[&t]) {
                    // p2v: the ingress chain (Fig. 3a) delivers to the
                    // tenant's first side, the egress chain (Fig. 3b) takes
                    // its second side out to the sink.
                    None => {
                        let cookie = u64::from(t) + 1;
                        fwd(want, i, 20, to(up0), mac(t, 0), t0, cookie);
                        fwd(want, i, 20, to(t1), sink, up1, cookie);
                    }
                    // v2v: wire -> first tenant (side 0); its side 1 ->
                    // the partner's side 1; the partner's side 0 -> out.
                    Some(q) => {
                        let (q0, q1) = (inst.tenant_port(q, 0), inst.tenant_port(q, 1));
                        fwd(want, i, 20, to(up0), mac(t, 0), t0, 0);
                        fwd(want, i, 20, to(t1), mac(q, 1), q1, 0);
                        fwd(want, i, 20, to(q0), sink, up1, 0);
                    }
                }
            }
        }
        Ok(())
    }

    /// Pairs each tenant with a chain partner inside its compartment.
    ///
    /// Level-2 with 4 compartments has singleton compartments: like the
    /// paper ("we could not evaluate 4 vswitch VMs in the v2v topology"),
    /// this is unsupported.
    pub fn v2v_pairs(spec: &DeploymentSpec) -> Result<BTreeMap<u8, u8>, DeployError> {
        let mut pairs = BTreeMap::new();
        for c in 0..spec.compartments() {
            let members = spec.tenants_of_compartment(c);
            if members.len() < 2 || !members.len().is_multiple_of(2) {
                return Err(DeployError::Unsupported(format!(
                    "v2v needs tenant pairs per compartment; compartment {c} has {}",
                    members.len()
                )));
            }
            for pair in members.chunks(2) {
                pairs.insert(pair[0], pair[1]);
                pairs.insert(pair[1], pair[0]);
            }
        }
        Ok(pairs)
    }

    /// The chain partners of a v2v spec; none for the other scenarios.
    fn pairs_for(spec: &DeploymentSpec) -> Result<Option<BTreeMap<u8, u8>>, DeployError> {
        match spec.scenario {
            Scenario::V2v => Self::v2v_pairs(spec).map(Some),
            Scenario::P2p | Scenario::P2v => Ok(None),
        }
    }

    /// Adds the Sec. 5 workload rules (single-port, TCP servers; in v2v one
    /// tenant of each pair forwards with l2fwd) to the desired config.
    fn workload_rules(d: &mut Deployment) -> Result<(), DeployError> {
        let pairs = Self::pairs_for(&d.spec)?;
        let (spec, plan, mts) = (&d.spec, &d.plan, d.spec.level.compartmentalized());
        let mac = |t: u8, side: usize| mts.then(|| plan.tenants[usize::from(t)].vf[side].1);
        let lg = Some(plan.lg_mac);
        let want = &mut d.desired;
        for (i, inst) in d.vswitches.iter().enumerate() {
            let up = inst.uplinks()[0];
            for t in spec.tenants_of_compartment(inst.index) {
                let ip = plan.tenants[usize::from(t)].ip;
                let to = |port| FlowMatch::to_ip(ip).and_port(port);
                let t0 = inst.tenant_port(t, 0);
                match pairs.as_ref().map(|p| p[&t]) {
                    // v2v: traffic to a *server* tenant goes through its
                    // forwarder partner first. Pairs are (fwd, srv) =
                    // (even, odd) positions; route only server IPs. The
                    // forwarder hands frames back on its only VF (MTS
                    // l2fwd) or its other virtio NIC (Baseline guest bridge).
                    Some(q) if Self::is_v2v_server(spec, t) => {
                        let back = inst.tenant_port(q, if mts { 0 } else { 1 });
                        fwd(want, i, 20, to(up), mac(q, 0), inst.tenant_port(q, 0), 0);
                        fwd(want, i, 20, to(back), mac(t, 0), t0, 0);
                    }
                    Some(_) => {} // forwarder tenants host no service
                    None => fwd(want, i, 20, to(up), mac(t, 0), t0, 0),
                }
                // Replies to any external client go straight out.
                fwd(want, i, 15, FlowMatch::on_port(t0), lg, up, 0);
            }
        }
        Ok(())
    }

    /// In v2v workloads, the second tenant of each pair runs the server
    /// (the first forwards with l2fwd).
    pub fn is_v2v_server(spec: &DeploymentSpec, tenant: u8) -> bool {
        let c = spec.compartment_of_tenant(tenant);
        let members = spec.tenants_of_compartment(c);
        members
            .iter()
            .position(|m| *m == tenant)
            .is_some_and(|i| i % 2 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SecurityLevel;
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn spec(level: SecurityLevel, scenario: Scenario) -> DeploymentSpec {
        DeploymentSpec::mts(level, DatapathKind::Kernel, ResourceMode::Shared, scenario)
    }

    #[test]
    fn mts_l1_p2v_deploys() {
        let d = Controller::deploy(spec(SecurityLevel::Level1, Scenario::P2v)).unwrap();
        assert_eq!(d.vswitches.len(), 1);
        let inst = &d.vswitches[0];
        // 2 In/Out + 4 tenants x 2 gw ports.
        assert_eq!(inst.sw.port_count(), 2 + 8);
        // 2 rules per tenant.
        assert_eq!(inst.sw.rule_count(), 8);
        // NIC has the full VF population: (1 in/out + 4 gw + 4 tenant) x 2.
        let vfs: usize = (0..2).map(|p| d.nic.pf(PfId(p)).unwrap().vf_count()).sum();
        assert_eq!(vfs, 18);
    }

    #[test]
    fn baseline_p2v_uses_vhost_ports() {
        let d = Controller::deploy(DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Shared,
            1,
            Scenario::P2v,
        ))
        .unwrap();
        let inst = &d.vswitches[0];
        assert_eq!(inst.phys.len(), 2);
        assert_eq!(inst.vhost.len(), 8);
        assert_eq!(
            d.nic.pf(PfId(0)).unwrap().vf_count(),
            0,
            "Baseline allocates no VFs"
        );
    }

    #[test]
    fn level2_splits_tenants_across_switches() {
        let d = Controller::deploy(spec(
            SecurityLevel::Level2 { compartments: 2 },
            Scenario::P2v,
        ))
        .unwrap();
        assert_eq!(d.vswitches.len(), 2);
        // Each compartment: 2 in/out + 2 tenants x 2 gw.
        for inst in &d.vswitches {
            assert_eq!(inst.sw.port_count(), 6);
            assert_eq!(inst.sw.rule_count(), 4);
        }
    }

    #[test]
    fn v2v_with_singleton_compartments_is_unsupported() {
        let err = Controller::deploy(spec(
            SecurityLevel::Level2 { compartments: 4 },
            Scenario::V2v,
        ));
        assert!(matches!(err, Err(DeployError::Unsupported(_))));
    }

    #[test]
    fn v2v_pairs_follow_compartments() {
        let s = spec(SecurityLevel::Level2 { compartments: 2 }, Scenario::V2v);
        let pairs = Controller::v2v_pairs(&s).unwrap();
        // Compartment 0 = {0, 2}; compartment 1 = {1, 3}.
        assert_eq!(pairs[&0], 2);
        assert_eq!(pairs[&2], 0);
        assert_eq!(pairs[&1], 3);
        assert_eq!(pairs[&3], 1);
        let l1 = spec(SecurityLevel::Level1, Scenario::V2v);
        let pairs = Controller::v2v_pairs(&l1).unwrap();
        assert_eq!(pairs[&0], 1);
        assert_eq!(pairs[&2], 3);
    }

    #[test]
    fn workload_deployment_is_single_port() {
        let d = Controller::deploy_workload(spec(SecurityLevel::Level1, Scenario::P2v)).unwrap();
        assert_eq!(d.ports, 1);
        let inst = &d.vswitches[0];
        // 1 in/out + 4 gw ports.
        assert_eq!(inst.sw.port_count(), 5);
        // Forward + reply rule per tenant.
        assert_eq!(inst.sw.rule_count(), 8);
    }

    #[test]
    fn workload_v2v_designates_servers() {
        let s = spec(SecurityLevel::Level1, Scenario::V2v);
        // L1 members [0,1,2,3]: servers are odd positions 1 and 3.
        assert!(!Controller::is_v2v_server(&s, 0));
        assert!(Controller::is_v2v_server(&s, 1));
        assert!(!Controller::is_v2v_server(&s, 2));
        assert!(Controller::is_v2v_server(&s, 3));
        let d = Controller::deploy_workload(s).unwrap();
        // Servers: 2 forward rules + reply; forwarders: reply only.
        assert_eq!(d.vswitches[0].sw.rule_count(), 2 * 3 + 2);
    }

    #[test]
    fn deploy_stops_at_the_vf_ceiling() {
        // Level-1 needs one In/Out VF plus a gateway and a tenant VF per
        // tenant on each PF: 31 tenants take 63 of the 64 VFs, 32 would
        // take 65.
        let mut s = spec(SecurityLevel::Level1, Scenario::P2v);
        s.tenants = 31;
        let d = Controller::deploy(s).unwrap();
        assert_eq!(d.nic.pf(PfId(0)).unwrap().vf_count(), 63);
        s.tenants = 32;
        let ceiling = Some(DeployError::Nic(NicError::VfLimit(PfId(0))));
        assert_eq!(Controller::deploy(s).err(), ceiling);
        // The NIC's error comes first even when the scenario is also
        // unsupported (33 tenants cannot pair up for v2v).
        s.tenants = 33;
        s.scenario = Scenario::V2v;
        assert_eq!(Controller::deploy(s).err(), ceiling);
    }

    #[test]
    fn nic_filters_installed_for_tenants() {
        let d = Controller::deploy(spec(SecurityLevel::Level1, Scenario::P2v)).unwrap();
        // Each PF: 4 tenant VFs x 3 rules, plus the host-PF guard rule.
        for p in 0..2u8 {
            assert_eq!(d.nic.pf(PfId(p)).unwrap().filters().len(), 13);
        }
    }
}
