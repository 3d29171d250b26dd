//! The SR-IOV NIC device: physical functions, privilege-checked
//! configuration, and the capacity model shared by its embedded switches.

use crate::model::NicModel;
use crate::switch::{Delivery, PfSwitch, SwitchCounters};
use crate::vf::{NicPort, VfConfig, VfId};
use mts_net::{Frame, MacAddr};
use mts_sim::{Dur, Link, Server, ServerDecision, Time};
use std::fmt;

/// Identifies a physical function (one per physical port).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PfId(pub u8);

impl fmt::Display for PfId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pf{}", self.0)
    }
}

/// Errors from the NIC configuration API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NicError {
    /// The physical function does not exist.
    NoSuchPf(PfId),
    /// The virtual function does not exist.
    NoSuchVf(PfId, VfId),
    /// The per-PF VF limit (64) was reached.
    VfLimit(PfId),
    /// A VM attempted a privileged operation on an untrusted VF.
    NotTrusted(PfId, VfId),
    /// The MAC address is already assigned on this PF and VLAN.
    DuplicateMac(MacAddr),
}

impl fmt::Display for NicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicError::NoSuchPf(pf) => write!(f, "no such physical function {pf}"),
            NicError::NoSuchVf(pf, vf) => write!(f, "no such virtual function {pf}/{vf}"),
            NicError::VfLimit(pf) => write!(f, "VF limit (64) reached on {pf}"),
            NicError::NotTrusted(pf, vf) => {
                write!(f, "operation requires a trusted VF: {pf}/{vf}")
            }
            NicError::DuplicateMac(mac) => write!(f, "MAC {mac} already in use"),
        }
    }
}

impl std::error::Error for NicError {}

/// A dual-port (or n-port) SR-IOV NIC.
///
/// Each physical port has a physical function with its own embedded switch
/// and hairpin engine; all functions share one PCIe link to host memory.
///
/// # Examples
///
/// ```
/// use mts_nic::{SriovNic, NicModel, PfId, VfId, VfConfig, NicPort};
/// use mts_net::{Frame, MacAddr};
/// use std::net::Ipv4Addr;
///
/// let mut nic = SriovNic::new(2, NicModel::default());
/// let mac = MacAddr::local(1);
/// nic.create_vf(PfId(0), VfId(0), VfConfig::infrastructure(mac)).unwrap();
/// let f = Frame::udp_data(MacAddr::local(9), mac,
///     Ipv4Addr::new(10,0,0,1), Ipv4Addr::new(10,0,0,2), 1, 2, 10);
/// let out = nic.ingress(PfId(0), NicPort::Wire, f).unwrap();
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].port, NicPort::Vf(VfId(0)));
/// ```
#[derive(Clone, Debug)]
pub struct SriovNic {
    model: NicModel,
    pfs: Vec<PfSwitch>,
    hairpins: Vec<Server>,
    pcie: Link,
    /// Accumulated embedded-switch (VEB) pipeline occupancy per PF —
    /// the hardware-side analogue of a CPU core's busy ledger. The
    /// runtime charges one switch latency per delivered frame; SLO
    /// attribution cross-checks its NIC-layer meter against this total.
    veb_busy: Vec<Dur>,
}

impl SriovNic {
    /// Creates a NIC with `ports` physical ports (at least one).
    pub fn new(ports: u8, model: NicModel) -> Self {
        let ports = ports.max(1) as usize;
        SriovNic {
            model,
            pfs: (0..ports).map(|_| PfSwitch::new()).collect(),
            hairpins: (0..ports).map(|_| model.hairpin_server()).collect(),
            pcie: model.pcie_link(),
            veb_busy: vec![Dur::ZERO; ports],
        }
    }

    /// Charges `d` of embedded-switch pipeline time to a PF's VEB ledger.
    pub fn note_veb_work(&mut self, pf: PfId, d: Dur) {
        if let Some(slot) = self.veb_busy.get_mut(pf.0 as usize) {
            *slot += d;
        }
    }

    /// Accumulated VEB pipeline occupancy for one PF.
    pub fn veb_busy(&self, pf: PfId) -> Dur {
        self.veb_busy
            .get(pf.0 as usize)
            .copied()
            .unwrap_or(Dur::ZERO)
    }

    /// Accumulated VEB pipeline occupancy across every PF.
    pub fn veb_busy_total(&self) -> Dur {
        let mut total = Dur::ZERO;
        for d in &self.veb_busy {
            total += *d;
        }
        total
    }

    /// Returns the NIC's timing/capacity model.
    pub fn model(&self) -> &NicModel {
        &self.model
    }

    /// Returns the number of physical ports.
    pub fn port_count(&self) -> usize {
        self.pfs.len()
    }

    /// Returns a PF's embedded switch.
    pub fn pf(&self, pf: PfId) -> Result<&PfSwitch, NicError> {
        self.pfs.get(pf.0 as usize).ok_or(NicError::NoSuchPf(pf))
    }

    /// Returns a PF's embedded switch mutably.
    pub fn pf_mut(&mut self, pf: PfId) -> Result<&mut PfSwitch, NicError> {
        self.pfs
            .get_mut(pf.0 as usize)
            .ok_or(NicError::NoSuchPf(pf))
    }

    /// Host-privileged: creates (or reconfigures) a VF.
    ///
    /// Rejects duplicate MACs within the same PF and VLAN — the NIC forwards
    /// on `(VLAN, MAC)`, so duplicates would be ambiguous.
    pub fn create_vf(&mut self, pf: PfId, vf: VfId, config: VfConfig) -> Result<(), NicError> {
        let sw = self.pf(pf)?;
        let clash = sw.vfs().any(|(id, cfg)| {
            id != vf && cfg.mac == config.mac && cfg.vlan.unwrap_or(0) == config.vlan.unwrap_or(0)
        });
        if clash {
            return Err(NicError::DuplicateMac(config.mac));
        }
        let sw = self.pf_mut(pf)?;
        if sw.configure_vf(vf, config) {
            Ok(())
        } else {
            Err(NicError::VfLimit(pf))
        }
    }

    /// Host-privileged: removes a VF.
    pub fn remove_vf(&mut self, pf: PfId, vf: VfId) -> Result<VfConfig, NicError> {
        self.pf_mut(pf)?
            .remove_vf(vf)
            .ok_or(NicError::NoSuchVf(pf, vf))
    }

    /// VM-facing: attempts to change the VF MAC from inside the VM.
    ///
    /// Succeeds only on trusted VFs — tenants cannot re-address themselves,
    /// the restriction MTS relies on ("The NIC driver in the VMs in turn
    /// have restricted access to VF configuration", Sec. 3.1).
    pub fn vm_set_vf_mac(&mut self, pf: PfId, vf: VfId, mac: MacAddr) -> Result<(), NicError> {
        let cfg = self
            .pf(pf)?
            .vf(vf)
            .cloned()
            .ok_or(NicError::NoSuchVf(pf, vf))?;
        if !cfg.trusted {
            return Err(NicError::NotTrusted(pf, vf));
        }
        let sw = self.pf_mut(pf)?;
        sw.configure_vf(vf, VfConfig { mac, ..cfg });
        Ok(())
    }

    /// Switches one frame entering PF `pf` at `port`.
    pub fn ingress(
        &mut self,
        pf: PfId,
        port: NicPort,
        frame: Frame,
    ) -> Result<Vec<Delivery>, NicError> {
        Ok(self.pf_mut(pf)?.ingress(port, frame))
    }

    /// Switches one frame entering PF `pf` at `port`, appending deliveries
    /// to a caller-owned buffer (allocation-free fast path).
    pub fn ingress_into(
        &mut self,
        pf: PfId,
        port: NicPort,
        frame: Frame,
        out: &mut Vec<Delivery>,
    ) -> Result<(), NicError> {
        self.pf_mut(pf)?.ingress_into(port, frame, out);
        Ok(())
    }

    /// Charges one hairpin traversal on PF `pf` at `now`.
    ///
    /// Returns the completion time, or `None` when the hairpin engine's
    /// backlog bound is exceeded and the frame must be dropped.
    pub fn admit_hairpin(&mut self, pf: PfId, now: Time) -> Option<Time> {
        match self.hairpins.get_mut(pf.0 as usize)?.offer(now) {
            ServerDecision::Done(t) => Some(t),
            ServerDecision::Dropped => None,
        }
    }

    /// Charges one PCIe DMA crossing of `bytes` at `now`; returns arrival.
    pub fn dma(&mut self, now: Time, bytes: u64) -> Time {
        self.pcie.transmit(now, bytes)
    }

    /// Read-only view of the shared PCIe link (diagnostics).
    pub fn pcie(&self) -> &Link {
        &self.pcie
    }

    /// Hairpin drops accumulated on a PF.
    pub fn hairpin_drops(&self, pf: PfId) -> u64 {
        self.hairpins
            .get(pf.0 as usize)
            .map(|s| s.dropped())
            .unwrap_or(0)
    }

    /// Hairpin traversals served on a PF.
    pub fn hairpin_served(&self, pf: PfId) -> u64 {
        self.hairpins
            .get(pf.0 as usize)
            .map(|s| s.served())
            .unwrap_or(0)
    }

    /// Aggregated switch counters across all PFs.
    pub fn counters(&self) -> SwitchCounters {
        let mut total = SwitchCounters::default();
        for sw in &self.pfs {
            let c = sw.counters();
            total.forwarded += c.forwarded;
            total.flooded += c.flooded;
            total.flood_copies += c.flood_copies;
            total.dropped_spoof += c.dropped_spoof;
            total.dropped_filter += c.dropped_filter;
            total.dropped_vlan += c.dropped_vlan;
            total.poison_attempts += c.poison_attempts;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn frame(src: MacAddr, dst: MacAddr) -> Frame {
        Frame::udp_data(
            src,
            dst,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1,
            2,
            20,
        )
    }

    #[test]
    fn pf_bounds_are_checked() {
        let mut nic = SriovNic::new(2, NicModel::default());
        assert!(matches!(nic.pf(PfId(2)), Err(NicError::NoSuchPf(_))));
        assert!(nic
            .create_vf(
                PfId(5),
                VfId(0),
                VfConfig::infrastructure(MacAddr::local(1))
            )
            .is_err());
        assert!(nic.pf(PfId(1)).is_ok());
    }

    #[test]
    fn duplicate_mac_in_same_vlan_rejected() {
        let mut nic = SriovNic::new(1, NicModel::default());
        let mac = MacAddr::local(7);
        nic.create_vf(PfId(0), VfId(0), VfConfig::tenant(mac, 1))
            .unwrap();
        let err = nic.create_vf(PfId(0), VfId(1), VfConfig::tenant(mac, 1));
        assert_eq!(err, Err(NicError::DuplicateMac(mac)));
        // Same MAC in a different VLAN is allowed (distinct forwarding key).
        nic.create_vf(PfId(0), VfId(1), VfConfig::tenant(mac, 2))
            .unwrap();
        // Reconfiguring the same VF with its own MAC is allowed.
        nic.create_vf(PfId(0), VfId(0), VfConfig::tenant(mac, 1))
            .unwrap();
    }

    #[test]
    fn untrusted_vm_cannot_change_mac() {
        let mut nic = SriovNic::new(1, NicModel::default());
        nic.create_vf(PfId(0), VfId(0), VfConfig::tenant(MacAddr::local(1), 1))
            .unwrap();
        let err = nic.vm_set_vf_mac(PfId(0), VfId(0), MacAddr::local(99));
        assert!(matches!(err, Err(NicError::NotTrusted(_, _))));
        // Host grants trust; the VM may then re-address.
        let cfg = nic.pf(PfId(0)).unwrap().vf(VfId(0)).cloned().unwrap();
        nic.pf_mut(PfId(0)).unwrap().configure_vf(
            VfId(0),
            VfConfig {
                trusted: true,
                ..cfg
            },
        );
        nic.vm_set_vf_mac(PfId(0), VfId(0), MacAddr::local(99))
            .unwrap();
        assert_eq!(
            nic.pf(PfId(0)).unwrap().vf(VfId(0)).unwrap().mac,
            MacAddr::local(99)
        );
    }

    #[test]
    fn host_reconfiguration_roundtrip() {
        let mut nic = SriovNic::new(1, NicModel::default());
        nic.create_vf(PfId(0), VfId(0), VfConfig::tenant(MacAddr::local(1), 1))
            .unwrap();
        let cfg = VfConfig {
            vlan: Some(9),
            spoof_check: false,
            ..VfConfig::tenant(MacAddr::local(1), 1)
        };
        nic.pf_mut(PfId(0)).unwrap().configure_vf(VfId(0), cfg);
        assert_eq!(nic.pf(PfId(0)).unwrap().vf(VfId(0)).unwrap().vlan, Some(9));
        assert!(!nic.pf(PfId(0)).unwrap().vf(VfId(0)).unwrap().spoof_check);
        let cfg = nic.remove_vf(PfId(0), VfId(0)).unwrap();
        assert_eq!(cfg.vlan, Some(9));
        assert!(matches!(
            nic.remove_vf(PfId(0), VfId(0)),
            Err(NicError::NoSuchVf(_, _))
        ));
    }

    #[test]
    fn hairpin_budget_is_per_pf() {
        let mut nic = SriovNic::new(2, NicModel::default());
        // Saturate PF0's hairpin engine.
        let mut drops0 = 0;
        for _ in 0..10_000 {
            if nic.admit_hairpin(PfId(0), Time::ZERO).is_none() {
                drops0 += 1;
            }
        }
        assert!(drops0 > 0);
        assert_eq!(nic.hairpin_drops(PfId(0)), drops0);
        // PF1 is unaffected.
        assert!(nic.admit_hairpin(PfId(1), Time::ZERO).is_some());
        assert_eq!(nic.hairpin_drops(PfId(1)), 0);
    }

    #[test]
    fn dma_is_fast_but_not_free() {
        let mut nic = SriovNic::new(1, NicModel::default());
        let t = nic.dma(Time::ZERO, 1500);
        // 1500B over 50Gbps = 240ns + 450ns latency.
        assert_eq!(t, Time::from_nanos(240 + 450));
    }

    #[test]
    fn counters_aggregate_across_pfs() {
        let mut nic = SriovNic::new(2, NicModel::default());
        let a = MacAddr::local(1);
        let b = MacAddr::local(2);
        nic.create_vf(PfId(0), VfId(0), VfConfig::infrastructure(a))
            .unwrap();
        nic.create_vf(PfId(1), VfId(0), VfConfig::infrastructure(b))
            .unwrap();
        nic.ingress(PfId(0), NicPort::Wire, frame(MacAddr::local(9), a))
            .unwrap();
        nic.ingress(PfId(1), NicPort::Wire, frame(MacAddr::local(9), b))
            .unwrap();
        assert_eq!(nic.counters().forwarded, 2);
    }
}
