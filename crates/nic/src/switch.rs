//! The embedded per-PF L2 switch (IEEE 802.1Qbg Virtual Ethernet Bridging).

use crate::filter::{evaluate, FilterAction, FilterRule};
use crate::vf::{NicPort, VfConfig, VfId};
use mts_net::{Frame, MacAddr};
use mts_sim::FastHashMap;
use serde::{Deserialize, Serialize};

/// Maximum virtual functions per physical function (PCI-SIG SR-IOV, and the
/// paper: "the current standard allows each SR-IOV device to have up to 64
/// VFs per PF").
const MAX_VFS_PER_PF: usize = 64;

/// A frame delivered out of the switch.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// The egress port.
    pub port: NicPort,
    /// The frame, after any VST tag manipulation.
    pub frame: Frame,
    /// Whether this crossing is a VF-to-VF *hairpin* (charged against the
    /// NIC's hairpin capacity by the runtime).
    pub hairpin: bool,
}

/// Forwarding and drop counters of one embedded switch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SwitchCounters {
    /// Frames forwarded to exactly one port.
    pub forwarded: u64,
    /// Flood events (unknown unicast or broadcast).
    pub flooded: u64,
    /// Copies emitted by flooding.
    pub flood_copies: u64,
    /// Frames dropped by MAC anti-spoofing.
    pub dropped_spoof: u64,
    /// Frames dropped by security filters.
    pub dropped_filter: u64,
    /// Frames dropped because a VM sent a tagged frame on a VST VF, or a
    /// tagged frame had no member ports.
    pub dropped_vlan: u64,
    /// Learning attempts that tried to override a static (configured) entry.
    pub poison_attempts: u64,
}

/// A MAC table entry: static entries come from VF configuration and cannot
/// be displaced by learning.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Entry {
    Static(NicPort),
    Learned(NicPort),
}

impl Entry {
    fn port(self) -> NicPort {
        match self {
            Entry::Static(p) | Entry::Learned(p) => p,
        }
    }
}

/// The embedded L2 switch of one physical function.
///
/// Forwarding model: frames are switched on `(VLAN, destination MAC)`.
/// The wire port is a trunk (member of every VLAN); the PF and untagged VFs
/// are members of VLAN 0; a VF configured with a VST VLAN id is a member of
/// exactly that VLAN, with tagging on ingress and stripping on egress.
#[derive(Clone, Debug, Default)]
pub struct PfSwitch {
    /// Dense per-VF registers, indexed by `VfId`: a VF lookup on the
    /// per-frame path is one bounds check, not a tree walk. Ascending-id
    /// iteration (the old `BTreeMap` order, which flood delivery order
    /// depends on) falls out of the index.
    vfs: Vec<Option<VfConfig>>,
    vf_count: usize,
    table: FastHashMap<(u16, u64), Entry>,
    filters: Vec<FilterRule>,
    counters: SwitchCounters,
}

impl PfSwitch {
    /// Creates an empty switch with no VFs and no filters.
    pub fn new() -> Self {
        PfSwitch::default()
    }

    /// Returns the forwarding counters.
    pub fn counters(&self) -> SwitchCounters {
        self.counters
    }

    /// Returns the number of configured VFs.
    pub fn vf_count(&self) -> usize {
        self.vf_count
    }

    /// Returns a VF's configuration.
    pub fn vf(&self, id: VfId) -> Option<&VfConfig> {
        self.vfs.get(usize::from(id.0)).and_then(Option::as_ref)
    }

    /// Iterates over configured VFs in ascending id order.
    pub fn vfs(&self) -> impl Iterator<Item = (VfId, &VfConfig)> {
        self.vfs
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|cfg| (VfId(i as u8), cfg)))
    }

    /// Installs or replaces a VF configuration (PF-driver privilege).
    ///
    /// Installs a static MAC entry for the VF in its VLAN. Returns `false`
    /// when the 64-VF limit would be exceeded.
    pub fn configure_vf(&mut self, id: VfId, config: VfConfig) -> bool {
        let idx = usize::from(id.0);
        if idx >= self.vfs.len() {
            self.vfs.resize(idx + 1, None);
        }
        if self.vfs[idx].is_none() && self.vf_count >= MAX_VFS_PER_PF {
            return false;
        }
        // Remove the old static entry if the VF is being reconfigured.
        match &self.vfs[idx] {
            Some(old) => {
                self.table
                    .remove(&(old.vlan.unwrap_or(0), old.mac.as_u64()));
            }
            None => self.vf_count += 1,
        }
        self.table.insert(
            (config.vlan.unwrap_or(0), config.mac.as_u64()),
            Entry::Static(NicPort::Vf(id)),
        );
        self.vfs[idx] = Some(config);
        true
    }

    /// Removes a VF and its static MAC entry.
    pub fn remove_vf(&mut self, id: VfId) -> Option<VfConfig> {
        let cfg = self.vfs.get_mut(usize::from(id.0))?.take()?;
        self.vf_count -= 1;
        self.table
            .remove(&(cfg.vlan.unwrap_or(0), cfg.mac.as_u64()));
        // Also purge any entries learned towards the VF.
        self.table.retain(|_, e| e.port() != NicPort::Vf(id));
        Some(cfg)
    }

    /// Replaces the filter set.
    pub fn set_filters(&mut self, filters: Vec<FilterRule>) {
        self.filters = filters;
    }

    /// Returns the installed filters.
    pub fn filters(&self) -> &[FilterRule] {
        &self.filters
    }

    /// Looks up the port a `(vlan, mac)` pair maps to, if any.
    pub fn lookup(&self, vlan: u16, mac: MacAddr) -> Option<NicPort> {
        self.table.get(&(vlan, mac.as_u64())).map(|e| e.port())
    }

    /// Installs a static MAC entry (operator-provisioned, e.g. the host
    /// PF's own address or known external next hops on the wire).
    pub fn install_static_mac(&mut self, vlan: u16, mac: MacAddr, port: NicPort) {
        self.table.insert((vlan, mac.as_u64()), Entry::Static(port));
    }

    /// Removes a static MAC entry, returning whether one was present.
    /// Learned entries under the same key are left alone (use
    /// [`PfSwitch::flush_table`] for those).
    pub fn remove_static_mac(&mut self, vlan: u16, mac: MacAddr) -> bool {
        match self.table.get(&(vlan, mac.as_u64())) {
            Some(Entry::Static(_)) => {
                self.table.remove(&(vlan, mac.as_u64()));
                true
            }
            _ => false,
        }
    }

    /// Flushes the forwarding table: every learned entry *and* every
    /// operator-provisioned static is lost, as after a firmware reset or an
    /// injected VEB fault. Entries derived from VF configurations survive —
    /// they live in per-VF registers and are re-populated by the hardware —
    /// so VF-addressed unicast keeps working while wire-side destinations
    /// degrade to unknown-unicast flooding until the controller reconciles.
    pub fn flush_table(&mut self) {
        self.table.clear();
        // Collect first: the table borrow must end before reinsertion.
        let vf_entries: Vec<(u16, u64, VfId)> = self
            .vfs()
            .map(|(id, cfg)| (cfg.vlan.unwrap_or(0), cfg.mac.as_u64(), id))
            .collect();
        for (vlan, mac, id) in vf_entries {
            self.table
                .insert((vlan, mac), Entry::Static(NicPort::Vf(id)));
        }
    }

    /// Returns all *static* (configured, non-learned) MAC table entries as
    /// `(vlan, mac, port)` triples, sorted by `(vlan, mac)` so iteration is
    /// deterministic. This is the configured forwarding state the
    /// `mts-isocheck` static analyzer reasons over; learned entries are
    /// runtime state and deliberately excluded.
    pub fn static_macs(&self) -> Vec<(u16, MacAddr, NicPort)> {
        // Sized once: every entry of a configured, traffic-free table is
        // static.
        let mut out = Vec::with_capacity(self.table.len());
        out.extend(
            self.table
                // lint:allow(hashmap-iter): collected and sorted below before exposure
                .iter()
                .filter_map(|((vlan, mac), e)| match e {
                    Entry::Static(p) => Some((*vlan, MacAddr::from_u64(*mac), *p)),
                    Entry::Learned(_) => None,
                }),
        );
        out.sort_by_key(|(vlan, mac, _)| (*vlan, mac.as_u64()));
        out
    }

    /// Whether the static entries are exactly `statics`, compared in place
    /// without collecting them. False also when `statics` repeats an entry.
    pub fn statics_are(&self, statics: &[(u16, MacAddr, NicPort)]) -> bool {
        let present = statics.iter().all(|&(vlan, mac, port)| {
            let entry = self.table.get(&(vlan, mac.as_u64()));
            matches!(entry, Some(Entry::Static(p)) if *p == port)
        });
        let is_static = |e: &&Entry| matches!(e, Entry::Static(_));
        present && self.table.values().filter(is_static).count() == statics.len()
    }

    /// Switches one frame entering at `from`; returns zero or more deliveries.
    ///
    /// Convenience wrapper over [`PfSwitch::ingress_into`] for callers that
    /// don't keep a scratch buffer (tests, one-shot attack probes).
    pub fn ingress(&mut self, from: NicPort, frame: Frame) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.ingress_into(from, frame, &mut out);
        out
    }

    /// Switches one frame entering at `from`, appending deliveries to `out`.
    ///
    /// This is the pure forwarding decision; timing (PCIe DMA, hairpin
    /// capacity) is charged by the runtime using the [`Delivery::hairpin`]
    /// flag and the frame sizes. Taking the output buffer from the caller
    /// keeps the per-frame fast path allocation-free: the runtime reuses
    /// one scratch `Vec` across every ingress.
    pub fn ingress_into(&mut self, from: NicPort, frame: Frame, out: &mut Vec<Delivery>) {
        // Step 1: VST ingress processing and spoof checking for VFs.
        let mut frame = frame;
        if let NicPort::Vf(id) = from {
            let Some(cfg) = self.vf(id) else {
                // Frames from unconfigured VFs cannot exist; drop defensively.
                self.counters.dropped_vlan += 1;
                return;
            };
            if cfg.spoof_check && frame.src != cfg.mac {
                self.counters.dropped_spoof += 1;
                return;
            }
            if let Some(vid) = cfg.vlan {
                if frame.vlan.is_some() {
                    // VST mode: tagged frames from the VM are not allowed.
                    self.counters.dropped_vlan += 1;
                    return;
                }
                frame = frame.with_vlan(vid);
            }
        }
        let vlan = frame.vlan.map(|t| t.vid).unwrap_or(0);

        // Step 2: security filters.
        if evaluate(&self.filters, from, &frame, vlan) == FilterAction::Drop {
            self.counters.dropped_filter += 1;
            return;
        }

        // Step 3: MAC learning (source address towards the ingress port).
        self.learn(vlan, frame.src, from);

        // Step 4: forwarding decision.
        if frame.dst.is_multicast() {
            return self.flood_into(from, vlan, frame, out);
        }
        match self.lookup(vlan, frame.dst) {
            Some(port) if port == from => {
                // Destination lives on the ingress port: nothing to do.
            }
            Some(port) => {
                self.counters.forwarded += 1;
                let d = self.deliver(from, port, frame);
                out.push(d);
            }
            None => self.flood_into(from, vlan, frame, out),
        }
    }

    fn learn(&mut self, vlan: u16, src: MacAddr, port: NicPort) {
        if src.is_multicast() {
            return;
        }
        let key = (vlan, src.as_u64());
        match self.table.get(&key) {
            Some(Entry::Static(existing)) if *existing != port => {
                // A spoofed or misconfigured source tried to displace a
                // configured address; refuse and record.
                self.counters.poison_attempts += 1;
            }
            Some(Entry::Static(_)) => {}
            _ => {
                self.table.insert(key, Entry::Learned(port));
            }
        }
    }

    /// Floods within `vlan` to every member port except the ingress port,
    /// appending to `out`. Member order is wire, PF (VLAN 0 only), then VFs
    /// ascending — delivery order is part of the deterministic contract.
    fn flood_into(&mut self, from: NicPort, vlan: u16, frame: Frame, out: &mut Vec<Delivery>) {
        // The PF's host interface is not promiscuous: it receives frames
        // matching its own MAC filter plus broadcast/multicast, never
        // flooded unknown unicast.
        let unicast = frame.dst.is_unicast();
        let start = out.len();
        if from != NicPort::Wire {
            let d = self.deliver(from, NicPort::Wire, frame.clone());
            out.push(d);
        }
        if vlan == 0 && from != NicPort::Pf && !unicast {
            let d = self.deliver(from, NicPort::Pf, frame.clone());
            out.push(d);
        }
        for i in 0..self.vfs.len() {
            let Some(cfg) = &self.vfs[i] else { continue };
            let member = match cfg.vlan {
                Some(v) => v == vlan,
                None => vlan == 0,
            };
            let port = NicPort::Vf(VfId(i as u8));
            if member && port != from {
                let d = self.deliver(from, port, frame.clone());
                out.push(d);
            }
        }
        let copies = (out.len() - start) as u64;
        if copies == 0 {
            self.counters.dropped_vlan += 1;
        } else {
            self.counters.flooded += 1;
            self.counters.flood_copies += copies;
        }
    }

    fn deliver(&self, from: NicPort, port: NicPort, mut frame: Frame) -> Delivery {
        // VST egress: strip the tag towards VLAN-configured VFs.
        if let NicPort::Vf(id) = port {
            if let Some(cfg) = self.vf(id) {
                if cfg.vlan.is_some() {
                    frame.vlan = None;
                }
            }
        }
        Delivery {
            port,
            frame,
            hairpin: from.is_vf() && port.is_vf(),
        }
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

    /// Builds the canonical MTS single-tenant layout from Fig. 2/3:
    /// VF0 = vswitch In/Out (untagged), VF1 = Gw VF (VLAN 1),
    /// VF2 = tenant T VF (VLAN 1).
    fn mts_layout() -> (PfSwitch, MacAddr, MacAddr, MacAddr) {
        let mut sw = PfSwitch::new();
        let inout = MacAddr::local(0x10);
        let gw = MacAddr::local(0x11);
        let tenant = MacAddr::local(0x12);
        assert!(sw.configure_vf(VfId(0), VfConfig::infrastructure(inout)));
        assert!(sw.configure_vf(VfId(1), VfConfig::tenant(gw, 1)));
        assert!(sw.configure_vf(VfId(2), VfConfig::tenant(tenant, 1)));
        (sw, inout, gw, tenant)
    }

    #[test]
    fn wire_to_inout_vf_is_untagged_unicast() {
        let (mut sw, inout, _, _) = mts_layout();
        let ext = MacAddr::local(0xee);
        let out = sw.ingress(NicPort::Wire, frame(ext, inout));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, NicPort::Vf(VfId(0)));
        assert!(out[0].frame.vlan.is_none());
        assert!(!out[0].hairpin);
    }

    #[test]
    fn gw_to_tenant_is_a_hairpin_within_the_vlan() {
        let (mut sw, _, gw, tenant) = mts_layout();
        // The vswitch VM emits via the Gw VF (VF1) towards the tenant MAC.
        let out = sw.ingress(NicPort::Vf(VfId(1)), frame(gw, tenant));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, NicPort::Vf(VfId(2)));
        assert!(out[0].hairpin, "VF-to-VF must be flagged as hairpin");
        // VST: tag added on ingress, stripped before the tenant sees it.
        assert!(out[0].frame.vlan.is_none());
    }

    #[test]
    fn vlan_isolation_blocks_cross_tenant_unicast() {
        let (mut sw, _, _, _) = mts_layout();
        // Second tenant on VLAN 2.
        let t2 = MacAddr::local(0x22);
        sw.configure_vf(VfId(3), VfConfig::tenant(t2, 2));
        let t1 = MacAddr::local(0x12);
        // Tenant 1 (VLAN 1) tries to reach tenant 2's MAC directly: the
        // lookup happens in VLAN 1 where t2 does not exist, so the frame
        // floods within VLAN 1 only — never to VF3.
        let out = sw.ingress(NicPort::Vf(VfId(2)), frame(t1, t2));
        assert!(out.iter().all(|d| d.port != NicPort::Vf(VfId(3))));
    }

    #[test]
    fn spoofed_source_mac_is_dropped() {
        let (mut sw, _, gw, _) = mts_layout();
        let forged = MacAddr::local(0x99);
        let out = sw.ingress(NicPort::Vf(VfId(2)), frame(forged, gw));
        assert!(out.is_empty());
        assert_eq!(sw.counters().dropped_spoof, 1);
    }

    #[test]
    fn tagged_frames_from_vst_vf_are_dropped() {
        let (mut sw, _, gw, tenant) = mts_layout();
        let f = frame(tenant, gw).with_vlan(2);
        let out = sw.ingress(NicPort::Vf(VfId(2)), f);
        assert!(out.is_empty());
        assert_eq!(sw.counters().dropped_vlan, 1);
    }

    #[test]
    fn broadcast_floods_only_within_the_vlan() {
        let (mut sw, _, _, tenant) = mts_layout();
        let t2 = MacAddr::local(0x22);
        sw.configure_vf(VfId(3), VfConfig::tenant(t2, 2));
        let out = sw.ingress(NicPort::Vf(VfId(2)), frame(tenant, MacAddr::BROADCAST));
        let ports: Vec<NicPort> = out.iter().map(|d| d.port).collect();
        // VLAN 1 members: wire, VF1 (gw), VF2 (self, excluded). Not PF, not VF0/VF3.
        assert!(ports.contains(&NicPort::Wire));
        assert!(ports.contains(&NicPort::Vf(VfId(1))));
        assert!(!ports.contains(&NicPort::Vf(VfId(0))));
        assert!(!ports.contains(&NicPort::Vf(VfId(3))));
        assert!(!ports.contains(&NicPort::Pf));
        assert_eq!(sw.counters().flooded, 1);
    }

    #[test]
    fn untagged_broadcast_reaches_pf_and_untagged_vfs() {
        let (mut sw, inout, _, _) = mts_layout();
        let ext = MacAddr::local(0xee);
        let _ = inout;
        let out = sw.ingress(NicPort::Wire, frame(ext, MacAddr::BROADCAST));
        let ports: Vec<NicPort> = out.iter().map(|d| d.port).collect();
        assert!(ports.contains(&NicPort::Pf));
        assert!(ports.contains(&NicPort::Vf(VfId(0))));
        assert!(!ports.contains(&NicPort::Vf(VfId(1))));
        assert!(!ports.contains(&NicPort::Vf(VfId(2))));
    }

    #[test]
    fn learning_forwards_instead_of_flooding() {
        let mut sw = PfSwitch::new();
        sw.configure_vf(VfId(0), VfConfig::infrastructure(MacAddr::local(0x10)));
        let ext = MacAddr::local(0xee);
        // First, the external MAC talks in: it gets learned towards the wire.
        let _ = sw.ingress(NicPort::Wire, frame(ext, MacAddr::local(0x10)));
        // Now the VF replies: unicast straight to the wire, no flood.
        let out = sw.ingress(NicPort::Vf(VfId(0)), frame(MacAddr::local(0x10), ext));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, NicPort::Wire);
        assert_eq!(sw.counters().forwarded, 2);
        assert_eq!(sw.counters().flooded, 0);
    }

    #[test]
    fn learning_cannot_poison_static_entries() {
        let (mut sw, _, _, tenant) = mts_layout();
        // An attacker on the wire claims the tenant's MAC (in VLAN 1 it
        // would need a tagged frame; use the Gw VLAN via a tagged frame).
        let f = frame(tenant, MacAddr::local(0xaa)).with_vlan(1);
        let _ = sw.ingress(NicPort::Wire, f);
        assert_eq!(sw.counters().poison_attempts, 1);
        // The static entry still points at the tenant VF.
        assert_eq!(sw.lookup(1, tenant), Some(NicPort::Vf(VfId(2))));
    }

    #[test]
    fn vf_limit_is_enforced() {
        let mut sw = PfSwitch::new();
        for i in 0..MAX_VFS_PER_PF {
            assert!(sw.configure_vf(
                VfId(i as u8),
                VfConfig::infrastructure(MacAddr::local(i as u32))
            ));
        }
        assert!(!sw.configure_vf(VfId(64), VfConfig::infrastructure(MacAddr::local(1000))));
        assert_eq!(sw.vf_count(), MAX_VFS_PER_PF);
    }

    #[test]
    fn remove_vf_purges_table_state() {
        let (mut sw, _, _, tenant) = mts_layout();
        assert!(sw.remove_vf(VfId(2)).is_some());
        assert_eq!(sw.lookup(1, tenant), None);
        assert!(sw.remove_vf(VfId(2)).is_none());
        assert_eq!(sw.vf_count(), 2);
    }

    #[test]
    fn reconfigure_vf_moves_static_entry() {
        let mut sw = PfSwitch::new();
        let old_mac = MacAddr::local(1);
        let new_mac = MacAddr::local(2);
        sw.configure_vf(VfId(0), VfConfig::tenant(old_mac, 5));
        sw.configure_vf(VfId(0), VfConfig::tenant(new_mac, 6));
        assert_eq!(sw.lookup(5, old_mac), None);
        assert_eq!(sw.lookup(6, new_mac), Some(NicPort::Vf(VfId(0))));
        assert_eq!(sw.vf_count(), 1);
    }

    #[test]
    fn static_macs_excludes_learned_entries_and_is_sorted() {
        let (mut sw, inout, gw, tenant) = mts_layout();
        sw.install_static_mac(0, MacAddr::local(0xaa), NicPort::Pf);
        // Learn an external MAC towards the wire; it must not appear.
        let ext = MacAddr::local(0xee);
        let _ = sw.ingress(NicPort::Wire, frame(ext, inout));
        let statics = sw.static_macs();
        assert_eq!(statics.len(), 4);
        assert!(statics.iter().all(|(_, m, _)| *m != ext));
        assert!(statics.contains(&(0, inout, NicPort::Vf(VfId(0)))));
        assert!(statics.contains(&(0, MacAddr::local(0xaa), NicPort::Pf)));
        assert!(statics.contains(&(1, gw, NicPort::Vf(VfId(1)))));
        assert!(statics.contains(&(1, tenant, NicPort::Vf(VfId(2)))));
        let mut sorted = statics.clone();
        sorted.sort_by_key(|(v, m, _)| (*v, m.as_u64()));
        assert_eq!(statics, sorted);
    }

    #[test]
    fn flush_table_keeps_vf_entries_and_drops_the_rest() {
        let (mut sw, inout, _, tenant) = mts_layout();
        let wire_mac = MacAddr::local(0xaa);
        sw.install_static_mac(0, wire_mac, NicPort::Wire);
        // Learn an external MAC too.
        let ext = MacAddr::local(0xee);
        let _ = sw.ingress(NicPort::Wire, frame(ext, inout));
        assert_eq!(sw.lookup(0, ext), Some(NicPort::Wire));

        sw.flush_table();
        // Operator static and learned entry gone…
        assert_eq!(sw.lookup(0, wire_mac), None);
        assert_eq!(sw.lookup(0, ext), None);
        // …but VF-config-derived entries survive.
        assert_eq!(sw.lookup(0, inout), Some(NicPort::Vf(VfId(0))));
        assert_eq!(sw.lookup(1, tenant), Some(NicPort::Vf(VfId(2))));
    }

    #[test]
    fn remove_static_mac_only_touches_statics() {
        let mut sw = PfSwitch::new();
        let m = MacAddr::local(0xaa);
        sw.install_static_mac(0, m, NicPort::Wire);
        assert!(sw.remove_static_mac(0, m));
        assert!(!sw.remove_static_mac(0, m));
        // A learned entry is not removable through this path.
        let ext = MacAddr::local(0xee);
        let _ = sw.ingress(NicPort::Wire, frame(ext, m));
        assert!(!sw.remove_static_mac(0, ext));
        assert_eq!(sw.lookup(0, ext), Some(NicPort::Wire));
    }

    #[test]
    fn filters_drop_before_learning() {
        let (mut sw, _, _, tenant) = mts_layout();
        sw.set_filters(vec![FilterRule::drop_all_from(
            crate::filter::PortClass::Vf(VfId(2)),
        )]);
        let out = sw.ingress(NicPort::Vf(VfId(2)), frame(tenant, MacAddr::local(0x11)));
        assert!(out.is_empty());
        assert_eq!(sw.counters().dropped_filter, 1);
    }
}
