//! VXLAN overlay networks (paper Sec. 3.2, "System support").
//!
//! "Advanced multi-tenant cloud systems rely on tunneling protocols to
//! support L2 virtual networks. This is also supported by MTS, by
//! modifying the flow tables to pop/insert the appropriate headers
//! whenever packets need to be decapsulated/encapsulated. Note that after
//! decapsulation the tunnel id can be used in conjunction with the
//! destination IP address to identify the appropriate tenant VM."
//!
//! This module installs exactly those rules: ingress VXLAN traffic from
//! the fabric is decapsulated in table 0 and dispatched in table 1 on
//! `(tun_id, inner dst IP)`; egress tenant traffic is re-encapsulated
//! towards the remote VTEP. The overlay generator wraps the standard
//! measurement probes in VXLAN envelopes so the whole chain is exercised
//! end to end.

use crate::controller::{DeployError, Deployment};
use crate::runtime::{wire_inject, Sim, World};
use crate::spec::SecurityLevel;
use mts_net::IpProto;
use mts_net::{
    Frame, Ipv4Packet, MacAddr, Payload, Transport, UdpDatagram, UdpPayload, Vni, VXLAN_UDP_PORT,
};
use mts_nic::PfId;
use mts_sim::{Dur, Time};
use mts_vswitch::{Action, FlowMatch, FlowRule, TableId};
use std::net::Ipv4Addr;

/// Overlay addressing: the two VTEPs of the tunnel.
#[derive(Clone, Copy, Debug)]
pub struct OverlayConfig {
    /// The remote (load-generator-side) VTEP IP.
    pub remote_vtep: Ipv4Addr,
    /// This server's VTEP IP.
    pub local_vtep: Ipv4Addr,
    /// Base VNI; tenant `t` uses `base + t`.
    pub vni_base: u32,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            remote_vtep: Ipv4Addr::new(172, 16, 0, 1),
            local_vtep: Ipv4Addr::new(172, 16, 0, 2),
            vni_base: 5_000,
        }
    }
}

impl OverlayConfig {
    /// The VNI assigned to a tenant.
    pub fn vni(&self, tenant: u8) -> Vni {
        Vni::new(self.vni_base + u32::from(tenant))
    }
}

/// Adds the overlay rules to an MTS deployment's desired config and
/// converges its vswitches to it (replaces the plain p2v rules; call on a
/// [`crate::Controller::build`] output without scenario rules, dual-port).
///
/// Ingress: `in0 → decap → (tun_id, dst ip) → tenant gateway`.
/// Egress: `gw(t,1) → encap(vni_t, local→remote) → in_out(1)`.
pub fn install_overlay_rules(d: &mut Deployment, cfg: OverlayConfig) -> Result<(), DeployError> {
    if d.spec.level == SecurityLevel::Baseline {
        return Err(DeployError::Unsupported(
            "overlay rules are generated for MTS compartments".into(),
        ));
    }
    if d.ports < 2 {
        return Err(DeployError::Unsupported("overlay needs two ports".into()));
    }
    let plan = &d.plan;
    for (i, inst) in d.vswitches.iter().enumerate() {
        let i0 = inst.in_out[0];
        let i1 = inst.in_out[1];
        let comp = &plan.compartments[inst.index as usize];
        let (_, out_mac) = comp.in_out[1];
        // Table 0: decapsulate VXLAN arriving on the fabric side.
        d.desired.add_rule(
            i,
            0,
            FlowRule::new(
                30,
                FlowMatch {
                    in_port: Some(i0),
                    ip_proto: Some(IpProto::Udp),
                    l4_dst: Some(VXLAN_UDP_PORT),
                    ..FlowMatch::default()
                },
                vec![Action::VxlanDecap, Action::GotoTable(TableId(1))],
            ),
        );
        for t in d.spec.tenants_of_compartment(inst.index) {
            let ta = &plan.tenants[t as usize];
            let (_, t_mac0) = ta.vf[0];
            let cookie = u64::from(t) + 1;
            // Table 1: tunnel id + inner destination → tenant VM (Fig. 3a
            // with the tunnel id in play).
            d.desired.add_rule(
                i,
                1,
                FlowRule::new(
                    20,
                    FlowMatch::to_ip(ta.ip).and_tun(cfg.vni(t)),
                    vec![Action::SetEthDst(t_mac0), Action::Output(inst.gw[&(t, 0)])],
                )
                .with_cookie(cookie),
            );
            // Egress: re-encapsulate towards the remote VTEP.
            d.desired.add_rule(
                i,
                0,
                FlowRule::new(
                    20,
                    FlowMatch::to_ip(ta.ip).and_port(inst.gw[&(t, 1)]),
                    vec![
                        Action::VxlanEncap {
                            vni: cfg.vni(t),
                            src_ip: cfg.local_vtep,
                            dst_ip: cfg.remote_vtep,
                            src_mac: out_mac,
                            dst_mac: plan.sink_mac,
                        },
                        Action::Output(i1),
                    ],
                )
                .with_cookie(cookie),
            );
        }
    }
    d.converge(&mut |_| {})?;
    Ok(())
}

/// Starts a VXLAN-encapsulated probe generator: each probe is wrapped in
/// an overlay envelope exactly as a remote VTEP would send it.
#[allow(clippy::too_many_arguments)]
pub fn start_overlay_generator(
    e: &mut Sim,
    flows: Vec<(MacAddr, Ipv4Addr, Vni)>,
    cfg: OverlayConfig,
    rate_pps: f64,
    inner_wire_len: u32,
    until: Time,
) {
    if flows.is_empty() || rate_pps <= 0.0 {
        return;
    }
    let gap = Dur::from_secs_f64(1.0 / rate_pps);
    e.schedule_at(Time::ZERO, move |w, e| {
        overlay_tick(w, e, flows, cfg, gap, inner_wire_len, until, 0);
    });
}

#[allow(clippy::too_many_arguments)]
fn overlay_tick(
    w: &mut World,
    e: &mut Sim,
    flows: Vec<(MacAddr, Ipv4Addr, Vni)>,
    cfg: OverlayConfig,
    gap: Dur,
    inner_wire_len: u32,
    until: Time,
    seq: u64,
) {
    let now = e.now();
    if now >= until {
        return;
    }
    let (dmac, dst_ip, vni) = flows[(seq % flows.len() as u64) as usize];
    // The inner frame, as the remote tenant VM would have sent it; the
    // origin stamp rides on the inner frame so it survives decapsulation.
    let inner = Frame::udp_probe(
        w.plan.lg_mac,
        dmac,
        w.plan.lg_ip,
        dst_ip,
        5001,
        seq,
        inner_wire_len,
    )
    .stamped(now.as_nanos());
    // The overlay envelope from the remote VTEP.
    let outer = Frame::new(
        w.plan.lg_mac,
        dmac,
        Payload::Ipv4(Ipv4Packet {
            src: cfg.remote_vtep,
            dst: cfg.local_vtep,
            ttl: 64,
            tos: 0,
            transport: Transport::Udp(UdpDatagram {
                sport: 49_152,
                dport: VXLAN_UDP_PORT,
                payload: UdpPayload::Vxlan {
                    vni,
                    inner: Box::new(inner),
                },
            }),
        }),
    )
    .stamped(now.as_nanos());
    if w.sink.in_window(now) {
        w.sink.sent += 1;
    }
    wire_inject(w, e, PfId(0), outer);
    e.schedule_at(now + gap, move |w, e| {
        overlay_tick(w, e, flows, cfg, gap, inner_wire_len, until, seq + 1);
    });
}

/// Extracts the innermost IPv4 destination (through one VXLAN layer).
pub fn inner_dst_ip(frame: &Frame) -> Option<Ipv4Addr> {
    inner_ips(frame).map(|(_, dst)| dst)
}

/// Extracts the innermost IPv4 `(src, dst)` pair (through one VXLAN layer).
///
/// Cycle attribution tries the destination tenant first and falls back to
/// the source, so return traffic (tenant → remote) still attributes.
pub fn inner_ips(frame: &Frame) -> Option<(Ipv4Addr, Ipv4Addr)> {
    match frame.payload.get() {
        Payload::Ipv4(ip) => match &ip.transport {
            Transport::Udp(u) if u.dport == VXLAN_UDP_PORT => match &u.payload {
                UdpPayload::Vxlan { inner, .. } => match (inner.src_ip(), inner.dst_ip()) {
                    (Some(s), Some(d)) => Some((s, d)),
                    _ => Some((ip.src, ip.dst)),
                },
                _ => Some((ip.src, ip.dst)),
            },
            _ => Some((ip.src, ip.dst)),
        },
        _ => None,
    }
}

/// True when the frame is a VXLAN envelope (UDP port 4789 with a VXLAN
/// payload). The overlay-encap cycle meter keys off this.
pub fn is_encapsulated(frame: &Frame) -> bool {
    match frame.payload.get() {
        Payload::Ipv4(ip) => match &ip.transport {
            Transport::Udp(u) if u.dport == VXLAN_UDP_PORT => {
                matches!(&u.payload, UdpPayload::Vxlan { .. })
            }
            _ => false,
        },
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::runtime::{RuntimeCfg, World};
    use crate::spec::{DeploymentSpec, Scenario};
    use mts_host::ResourceMode;
    use mts_vswitch::DatapathKind;

    fn overlay_world(level: SecurityLevel) -> (World, Sim, OverlayConfig) {
        let spec = DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let mut d = Controller::build(spec, 2).unwrap();
        let cfg = OverlayConfig::default();
        install_overlay_rules(&mut d, cfg).unwrap();
        let rt_cfg = RuntimeCfg::for_spec(&spec);
        let mut w = World::new(d, rt_cfg, 21);
        w.sink.window = (Time::ZERO, Time::MAX);
        (w, Sim::new(), cfg)
    }

    #[test]
    fn overlay_probes_roundtrip_encapsulated() {
        let (mut w, mut e, cfg) = overlay_world(SecurityLevel::Level1);
        let flows: Vec<(MacAddr, Ipv4Addr, Vni)> = w
            .plan
            .tenants
            .iter()
            .map(|t| (w.route_mac(t.index), t.ip, cfg.vni(t.index)))
            .collect();
        start_overlay_generator(
            &mut e,
            flows,
            cfg,
            40_000.0,
            128,
            Time::from_nanos(3_000_000),
        );
        e.run_until(&mut w, Time::from_nanos(20_000_000));
        assert_eq!(w.sink.sent, 120);
        assert_eq!(w.sink.received, 120, "drops: {:?}", w.drops);
        // Latency includes decap + tenant hop + encap, still sub-ms.
        assert!(w.sink.latency.percentile(50.0) < 1_000_000);
    }

    #[test]
    fn overlay_works_per_compartment_in_level2() {
        let (mut w, mut e, cfg) = overlay_world(SecurityLevel::Level2 { compartments: 2 });
        let flows: Vec<(MacAddr, Ipv4Addr, Vni)> = w
            .plan
            .tenants
            .iter()
            .map(|t| (w.route_mac(t.index), t.ip, cfg.vni(t.index)))
            .collect();
        start_overlay_generator(
            &mut e,
            flows,
            cfg,
            40_000.0,
            256,
            Time::from_nanos(3_000_000),
        );
        e.run_until(&mut w, Time::from_nanos(20_000_000));
        assert_eq!(w.sink.received, w.sink.sent, "drops: {:?}", w.drops);
        assert!(
            w.sink.per_flow.iter().all(|&c| c > 0),
            "{:?}",
            w.sink.per_flow
        );
    }

    #[test]
    fn wrong_vni_is_dropped_not_crossdelivered() {
        // Traffic claiming tenant 1's IP under tenant 0's VNI must not
        // reach tenant 1: the (tun_id, dst ip) match fails closed.
        let (mut w, mut e, cfg) = overlay_world(SecurityLevel::Level1);
        let victim_ip = w.plan.tenants[1].ip;
        let dmac = w.route_mac(0);
        let flows = vec![(dmac, victim_ip, cfg.vni(0))]; // mismatched VNI
        start_overlay_generator(
            &mut e,
            flows,
            cfg,
            40_000.0,
            128,
            Time::from_nanos(1_000_000),
        );
        e.run_until(&mut w, Time::from_nanos(10_000_000));
        assert_eq!(w.sink.received, 0, "cross-VNI traffic leaked");
    }

    #[test]
    fn baseline_overlay_is_rejected() {
        let spec =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v);
        let mut d = Controller::build(spec, 2).unwrap();
        assert!(install_overlay_rules(&mut d, OverlayConfig::default()).is_err());
    }

    #[test]
    fn inner_dst_extraction() {
        let inner = Frame::udp_data(
            MacAddr::local(1),
            MacAddr::local(2),
            Ipv4Addr::new(10, 0, 1, 1),
            Ipv4Addr::new(10, 0, 2, 2),
            1,
            2,
            10,
        );
        let plain_dst = inner.dst_ip();
        let outer = Frame::new(
            MacAddr::local(3),
            MacAddr::local(4),
            Payload::Ipv4(Ipv4Packet {
                src: Ipv4Addr::new(172, 16, 0, 1),
                dst: Ipv4Addr::new(172, 16, 0, 2),
                ttl: 64,
                tos: 0,
                transport: Transport::Udp(UdpDatagram {
                    sport: 1,
                    dport: VXLAN_UDP_PORT,
                    payload: UdpPayload::Vxlan {
                        vni: Vni::new(7),
                        inner: Box::new(inner),
                    },
                }),
            }),
        );
        assert_eq!(inner_dst_ip(&outer), plain_dst);
        assert_eq!(
            inner_dst_ip(&Frame::new(
                MacAddr::local(1),
                MacAddr::local(2),
                Payload::Raw {
                    ethertype: 0x88b5,
                    len: 46
                },
            )),
            None
        );
    }
}
