//! Live-world fuzz modes: mutant frames against a real deployment.
//!
//! Two modes, both deterministic:
//!
//! * [`nic_zero_leak`] — field-level mutant frames injected at the NIC's
//!   embedded switch, from a tenant VF (a compromised VM driving its tx
//!   ring) and from the wire, at each security level. The invariant is
//!   the paper's core isolation claim: no injected frame may be delivered
//!   to another tenant's VF, a VF's frame never reaches the host PF and is
//!   delivered nowhere unless it carries the VF's own source MAC, and wire
//!   frames reach a tenant VF only on that tenant's VLAN.
//! * [`world_injection`] — raw fuzzed bytes pushed through the byte-level
//!   ingress boundaries ([`mts_core::runtime::wire_inject_bytes`] /
//!   [`vf_inject_bytes`]) of a running world carrying a DNS background
//!   workload and a UDP probe lane. Invariants: every unparseable
//!   injection is exactly one typed malformed drop, offered/delivered/
//!   drop accounting stays conserved, the background workload makes
//!   progress, and the world's isolation report is unchanged.

use crate::wire::generate_case;
use mts_apps::{DnsClient, DnsServer};
use mts_core::controller::Controller;
use mts_core::runtime::{
    start_udp_generator, vf_inject_bytes, wire_inject_bytes, RuntimeCfg, Sim, WireEnd, World,
};
use mts_core::tcphost::{add_lg_client, add_tenant_server, host_start};
use mts_core::{DeploymentSpec, ResourceMode, Scenario, SecurityLevel};
use mts_net::{Frame, MacAddr};
use mts_nic::NicPort;
use mts_sim::{DetRng, Dur, Time};
use mts_vswitch::DatapathKind;
use std::fmt;
use std::net::Ipv4Addr;

/// Summary of a live-mode run; `violations` is empty on success.
#[derive(Debug, Default)]
pub struct LiveSummary {
    /// Cases injected (frames or byte blobs).
    pub cases: u64,
    /// Injections that parsed and entered the datapath.
    pub accepted: u64,
    /// Injections dropped as malformed at the ingress boundary.
    pub malformed: u64,
    /// Background DNS transactions completed (world mode only).
    pub dns_done: u64,
    /// Invariant violations, human-readable.
    pub violations: Vec<String>,
}

impl fmt::Display for LiveSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cases ({} accepted, {} malformed, {} dns done): {}",
            self.cases,
            self.accepted,
            self.malformed,
            self.dns_done,
            if self.violations.is_empty() {
                "clean".to_string()
            } else {
                format!("{} VIOLATIONS", self.violations.len())
            }
        )
    }
}

fn zero_leak_levels() -> Vec<SecurityLevel> {
    vec![
        SecurityLevel::Level1,
        SecurityLevel::Level2 { compartments: 2 },
        SecurityLevel::Level2 { compartments: 4 },
    ]
}

/// Builds one field-level mutant frame aimed at breaking isolation:
/// destination, source, and VLAN tag each drawn from the interesting
/// corners (victim addresses, gateway addresses, broadcast) or from the
/// whole domain (any MAC, IP, port and payload size).
fn mutant_frame(
    rng: &mut DetRng,
    attacker_mac: MacAddr,
    victim_mac: MacAddr,
    gateway_mac: MacAddr,
    vlans: &[u16],
) -> Frame {
    let any_mac = |rng: &mut DetRng| {
        let mut octets = [0u8; 6];
        rng.fill(&mut octets);
        MacAddr::new(octets)
    };
    let any_ip = |rng: &mut DetRng| Ipv4Addr::from(rng.below(1 << 32) as u32);
    let dst = match rng.below(4) {
        0 => victim_mac,
        1 => gateway_mac,
        2 => MacAddr::BROADCAST,
        _ => any_mac(rng),
    };
    let src = match rng.below(3) {
        0 => attacker_mac,
        1 => victim_mac, // spoof
        _ => any_mac(rng),
    };
    let mut f = if rng.chance(0.8) {
        Frame::udp_data(
            src,
            dst,
            any_ip(rng),
            any_ip(rng),
            rng.below(65536) as u16,
            rng.below(65536) as u16,
            rng.below(1514) as u32,
        )
    } else {
        Frame::arp(
            src,
            mts_net::ArpPacket::request(
                src,
                Ipv4Addr::new(10, 0, 0, rng.below(255) as u8),
                Ipv4Addr::new(10, 0, 0, rng.below(255) as u8),
            ),
        )
    };
    match rng.below(4) {
        0 => {} // untagged
        1 | 2 => {
            f = f.with_vlan(vlans[rng.index(vlans.len())]);
        }
        _ => {
            f = f.with_vlan(rng.below(4096) as u16);
        }
    }
    f
}

/// Injects mutant frames from a tenant VF and from the wire at each
/// hardened security level, asserting zero cross-tenant delivery, no
/// delivery of a VF's frame to the PF, and none at all of one whose source
/// MAC is not its VF's.
pub fn nic_zero_leak(seed: u64, cases_per_level: u64) -> LiveSummary {
    let mut out = LiveSummary::default();
    for level in zero_leak_levels() {
        let spec = DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        );
        let mut d = match Controller::deploy(spec) {
            Ok(d) => d,
            Err(e) => {
                out.violations.push(format!("deploy {}: {e}", spec.label()));
                continue;
            }
        };
        // Tenant VF refs, MACs, and VLANs.
        let refs: Vec<_> = d.plan.tenants.iter().map(|t| t.vf[0].0).collect();
        let vlans: Vec<u16> = d.plan.tenants.iter().map(|t| t.vlan).collect();
        let mut macs = Vec::new();
        for r in &refs {
            match d.nic.pf(r.pf).ok().and_then(|p| p.vf(r.vf)).map(|c| c.mac) {
                Some(m) => macs.push(m),
                None => {
                    out.violations.push(format!(
                        "{}: tenant VF {}/{} missing",
                        spec.label(),
                        r.pf,
                        r.vf
                    ));
                }
            }
        }
        if macs.len() != refs.len() {
            continue;
        }
        // Gateway MACs: the non-tenant static entries on tenant VLANs.
        let statics = match d.nic.pf(refs[0].pf) {
            Ok(p) => p.static_macs(),
            Err(e) => {
                out.violations.push(format!("{}: {e}", spec.label()));
                continue;
            }
        };
        let gateways: Vec<MacAddr> = statics
            .iter()
            .filter(|(_, m, _)| !macs.contains(m))
            .map(|(_, m, _)| *m)
            .collect();

        let rng = DetRng::new(seed).derive("zero-leak").derive(&spec.label());
        for i in 0..cases_per_level {
            let mut case_rng = rng.derive_indexed("case", i);
            let a = case_rng.index(refs.len());
            let v = (a + 1 + case_rng.index(refs.len() - 1)) % refs.len();
            let gw = gateways
                .get(case_rng.index(gateways.len().max(1)))
                .copied()
                .unwrap_or(MacAddr::BROADCAST);
            let frame = mutant_frame(&mut case_rng, macs[a], macs[v], gw, &vlans);
            out.cases += 1;

            if case_rng.chance(0.5) {
                // Tenant VF ingress: a compromised VM's tx ring.
                let r = refs[a];
                let spoofed = frame.src != macs[a];
                match d.nic.ingress(r.pf, NicPort::Vf(r.vf), frame) {
                    Ok(deliveries) => {
                        out.accepted += 1;
                        for del in deliveries {
                            if spoofed {
                                out.violations.push(format!(
                                    "{}: spoofed-source frame from tenant {a}'s VF delivered to {:?}",
                                    spec.label(),
                                    del.port
                                ));
                            } else if del.port == NicPort::Pf {
                                out.violations.push(format!(
                                    "{}: VF-injected frame from tenant {a} delivered to the PF",
                                    spec.label()
                                ));
                            }
                            for (t, vr) in refs.iter().enumerate() {
                                if t != a && vr.pf == r.pf && del.port == NicPort::Vf(vr.vf) {
                                    out.violations.push(format!(
                                        "{}: VF-injected frame from tenant {a} delivered to tenant {t}'s VF",
                                        spec.label()
                                    ));
                                }
                            }
                        }
                    }
                    Err(e) => {
                        out.violations.push(format!("{}: {e}", spec.label()));
                    }
                }
            } else {
                // Wire ingress: untrusted fabric traffic.
                let tag = frame.vlan.map(|t| t.vid);
                match d.nic.ingress(refs[0].pf, NicPort::Wire, frame) {
                    Ok(deliveries) => {
                        out.accepted += 1;
                        for del in deliveries {
                            for (t, vr) in refs.iter().enumerate() {
                                if vr.pf == refs[0].pf
                                    && del.port == NicPort::Vf(vr.vf)
                                    && tag != Some(vlans[t])
                                {
                                    out.violations.push(format!(
                                        "{}: wire frame tagged {tag:?} delivered to tenant {t} (vlan {})",
                                        spec.label(),
                                        vlans[t]
                                    ));
                                }
                            }
                        }
                    }
                    Err(e) => {
                        out.violations.push(format!("{}: {e}", spec.label()));
                    }
                }
            }
        }
    }
    out
}

/// Fuzzed byte injection into a running world with live background
/// traffic: a DNS workload on tenant 0 and a UDP probe lane on the rest.
pub fn world_injection(seed: u64, batches: u64, bytes_per_batch: u64) -> LiveSummary {
    let mut out = LiveSummary::default();
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let d = match Controller::deploy_workload(spec) {
        Ok(d) => d,
        Err(e) => {
            out.violations.push(format!("deploy: {e}"));
            return out;
        }
    };
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = 1_000_000.0;
    cfg.rx_ring = 1024;
    let mut w = World::new(d, cfg, seed);
    let mut e = Sim::new();

    let baseline = match mts_isocheck::verify_world(&w) {
        Ok(r) => format!("{r}"),
        Err(err) => {
            out.violations.push(format!("verify_world baseline: {err}"));
            return out;
        }
    };

    // Background workload 1: DNS on tenant 0, driven by an external
    // resolver client.
    let server_ip = w.plan.tenants[0].ip;
    let _server = add_tenant_server(
        &mut w,
        0,
        mts_apps::dns::DNS_PORT,
        Box::new(DnsServer::default()),
        Dur::nanos(1_500),
    );
    let dmac = w.route_mac(0);
    let client = add_lg_client(
        &mut w,
        "fuzz-dns-client",
        Ipv4Addr::new(10, 255, 0, 10),
        Box::new(DnsClient::with_connections(server_ip, 8)),
        vec![(server_ip, dmac)],
    );
    w.wire_ends = vec![WireEnd::Host(client)];
    host_start(&mut w, &mut e, client);

    // Background workload 2: UDP probe lane to the remaining tenants.
    let flows = w.tenant_flows().split_off(1);
    w.sink.window = (Time::ZERO, Time::MAX);
    let end = Time::ZERO + Dur::millis(20);
    start_udp_generator(&mut e, flows, 20_000.0, 64, end - Dur::millis(5));

    // Fuzz injection: alternating wire/VF byte batches while traffic runs.
    let vf_ref = w.plan.tenants[1].vf[0].0;
    let pf = vf_ref.pf;
    let rng = DetRng::new(seed).derive("world-injection");
    let mut injected_malformed = 0u64;
    for b in 0..batches {
        let at = Time::ZERO + Dur::millis(2) + Dur::micros(1_500 * b);
        if at >= end {
            break;
        }
        e.run_until(&mut w, at);
        for i in 0..bytes_per_batch {
            let mut case_rng = rng.derive_indexed("inject", b * bytes_per_batch + i);
            let bytes = generate_case(&mut case_rng);
            out.cases += 1;
            let res = if case_rng.chance(0.5) {
                wire_inject_bytes(&mut w, &mut e, pf, &bytes)
            } else {
                vf_inject_bytes(&mut w, &mut e, pf, vf_ref.vf, &bytes)
            };
            match res {
                Ok(_) => out.accepted += 1,
                Err(_) => injected_malformed += 1,
            }
        }
    }
    e.run_until(&mut w, end);
    e.clear();

    // Invariant: exactly one typed malformed drop per failed parse.
    let malformed_drops = w
        .drops
        .get(&mts_telemetry::DropCause::MalformedFrame)
        .copied()
        .unwrap_or(0)
        + w.drops
            .get(&mts_telemetry::DropCause::MalformedEncap)
            .copied()
            .unwrap_or(0);
    out.malformed = malformed_drops;
    if malformed_drops != injected_malformed {
        out.violations.push(format!(
            "malformed accounting: {injected_malformed} failed parses but {malformed_drops} typed drops"
        ));
    }

    // Invariant: offered/delivered/drop conservation on the probe lane.
    if w.sink.received > w.sink.sent {
        out.violations.push(format!(
            "sink received {} > sent {}",
            w.sink.received, w.sink.sent
        ));
    }
    if w.sink.sent > w.sink.received + w.total_drops() {
        out.violations.push(format!(
            "conservation: sent {} > received {} + drops {}",
            w.sink.sent,
            w.sink.received,
            w.total_drops()
        ));
    }

    // Invariant: the background workload made progress under fuzz load.
    out.dns_done = w.hosts[client].counter("dns_queries_done");
    if out.dns_done == 0 {
        out.violations
            .push("background DNS workload made no progress".to_string());
    }

    // Invariant: injected bytes cannot move the isolation verdict.
    match mts_isocheck::verify_world(&w) {
        Ok(r) => {
            if format!("{r}") != baseline {
                out.violations
                    .push("isolation report changed under byte injection".to_string());
            }
        }
        Err(err) => out.violations.push(format!("verify_world after: {err}")),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_leak_small_budget_is_clean() {
        let s = nic_zero_leak(7, 100);
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        assert_eq!(s.cases, 300);
        assert!(s.accepted > 0);
    }

    #[test]
    fn world_injection_small_budget_is_clean() {
        let s = world_injection(7, 4, 10);
        assert!(s.violations.is_empty(), "{:?}", s.violations);
        assert_eq!(s.cases, 40);
        assert!(s.malformed > 0, "fuzz must exercise the malformed path");
        assert!(s.dns_done > 0);
    }
}
