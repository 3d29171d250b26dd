//! Security validation: attack scenarios against each security level.
//!
//! The paper's threat model (Sec. 2.2): a tenant VM is attacker-controlled
//! and "can send arbitrary packets, make arbitrary computations"; the
//! defender wants tenant isolation to survive *even when the vswitch is
//! compromised*. This module executes concrete attack attempts against a
//! configured deployment and reports which mechanism (if any) stopped
//! them, reproducing the qualitative security matrix of Sec. 2.3's levels.

use crate::controller::{Controller, DeployError, PortAttach};
use crate::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_net::{Frame, MacAddr};
use mts_nic::{NicPort, PfId};
use mts_vswitch::{Action, DatapathKind, FlowMatch, FlowRule};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::net::Ipv4Addr;

/// An attack from the paper's threat model.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Attack {
    /// The tenant forges its source MAC (classic L2 spoofing).
    MacSpoofing,
    /// The tenant addresses frames directly to the host.
    DirectHostAccess,
    /// The tenant addresses frames directly to another tenant's NIC
    /// function, bypassing the vswitch.
    CrossTenantInjection,
    /// An operator misconfigures one flow rule (the paper: "a small error
    /// in one rule potentially having security consequences"); does
    /// intra-tenant traffic leak to other tenants?
    FlowRuleMisconfiguration,
    /// The vswitch itself is fully compromised: what is its blast radius?
    CompromisedVswitch,
    /// A malicious packet exploits a datapath parsing bug (in the style of
    /// the paper's ref. 69, Thimmaraju et al.):
    /// which privilege domain does the attacker land in?
    DatapathExploit,
}

impl Attack {
    /// All attacks, in report order.
    pub const ALL: [Attack; 6] = [
        Attack::MacSpoofing,
        Attack::DirectHostAccess,
        Attack::CrossTenantInjection,
        Attack::FlowRuleMisconfiguration,
        Attack::CompromisedVswitch,
        Attack::DatapathExploit,
    ];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Attack::MacSpoofing => "MAC spoofing",
            Attack::DirectHostAccess => "direct host access",
            Attack::CrossTenantInjection => "cross-tenant injection",
            Attack::FlowRuleMisconfiguration => "flow-rule misconfig leak",
            Attack::CompromisedVswitch => "compromised vswitch",
            Attack::DatapathExploit => "datapath exploit blast radius",
        }
    }
}

/// The outcome of one attack attempt.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackOutcome {
    /// Which attack.
    pub attack: Attack,
    /// Whether the deployment contained it.
    pub blocked: bool,
    /// The mechanism that decided the outcome.
    pub mechanism: String,
}

/// The isolation matrix of one configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct IsolationReport {
    /// Configuration label.
    pub config: String,
    /// Outcomes in [`Attack::ALL`] order.
    pub outcomes: Vec<AttackOutcome>,
}

impl IsolationReport {
    /// How many of the attacks were contained.
    pub fn blocked_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.blocked).count()
    }

    /// Outcome of a specific attack.
    pub fn outcome(&self, attack: Attack) -> Option<&AttackOutcome> {
        self.outcomes.iter().find(|o| o.attack == attack)
    }
}

impl fmt::Display for IsolationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.config)?;
        for o in &self.outcomes {
            writeln!(
                f,
                "  {:<28} {}  ({})",
                o.attack.label(),
                if o.blocked { "BLOCKED" } else { "exposed" },
                o.mechanism
            )?;
        }
        Ok(())
    }
}

/// Evaluates the full attack suite against a configuration.
pub fn evaluate(spec: DeploymentSpec) -> Result<IsolationReport, DeployError> {
    let outcomes = vec![
        mac_spoofing(spec)?,
        direct_host_access(spec)?,
        cross_tenant_injection(spec)?,
        flow_rule_misconfiguration(spec)?,
        compromised_vswitch(spec)?,
        datapath_exploit(spec),
    ];
    Ok(IsolationReport {
        config: spec.label(),
        outcomes,
    })
}

/// A frame from attacker MAC `src` to `dst` carrying `dst_ip`.
fn attack_frame(src: MacAddr, dst: MacAddr, dst_ip: Ipv4Addr) -> Frame {
    Frame::udp_data(
        src,
        dst,
        Ipv4Addr::new(10, 66, 6, 6),
        dst_ip,
        6666,
        6666,
        64,
    )
}

fn mac_spoofing(spec: DeploymentSpec) -> Result<AttackOutcome, DeployError> {
    let mut d = Controller::deploy(spec)?;
    if spec.level.compartmentalized() {
        // Tenant 0 sends from a forged source MAC on its VF.
        let t = &d.plan.tenants[0];
        let (vf, _real_mac) = t.vf[0];
        let comp = &d.plan.compartments[spec.compartment_of_tenant(0) as usize];
        let gw_mac = comp.gw_for(0, 0).map(|(_, m)| m).unwrap_or(MacAddr::ZERO);
        let forged = MacAddr::local(0x0666_6666);
        let out = d.nic.ingress(
            vf.pf,
            NicPort::Vf(vf.vf),
            attack_frame(forged, gw_mac, t.ip),
        )?;
        let spoof_drops = d.nic.pf(vf.pf)?.counters().dropped_spoof;
        Ok(AttackOutcome {
            attack: Attack::MacSpoofing,
            blocked: out.is_empty() && spoof_drops > 0,
            mechanism: "NIC anti-spoofing on the tenant VF".into(),
        })
    } else {
        // Baseline: the tenant's vhost frames reach the shared vswitch
        // unchecked; the IP-matching flow rules forward them regardless of
        // the forged source MAC.
        let t_ip = d.plan.tenants[0].ip;
        let inst = &mut d.vswitches[0];
        let port = inst.vhost[&(0, 1)];
        let forged = MacAddr::local(0x0666_6666);
        let out = inst
            .sw
            .process(port, attack_frame(forged, MacAddr::local(0x0999), t_ip));
        Ok(AttackOutcome {
            attack: Attack::MacSpoofing,
            blocked: out.is_empty(),
            mechanism: "none — flow-table isolation matches on IP only".into(),
        })
    }
}

fn direct_host_access(spec: DeploymentSpec) -> Result<AttackOutcome, DeployError> {
    if !spec.level.compartmentalized() {
        // Baseline: every tenant packet is, by construction, processed by
        // vswitch code executing on the host with elevated privilege.
        return Ok(AttackOutcome {
            attack: Attack::DirectHostAccess,
            blocked: false,
            mechanism: "vswitch co-located with the host processes all tenant packets".into(),
        });
    }
    let mut d = Controller::deploy(spec)?;
    let t = &d.plan.tenants[0];
    let (vf, mac) = t.vf[0];
    let pf_mac = Controller::baseline_router_mac(0);
    let out = d.nic.ingress(
        vf.pf,
        NicPort::Vf(vf.vf),
        attack_frame(mac, pf_mac, Ipv4Addr::new(10, 0, 0, 1)),
    )?;
    let reached_host = out.iter().any(|dl| dl.port == NicPort::Pf);
    Ok(AttackOutcome {
        attack: Attack::DirectHostAccess,
        blocked: !reached_host,
        mechanism: "NIC wildcard filter + VLAN membership exclude the PF".into(),
    })
}

fn cross_tenant_injection(spec: DeploymentSpec) -> Result<AttackOutcome, DeployError> {
    if !spec.level.compartmentalized() {
        // The frame reaches the shared vswitch; only flow-rule hygiene
        // protects the victim. With correct rules it is dropped, but the
        // shared code path itself is the exposure the paper highlights —
        // scored under FlowRuleMisconfiguration. Here: correct rules drop.
        let mut d = Controller::deploy(spec)?;
        let victim_ip = d.plan.tenants[1].ip;
        let inst = &mut d.vswitches[0];
        let port = inst.vhost[&(0, 0)];
        let out = inst.sw.process(
            port,
            attack_frame(MacAddr::local(1), MacAddr::local(2), victim_ip),
        );
        let leaked = out
            .iter()
            .any(|(p, _)| matches!(inst.attach.get(p), Some(PortAttach::Vhost(1, _))));
        return Ok(AttackOutcome {
            attack: Attack::CrossTenantInjection,
            blocked: !leaked,
            mechanism: "flow-table rules only (single shared datapath)".into(),
        });
    }
    let mut d = Controller::deploy(spec)?;
    let attacker = &d.plan.tenants[0];
    let victim = &d.plan.tenants[1];
    let (a_vf, a_mac) = attacker.vf[0];
    let (v_vf, v_mac) = victim.vf[0];
    let out = d.nic.ingress(
        a_vf.pf,
        NicPort::Vf(a_vf.vf),
        attack_frame(a_mac, v_mac, victim.ip),
    )?;
    let leaked = out.iter().any(|dl| dl.port == NicPort::Vf(v_vf.vf));
    Ok(AttackOutcome {
        attack: Attack::CrossTenantInjection,
        blocked: !leaked,
        mechanism: "per-tenant VLAN isolation in the NIC switch".into(),
    })
}

fn flow_rule_misconfiguration(spec: DeploymentSpec) -> Result<AttackOutcome, DeployError> {
    // The operator fat-fingers a low-priority NORMAL (learning/flooding)
    // rule into the datapath serving tenant 0. Attacker traffic that
    // matches no specific rule now floods. Does it reach a tenant of a
    // *different* security domain?
    let mut d = Controller::deploy(spec)?;
    let attacker_t = 0u8;
    let victim_t = 1u8; // different compartment whenever compartments > 1
    let comp = spec.compartment_of_tenant(attacker_t) as usize;
    let victim = d.plan.tenants[victim_t as usize].clone();
    let unmatched_ip = Ipv4Addr::new(10, 99, 99, 99);

    d.desired.add_rule(
        comp,
        0,
        FlowRule::new(1, FlowMatch::any(), vec![Action::Normal]),
    );
    d.converge(&mut |_| {})?;
    let inst = &mut d.vswitches[comp];

    if spec.level.compartmentalized() {
        // Attacker frame enters via its gateway port and floods.
        let port = inst.gw[&(attacker_t, 0)];
        let (_, a_mac) = d.plan.tenants[attacker_t as usize].vf[0];
        let out = inst.sw.process(
            port,
            attack_frame(a_mac, MacAddr::local(0x0abc), unmatched_ip),
        );
        // Flooded copies leave on this vswitch's ports; can any of them
        // physically reach the victim tenant? Only if this vswitch holds a
        // gateway VF for the victim (same compartment).
        let mut leaked = false;
        for (p, f) in out {
            if let Some(PortAttach::Vf(pf, vf)) = inst.attach.get(&p) {
                let deliveries = d.nic.ingress(*pf, NicPort::Vf(*vf), f)?;
                for dl in deliveries {
                    if dl.port == NicPort::Vf(victim.vf[0].0.vf) {
                        leaked = true;
                    }
                }
            }
        }
        let cross_compartment = spec.compartment_of_tenant(victim_t) as usize != comp;
        Ok(AttackOutcome {
            attack: Attack::FlowRuleMisconfiguration,
            blocked: !leaked,
            mechanism: if cross_compartment {
                "victim served by a different vswitch VM; NIC VLANs contain the flood".into()
            } else {
                "same vswitch VM serves both tenants; flood reaches the victim's VLAN".into()
            },
        })
    } else {
        let port = inst.vhost[&(attacker_t, 0)];
        let out = inst.sw.process(
            port,
            attack_frame(MacAddr::local(1), MacAddr::local(0x0abc), unmatched_ip),
        );
        let leaked = out.iter().any(
            |(p, _)| matches!(inst.attach.get(p), Some(PortAttach::Vhost(v, _)) if *v == victim_t),
        );
        Ok(AttackOutcome {
            attack: Attack::FlowRuleMisconfiguration,
            blocked: !leaked,
            mechanism: "single shared datapath floods across all tenants".into(),
        })
    }
}

fn compromised_vswitch(spec: DeploymentSpec) -> Result<AttackOutcome, DeployError> {
    if !spec.level.compartmentalized() {
        return Ok(AttackOutcome {
            attack: Attack::CompromisedVswitch,
            blocked: false,
            mechanism: "vswitch runs on the host: compromise = host + all tenants".into(),
        });
    }
    let mut d = Controller::deploy(spec)?;
    // Compartment 0 is fully attacker-controlled: it may emit any frame on
    // any of its own VFs. Compute the set of tenants it can reach and
    // whether it can reach the host.
    let comp = d.plan.compartments[0].clone();
    let tenants = d.plan.tenants.clone();
    let mut vfs: Vec<(PfId, mts_nic::VfId, MacAddr)> = Vec::new();
    for (r, m) in &comp.in_out {
        vfs.push((r.pf, r.vf, *m));
    }
    for (_, (r, m)) in &comp.gw {
        vfs.push((r.pf, r.vf, *m));
    }
    let mut reached: BTreeSet<u8> = BTreeSet::new();
    let mut reached_host = false;
    for t in &tenants {
        for (vf_ref, t_mac) in &t.vf {
            for (pf, vf, src_mac) in &vfs {
                if *pf != vf_ref.pf {
                    continue;
                }
                let out =
                    d.nic
                        .ingress(*pf, NicPort::Vf(*vf), attack_frame(*src_mac, *t_mac, t.ip))?;
                if out.iter().any(|dl| dl.port == NicPort::Vf(vf_ref.vf)) {
                    reached.insert(t.index);
                }
            }
        }
    }
    let pf_mac = Controller::baseline_router_mac(0);
    for (pf, vf, src_mac) in &vfs {
        let out = d.nic.ingress(
            *pf,
            NicPort::Vf(*vf),
            attack_frame(*src_mac, pf_mac, Ipv4Addr::new(10, 0, 0, 1)),
        )?;
        if out.iter().any(|dl| dl.port == NicPort::Pf) {
            reached_host = true;
        }
    }
    let own: BTreeSet<u8> = spec.tenants_of_compartment(0).into_iter().collect();
    let contained = reached.is_subset(&own) && !reached_host;
    Ok(AttackOutcome {
        attack: Attack::CompromisedVswitch,
        blocked: contained && spec.compartments() > 1,
        mechanism: format!(
            "blast radius: tenants {:?} of {} total; host reachable: {}",
            reached,
            tenants.len(),
            reached_host
        ),
    })
}

fn datapath_exploit(spec: DeploymentSpec) -> AttackOutcome {
    // Qualitative scoring of the privilege domain a datapath parsing bug
    // lands the attacker in (Sec. 2.3 security levels).
    let (blocked, mechanism) = match (spec.level, spec.datapath) {
        (SecurityLevel::Baseline, DatapathKind::Kernel) => (
            false,
            "exploit runs in the host kernel (full privilege)".to_string(),
        ),
        (SecurityLevel::Baseline, DatapathKind::Dpdk) => (
            false,
            "user-space process, but on the host: one boundary to root".to_string(),
        ),
        (_, DatapathKind::Kernel) => (
            true,
            "exploit lands in the vswitch VM's kernel; VM boundary protects the host".to_string(),
        ),
        (_, DatapathKind::Dpdk) => (
            true,
            "user-space in a VM: two independent boundaries (Google's extra layer)".to_string(),
        ),
    };
    AttackOutcome {
        attack: Attack::DatapathExploit,
        blocked,
        mechanism,
    }
}

/// Convenience: evaluates the canonical level ladder for the docs/examples.
pub fn evaluate_ladder() -> Result<Vec<IsolationReport>, DeployError> {
    use mts_host::ResourceMode;
    let mk = |level, dp| DeploymentSpec::mts(level, dp, ResourceMode::Shared, Scenario::P2v);
    Ok(vec![
        evaluate(DeploymentSpec::baseline(
            DatapathKind::Kernel,
            ResourceMode::Shared,
            1,
            Scenario::P2v,
        ))?,
        evaluate(mk(SecurityLevel::Level1, DatapathKind::Kernel))?,
        evaluate(mk(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
        ))?,
        evaluate(mk(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Kernel,
        ))?,
        evaluate(mk(
            SecurityLevel::Level2 { compartments: 4 },
            DatapathKind::Dpdk,
        ))?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_host::ResourceMode;

    fn spec(level: SecurityLevel) -> DeploymentSpec {
        DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            Scenario::P2v,
        )
    }

    fn baseline() -> DeploymentSpec {
        DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, Scenario::P2v)
    }

    #[test]
    fn mts_blocks_mac_spoofing_baseline_does_not() {
        let mts = evaluate(spec(SecurityLevel::Level1)).unwrap();
        assert!(mts.outcome(Attack::MacSpoofing).unwrap().blocked);
        let base = evaluate(baseline()).unwrap();
        assert!(!base.outcome(Attack::MacSpoofing).unwrap().blocked);
    }

    #[test]
    fn host_is_protected_from_level1_up() {
        for level in [
            SecurityLevel::Level1,
            SecurityLevel::Level2 { compartments: 2 },
        ] {
            let r = evaluate(spec(level)).unwrap();
            assert!(
                r.outcome(Attack::DirectHostAccess).unwrap().blocked,
                "{level:?}"
            );
        }
        let base = evaluate(baseline()).unwrap();
        assert!(!base.outcome(Attack::DirectHostAccess).unwrap().blocked);
    }

    #[test]
    fn cross_tenant_injection_blocked_by_vlans() {
        let r = evaluate(spec(SecurityLevel::Level1)).unwrap();
        assert!(r.outcome(Attack::CrossTenantInjection).unwrap().blocked);
    }

    #[test]
    fn misconfig_leak_contained_only_by_level2() {
        // Baseline: the flood crosses tenants.
        let base = evaluate(baseline()).unwrap();
        assert!(
            !base
                .outcome(Attack::FlowRuleMisconfiguration)
                .unwrap()
                .blocked
        );
        // Level-1: tenants share the single vswitch VM; tenant 1's gateway
        // VFs hang off the same switch, so the flood still reaches it.
        let l1 = evaluate(spec(SecurityLevel::Level1)).unwrap();
        assert!(
            !l1.outcome(Attack::FlowRuleMisconfiguration)
                .unwrap()
                .blocked
        );
        // Level-2: tenants 0 and 1 live behind different vswitch VMs.
        let l2 = evaluate(spec(SecurityLevel::Level2 { compartments: 2 })).unwrap();
        assert!(
            l2.outcome(Attack::FlowRuleMisconfiguration)
                .unwrap()
                .blocked
        );
    }

    #[test]
    fn compromised_vswitch_blast_radius_shrinks_with_level2() {
        let l1 = evaluate(spec(SecurityLevel::Level1)).unwrap();
        let o1 = l1.outcome(Attack::CompromisedVswitch).unwrap();
        assert!(!o1.blocked, "L1 vswitch VM reaches all tenants");
        assert!(o1.mechanism.contains("host reachable: false"));
        let l2 = evaluate(spec(SecurityLevel::Level2 { compartments: 2 })).unwrap();
        let o2 = l2.outcome(Attack::CompromisedVswitch).unwrap();
        assert!(o2.blocked, "L2 contains the compromise: {}", o2.mechanism);
    }

    #[test]
    fn level3_adds_the_extra_boundary() {
        let kernel = evaluate(spec(SecurityLevel::Level1)).unwrap();
        let dpdk = evaluate(DeploymentSpec::mts(
            SecurityLevel::Level1,
            DatapathKind::Dpdk,
            ResourceMode::Isolated,
            Scenario::P2v,
        ))
        .unwrap();
        assert!(kernel.outcome(Attack::DatapathExploit).unwrap().blocked);
        assert!(dpdk.outcome(Attack::DatapathExploit).unwrap().blocked);
        assert!(dpdk
            .outcome(Attack::DatapathExploit)
            .unwrap()
            .mechanism
            .contains("two independent boundaries"));
        let base = evaluate(baseline()).unwrap();
        assert!(!base.outcome(Attack::DatapathExploit).unwrap().blocked);
    }

    // The attacks above *execute* against the simulated datapath. The
    // `mts-isocheck` header-space analysis proves the same properties
    // statically, before a single packet moves; the bridge between the two
    // views lives in `tests/static_attacks.rs` (an integration test, because
    // the dev-dependency cycle mts-core <-> mts-isocheck means the inline
    // test harness and mts-isocheck link *different* builds of this crate,
    // so their types would not unify here).

    #[test]
    fn ladder_is_monotone_in_blocked_attacks() {
        let ladder = evaluate_ladder().unwrap();
        let counts: Vec<usize> = ladder.iter().map(|r| r.blocked_count()).collect();
        for w in counts.windows(2) {
            assert!(w[1] >= w[0], "ladder regressed: {counts:?}");
        }
        assert!(counts[0] < counts[counts.len() - 1]);
        // Rendering works.
        assert!(format!("{}", ladder[0]).contains("MAC spoofing"));
    }
}
