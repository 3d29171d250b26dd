//! Seeded misconfigurations for validating the analysis.
//!
//! Each variant injects one realistic operator mistake into an otherwise
//! correct deployment; [`crate::verify`] must flag it with its
//! characteristic verdict (asserted by the attack-surface tests in
//! `mts-core` and by `repro verify`).

use crate::report::{VerifyReport, ViolationKind, WarningKind};
use mts_core::controller::Deployment;
use mts_core::delta::ConfigDelta;
use mts_nic::{FilterAction, FilterRule, NicError, NicPort, PortClass, VfConfig};

/// One seedable misconfiguration.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Misconfig {
    /// A tenant VF is assigned another tenant's VST VLAN (VLAN reuse
    /// across tenants). Characteristic verdict: cross-tenant reach.
    VlanReuse,
    /// MAC anti-spoofing is switched off on a tenant VF. Characteristic
    /// verdict: spoofable source.
    SpoofCheckOff,
    /// An overly-broad high-priority VEB `Allow` rule is installed for a
    /// tenant VF, defeating the gateway+broadcast whitelist.
    /// Characteristic verdict: envelope breach (plus shadowed-filter
    /// warnings).
    BroadVebAllow,
    /// A poisoned static MAC entry redirects a victim tenant's
    /// `(vlan, mac)` pair to another tenant's VF — the embedded switch
    /// forwards purely on the table entry with no egress VLAN-membership
    /// check, so the hijacked traffic is delivered across the tenant
    /// boundary. Found by the delta-stream fuzzer (`mts-fuzz`) mutating
    /// `StaticInstalled` deltas; promoted here as a negative control.
    /// Characteristic verdict: cross-tenant reach.
    StaticHijack,
}

impl Misconfig {
    /// All variants.
    pub const ALL: [Misconfig; 4] = [
        Misconfig::VlanReuse,
        Misconfig::SpoofCheckOff,
        Misconfig::BroadVebAllow,
        Misconfig::StaticHijack,
    ];

    /// Short label.
    pub fn label(self) -> &'static str {
        match self {
            Misconfig::VlanReuse => "vlan-reuse",
            Misconfig::SpoofCheckOff => "spoofchk-off",
            Misconfig::BroadVebAllow => "broad-veb-allow",
            Misconfig::StaticHijack => "static-hijack",
        }
    }

    /// The configuration change that seeds the misconfiguration into a
    /// deployment. Requires at least two tenants.
    pub fn delta(self, d: &Deployment) -> Result<ConfigDelta, NicError> {
        self.planned(d).map(|(delta, _)| delta)
    }

    /// Seeds the misconfiguration into a deployment by applying
    /// [`Misconfig::delta`], returning a description of what was changed.
    pub fn seed(self, d: &mut Deployment) -> Result<String, NicError> {
        let (delta, what) = self.planned(d)?;
        delta.apply(&mut d.nic, |i| d.vswitches.get_mut(i).map(|v| &mut v.sw))?;
        Ok(what)
    }

    /// The seeding delta and its description.
    fn planned(self, d: &Deployment) -> Result<(ConfigDelta, String), NicError> {
        let (t0, t1) = (&d.plan.tenants[0], &d.plan.tenants[1]);
        let r = t0.vf[0].0;
        Ok(match self {
            Misconfig::VlanReuse => {
                let (vlan, t1) = (t0.vlan, t1.vf[0].0);
                let what = format!(
                    "tenant 1 VF {}/{} moved onto tenant 0's VLAN {vlan}",
                    t1.pf, t1.vf
                );
                let edit = |cfg: &mut VfConfig| cfg.vlan = Some(vlan);
                (ConfigDelta::vf_edit(&d.nic, t1, edit)?, what)
            }
            Misconfig::SpoofCheckOff => {
                let what = format!("anti-spoofing disabled on tenant 0 VF {}/{}", r.pf, r.vf);
                let edit = |cfg: &mut VfConfig| cfg.spoof_check = false;
                (ConfigDelta::vf_edit(&d.nic, r, edit)?, what)
            }
            Misconfig::BroadVebAllow => {
                let mut filters = d.nic.pf(r.pf)?.filters().to_vec();
                filters.push(FilterRule {
                    priority: 60,
                    from: PortClass::Vf(r.vf),
                    src_mac: None,
                    dst_mac: None,
                    vlan: None,
                    ethertype: None,
                    action: FilterAction::Allow,
                });
                let what = format!(
                    "wildcard allow (prio 60) installed for tenant 0 VF {}/{}",
                    r.pf, r.vf
                );
                (
                    ConfigDelta::FiltersSet {
                        pf: r.pf.0,
                        filters,
                    },
                    what,
                )
            }
            Misconfig::StaticHijack => {
                let (vmac, attacker) = (t0.vf[0].1, t1.vf[0].0);
                let pf = d.nic.pf(r.pf)?;
                let vlan = pf.vf(r.vf).and_then(|c| c.vlan).unwrap_or(0);
                // The victim's next hop on its VLAN: the static entry that
                // is neither the victim VF itself nor the wire — i.e. the
                // vswitch in-out (gateway) the security filters whitelist.
                // Poisoning the victim's *own* MAC would be stopped by the
                // dst whitelist; poisoning the gateway MAC hijacks every
                // frame the tenant is allowed to send.
                let gw = pf
                    .static_macs()
                    .into_iter()
                    .find(|(v, m, p)| *v == vlan && *m != vmac && matches!(p, NicPort::Vf(_)))
                    .map(|(_, m, _)| m)
                    .unwrap_or(vmac);
                let what = format!(
                    "static MAC ({vlan}, {gw}) — tenant 0's gateway — poisoned to \
                     point at tenant 1 VF {}/{}",
                    r.pf, attacker.vf
                );
                let port = NicPort::Vf(attacker.vf);
                let (pf, mac) = (r.pf.0, gw);
                (
                    ConfigDelta::StaticInstalled {
                        pf,
                        vlan,
                        mac,
                        port,
                    },
                    what,
                )
            }
        })
    }

    /// Whether a report contains this misconfiguration's characteristic
    /// detection, including a concrete witness.
    pub fn detected_in(self, report: &VerifyReport) -> bool {
        match self {
            Misconfig::VlanReuse => report.violations.iter().any(|v| {
                matches!(v.kind, ViolationKind::CrossTenantReach { .. }) && v.witness.is_some()
            }),
            Misconfig::SpoofCheckOff => report.violations.iter().any(|v| {
                matches!(v.kind, ViolationKind::SpoofableSource { .. }) && v.witness.is_some()
            }),
            Misconfig::BroadVebAllow => {
                let breach = report.violations.iter().any(|v| {
                    matches!(v.kind, ViolationKind::EnvelopeBreach { .. }) && v.witness.is_some()
                });
                let shadowed = report
                    .warnings
                    .iter()
                    .any(|w| w.kind == WarningKind::ShadowedNicFilter && w.witness.is_some());
                breach && shadowed
            }
            Misconfig::StaticHijack => report.violations.iter().any(|v| {
                matches!(v.kind, ViolationKind::CrossTenantReach { .. }) && v.witness.is_some()
            }),
        }
    }
}
