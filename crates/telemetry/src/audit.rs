//! The complete-mediation auditor.
//!
//! MTS's security argument (paper §4) is that *every* frame crossing a
//! tenant boundary is mediated by a vswitch — tenants must never talk
//! directly to each other or to the wire, even though they own SR-IOV
//! VFs. The auditor turns that property into a machine-checkable
//! predicate over recorded [`Journey`]s:
//!
//! For every delivered segment (origin endpoint → delivery endpoint)
//! where at least one side is a tenant VM, the segment must contain at
//! least one [`Hop::VswitchForward`] (a vswitch made the forwarding
//! decision), and — for SR-IOV deployments — at least one
//! [`Hop::NicSwitch`] (the embedded switch carried it, i.e. the frame
//! could not have bypassed the NIC). A frame the embedded switch
//! hairpins directly from one tenant VF to another is the canonical
//! violation: it was "forwarded" but never mediated.
//!
//! Dropped frames are not violations — mediation is about what gets
//! *delivered*.
//!
//! The verdict covers what was recorded. Both logs are capped, so the
//! report carries how much fell outside them: a run audited from a
//! partial log is not [`MediationReport::complete`].

use crate::journey::{Hop, Journey, NicEndpoint};
use crate::recorder::Recorder;

/// One mediation failure.
#[derive(Clone, PartialEq, Debug)]
pub struct MediationViolation {
    pub frame: u64,
    pub reason: String,
}

/// Outcome of auditing a journey log.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MediationReport {
    /// Segments that involved a tenant endpoint and were checked.
    pub checked: usize,
    /// Segments skipped because no tenant endpoint was involved.
    pub skipped: usize,
    pub violations: Vec<MediationViolation>,
    /// Hops the journey log did not record ([`JourneyLog::truncated`]):
    /// frames first seen past its cap were not audited at all.
    ///
    /// [`JourneyLog::truncated`]: crate::JourneyLog::truncated
    pub journey_hops_truncated: u64,
    /// Events the trace log did not record ([`TraceLog::truncated`]): the
    /// exported timeline stops short of the run.
    ///
    /// [`TraceLog::truncated`]: crate::TraceLog::truncated
    pub trace_events_truncated: u64,
}

impl MediationReport {
    /// No violation among the journeys that were recorded.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The logs held the whole run: nothing was cut off at either cap.
    pub fn complete(&self) -> bool {
        self.journey_hops_truncated == 0 && self.trace_events_truncated == 0
    }
}

/// Auditor configuration. Use [`MediationAuditor::sriov`] for MTS
/// Levels 1–3 (tenants on VFs, so the embedded switch must appear in
/// every mediated path); [`MediationAuditor::new`] only requires the
/// vswitch hop and also fits the vhost-based Baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct MediationAuditor {
    /// Additionally require a `NicSwitch` hop in each checked segment.
    pub require_embedded_switch: bool,
}

impl MediationAuditor {
    pub fn new() -> Self {
        MediationAuditor {
            require_embedded_switch: false,
        }
    }

    /// Strict variant for SR-IOV deployments (MTS Levels 1–3).
    pub fn sriov() -> Self {
        MediationAuditor {
            require_embedded_switch: true,
        }
    }

    /// Audit every journey `rec` holds.
    pub fn audit(&self, rec: &Recorder) -> MediationReport {
        let mut report = MediationReport {
            journey_hops_truncated: rec.journeys.truncated(),
            trace_events_truncated: rec.trace.truncated(),
            ..MediationReport::default()
        };
        for j in rec.journeys.iter() {
            self.audit_journey(j, &mut report);
        }
        report
    }

    /// Audit one journey, accumulating into `report`.
    fn audit_journey(&self, j: Journey<'_>, report: &mut MediationReport) {
        // Segment state since the last origin endpoint.
        let mut origin: Option<Endpoint> = None;
        let mut saw_vswitch = false;
        let mut saw_nic_switch = false;

        for rec in j.hops() {
            match rec.hop {
                Hop::TenantTx { tenant, .. } => {
                    origin = Some(Endpoint::Tenant(tenant));
                    saw_vswitch = false;
                    saw_nic_switch = false;
                }
                Hop::WireIngress { .. } => {
                    origin = Some(Endpoint::Wire);
                    saw_vswitch = false;
                    saw_nic_switch = false;
                }
                Hop::NicSwitch { from, to, .. } => {
                    saw_nic_switch = true;
                    // A direct tenant-VF → tenant-VF forward is a
                    // violation regardless of segment bookkeeping: the
                    // embedded switch itself bridged two tenants.
                    if let (
                        NicEndpoint::TenantVf { tenant: a },
                        NicEndpoint::TenantVf { tenant: b },
                    ) = (from, to)
                    {
                        report.violations.push(MediationViolation {
                            frame: j.frame,
                            reason: format!(
                                "embedded switch forwarded tenant {a} VF directly to \
                                 tenant {b} VF without vswitch mediation"
                            ),
                        });
                    }
                }
                Hop::VswitchRecv { .. } | Hop::VswitchForward { .. } => {
                    saw_vswitch = true;
                }
                Hop::TenantRx { tenant, .. } => {
                    self.check_segment(
                        j.frame,
                        origin,
                        Endpoint::Tenant(tenant),
                        saw_vswitch,
                        saw_nic_switch,
                        report,
                    );
                    origin = None;
                }
                Hop::WireEgress { .. } => {
                    self.check_segment(
                        j.frame,
                        origin,
                        Endpoint::Wire,
                        saw_vswitch,
                        saw_nic_switch,
                        report,
                    );
                    origin = None;
                }
                Hop::Drop { .. } => {
                    // Discarded, never delivered: no mediation question.
                    origin = None;
                }
            }
        }
    }

    fn check_segment(
        &self,
        frame: u64,
        origin: Option<Endpoint>,
        dest: Endpoint,
        saw_vswitch: bool,
        saw_nic_switch: bool,
        report: &mut MediationReport,
    ) {
        let origin = match origin {
            Some(o) => o,
            // Delivery without a recorded origin (partial journey):
            // nothing sound to check.
            None => return,
        };
        let involves_tenant =
            matches!(origin, Endpoint::Tenant(_)) || matches!(dest, Endpoint::Tenant(_));
        if !involves_tenant {
            report.skipped += 1;
            return;
        }
        report.checked += 1;
        if !saw_vswitch {
            report.violations.push(MediationViolation {
                frame,
                reason: format!(
                    "frame delivered {} -> {} without traversing any vswitch",
                    origin.label(),
                    dest.label()
                ),
            });
        } else if self.require_embedded_switch && !saw_nic_switch {
            report.violations.push(MediationViolation {
                frame,
                reason: format!(
                    "frame delivered {} -> {} without traversing the NIC embedded \
                     switch (expected for an SR-IOV deployment)",
                    origin.label(),
                    dest.label()
                ),
            });
        }
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Endpoint {
    Wire,
    Tenant(u8),
}

impl Endpoint {
    fn label(self) -> String {
        match self {
            Endpoint::Wire => "wire".to_string(),
            Endpoint::Tenant(t) => format!("tenant {t}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_sim::Time;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    /// A properly mediated tenant→tenant path (MTS v2v).
    fn mediated_v2v(rec: &mut Recorder, frame: u64) {
        rec.hop(frame, t(0), Hop::TenantTx { tenant: 0, side: 0 });
        rec.hop(
            frame,
            t(10),
            Hop::NicSwitch {
                pf: 0,
                from: NicEndpoint::TenantVf { tenant: 0 },
                to: NicEndpoint::VswitchVf { vswitch: 0 },
                hairpin: true,
            },
        );
        rec.hop(
            frame,
            t(20),
            Hop::VswitchRecv {
                vswitch: 0,
                port: 1,
            },
        );
        rec.hop(
            frame,
            t(30),
            Hop::VswitchForward {
                vswitch: 0,
                cache_hit: true,
                outputs: 1,
            },
        );
        rec.hop(
            frame,
            t(40),
            Hop::NicSwitch {
                pf: 0,
                from: NicEndpoint::VswitchVf { vswitch: 0 },
                to: NicEndpoint::TenantVf { tenant: 1 },
                hairpin: true,
            },
        );
        rec.hop(frame, t(50), Hop::TenantRx { tenant: 1, side: 0 });
    }

    #[test]
    fn mediated_path_passes_strict_audit() {
        let mut rec = Recorder::new();
        mediated_v2v(&mut rec, 1);
        let report = MediationAuditor::sriov().audit(&rec);
        assert!(
            report.ok(),
            "unexpected violations: {:?}",
            report.violations
        );
        assert_eq!(report.checked, 1);
    }

    #[test]
    fn direct_vf_to_vf_is_flagged() {
        let mut rec = Recorder::new();
        rec.hop(9, t(0), Hop::TenantTx { tenant: 0, side: 0 });
        rec.hop(
            9,
            t(10),
            Hop::NicSwitch {
                pf: 0,
                from: NicEndpoint::TenantVf { tenant: 0 },
                to: NicEndpoint::TenantVf { tenant: 1 },
                hairpin: true,
            },
        );
        rec.hop(9, t(20), Hop::TenantRx { tenant: 1, side: 0 });
        let report = MediationAuditor::sriov().audit(&rec);
        // Flagged twice: once by the direct-forward rule, once by the
        // no-vswitch-in-segment rule.
        assert!(!report.ok());
        assert!(report.violations.iter().any(|v| v.frame == 9));
    }

    #[test]
    fn dropped_frames_are_not_violations() {
        let mut rec = Recorder::new();
        rec.hop(3, t(0), Hop::TenantTx { tenant: 0, side: 0 });
        rec.hop(
            3,
            t(5),
            Hop::Drop {
                cause: crate::DropCause::NicSpoof,
            },
        );
        let report = MediationAuditor::sriov().audit(&rec);
        assert!(report.ok());
        assert_eq!(report.checked, 0);
    }

    #[test]
    fn wire_to_wire_segments_are_skipped() {
        let mut rec = Recorder::new();
        rec.hop(4, t(0), Hop::WireIngress { pf: 0 });
        rec.hop(
            4,
            t(10),
            Hop::VswitchRecv {
                vswitch: 0,
                port: 0,
            },
        );
        rec.hop(4, t(20), Hop::WireEgress { pf: 1 });
        let report = MediationAuditor::sriov().audit(&rec);
        assert!(report.ok());
        assert_eq!(report.checked, 0);
        assert_eq!(report.skipped, 1);
    }

    #[test]
    fn truncation_at_either_cap_is_reported() {
        use crate::{JourneyLog, TraceLog};
        let mut rec = Recorder {
            trace: TraceLog::with_cap(1),
            journeys: JourneyLog::with_cap(1),
            ..Recorder::new()
        };
        mediated_v2v(&mut rec, 1);
        let whole_journey = MediationAuditor::sriov().audit(&rec);
        assert!(whole_journey.ok());
        assert_eq!(whole_journey.checked, 1);
        assert_eq!(whole_journey.journey_hops_truncated, 0);
        assert_eq!(whole_journey.trace_events_truncated, 5);
        assert!(!whole_journey.complete());

        // A second frame is past the journey cap: none of its six hops is
        // audited, and the report says so instead of reading clean.
        mediated_v2v(&mut rec, 2);
        let report = MediationAuditor::sriov().audit(&rec);
        assert_eq!(report.checked, 1);
        assert_eq!(report.journey_hops_truncated, 6);
        assert_eq!(report.trace_events_truncated, 11);
        assert!(report.ok() && !report.complete());

        let mut roomy = Recorder::new();
        mediated_v2v(&mut roomy, 1);
        assert!(MediationAuditor::sriov().audit(&roomy).complete());
    }

    #[test]
    fn lenient_auditor_accepts_vhost_baseline() {
        // Baseline: tenant traffic rides vhost into the PF vswitch —
        // no embedded-switch hop exists for the tenant leg.
        let mut rec = Recorder::new();
        rec.hop(5, t(0), Hop::TenantTx { tenant: 0, side: 0 });
        rec.hop(
            5,
            t(10),
            Hop::VswitchRecv {
                vswitch: 0,
                port: 2,
            },
        );
        rec.hop(
            5,
            t(20),
            Hop::VswitchForward {
                vswitch: 0,
                cache_hit: false,
                outputs: 1,
            },
        );
        rec.hop(5, t(30), Hop::TenantRx { tenant: 1, side: 0 });
        assert!(MediationAuditor::new().audit(&rec).ok());
        assert!(!MediationAuditor::sriov().audit(&rec).ok());
    }
}
