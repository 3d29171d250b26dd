//! Per-frame journey records.
//!
//! A *journey* is the ordered list of hops one frame took through the
//! deployment, correlated by the frame's globally-unique id. Journeys
//! are what the [`crate::audit::MediationAuditor`] consumes to check the
//! paper's complete-mediation property.
//!
//! Storage: every hop is one 24-byte record (`at`, `hop`, link to the
//! frame's next hop) appended to a chunked arena; a frame is one map entry
//! holding the indices of its first and last record. Nothing is allocated
//! per hop — only a chunk every 4096 records and a map node every
//! half-dozen frames.

use std::collections::btree_map::{BTreeMap, Entry};
use std::fmt;

use mts_sim::Time;

use crate::arena::Chunked;
use crate::drop_cause::DropCause;

/// An endpoint class on the SR-IOV NIC, as seen by the embedded switch.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NicEndpoint {
    /// The physical uplink (external wire).
    Wire,
    /// The physical function (kernel / vswitch attach point in Baseline).
    Pf,
    /// A VF owned directly by a tenant VM.
    TenantVf { tenant: u8 },
    /// A VF owned by a vswitch VM (MTS mediation path).
    VswitchVf { vswitch: u8 },
}

/// The label trace exports carry: `wire`, `pf`, `tenant-vf:N`,
/// `vswitch-vf:N`.
impl fmt::Display for NicEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NicEndpoint::Wire => f.write_str("wire"),
            NicEndpoint::Pf => f.write_str("pf"),
            NicEndpoint::TenantVf { tenant } => write!(f, "tenant-vf:{tenant}"),
            NicEndpoint::VswitchVf { vswitch } => write!(f, "vswitch-vf:{vswitch}"),
        }
    }
}

/// One step of a frame's path through the deployment (8 bytes).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Hop {
    /// Frame entered from the external wire on physical port `pf`.
    WireIngress { pf: u8 },
    /// The NIC's embedded switch forwarded the frame between two
    /// endpoint classes (the per-frame mediation verdict of the VEB).
    NicSwitch {
        pf: u8,
        from: NicEndpoint,
        to: NicEndpoint,
        /// True when the frame took the VF↔VF hairpin engine.
        hairpin: bool,
    },
    /// A vswitch VM dequeued the frame from its rx ring.
    VswitchRecv { vswitch: u8, port: u32 },
    /// The vswitch pipeline classified the frame and planned outputs.
    VswitchForward {
        vswitch: u8,
        /// True when the flow-cache hit; false means slow-path table walk.
        cache_hit: bool,
        outputs: u8,
    },
    /// Delivered into a tenant VM (side 0 = a-side VF, 1 = b-side VF).
    TenantRx { tenant: u8, side: u8 },
    /// A tenant VM transmitted the frame on one of its VFs.
    TenantTx { tenant: u8, side: u8 },
    /// Frame left the deployment on physical port `pf` toward the wire.
    WireEgress { pf: u8 },
    /// Frame was discarded.
    Drop { cause: DropCause },
}

impl Hop {
    /// Short event name for traces (`category.action`).
    pub fn name(&self) -> &'static str {
        match self {
            Hop::WireIngress { .. } => "wire.ingress",
            Hop::NicSwitch { .. } => "nic.switch",
            Hop::VswitchRecv { .. } => "vswitch.recv",
            Hop::VswitchForward { .. } => "vswitch.forward",
            Hop::TenantRx { .. } => "tenant.rx",
            Hop::TenantTx { .. } => "tenant.tx",
            Hop::WireEgress { .. } => "wire.egress",
            Hop::Drop { .. } => "frame.drop",
        }
    }
}

/// A hop plus the simulated instant it happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JourneyHop {
    pub at: Time,
    pub hop: Hop,
}

/// "No next hop": an index no arena reaches (`record` stops before it).
const NONE: u32 = u32::MAX;

/// A stored hop and the arena index of the same frame's next one.
#[derive(Clone, Copy, Debug)]
struct HopRecord {
    at: Time,
    hop: Hop,
    next: u32,
}

/// One tracked frame: where its chain of hop records starts and ends.
#[derive(Clone, Copy, Debug)]
struct Chain {
    head: u32,
    tail: u32,
}

/// The recorded path of one frame: a view into its [`JourneyLog`].
#[derive(Clone, Copy, Debug)]
pub struct Journey<'a> {
    pub frame: u64,
    head: u32,
    records: &'a Chunked<HopRecord>,
}

impl Journey<'_> {
    /// The frame's hops in the order they were recorded.
    pub fn hops(&self) -> impl Iterator<Item = JourneyHop> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            let r = self.records.get(at as usize)?;
            at = r.next;
            Some(JourneyHop {
                at: r.at,
                hop: r.hop,
            })
        })
    }

    /// True if any hop is a drop.
    pub fn dropped(&self) -> bool {
        self.hops().any(|h| matches!(h.hop, Hop::Drop { .. }))
    }
}

/// All journeys of a run, keyed by frame id (deterministic iteration).
#[derive(Debug)]
pub struct JourneyLog {
    records: Chunked<HopRecord>,
    frames: BTreeMap<u64, Chain>,
    /// Maximum number of distinct frames to track; hops for frames past
    /// the cap are counted in `truncated` instead of recorded.
    cap: usize,
    truncated: u64,
}

impl Default for JourneyLog {
    fn default() -> Self {
        JourneyLog {
            records: Chunked::default(),
            frames: BTreeMap::new(),
            cap: 1_000_000,
            truncated: 0,
        }
    }
}

impl JourneyLog {
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the number of tracked frames (saturation runs can emit
    /// millions; the auditor only needs a representative window).
    pub fn with_cap(cap: usize) -> Self {
        JourneyLog {
            cap,
            ..Self::default()
        }
    }

    /// Append `hop` to frame `frame`'s journey at simulated time `at`.
    pub fn record(&mut self, frame: u64, at: Time, hop: Hop) {
        let full = self.frames.len() >= self.cap;
        // Record indices are `u32`, and `NONE` is never handed out.
        let idx = match u32::try_from(self.records.len()) {
            Ok(idx) if idx != NONE => idx,
            _ => {
                self.truncated += 1;
                return;
            }
        };
        match self.frames.entry(frame) {
            Entry::Occupied(mut chain) => {
                let last = std::mem::replace(&mut chain.get_mut().tail, idx);
                self.records[last as usize].next = idx;
            }
            Entry::Vacant(slot) if !full => {
                slot.insert(Chain {
                    head: idx,
                    tail: idx,
                });
            }
            Entry::Vacant(_) => {
                self.truncated += 1;
                return;
            }
        }
        self.records.push(HopRecord {
            at,
            hop,
            next: NONE,
        });
    }

    pub fn get(&self, frame: u64) -> Option<Journey<'_>> {
        self.frames.get_key_value(&frame).map(|e| self.view(e))
    }

    /// Number of frames tracked.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Hops that were NOT recorded because they belong to frames first
    /// seen after the cap was hit (one frame past the cap counts once per
    /// hop it takes).
    pub fn truncated(&self) -> u64 {
        self.truncated
    }

    /// Every journey, in ascending frame-id order.
    pub fn iter(&self) -> impl Iterator<Item = Journey<'_>> {
        self.frames.iter().map(|e| self.view(e))
    }

    fn view(&self, (&frame, chain): (&u64, &Chain)) -> Journey<'_> {
        Journey {
            frame,
            head: chain.head,
            records: &self.records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journeys_accumulate_hops_in_order() {
        let mut log = JourneyLog::new();
        log.record(
            7,
            Time::from_nanos(10),
            Hop::TenantTx { tenant: 0, side: 0 },
        );
        log.record(
            7,
            Time::from_nanos(20),
            Hop::NicSwitch {
                pf: 0,
                from: NicEndpoint::TenantVf { tenant: 0 },
                to: NicEndpoint::VswitchVf { vswitch: 0 },
                hairpin: true,
            },
        );
        let j = log.get(7).unwrap();
        let hops: Vec<JourneyHop> = j.hops().collect();
        assert_eq!(hops.len(), 2);
        assert_eq!(hops[0].hop.name(), "tenant.tx");
        assert_eq!(hops[1].at, Time::from_nanos(20));
        assert!(!j.dropped());
    }

    #[test]
    fn cap_stops_new_frames_but_not_existing() {
        let mut log = JourneyLog::with_cap(1);
        log.record(1, Time::from_nanos(0), Hop::WireIngress { pf: 0 });
        log.record(2, Time::from_nanos(1), Hop::WireIngress { pf: 0 });
        log.record(1, Time::from_nanos(2), Hop::WireEgress { pf: 1 });
        assert_eq!(log.len(), 1);
        assert_eq!(log.truncated(), 1);
        assert_eq!(log.get(1).unwrap().hops().count(), 2);
        assert!(log.get(2).is_none());
    }

    #[test]
    fn iteration_is_by_frame_id_whatever_the_arrival_order() {
        let mut log = JourneyLog::new();
        for frame in [9, 3, 7, 3, 9, 1] {
            log.record(frame, Time::from_nanos(frame), Hop::WireIngress { pf: 0 });
        }
        let seen: Vec<(u64, usize)> = log.iter().map(|j| (j.frame, j.hops().count())).collect();
        assert_eq!(seen, [(1, 1), (3, 2), (7, 1), (9, 2)]);
    }

    #[test]
    fn records_stay_small() {
        assert_eq!(std::mem::size_of::<Hop>(), 8);
        assert_eq!(std::mem::size_of::<HopRecord>(), 24);
    }
}
