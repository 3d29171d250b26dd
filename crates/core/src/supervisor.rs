//! Vswitch-VM supervision: heartbeat detection, capped exponential-backoff
//! restarts, and recovery via controller reconciliation.
//!
//! The supervisor models the host-side watchdog MTS needs once vswitches
//! live in VMs: a compartment that crashes or hangs stops answering
//! heartbeats, the supervisor notices after a configurable number of
//! missed beats, and restarts it with exponential backoff plus
//! deterministic jitter. A restarted vswitch VM boots with empty flow
//! tables, so every successful restart is followed by a
//! [`reconcile`](crate::reconcile()) pass that re-programs the controller's
//! desired state. A VM that keeps crashing exhausts its restart budget and is
//! marked **degraded** — its tenants lose service, but the supervisor
//! never panics and never touches other compartments (the blast-radius
//! property `crates/faults` measures).
//!
//! All timing decisions run on simulated time inside the event engine;
//! jitter comes from a [`DetRng`] stream derived per supervised vswitch,
//! so runs are bit-reproducible.

use crate::delta::ConfigDelta;
use crate::reconcile;
use crate::runtime::{Sim, VswitchHealth, World};
use mts_sim::{DetRng, Dur, Time};
use std::fmt;

/// Supervisor tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorCfg {
    /// Heartbeat period: how often every vswitch VM is probed.
    pub heartbeat_every: Dur,
    /// Consecutive missed heartbeats before a VM is declared dead/hung.
    pub miss_threshold: u32,
    /// First restart delay.
    pub backoff_base: Dur,
    /// Multiplier applied per failed attempt.
    pub backoff_factor: f64,
    /// Ceiling on the restart delay (backoff is capped, not unbounded).
    pub backoff_cap: Dur,
    /// Restart attempts before the supervisor gives up and marks the
    /// compartment's tenants degraded.
    pub max_restarts: u32,
    /// Uniform jitter added to each restart delay (decorrelates restarts
    /// of simultaneously-failed compartments).
    pub jitter: Dur,
    /// If set, run a controller reconciliation pass this often even
    /// without a restart (heals silent state loss such as a VEB flush).
    pub reconcile_every: Option<Dur>,
    /// Stop ticking after this instant (keeps `Engine::run` terminating
    /// in experiments; `Time::MAX` = supervise forever).
    pub until: Time,
}

impl Default for SupervisorCfg {
    fn default() -> Self {
        SupervisorCfg {
            heartbeat_every: Dur::millis(1),
            miss_threshold: 3,
            backoff_base: Dur::millis(2),
            backoff_factor: 2.0,
            backoff_cap: Dur::millis(50),
            max_restarts: 5,
            jitter: Dur::micros(500),
            reconcile_every: None,
            until: Time::MAX,
        }
    }
}

/// What happened to a vswitch, for the recovery log.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryKind {
    /// Missed heartbeats crossed the threshold; the VM is presumed dead.
    Detected,
    /// A restart was attempted and the VM crashed again (crash loop).
    RestartFailed,
    /// A restart succeeded and reconciliation re-programmed the tables.
    Recovered,
    /// The restart budget is exhausted; tenants are marked degraded.
    Degraded,
}

/// One entry in the supervisor's recovery log.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryEvent {
    /// When it happened (simulated time).
    pub at: Time,
    /// Which vswitch.
    pub vswitch: usize,
    /// What happened.
    pub kind: RecoveryKind,
    /// Restart attempt number at that point (0 for detection).
    pub attempt: u32,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vswitch {} {:?} (attempt {})",
            self.at, self.vswitch, self.kind, self.attempt
        )
    }
}

/// Per-vswitch supervision state.
#[derive(Clone, Copy, Debug)]
struct VsState {
    /// Last heartbeat answered.
    last_beat: Time,
    /// When the failure was detected (None = believed healthy).
    down_seen: Option<Time>,
    /// Restart attempts made since detection.
    attempts: u32,
    /// Next restart due, if one is pending.
    restart_at: Option<Time>,
    /// The restart budget is spent; no further attempts.
    gave_up: bool,
}

/// The host watchdog for vswitch VMs.
pub struct Supervisor {
    /// Tuning knobs.
    pub cfg: SupervisorCfg,
    /// Jitter streams, one per supervised vswitch.
    rngs: Vec<DetRng>,
    /// Per-vswitch state.
    per: Vec<VsState>,
    /// Everything that happened, in order.
    pub log: Vec<RecoveryEvent>,
    /// Next periodic reconciliation due.
    next_reconcile: Option<Time>,
}

impl Supervisor {
    fn new(cfg: SupervisorCfg, root: &DetRng, n: usize, now: Time) -> Supervisor {
        Supervisor {
            cfg,
            rngs: (0..n)
                .map(|i| root.derive_indexed("supervisor", i as u64))
                .collect(),
            per: vec![
                VsState {
                    last_beat: now,
                    down_seen: None,
                    attempts: 0,
                    restart_at: None,
                    gave_up: false,
                };
                n
            ],
            log: Vec::new(),
            next_reconcile: cfg.reconcile_every.map(|p| now + p),
        }
    }

    /// Restart delay for attempt `k` (1-based): capped exponential backoff
    /// plus one uniform jitter draw from the vswitch's stream.
    fn backoff(&mut self, vswitch: usize, k: u32) -> Dur {
        let exp = self
            .cfg
            .backoff_base
            .mul_f64(self.cfg.backoff_factor.powi(k.saturating_sub(1) as i32))
            .min(self.cfg.backoff_cap);
        let jitter = Dur::nanos(self.rngs[vswitch].below(self.cfg.jitter.as_nanos() + 1));
        exp + jitter
    }

    /// Time from detection to recovery for vswitch `i`, if it recovered.
    pub fn recovery_time(&self, i: usize) -> Option<Dur> {
        let detected = self
            .log
            .iter()
            .find(|ev| ev.vswitch == i && ev.kind == RecoveryKind::Detected)?;
        let recovered = self
            .log
            .iter()
            .find(|ev| ev.vswitch == i && ev.kind == RecoveryKind::Recovered)?;
        Some(recovered.at - detected.at)
    }

    /// First instant the supervisor noticed vswitch `i` was unhealthy.
    pub fn detected_at(&self, i: usize) -> Option<Time> {
        self.log
            .iter()
            .find(|ev| ev.vswitch == i && ev.kind == RecoveryKind::Detected)
            .map(|ev| ev.at)
    }

    /// Number of restart attempts logged for vswitch `i` (failed + final).
    pub fn restart_attempts(&self, i: usize) -> u32 {
        self.log
            .iter()
            .filter(|ev| {
                ev.vswitch == i
                    && matches!(
                        ev.kind,
                        RecoveryKind::RestartFailed | RecoveryKind::Recovered
                    )
            })
            .count() as u32
    }
}

/// Installs a supervisor into the world and schedules its first tick.
pub fn start_supervisor(w: &mut World, e: &mut Sim, cfg: SupervisorCfg) {
    let sup = Supervisor::new(cfg, &w.fault_rng, w.vswitches.len(), e.now());
    w.supervisor = Some(sup);
    e.schedule_after(cfg.heartbeat_every, tick);
}

/// One supervisor heartbeat round.
fn tick(w: &mut World, e: &mut Sim) {
    let Some(mut sup) = w.supervisor.take() else {
        return;
    };
    let now = e.now();
    let dead_after = sup.cfg.heartbeat_every * u64::from(sup.cfg.miss_threshold);
    let controller_up = now >= w.controller_down_until;

    for i in 0..w.vswitches.len() {
        let health = w.vswitches[i].health;
        let st = &mut sup.per[i];
        if health == VswitchHealth::Healthy {
            // The VM answered its heartbeat; whatever we thought, it is
            // back (e.g. a hang cleared by itself).
            if st.down_seen.is_some() || st.gave_up {
                for t in w.spec.tenants_of_compartment(i as u8) {
                    if let Some(d) = w.degraded.get_mut(t as usize) {
                        *d = false;
                    }
                }
            }
            *st = VsState {
                last_beat: now,
                down_seen: None,
                attempts: 0,
                restart_at: None,
                gave_up: false,
            };
            continue;
        }
        if st.gave_up {
            continue;
        }
        if st.down_seen.is_none() {
            if now - st.last_beat < dead_after {
                continue;
            }
            st.down_seen = Some(now);
            st.attempts = 1;
            sup.log.push(RecoveryEvent {
                at: now,
                vswitch: i,
                kind: RecoveryKind::Detected,
                attempt: 0,
            });
            if let Some(rec) = w.telemetry.rec() {
                rec.metrics
                    .counter_inc("mts_supervisor_detected_total", &[]);
            }
            let delay = sup.backoff(i, 1);
            sup.per[i].restart_at = Some(now + delay);
            continue;
        }
        let Some(due) = st.restart_at else { continue };
        if now < due {
            continue;
        }
        // A restart re-programs NIC filters and flow rules through the
        // controller; with the controller channel down the attempt is
        // deferred (re-checked next tick) rather than consumed.
        if !controller_up {
            continue;
        }
        let attempt = st.attempts;
        if w.crashloop[i] > 0 {
            // The VM comes up and immediately crashes again.
            w.crashloop[i] -= 1;
            sup.log.push(RecoveryEvent {
                at: now,
                vswitch: i,
                kind: RecoveryKind::RestartFailed,
                attempt,
            });
            if let Some(rec) = w.telemetry.rec() {
                rec.metrics
                    .counter_inc("mts_supervisor_restarts_total", &[]);
            }
            let st = &mut sup.per[i];
            if attempt >= sup.cfg.max_restarts {
                st.gave_up = true;
                st.restart_at = None;
                sup.log.push(RecoveryEvent {
                    at: now,
                    vswitch: i,
                    kind: RecoveryKind::Degraded,
                    attempt,
                });
                if let Some(rec) = w.telemetry.rec() {
                    rec.metrics
                        .counter_inc("mts_supervisor_degraded_total", &[]);
                }
                for t in w.spec.tenants_of_compartment(i as u8) {
                    if let Some(d) = w.degraded.get_mut(t as usize) {
                        *d = true;
                    }
                }
            } else {
                sup.per[i].attempts = attempt + 1;
                let delay = sup.backoff(i, attempt + 1);
                sup.per[i].restart_at = Some(now + delay);
            }
            continue;
        }
        // Restart succeeds: the VM boots with empty tables, the
        // controller reconciles them back, and the compartment is live.
        w.vswitches[i].health = VswitchHealth::Healthy;
        w.vswitches[i].slow_factor = 1.0;
        // Vswitch deltas for a vswitch the world has cannot be refused.
        let _ = w.apply(ConfigDelta::RulesWiped { vswitch: i });
        let _ = w.apply(ConfigDelta::VswitchUp { vswitch: i });
        let _ = reconcile::reconcile(w);
        let down_seen = st.down_seen.unwrap_or(now);
        sup.log.push(RecoveryEvent {
            at: now,
            vswitch: i,
            kind: RecoveryKind::Recovered,
            attempt,
        });
        if let Some(rec) = w.telemetry.rec() {
            rec.metrics
                .counter_inc("mts_supervisor_restarts_total", &[]);
            rec.metrics.observe(
                "mts_supervisor_recovery_ns",
                &[],
                (now - down_seen).as_nanos(),
            );
        }
        for t in w.spec.tenants_of_compartment(i as u8) {
            if let Some(d) = w.degraded.get_mut(t as usize) {
                *d = false;
            }
        }
        sup.per[i] = VsState {
            last_beat: now,
            down_seen: None,
            attempts: 0,
            restart_at: None,
            gave_up: false,
        };
    }

    // Periodic reconciliation heals silent dataplane drift (VEB flush,
    // partial rule loss) that never stops heartbeats.
    if let Some(due) = sup.next_reconcile {
        if now >= due && controller_up {
            let _ = reconcile::reconcile(w);
            sup.next_reconcile = sup.cfg.reconcile_every.map(|p| now + p);
        }
    }

    let again = now < sup.cfg.until;
    let beat = sup.cfg.heartbeat_every;
    w.supervisor = Some(sup);
    if again {
        e.schedule_after(beat, tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Controller;
    use crate::runtime::{RuntimeCfg, World};
    use crate::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_host::ResourceMode;
    use mts_sim::Engine;
    use mts_vswitch::DatapathKind;

    fn world(level: SecurityLevel) -> (World, Sim) {
        let spec = DeploymentSpec::mts(
            level,
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let d = Controller::deploy(spec).unwrap();
        (
            World::new(d, RuntimeCfg::for_spec(&spec), 11),
            Engine::new(),
        )
    }

    fn cfg_until(until: Time) -> SupervisorCfg {
        SupervisorCfg {
            until,
            ..SupervisorCfg::default()
        }
    }

    #[test]
    fn healthy_world_logs_nothing() {
        let (mut w, mut e) = world(SecurityLevel::Level2 { compartments: 2 });
        start_supervisor(&mut w, &mut e, cfg_until(Time::from_nanos(20_000_000)));
        e.run(&mut w);
        let sup = w.supervisor.as_ref().unwrap();
        assert!(sup.log.is_empty());
    }

    #[test]
    fn crash_is_detected_and_recovered_with_reconciled_rules() {
        let (mut w, mut e) = world(SecurityLevel::Level2 { compartments: 2 });
        let rules_before = w.vswitches[0].inst.sw.rule_count();
        start_supervisor(&mut w, &mut e, cfg_until(Time::from_nanos(100_000_000)));
        e.schedule_at(
            Time::from_nanos(5_000_000),
            |w: &mut World, _e: &mut Sim| {
                w.vswitches[0].health = VswitchHealth::Down;
                w.apply(ConfigDelta::RulesWiped { vswitch: 0 }).unwrap();
            },
        );
        e.run(&mut w);
        let sup = w.supervisor.take().unwrap();
        assert!(sup.detected_at(0).is_some());
        let rec = sup.recovery_time(0).expect("must recover");
        assert!(rec > Dur::ZERO);
        assert_eq!(w.vswitches[0].health, VswitchHealth::Healthy);
        assert_eq!(w.vswitches[0].inst.sw.rule_count(), rules_before);
        assert!(!w.vswitches[0].rules_dirty);
        assert!(!w.degraded.iter().any(|d| *d));
    }

    #[test]
    fn crashloop_exhausts_budget_and_degrades_only_its_tenants() {
        let (mut w, mut e) = world(SecurityLevel::Level2 { compartments: 2 });
        let cfg = SupervisorCfg {
            max_restarts: 3,
            until: Time::from_nanos(2_000_000_000),
            ..SupervisorCfg::default()
        };
        start_supervisor(&mut w, &mut e, cfg);
        e.schedule_at(
            Time::from_nanos(1_000_000),
            |w: &mut World, _e: &mut Sim| {
                w.vswitches[0].health = VswitchHealth::Down;
                w.crashloop[0] = u32::MAX; // never comes back
            },
        );
        e.run(&mut w);
        let sup = w.supervisor.take().unwrap();
        assert!(sup
            .log
            .iter()
            .any(|ev| ev.kind == RecoveryKind::Degraded && ev.vswitch == 0));
        assert_eq!(sup.restart_attempts(0), 3);
        // Compartment 0 serves the even tenants under 2 compartments.
        for t in 0..w.spec.tenants {
            let expect = w.spec.compartment_of_tenant(t) == 0;
            assert_eq!(w.degraded[t as usize], expect, "tenant {t}");
        }
    }

    #[test]
    fn backoff_delays_grow_and_are_capped() {
        let (mut w, mut e) = world(SecurityLevel::Level2 { compartments: 2 });
        let cfg = SupervisorCfg {
            max_restarts: 6,
            jitter: Dur::ZERO,
            until: Time::from_nanos(2_000_000_000),
            ..SupervisorCfg::default()
        };
        start_supervisor(&mut w, &mut e, cfg);
        e.schedule_at(
            Time::from_nanos(1_000_000),
            |w: &mut World, _e: &mut Sim| {
                w.vswitches[0].health = VswitchHealth::Down;
                w.crashloop[0] = u32::MAX;
            },
        );
        e.run(&mut w);
        let sup = w.supervisor.take().unwrap();
        let fails: Vec<Time> = sup
            .log
            .iter()
            .filter(|ev| ev.kind == RecoveryKind::RestartFailed)
            .map(|ev| ev.at)
            .collect();
        assert!(fails.len() >= 4);
        let gaps: Vec<Dur> = fails.windows(2).map(|p| p[1] - p[0]).collect();
        for pair in gaps.windows(2) {
            assert!(
                pair[1] >= pair[0],
                "backoff must be non-decreasing: {gaps:?}"
            );
        }
        // Ticks quantise delays to the heartbeat, so the observed gap is
        // bounded by the cap plus one heartbeat.
        let bound = cfg.backoff_cap + cfg.heartbeat_every + cfg.heartbeat_every;
        for g in &gaps {
            assert!(*g <= bound, "gap {g} exceeds cap bound {bound}");
        }
    }

    #[test]
    fn restart_waits_for_the_controller_channel() {
        let (mut w, mut e) = world(SecurityLevel::Level2 { compartments: 2 });
        start_supervisor(&mut w, &mut e, cfg_until(Time::from_nanos(500_000_000)));
        e.schedule_at(
            Time::from_nanos(1_000_000),
            |w: &mut World, _e: &mut Sim| {
                w.vswitches[0].health = VswitchHealth::Down;
                w.apply(ConfigDelta::RulesWiped { vswitch: 0 }).unwrap();
                // Controller unreachable for 100ms.
                w.controller_down_until = Time::from_nanos(101_000_000);
            },
        );
        e.run(&mut w);
        let sup = w.supervisor.take().unwrap();
        let recovered = sup
            .log
            .iter()
            .find(|ev| ev.kind == RecoveryKind::Recovered)
            .expect("recovers once the channel returns");
        assert!(
            recovered.at >= Time::from_nanos(101_000_000),
            "recovered at {} before the controller came back",
            recovered.at
        );
        assert_eq!(w.vswitches[0].health, VswitchHealth::Healthy);
    }

    #[test]
    fn periodic_reconcile_heals_silent_rule_loss() {
        let (mut w, mut e) = world(SecurityLevel::Level2 { compartments: 2 });
        let rules_before = w.vswitches[1].inst.sw.rule_count();
        let cfg = SupervisorCfg {
            reconcile_every: Some(Dur::millis(5)),
            until: Time::from_nanos(50_000_000),
            ..SupervisorCfg::default()
        };
        start_supervisor(&mut w, &mut e, cfg);
        // Rules vanish but the VM stays healthy: heartbeats keep coming.
        e.schedule_at(
            Time::from_nanos(2_000_000),
            |w: &mut World, _e: &mut Sim| {
                w.apply(ConfigDelta::RulesWiped { vswitch: 1 }).unwrap();
            },
        );
        e.run(&mut w);
        assert_eq!(w.vswitches[1].inst.sw.rule_count(), rules_before);
        assert!(!w.vswitches[1].rules_dirty);
        let sup = w.supervisor.take().unwrap();
        assert!(sup.log.is_empty(), "no restart was needed");
    }
}
