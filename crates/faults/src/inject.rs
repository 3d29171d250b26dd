//! Injecting a [`FaultPlan`] into a running world through the event
//! engine.
//!
//! Each event becomes one engine event at its instant; [`inject`] mutates
//! exactly the world state the runtime's drop/delay gates read
//! (`VswitchHealth`, `link_up`, `vhost_stall_until`, …). The only
//! randomness is partial rule loss, drawn from the world's dedicated
//! `fault_rng` stream — never from the traffic RNG — so adding or removing
//! faults cannot perturb the generated traffic, and an empty plan is
//! byte-identical to a run with no fault machinery at all.

use crate::plan::{FaultKind, FaultPlan};
use mts_core::delta::ConfigDelta;
use mts_core::runtime::{Sim, VswitchHealth, World};
use mts_telemetry::Label;

/// Schedules every event of a plan into the engine.
pub fn schedule(plan: &FaultPlan, e: &mut Sim) {
    for ev in plan.events.clone() {
        e.schedule_at(ev.at, move |w: &mut World, e: &mut Sim| {
            inject(w, e, ev.kind);
        });
    }
}

/// Applies one fault to the world, now.
///
/// Out-of-range victims (vswitch/PF/tenant indices the deployment does
/// not have) are ignored: a plan written for Level-2 can run unchanged
/// against a Baseline world.
pub fn inject(w: &mut World, e: &mut Sim, kind: FaultKind) {
    let now = e.now();
    if let Some(rec) = w.telemetry.rec() {
        rec.metrics.counter_inc(
            "mts_faults_injected_total",
            &[("kind", Label::Str(kind.label()))],
        );
    }
    match kind {
        FaultKind::CrashVswitch { vswitch, crashloop } => {
            let Some(vs) = w.vswitches.get_mut(vswitch) else {
                return;
            };
            vs.health = VswitchHealth::Down;
            w.crashloop[vswitch] = crashloop;
            // The VM's memory is gone, and its flow state with it. Vswitch
            // deltas for a vswitch the world has cannot be refused.
            let _ = w.apply(ConfigDelta::VswitchDown { vswitch });
            let _ = w.apply(ConfigDelta::RulesWiped { vswitch });
        }
        FaultKind::HangVswitch {
            vswitch,
            heal_after,
        } => {
            let Some(vs) = w.vswitches.get_mut(vswitch) else {
                return;
            };
            vs.health = VswitchHealth::Hung;
            if let Some(d) = heal_after {
                e.schedule_at(now + d, move |w: &mut World, _e: &mut Sim| {
                    if let Some(vs) = w.vswitches.get_mut(vswitch) {
                        // Only a still-standing hang clears; a supervisor
                        // restart (or a crash) in between wins.
                        if vs.health == VswitchHealth::Hung {
                            vs.health = VswitchHealth::Healthy;
                        }
                    }
                });
            }
        }
        FaultKind::SlowVswitch {
            vswitch,
            factor,
            heal_after,
        } => {
            let Some(vs) = w.vswitches.get_mut(vswitch) else {
                return;
            };
            let factor = factor.max(1.0);
            vs.slow_factor = factor;
            e.schedule_at(now + heal_after, move |w: &mut World, _e: &mut Sim| {
                if let Some(vs) = w.vswitches.get_mut(vswitch) {
                    // A restart may already have reset it; only undo our
                    // own slowdown.
                    if vs.slow_factor == factor {
                        vs.slow_factor = 1.0;
                    }
                }
            });
        }
        FaultKind::FlushVeb { pf } => {
            // A PF the NIC does not have refuses the flush: nothing logged.
            let _ = w.apply(ConfigDelta::VebFlushed { pf });
        }
        FaultKind::WipeFlows { vswitch } => {
            // A vswitch the world does not have refuses the wipe: nothing logged.
            let _ = w.apply(ConfigDelta::RulesWiped { vswitch });
        }
        FaultKind::LoseRules { vswitch, fraction } => {
            let Some(vs) = w.vswitches.get(vswitch) else {
                return;
            };
            let rules = vs.inst.sw.dump_rules();
            let before = rules.len();
            let survivors: Vec<_> = rules
                .into_iter()
                .filter(|_| !w.fault_rng.chance(fraction))
                .collect();
            if survivors.len() < before {
                for d in ConfigDelta::rebuild(vswitch, survivors) {
                    let _ = w.apply(d);
                }
            }
        }
        FaultKind::LinkFlap { pf, down_for } => {
            let Some(up) = w.link_up.get_mut(pf as usize) else {
                return;
            };
            *up = false;
            e.schedule_at(now + down_for, move |w: &mut World, _e: &mut Sim| {
                if let Some(up) = w.link_up.get_mut(pf as usize) {
                    *up = true;
                }
            });
        }
        FaultKind::VhostStall { tenant, stall_for } => {
            let Some(until) = w.vhost_stall_until.get_mut(tenant as usize) else {
                return;
            };
            *until = (*until).max(now + stall_for);
        }
        FaultKind::ControllerLoss { down_for } => {
            w.controller_down_until = w.controller_down_until.max(now + down_for);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mts_core::runtime::RuntimeCfg;
    use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
    use mts_core::Controller;
    use mts_host::ResourceMode;
    use mts_sim::{Dur, Time};
    use mts_vswitch::DatapathKind;

    fn world() -> (World, Sim) {
        let spec = DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            Scenario::P2v,
        );
        let d = Controller::deploy(spec).unwrap();
        (World::new(d, RuntimeCfg::for_spec(&spec), 5), Sim::new())
    }

    #[test]
    fn crash_downs_the_vswitch_and_wipes_its_state() {
        let (mut w, mut e) = world();
        inject(
            &mut w,
            &mut e,
            FaultKind::CrashVswitch {
                vswitch: 0,
                crashloop: 3,
            },
        );
        assert_eq!(w.vswitches[0].health, VswitchHealth::Down);
        assert_eq!(w.vswitches[0].inst.sw.rule_count(), 0);
        assert!(w.vswitches[0].rules_dirty);
        assert_eq!(w.crashloop[0], 3);
        // The other compartment is untouched.
        assert_eq!(w.vswitches[1].health, VswitchHealth::Healthy);
        assert!(w.vswitches[1].inst.sw.rule_count() > 0);
    }

    #[test]
    fn hang_self_heals_but_loses_to_a_crash() {
        let (mut w, mut e) = world();
        let plan = FaultPlan::new()
            .at(
                Time::from_nanos(100),
                FaultKind::HangVswitch {
                    vswitch: 0,
                    heal_after: Some(Dur::nanos(500)),
                },
            )
            .at(
                Time::from_nanos(300),
                FaultKind::CrashVswitch {
                    vswitch: 0,
                    crashloop: 0,
                },
            );
        schedule(&plan, &mut e);
        e.run(&mut w);
        // The heal fires at t=600 but the crash at t=300 superseded the
        // hang, so the vswitch stays down.
        assert_eq!(w.vswitches[0].health, VswitchHealth::Down);
    }

    #[test]
    fn slow_and_link_and_stall_set_and_restore() {
        let (mut w, mut e) = world();
        let plan = FaultPlan::new()
            .at(
                Time::from_nanos(100),
                FaultKind::SlowVswitch {
                    vswitch: 1,
                    factor: 4.0,
                    heal_after: Dur::nanos(400),
                },
            )
            .at(
                Time::from_nanos(100),
                FaultKind::LinkFlap {
                    pf: 1,
                    down_for: Dur::nanos(200),
                },
            )
            .at(
                Time::from_nanos(100),
                FaultKind::VhostStall {
                    tenant: 2,
                    stall_for: Dur::nanos(900),
                },
            )
            .at(
                Time::from_nanos(100),
                FaultKind::ControllerLoss {
                    down_for: Dur::nanos(800),
                },
            );
        schedule(&plan, &mut e);
        // Run to just after injection.
        e.run_until(&mut w, Time::from_nanos(150));
        assert_eq!(w.vswitches[1].slow_factor, 4.0);
        assert!(!w.link_up[1]);
        assert_eq!(w.vhost_stall_until[2], Time::from_nanos(1_000));
        assert_eq!(w.controller_down_until, Time::from_nanos(900));
        // Run past the restores.
        e.run(&mut w);
        assert_eq!(w.vswitches[1].slow_factor, 1.0);
        assert!(w.link_up[1]);
    }

    #[test]
    fn lose_rules_is_partial_and_deterministic() {
        let (mut w, mut e) = world();
        let before = w.vswitches[0].inst.sw.rule_count();
        assert!(before >= 4);
        inject(
            &mut w,
            &mut e,
            FaultKind::LoseRules {
                vswitch: 0,
                fraction: 0.5,
            },
        );
        let after = w.vswitches[0].inst.sw.rule_count();
        assert!(after < before, "some rules must be lost");
        assert!(w.vswitches[0].rules_dirty);

        // Same seed, same loss pattern.
        let (mut w2, mut e2) = world();
        inject(
            &mut w2,
            &mut e2,
            FaultKind::LoseRules {
                vswitch: 0,
                fraction: 0.5,
            },
        );
        assert_eq!(w2.vswitches[0].inst.sw.rule_count(), after);
        assert_eq!(
            w.vswitches[0].inst.sw.dump_rules(),
            w2.vswitches[0].inst.sw.dump_rules()
        );
    }

    #[test]
    fn out_of_range_victims_are_ignored() {
        let (mut w, mut e) = world();
        inject(
            &mut w,
            &mut e,
            FaultKind::CrashVswitch {
                vswitch: 99,
                crashloop: 0,
            },
        );
        inject(&mut w, &mut e, FaultKind::FlushVeb { pf: 9 });
        inject(&mut w, &mut e, FaultKind::WipeFlows { vswitch: 99 });
        inject(
            &mut w,
            &mut e,
            FaultKind::VhostStall {
                tenant: 200,
                stall_for: Dur::millis(1),
            },
        );
        assert!(w
            .vswitches
            .iter()
            .all(|v| v.health == VswitchHealth::Healthy));
        assert!(w.deltas.is_empty(), "refused faults log no delta");
    }
}
