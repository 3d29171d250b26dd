//! Differential equivalence of the incremental checker against the
//! from-scratch verifier, under randomized delta streams.
//!
//! Each property case deploys a real configuration, then drives a
//! [`DetRng`]-derived stream of configuration operations. Every operation
//! mutates the *real* deployment through its public APIs (the ground
//! truth) and feeds the corresponding [`ConfigDelta`]s to an
//! [`IncrementalChecker`]. After every operation the incremental verdict
//! must render byte-for-byte identical to `verify()` run from scratch on
//! the mutated deployment — including operations that deliberately break
//! isolation (random VLAN moves), where both verifiers must report the
//! same violations with the same witnesses.
//!
//! Operations that are one logical reconfiguration but several deltas
//! (cookie-wide rule removal, wipe-and-reinstall) compare at the operation
//! boundary; single-delta operations compare after every delta.
//!
//! One operation installs, then removes, a rule naming a value outside the
//! atomization (a fresh MAC, prefix or EtherType). Both deltas change the
//! atoms, so each must force a full rebuild: under the stale atomization an
//! unknown MAC maps to no atom at all, and only the rebuild keeps the
//! verdict exact.

use mts_core::controller::{Controller, Deployment};
use mts_core::delta::ConfigDelta;
use mts_core::{DeploymentSpec, ResourceMode, Scenario, SecurityLevel};
use mts_isocheck::{IncrementalChecker, Misconfig};
use mts_net::{EtherType, MacAddr};
use mts_sim::DetRng;
use mts_vswitch::{Action, DatapathKind, FlowMatch, FlowRule, Ipv4Prefix};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn control_spec() -> DeploymentSpec {
    // The same configuration `repro verify` seeds misconfigurations into.
    DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    )
}

fn check_equiv(checker: &mut IncrementalChecker, d: &Deployment, what: &str) -> Result<(), String> {
    let inc = checker.report().map_err(|e| e.to_string())?;
    let full = mts_isocheck::verify(d).map_err(|e| e.to_string())?;
    if format!("{inc}") != format!("{full}") {
        return Err(format!(
            "divergence after {what} (stats {:?}):\n--- incremental ---\n{inc}\n--- full ---\n{full}",
            checker.stats()
        ));
    }
    Ok(())
}

fn step(checker: &mut IncrementalChecker, _d: &Deployment, delta: &ConfigDelta) -> usize {
    checker.apply(delta)
}

/// Reads a VF's current config back from the NIC to build the
/// `VfConfigured` delta the host path would emit.
fn vf_delta(d: &Deployment, r: mts_core::vfplan::VfRef) -> Result<ConfigDelta, String> {
    let cfg = d
        .nic
        .pf(r.pf)
        .map_err(|e| e.to_string())?
        .vf(r.vf)
        .cloned()
        .ok_or_else(|| format!("no VF {}/{}", r.pf.0, r.vf.0))?;
    Ok(ConfigDelta::VfConfigured {
        pf: r.pf.0,
        vf: r.vf.0,
        cfg,
    })
}

/// Installs on vswitch `v`'s table 0, then removes, a rule matching a value
/// no part of the configuration names: a MAC (`kind` 0), an IPv4 prefix (1)
/// or an EtherType (2), picked by `n`. Checks byte-identity after each delta
/// and that each one rebuilt the atoms.
fn fresh_value_op(
    d: &mut Deployment,
    checker: &mut IncrementalChecker,
    v: usize,
    kind: u64,
    n: u8,
    priority: u16,
) -> Result<(), String> {
    let m = match kind {
        0 => FlowMatch {
            eth_dst: Some(MacAddr::local(0x7e_5700 + u32::from(n))),
            ..FlowMatch::default()
        },
        1 => FlowMatch {
            ip_dst: Some(Ipv4Prefix::new(Ipv4Addr::new(198, 51, 100, n & 0xf0), 28)),
            ..FlowMatch::default()
        },
        _ => FlowMatch {
            ethertype: Some(EtherType::Other(0x9000 + u16::from(n))),
            ..FlowMatch::default()
        },
    };
    let rule = FlowRule::new(priority, m, vec![Action::Drop]).with_cookie(0x7e57_0000);
    let rebuilds = checker.stats().full_rebuilds;
    d.vswitches[v]
        .sw
        .install(0, rule.clone())
        .map_err(|e| format!("{e:?}"))?;
    let delta = ConfigDelta::RuleInstalled {
        vswitch: v,
        table: 0,
        rule: rule.clone(),
    };
    step(checker, d, &delta);
    check_equiv(checker, d, "fresh-value install")?;
    d.vswitches[v].sw.remove_by_cookie(rule.cookie);
    let delta = ConfigDelta::RuleRemoved {
        vswitch: v,
        table: 0,
        rule,
    };
    step(checker, d, &delta);
    check_equiv(checker, d, "fresh-value removal")?;
    let rebuilt = checker.stats().full_rebuilds - rebuilds;
    if rebuilt != 2 {
        return Err(format!(
            "a fresh value (kind {kind}) installed and removed rebuilt the atoms {rebuilt} times, not 2"
        ));
    }
    Ok(())
}

/// One random configuration operation: mutates the deployment through its
/// public API, applies the matching delta(s), and checks equivalence.
fn random_op(
    rng: &mut DetRng,
    d: &mut Deployment,
    checker: &mut IncrementalChecker,
) -> Result<(), String> {
    let tenants = d.plan.tenants.len();
    match rng.below(9) {
        // Wipe a vswitch, then reinstall a random prefix of its rules in
        // dump order — crash recovery that may stop partway.
        0 => {
            let v = rng.index(d.vswitches.len());
            let dump = d.vswitches[v].sw.dump_rules();
            d.vswitches[v].sw.clear();
            step(checker, d, &ConfigDelta::RulesWiped { vswitch: v });
            check_equiv(checker, d, "wipe")?;
            let keep = rng.index(dump.len() + 1);
            for (table, rule) in dump.into_iter().take(keep) {
                d.vswitches[v]
                    .sw
                    .install(table, rule.clone())
                    .map_err(|e| format!("{e:?}"))?;
                step(
                    checker,
                    d,
                    &ConfigDelta::RuleInstalled {
                        vswitch: v,
                        table,
                        rule,
                    },
                );
                check_equiv(checker, d, "reinstall")?;
            }
            Ok(())
        }
        // Remove every rule carrying one cookie — one switch call, one
        // delta per removed rule, compared at the operation boundary.
        1 => {
            let v = rng.index(d.vswitches.len());
            let dump = d.vswitches[v].sw.dump_rules();
            let Some((_, probe)) = dump.get(rng.index(dump.len().max(1))) else {
                return Ok(());
            };
            let cookie = probe.cookie;
            d.vswitches[v].sw.remove_by_cookie(cookie);
            for (table, rule) in dump.into_iter().filter(|(_, r)| r.cookie == cookie) {
                step(
                    checker,
                    d,
                    &ConfigDelta::RuleRemoved {
                        vswitch: v,
                        table,
                        rule,
                    },
                );
            }
            check_equiv(checker, d, "remove-by-cookie")
        }
        // Static MAC remove + reinstall (net zero, exercises both paths).
        2 => {
            let r = d.plan.tenants[rng.index(tenants)].vf[0].0;
            let statics = d.nic.pf(r.pf).map_err(|e| e.to_string())?.static_macs();
            let Some((vlan, mac, port)) = statics.get(rng.index(statics.len().max(1))).cloned()
            else {
                return Ok(());
            };
            let pf_mut = d.nic.pf_mut(r.pf).map_err(|e| e.to_string())?;
            pf_mut.remove_static_mac(vlan, mac);
            step(
                checker,
                d,
                &ConfigDelta::StaticRemoved {
                    pf: r.pf.0,
                    vlan,
                    mac,
                },
            );
            check_equiv(checker, d, "static-remove")?;
            let pf_mut = d.nic.pf_mut(r.pf).map_err(|e| e.to_string())?;
            pf_mut.install_static_mac(vlan, mac, port);
            step(
                checker,
                d,
                &ConfigDelta::StaticInstalled {
                    pf: r.pf.0,
                    vlan,
                    mac,
                    port,
                },
            );
            check_equiv(checker, d, "static-install")
        }
        // VEB flush: statics rebuilt from VF configs.
        3 => {
            let r = d.plan.tenants[rng.index(tenants)].vf[0].0;
            d.nic.pf_mut(r.pf).map_err(|e| e.to_string())?.flush_table();
            step(checker, d, &ConfigDelta::VebFlushed { pf: r.pf.0 });
            check_equiv(checker, d, "veb-flush")
        }
        // Filter list rotated by one: same rules, new install order.
        4 => {
            let r = d.plan.tenants[rng.index(tenants)].vf[0].0;
            let mut filters = d
                .nic
                .pf(r.pf)
                .map_err(|e| e.to_string())?
                .filters()
                .to_vec();
            if filters.len() > 1 {
                filters.rotate_left(1);
            }
            d.nic
                .pf_mut(r.pf)
                .map_err(|e| e.to_string())?
                .set_filters(filters.clone());
            step(
                checker,
                d,
                &ConfigDelta::FiltersSet {
                    pf: r.pf.0,
                    filters,
                },
            );
            check_equiv(checker, d, "filters-rotate")
        }
        // Liveness flap: no configuration change, no verdict movement.
        5 => {
            let v = rng.index(d.vswitches.len());
            step(checker, d, &ConfigDelta::VswitchDown { vswitch: v });
            check_equiv(checker, d, "vswitch-down")?;
            step(checker, d, &ConfigDelta::VswitchUp { vswitch: v });
            check_equiv(checker, d, "vswitch-up")
        }
        // Move a random VF onto a random tenant's VLAN — sometimes another
        // tenant's, deliberately creating real cross-tenant reachability.
        6 => {
            let t = rng.index(tenants);
            let vfs = &d.plan.tenants[t].vf;
            let r = vfs[rng.index(vfs.len())].0;
            let vlan = d.plan.tenants[rng.index(tenants)].vlan;
            d.nic
                .host_set_vf_vlan(r.pf, r.vf, Some(vlan))
                .map_err(|e| e.to_string())?;
            let delta = vf_delta(d, r)?;
            step(checker, d, &delta);
            check_equiv(checker, d, "vf-vlan-move")
        }
        // A rule naming a value the atomization does not have.
        8 => {
            let v = rng.index(d.vswitches.len());
            let (kind, n) = (rng.below(3), rng.below(256) as u8);
            let priority = rng.between(1, 100) as u16;
            fresh_value_op(d, checker, v, kind, n, priority)
        }
        // Toggle spoof-check on a random VF.
        _ => {
            let t = rng.index(tenants);
            let vfs = &d.plan.tenants[t].vf;
            let r = vfs[rng.index(vfs.len())].0;
            let cur = d
                .nic
                .pf(r.pf)
                .map_err(|e| e.to_string())?
                .vf(r.vf)
                .map(|c| c.spoof_check)
                .unwrap_or(true);
            d.nic
                .host_set_vf_spoofchk(r.pf, r.vf, !cur)
                .map_err(|e| e.to_string())?;
            let delta = vf_delta(d, r)?;
            step(checker, d, &delta);
            check_equiv(checker, d, "spoofchk-toggle")
        }
    }
}

fn run_stream(seed: u64, spec: DeploymentSpec, ops: usize) -> Result<(), String> {
    let mut rng = DetRng::new(seed).derive("incremental-equiv");
    let mut d = Controller::deploy(spec).map_err(|e| e.to_string())?;
    let mut checker = IncrementalChecker::of_deployment(&d).map_err(|e| e.to_string())?;
    check_equiv(&mut checker, &d, "construction")?;
    for _ in 0..ops {
        random_op(&mut rng, &mut d, &mut checker)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    #[test]
    fn incremental_matches_full_after_every_delta(seed in any::<u64>(), spec_idx in 0usize..8) {
        let matrix = mts_isocheck::shipped_matrix();
        let spec = matrix[spec_idx % matrix.len()];
        if let Err(e) = run_stream(seed, spec, 12) {
            panic!("{e}");
        }
    }
}

/// Each kind of fresh value, on every shipped configuration.
#[test]
fn fresh_values_rebuild_the_atoms_and_stay_identical() {
    for spec in mts_isocheck::shipped_matrix() {
        let mut d = Controller::deploy(spec).expect("deploy");
        let mut checker = IncrementalChecker::of_deployment(&d).expect("checker");
        for kind in 0..3 {
            if let Err(e) = fresh_value_op(&mut d, &mut checker, 0, kind, 0x42, 50) {
                panic!("{}: {e}", spec.label());
            }
        }
    }
}

/// Negative control: a VLAN-reuse misconfiguration injected *as a delta*
/// mid-run must surface as a cross-tenant-reach violation in the
/// incremental verdict, stay byte-identical to the full verifier while
/// the violation is present, and survive further churn.
#[test]
fn vlan_reuse_via_delta_mid_run_is_detected_and_identical() {
    let spec = control_spec();
    let mut d = Controller::deploy(spec).expect("deploy");
    let mut checker = IncrementalChecker::of_deployment(&d).expect("checker");
    check_equiv(&mut checker, &d, "construction").unwrap();

    // Benign churn prefix.
    let r0 = d.plan.tenants[0].vf[0].0;
    d.nic.pf_mut(r0.pf).expect("pf").flush_table();
    step(&mut checker, &d, &ConfigDelta::VebFlushed { pf: r0.pf.0 });
    check_equiv(&mut checker, &d, "prefix veb-flush").unwrap();
    step(&mut checker, &d, &ConfigDelta::VswitchDown { vswitch: 0 });
    step(&mut checker, &d, &ConfigDelta::VswitchUp { vswitch: 0 });
    check_equiv(&mut checker, &d, "prefix liveness flap").unwrap();

    // The misconfiguration, expressed as the delta the host would emit.
    let t0_vlan = d.plan.tenants[0].vlan;
    let r1 = d.plan.tenants[1].vf[0].0;
    d.nic
        .host_set_vf_vlan(r1.pf, r1.vf, Some(t0_vlan))
        .expect("set vlan");
    let delta = vf_delta(&d, r1).expect("vf delta");
    step(&mut checker, &d, &delta);
    check_equiv(&mut checker, &d, "vlan reuse").unwrap();
    let verdict = checker.report().expect("report");
    assert!(
        Misconfig::VlanReuse.detected_in(&verdict),
        "incremental verdict missed the injected VLAN reuse:\n{verdict}"
    );

    // Churn after the violation: full wipe + reinstall of vswitch 0.
    let dump = d.vswitches[0].sw.dump_rules();
    d.vswitches[0].sw.clear();
    step(&mut checker, &d, &ConfigDelta::RulesWiped { vswitch: 0 });
    check_equiv(&mut checker, &d, "post-violation wipe").unwrap();
    for (table, rule) in dump {
        d.vswitches[0]
            .sw
            .install(table, rule.clone())
            .expect("reinstall");
        step(
            &mut checker,
            &d,
            &ConfigDelta::RuleInstalled {
                vswitch: 0,
                table,
                rule,
            },
        );
    }
    check_equiv(&mut checker, &d, "post-violation reinstall").unwrap();
    let verdict = checker.report().expect("report");
    assert!(
        Misconfig::VlanReuse.detected_in(&verdict),
        "VLAN reuse no longer detected after churn:\n{verdict}"
    );
}
