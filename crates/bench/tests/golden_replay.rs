//! Golden-replay determinism tests: re-running the quick SLO and faults
//! panels, the quick TCP workloads, the controller's deployments and the
//! verifier's reports must reproduce the committed files byte for byte.
//!
//! The panels are pure functions of (spec, seed): no wall clock, no host
//! state, no iteration-order dependence may leak into their output. These
//! tests pin that contract against files under `results/golden/`, so any
//! engine change that silently perturbs event ordering, RNG draws, or
//! float accumulation fails CI with a diff instead of shipping.
//!
//! To re-bless after an *intentional* output change:
//!
//! ```text
//! MTS_BLESS=1 cargo test -p mts-bench --test golden_replay
//! ```

use std::fmt::Write;
use std::fs;
use std::path::PathBuf;

use mts_bench::figures::fig6_csv;
use mts_bench::slo;
use mts_core::controller::{Controller, DeployError, Deployment};
use mts_core::overlay::{install_overlay_rules, OverlayConfig};
use mts_core::reconcile;
use mts_core::runtime::{RuntimeCfg, World};
use mts_core::spec::{DeploymentSpec, Scenario, SecurityLevel};
use mts_core::workloads::{run_workload, Workload, WorkloadOpts};
use mts_faults::{blast_radius_panel, experiment, run_traced, FaultCase, FaultOpts};
use mts_host::ResourceMode;
use mts_isocheck::{analyze, IncrementalChecker, Misconfig, Model};
use mts_nic::PfId;
use mts_sim::{Dur, Time};
use mts_vswitch::{Action, DatapathKind, FlowMatch, FlowRule};

fn golden_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .join("results/golden")
}

fn check_or_bless(name: &str, fresh: &str) {
    let path = golden_dir().join(name);
    if std::env::var_os("MTS_BLESS").is_some() {
        fs::create_dir_all(golden_dir()).expect("create results/golden");
        fs::write(&path, fresh).expect("write golden");
        return;
    }
    let committed = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}; run with MTS_BLESS=1", path.display()));
    assert!(
        committed == fresh,
        "{name}: replay diverged from committed golden ({} vs {} bytes).\n\
         If the output change is intentional, re-bless with\n\
         MTS_BLESS=1 cargo test -p mts-bench --test golden_replay",
        committed.len(),
        fresh.len()
    );
}

#[test]
fn slo_panel_replays_byte_identical() {
    let panel = slo::run_slo_panel(true).expect("quick slo panel");
    check_or_bless("slo_matrix.quick.csv", &slo::matrix_csv(&panel.cells));
    check_or_bless(
        "slo_billing_accuracy.quick.csv",
        &slo::accuracy_csv(&panel.accuracy),
    );
    check_or_bless(
        "slo_conservation.quick.csv",
        &slo::conservation_csv(&panel.conservation),
    );
}

#[test]
fn faults_panel_replays_byte_identical() {
    // Mirrors the repro binary's quick-mode options exactly.
    let opts = FaultOpts {
        rate_pps: 100_000.0,
        run_for: Dur::millis(15),
        fault_at: Time::from_nanos(5_000_000),
        drain: Dur::millis(12),
        ..FaultOpts::default()
    };
    let cells = blast_radius_panel(opts).expect("quick faults panel");
    check_or_bless("faults_blast_radius.quick.csv", &experiment::to_csv(&cells));
}

/// The metrics `repro --quick faults --metrics-out` writes: the traced
/// Level-2 p2v crash-and-recover cell, whose supervisor, fault, config-delta,
/// reconcile and fault-drop series the short telemetry golden never makes.
/// Metrics carry no frame ids, so this shares a binary with other tests.
#[test]
fn fault_metrics_replay_byte_identical() {
    let opts = FaultOpts {
        rate_pps: 100_000.0,
        run_for: Dur::millis(15),
        fault_at: Time::from_nanos(5_000_000),
        drain: Dur::millis(12),
        ..FaultOpts::default()
    };
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let w = run_traced(spec, FaultCase::Crash, opts).expect("traced fault run deploys");
    let rec = w.telemetry.recorder().expect("telemetry records");
    check_or_bless(
        "faults_metrics.quick.prom",
        &rec.metrics.render_prometheus(),
    );
    check_or_bless("faults_metrics.quick.jsonl", &rec.metrics.render_jsonl());
}

/// The TCP stack and hosts behind Fig. 6, gated where `fig6_*.csv` are not:
/// every workload on Baseline (shared core) and Level-2 (isolated), p2v and
/// v2v, over windows short enough for a debug build, plus Level-2 p2v iperf
/// and Apache on shallow rx rings, where tail drops exercise retransmission,
/// fast recovery and reassembly (the full-depth runs lose nothing). One line
/// per host: the run's `fig6_csv` columns, its rx ring depth, then that
/// host's TCP counters over every connection it had, then the run's drops
/// by cause.
#[test]
fn tcp_workloads_replay_byte_identical() {
    let opts = WorkloadOpts {
        duration: Dur::millis(30),
        warmup: Dur::millis(15),
        ab_concurrency: 16,
        memslap_connections: 8,
        seed: 3,
        ..WorkloadOpts::default()
    };
    let level2 = |scenario| {
        DeploymentSpec::mts(
            SecurityLevel::Level2 { compartments: 2 },
            DatapathKind::Kernel,
            ResourceMode::Isolated,
            scenario,
        )
    };
    let mut runs = Vec::new();
    for scenario in [Scenario::P2v, Scenario::V2v] {
        let baseline =
            DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, scenario);
        for spec in [baseline, level2(scenario)] {
            runs.extend(Workload::ALL.map(|workload| (spec, workload, opts)));
        }
    }
    let shallow = WorkloadOpts {
        rx_ring: 16,
        ..opts
    };
    for workload in [Workload::Iperf, Workload::Apache] {
        runs.push((level2(Scenario::P2v), workload, shallow));
    }

    let mut csv = String::new();
    for (spec, workload, opts) in runs {
        let r = run_workload(spec, workload, opts).expect("deploys");
        let fig6 = fig6_csv(std::slice::from_ref(&r));
        let (header, row) = fig6.trim_end().split_once('\n').expect("one row");
        if csv.is_empty() {
            csv = format!(
                "{header},rx_ring,host,retransmits,timeouts,fast_retransmits,dup_acks,\
                 ooo_segments,bytes_acked,bytes_delivered,drops\n"
            );
        }
        let drops: Vec<String> = r.drops.iter().map(|(k, v)| format!("{k}={v}")).collect();
        for (host, s) in &r.tcp {
            csv.push_str(&format!(
                "{row},{},{host},{},{},{},{},{},{},{},{}\n",
                opts.rx_ring,
                s.retransmits,
                s.timeouts,
                s.fast_retransmits,
                s.dup_acks,
                s.ooo_segments,
                s.bytes_acked,
                s.bytes_delivered,
                drops.join(";")
            ));
        }
    }
    check_or_bless("tcp_workloads.quick.csv", &csv);
}

/// Renders what a deployment programmed into its devices, in a fixed order:
/// per PF its static MAC entries, filters and VFs; per vswitch its ports
/// with their attachments, its proxy-ARP entries and its rules in dump
/// order.
fn dump_deployment(out: &mut String, d: &Deployment) {
    for p in 0..d.ports {
        let pf = d.nic.pf(PfId(p)).expect("deployed PF");
        writeln!(out, "pf{p} statics:").expect("write to String");
        for (vlan, mac, port) in pf.static_macs() {
            writeln!(out, "  vlan {vlan} {mac} -> {port}").expect("write to String");
        }
        writeln!(out, "pf{p} filters:").expect("write to String");
        for f in pf.filters() {
            writeln!(out, "  {f:?}").expect("write to String");
        }
        writeln!(out, "pf{p} vfs:").expect("write to String");
        for (id, cfg) in pf.vfs() {
            writeln!(out, "  {id} {cfg:?}").expect("write to String");
        }
    }
    for inst in &d.vswitches {
        writeln!(out, "vswitch {} {}:", inst.index, inst.sw.name()).expect("write to String");
        for (no, info) in inst.sw.ports() {
            let attach = inst.attach.get(&no);
            writeln!(out, "  port {no} {} {:?} {attach:?}", info.name, info.kind)
                .expect("write to String");
        }
        for (ip, mac) in &inst.proxy_arp {
            writeln!(out, "  proxy-arp {ip} {mac}").expect("write to String");
        }
        for (table, rule) in inst.sw.dump_rules() {
            writeln!(out, "  table {table} {rule:?}").expect("write to String");
        }
    }
}

/// What the controller programs, device by device: every shipped
/// configuration and the kernel Baseline in each scenario, each through
/// `deploy` (Sec. 4, two ports) and `deploy_workload` (Sec. 5, one port),
/// plus `repro overlay`'s deployment. Labelled as `deploy.quick.txt`
/// heads them.
fn golden_deployments() -> Vec<(String, Result<Deployment, DeployError>)> {
    let mut specs = mts_isocheck::shipped_matrix();
    specs.extend(
        Scenario::ALL
            .map(|s| DeploymentSpec::baseline(DatapathKind::Kernel, ResourceMode::Shared, 1, s)),
    );
    let mut out = Vec::new();
    for spec in specs {
        out.push((format!("deploy {spec:?}"), Controller::deploy(spec)));
        out.push((
            format!("deploy_workload {spec:?}"),
            Controller::deploy_workload(spec),
        ));
    }
    let overlay = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 2 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let mut d = Controller::build(overlay, 2).expect("overlay deploys");
    install_overlay_rules(&mut d, OverlayConfig::default()).expect("overlay rules install");
    out.push((format!("overlay {overlay:?}"), Ok(d)));
    out
}

/// The golden deployments' devices, then the isolation matrix, whose
/// attacks probe those devices.
#[test]
fn deployments_replay_byte_identical() {
    let mut out = String::new();
    for (label, deployed) in golden_deployments() {
        writeln!(out, "== {label}").expect("write to String");
        match deployed {
            Ok(d) => dump_deployment(&mut out, &d),
            Err(e) => writeln!(out, "error: {e}").expect("write to String"),
        }
    }
    out.push_str(&mts_bench::figures::isolation_matrix());
    check_or_bless("deploy.quick.txt", &out);
}

/// Deploy is reconcile from empty, so a fresh world's devices read back as
/// its desired config, in the devices' own order (which recovery's
/// `RuleInstalled` deltas follow); it has nothing to repair and no deltas
/// on record. The model of its intent earns the verdict `verify` gives its
/// devices.
#[test]
fn reconcile_on_a_fresh_world_has_zero_churn() {
    for (label, deployed) in golden_deployments() {
        let Ok(d) = deployed else { continue };
        let spec = d.spec;
        let full = mts_isocheck::verify(&d).expect("verifies").to_string();
        let mut w = World::new(d, RuntimeCfg::for_spec(&spec), 11);
        let devices = reconcile::observed(&w.nic, w.vswitches.iter().map(|vs| &vs.inst.sw));
        assert_eq!(devices, w.desired, "{label}");
        let intent = Model::of_intent(&w).expect("intent model builds");
        assert!(
            analyze(&intent).to_string() == full,
            "{label}: intent verdict"
        );
        assert!(w.deltas.is_empty(), "{label}: deploy's deltas were kept");
        let r = reconcile(&mut w);
        assert_eq!(r.churn(), 0, "{label}: {r}");
    }
}

/// The converge pass that deploys a spec, rerun on its empty topology and
/// fed delta by delta to an incremental checker, lands on the devices the
/// deployment holds and on the verdict `verify` gives from scratch.
#[test]
fn deploy_deltas_reach_the_full_verdict_incrementally() {
    for (label, deployed) in golden_deployments() {
        let Ok(d) = deployed else { continue };
        let mut empty = Controller::topology(d.spec, d.ports);
        empty.desired = d.desired.clone();
        let mut checker = IncrementalChecker::of_deployment(&empty).expect("checker builds");
        empty
            .converge(&mut |delta| {
                checker.apply(&delta);
            })
            .expect("the empty topology converges");
        let (mut want, mut have) = (String::new(), String::new());
        dump_deployment(&mut want, &d);
        dump_deployment(&mut have, &empty);
        assert!(want == have, "{label}: devices differ");
        let full = mts_isocheck::verify(&d).expect("verifies").to_string();
        let fed = checker.report().expect("verdict").to_string();
        assert!(fed == full, "{label}:\n{fed}\nvs\n{full}");
    }
}

/// The verifier's reports, gated where `repro verify` is not: that target
/// holds the incremental checker to the from-scratch one, and both run the
/// same cube algebra, so a change to it moves both sides together. Pinned
/// here: every shipped report, every seeded misconfiguration's report with
/// its witnesses, the model notes of the Baseline reports and of an overlay
/// deployment, the Baseline-vs-hardened diffs, and the incremental verdict
/// after every delta of `verify-churn-l2-4`'s fault-recovery stream (its VEB
/// flush and first static reinstall leave transient `HostReach` witnesses).
#[test]
fn isocheck_reports_replay_byte_identical() {
    let mut out = String::new();
    for r in mts_isocheck::verify_shipped().expect("shipped configurations verify") {
        writeln!(out, "{r}").expect("write to String");
    }

    // The control `repro verify` seeds its misconfigurations into.
    let control = DeploymentSpec::mts(
        SecurityLevel::Level1,
        DatapathKind::Kernel,
        ResourceMode::Shared,
        Scenario::P2v,
    );
    for mc in Misconfig::ALL {
        let mut d = Controller::deploy(control).expect("control deploys");
        let what = mc.seed(&mut d).expect("misconfiguration seeds");
        let r = mts_isocheck::verify(&d).expect("seeded deployment verifies");
        writeln!(out, "-- seeded {}: {what}\n{r}", mc.label()).expect("write to String");
    }

    for scenario in Scenario::ALL {
        let base = DeploymentSpec::mts(
            SecurityLevel::Baseline,
            DatapathKind::Kernel,
            ResourceMode::Shared,
            scenario,
        );
        let r = mts_isocheck::verify_spec(base).expect("baseline verifies");
        writeln!(out, "{r}").expect("write to String");
    }
    // VXLAN and NORMAL notes, from several vswitches: `repro overlay`'s
    // rules on four compartments, plus a fat-fingered NORMAL rule.
    let overlay = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 4 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let mut d = Controller::build(overlay, 2).expect("overlay deploys");
    install_overlay_rules(&mut d, OverlayConfig::default()).expect("overlay rules install");
    d.vswitches[2]
        .sw
        .install(0, FlowRule::new(1, FlowMatch::any(), vec![Action::Normal]))
        .expect("NORMAL rule installs");
    let r = mts_isocheck::verify(&d).expect("overlay verifies");
    writeln!(out, "{r}").expect("write to String");

    for spec in mts_isocheck::shipped_matrix() {
        let base = DeploymentSpec::mts(
            SecurityLevel::Baseline,
            spec.datapath,
            spec.resource_mode,
            spec.scenario,
        );
        let base = Controller::deploy(base).expect("baseline deploys");
        let hard = Controller::deploy(spec).expect("hardened deploys");
        let diff = mts_isocheck::diff_levels(&base, &hard).expect("levels diff");
        writeln!(out, "{diff}").expect("write to String");
    }

    // `benchmark/`'s verify-churn-l2-4 stream and world.
    let spec = DeploymentSpec::mts(
        SecurityLevel::Level2 { compartments: 4 },
        DatapathKind::Kernel,
        ResourceMode::Isolated,
        Scenario::P2v,
    );
    let opts = FaultOpts {
        rate_pps: 50_000.0,
        seed: 1,
        ..FaultOpts::default()
    };
    let mut deltas = Vec::new();
    for case in [
        FaultCase::CrashLoop,
        FaultCase::WipeFlows,
        FaultCase::LoseRules,
        FaultCase::FlushVeb,
        FaultCase::Crash,
    ] {
        let mut w = run_traced(spec, case, opts).expect("fault run deploys");
        deltas.extend(w.deltas.drain().into_iter().map(|(_, d)| d));
    }
    let mut cfg = RuntimeCfg::for_spec(&spec);
    cfg.offered_pps = opts.rate_pps;
    let world = World::new(Controller::deploy(spec).expect("deploys"), cfg, 11);
    let mut checker = IncrementalChecker::of_world(&world).expect("checker builds");
    let first = checker.report().expect("verdict");
    writeln!(
        out,
        "-- verify-churn-l2-4: {} deltas\n{first}",
        deltas.len()
    )
    .expect("write to String");
    for (i, d) in deltas.iter().enumerate() {
        checker.apply(d);
        let r = checker.report().expect("verdict");
        writeln!(out, "-- delta {i}: {d}\n{r}").expect("write to String");
    }
    check_or_bless("isocheck.quick.txt", &out);
}
