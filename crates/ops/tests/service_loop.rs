//! End-to-end properties of the long-running service loop: every
//! cycle deploys (or degrades with a typed reason, never aborts), the
//! churn cap bounds per-cycle migration with deferrals that drain,
//! stale-serve windows account their denials, exhausted retries fall
//! back to the last-good deployment, the watchdog degrades stalled
//! cycles, and kill/corruption at any point re-converges to the
//! uninterrupted run's deployments bit for bit.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]

use std::path::PathBuf;
use vod_core::{DiskConfig, EpfConfig};
use vod_estimate::{EstimateConfig, EstimatorKind};
use vod_model::{LinkId, Mbps, SimTime, VhoId};
use vod_net::{topologies, PathSet};
use vod_ops::{
    apply_churn_cap, DegradeReason, DeltaOp, OpsConfig, OpsError, OpsWorld, RecoveryAction,
    Service, ServiceConfig, ServicePlan, ServiceState, StageId, StepOutcome, WorldDelta,
};
use vod_sim::{FaultEvent, FaultKind, FaultSchedule};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

fn world(seed: u64) -> OpsWorld {
    let mut net = topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let paths = PathSet::shortest_paths(&net);
    let catalog = synthesize_library(&LibraryConfig::default_for(50, 14, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(600.0, 14, seed));
    let disks = DiskConfig::UniformRatio { ratio: 2.5 }.capacities(&net, catalog.total_size());
    OpsWorld {
        net,
        paths,
        catalog,
        trace,
        disks,
        mip_disk: DiskConfig::UniformRatio { ratio: 2.0 },
        est: EstimateConfig::default(),
    }
}

fn config(seed: u64, dir: PathBuf) -> ServiceConfig {
    ServiceConfig {
        ops: OpsConfig {
            cycles: 3,
            period_days: 2,
            start_day: 7,
            estimator: EstimatorKind::History,
            epf: EpfConfig {
                max_passes: 60,
                seed,
                ..EpfConfig::default()
            },
            max_attempts: 3,
            checkpoint_every: 3,
            backoff_base_ms: 250,
            validate_tol: 1e-6,
            simulate: true,
            state_dir: dir,
        },
        churn_cap: None,
        cycle_step_budget: None,
        watchdog_budget: 32,
        cycle_faults: Vec::new(),
        cycle_deltas: Vec::new(),
    }
}

/// A clean per-test state directory (stale state from a previous test
/// process would otherwise be resumed).
fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vod_svc_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

#[test]
fn clean_service_run_deploys_every_cycle() {
    let w = world(42);
    let mut s =
        Service::resume_or_start(&w, config(42, fresh_dir("clean")), ServicePlan::default())
            .unwrap();
    let n = s.effective_cycles();
    assert!(n >= 2, "world too small for a meaningful schedule");
    let st = s.run().unwrap();
    assert_eq!(st.records.len(), n);
    for r in &st.records {
        assert!(
            r.degraded.is_none(),
            "cycle {} degraded: {:?}",
            r.cycle,
            r.degraded
        );
        assert!(!r.stale);
        assert_ne!(r.placement_fnv, 0, "cycle {} deployed nothing", r.cycle);
        let obj = r.objective.unwrap();
        let lb = r.lower_bound.unwrap();
        assert!(
            lb <= obj * (1.0 + 1e-9),
            "cycle {}: lower bound {lb} above objective {obj}",
            r.cycle
        );
        let rate = r.denial_rate.unwrap();
        assert!((0.0..=1.0).contains(&rate));
        assert!(r.sim.as_ref().unwrap().total_requests > 0);
    }
    // Uncapped: the bootstrap is free and nothing is ever deferred.
    assert_eq!(st.records[0].moved, 0);
    assert!(st.records.iter().all(|r| r.deferred == 0));
    // Re-anchored warm solves actually move copies after bootstrap.
    assert!(st.records.iter().skip(1).any(|r| r.moved > 0));
}

#[test]
fn service_runs_are_deterministic() {
    let w = world(48);
    let a = Service::resume_or_start(&w, config(48, fresh_dir("det_a")), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    let b = Service::resume_or_start(&w, config(48, fresh_dir("det_b")), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    assert_eq!(fingerprints(&a), fingerprints(&b));
    assert_eq!(
        a.records.iter().map(|r| r.denied).collect::<Vec<_>>(),
        b.records.iter().map(|r| r.denied).collect::<Vec<_>>()
    );
}

#[test]
fn churn_cap_is_enforced_and_deferrals_drain() {
    let w = world(43);

    // Uncapped twin: its final deployment is a full solver target.
    let base = Service::resume_or_start(
        &w,
        config(43, fresh_dir("cap_base")),
        ServicePlan::default(),
    )
    .unwrap()
    .run()
    .unwrap()
    .clone();
    let full_target = base.deployed.as_ref().unwrap().1.clone();

    let mut cfg = config(43, fresh_dir("capped"));
    cfg.churn_cap = Some(1);
    let st = Service::resume_or_start(&w, cfg, ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    for r in &st.records {
        assert!(r.moved <= 1, "cycle {} moved {} > cap 1", r.cycle, r.moved);
        assert!(r.degraded.is_none());
    }
    assert!(
        st.records.iter().any(|r| r.deferred > 0),
        "cap 1 never created deferral pressure: {:?}",
        st.records.iter().map(|r| r.deferred).collect::<Vec<_>>()
    );

    // Drain: keep applying the capped diff toward a fixed target; the
    // queue must empty and the hybrid must converge, one copy per
    // round, with the cap never exceeded.
    let (_, mut current) = st.deployed.clone().unwrap();
    let mut deferred = st.deferred.clone();
    let total_gap = full_target.migration_copies_from(&current);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(
            rounds <= total_gap + 2,
            "queue failed to drain within {total_gap} + 2 rounds"
        );
        let plan =
            apply_churn_cap(&current, &full_target, Some(1), &deferred, 100 + rounds).unwrap();
        assert!(plan.moved <= 1);
        current = plan.placement;
        deferred = plan.deferred;
        if deferred.is_empty() && current.holder_lists() == full_target.holder_lists() {
            break;
        }
    }
}

#[test]
fn stale_serve_accounts_denials_instead_of_aborting() {
    let w = world(44);
    // Exhaust cycle 0's solve retries with nothing deployed yet: the
    // service must stale-serve and keep going, never abort.
    let plan = ServicePlan {
        fail: (0..3).map(|a| (0, StageId::Solve, a)).collect(),
        ..ServicePlan::default()
    };
    let mut s = Service::resume_or_start(&w, config(44, fresh_dir("stale")), plan).unwrap();
    let st = s.run().unwrap();
    let bad = &st.records[0];
    assert!(matches!(
        bad.degraded,
        Some(DegradeReason::StageFailed {
            stage: StageId::Solve,
            ..
        })
    ));
    assert!(bad.stale);
    assert_eq!(bad.placement_fnv, 0);
    assert_eq!(bad.denial_rate, Some(1.0));
    assert!(bad.denied > 0, "a stale-served window must count denials");
    assert!(bad.recoveries.contains(&RecoveryAction::StaleServe));
    assert_eq!(st.stale_serves, 1);
    // The very next cycle recovers with a fresh deployment.
    let good = &st.records[1];
    assert!(good.degraded.is_none());
    assert_ne!(good.placement_fnv, 0);
    assert!(!good.stale);
}

/// Exhaust every allowed attempt of `stage` in cycle 1 and check the
/// last-good rung: the cycle closes on cycle 0's deployment with the
/// failing stage recorded, and cycle 2 deploys fresh again.
fn exhausted_retries_serve_last_good(seed: u64, stage: StageId, simulate: bool) {
    let w = world(seed);
    let mut cfg = config(seed, fresh_dir(&format!("lastgood_{stage}")));
    cfg.ops.simulate = simulate;
    let plan = ServicePlan {
        fail: (0..3).map(|a| (1, stage, a)).collect(),
        ..ServicePlan::default()
    };
    let mut s = Service::resume_or_start(&w, cfg, plan).unwrap();
    let st = s.run().unwrap();
    assert_eq!(st.records.len(), 3);
    let good = &st.records[0];
    let bad = &st.records[1];
    assert!(good.degraded.is_none());
    match bad.degraded.as_ref().unwrap() {
        DegradeReason::StageFailed {
            stage: failed,
            attempts,
            last_error,
        } => {
            assert_eq!(*failed, stage);
            assert_eq!(*attempts, 3);
            assert!(last_error.contains("injected"), "{last_error}");
        }
        other => panic!("wrong degrade reason: {other:?}"),
    }
    assert!(bad.recoveries.contains(&RecoveryAction::LastGood));
    assert!(!bad.stale);
    // The degraded cycle serves the previous cycle's placement …
    assert_eq!(bad.placement_fnv, good.placement_fnv);
    assert!(bad.objective.is_none());
    // … and its recorded backoff grew across the retries.
    assert!(bad.backoff_ms > 0);
    // Cycle 2 recovers with a fresh solve anchored on that placement.
    assert!(st.records[2].degraded.is_none());
    assert!(st.records[2].objective.is_some());
}

#[test]
fn exhausted_solve_retries_degrade_to_last_good() {
    exhausted_retries_serve_last_good(53, StageId::Solve, true);
}

#[test]
fn exhausted_validate_retries_degrade_to_last_good() {
    exhausted_retries_serve_last_good(54, StageId::Validate, false);
}

#[test]
fn watchdog_degrades_stalled_cycles_with_typed_reason() {
    let w = world(45);
    let mut cfg = config(45, fresh_dir("stall"));
    // Three ticks cannot close a five-stage cycle: every cycle stalls
    // at the round stage, deterministically.
    cfg.watchdog_budget = 3;
    let mut s = Service::resume_or_start(&w, cfg, ServicePlan::default()).unwrap();
    let st = s.run().unwrap();
    assert!(!st.records.is_empty());
    for r in &st.records {
        match r.degraded.as_ref().unwrap() {
            DegradeReason::Stalled {
                stage,
                ticks,
                budget,
            } => {
                assert_eq!(*stage, StageId::Round);
                assert_eq!(*budget, 3);
                assert!(*ticks >= *budget);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert!(r.stale, "no cycle ever deployed, so all serve stale");
    }
}

#[test]
fn replay_faults_change_denials_but_never_placements() {
    let w = world(46);
    let quiet =
        Service::resume_or_start(&w, config(46, fresh_dir("quiet")), ServicePlan::default())
            .unwrap()
            .run()
            .unwrap()
            .clone();
    let mut cfg = config(46, fresh_dir("stormy"));
    // A full-window storm in cycle 1: two VHOs dark, admission control
    // on. This only touches the replay stage — the solve trajectory
    // must be untouched.
    let horizon = w.trace.horizon();
    cfg.cycle_faults = vec![(
        1,
        FaultSchedule {
            events: vec![
                FaultEvent {
                    start: SimTime::new(0),
                    end: horizon,
                    kind: FaultKind::VhoOutage { vho: VhoId::new(1) },
                },
                FaultEvent {
                    start: SimTime::new(0),
                    end: horizon,
                    kind: FaultKind::VhoOutage { vho: VhoId::new(2) },
                },
            ],
            admission: true,
        },
    )];
    let stormy = Service::resume_or_start(&w, cfg, ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    assert_eq!(fingerprints(&quiet), fingerprints(&stormy));
    assert!(
        stormy.records[1].denied >= quiet.records[1].denied,
        "an outage storm cannot reduce denials"
    );
}

#[test]
fn kills_and_torn_state_resume_to_identical_deployments() {
    let w = world(47);
    let base = Service::resume_or_start(
        &w,
        config(47, fresh_dir("kill_base")),
        ServicePlan::default(),
    )
    .unwrap()
    .run()
    .unwrap()
    .clone();
    let base_fps = fingerprints(&base);

    // Chaos run: stage-boundary kills, a mid-solve kill, and a torn
    // state file after the first crash. Every crash drops the service
    // value and rebuilds it from the durable state alone.
    let dir = fresh_dir("kill_resume");
    let mut stage_kills = vec![(0usize, StageId::Solve), (2usize, StageId::Validate)];
    let mut solve_kills = vec![(1usize, 1u64)];
    let mut torn = false;
    let mut crashes = 0usize;
    loop {
        let plan = ServicePlan {
            fail: Vec::new(),
            kill_at_stage: stage_kills.clone(),
            kill_mid_solve: solve_kills.clone(),
        };
        let mut s = Service::resume_or_start(&w, config(47, dir.clone()), plan).unwrap();
        let mut crashed = false;
        loop {
            match s.step().unwrap() {
                StepOutcome::SimulatedCrash { cycle } => {
                    // Drop whichever kill just fired so the "restart"
                    // makes progress past it: a stage kill reports with
                    // the stage still pending, a mid-solve kill leaves
                    // the solve stage current.
                    let stg = s.state().stage;
                    if stage_kills.contains(&(cycle, stg)) {
                        stage_kills.retain(|&k| k != (cycle, stg));
                    } else {
                        solve_kills.retain(|(c, _)| *c != cycle);
                    }
                    crashed = true;
                    crashes += 1;
                    break;
                }
                StepOutcome::Finished => break,
                _ => {}
            }
        }
        if crashed {
            if !torn {
                // Tear the state file mid-write: the next resume must
                // cold-restart (typed, counted) and replay to the same
                // deployments.
                let path = dir.join("service.state");
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len().min(23)]).unwrap();
                torn = true;
            }
            continue;
        }
        let st = s.state().clone();
        assert!(crashes >= 3, "expected all three kills to fire");
        assert!(
            st.cold_restarts >= 1,
            "torn state must count a cold restart"
        );
        assert_eq!(fingerprints(&st), base_fps);
        for r in &st.records {
            assert!(r.degraded.is_none());
        }
        break;
    }
}

#[test]
fn mid_solve_kills_and_corrupt_artifacts_recover_typed() {
    let w = world(55);
    let base = Service::resume_or_start(
        &w,
        config(55, fresh_dir("corrupt_base")),
        ServicePlan::default(),
    )
    .unwrap()
    .run()
    .unwrap()
    .clone();

    // Die mid-solve in cycle 0 (after 1 checkpoint) and in cycle 1
    // (after 2), dropping the service value at each crash and resuming
    // from the durable state alone — a true process death.
    let dir = fresh_dir("corrupt_resume");
    let mut kills = vec![(0usize, 1u64), (1usize, 2u64)];
    while !kills.is_empty() {
        let plan = ServicePlan {
            kill_mid_solve: kills.clone(),
            ..ServicePlan::default()
        };
        let mut s = Service::resume_or_start(&w, config(55, dir.clone()), plan).unwrap();
        loop {
            match s.step().unwrap() {
                StepOutcome::SimulatedCrash { cycle } => {
                    kills.retain(|(c, _)| *c != cycle);
                    break;
                }
                StepOutcome::Finished => panic!("kills {kills:?} never fired"),
                _ => {}
            }
        }
        if kills.is_empty() {
            // Second crash: the first one was resumed from its
            // surviving checkpoint, not re-solved.
            assert_eq!(s.state().resumes, 1);
            assert!(
                s.state().records[0].solver_resumes > 0,
                "cycle 0 never resumed a solver checkpoint"
            );
        }
    }
    // Truncate the surviving checkpoint to half its length and scribble
    // over the state file: the service must cold-restart (typed,
    // counted), discard the checkpoint, and still land on the identical
    // deployments.
    let ckpt = dir.join("solver.ckpt");
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len() / 2]).unwrap();
    std::fs::write(dir.join("service.state"), b"not a snapshot").unwrap();

    let mut s = Service::resume_or_start(&w, config(55, dir), ServicePlan::default()).unwrap();
    assert_eq!(s.state().cold_restarts, 1);
    let st = s.run().unwrap();
    assert_eq!(st.cold_restarts, 1);
    assert_eq!(fingerprints(st), fingerprints(&base));
    for r in &st.records {
        assert!(r.degraded.is_none());
    }
}

#[test]
fn budgeted_cycles_still_deploy_serviceably() {
    let w = world(49);
    let mut cfg = config(49, fresh_dir("budget"));
    cfg.cycle_step_budget = Some(10);
    let mut s = Service::resume_or_start(&w, cfg, ServicePlan::default()).unwrap();
    let st = s.run().unwrap();
    for r in &st.records {
        assert!(
            r.degraded.is_none(),
            "a tight step budget must degrade quality, not the cycle: {:?}",
            r.degraded
        );
        assert_ne!(r.placement_fnv, 0);
    }
}

#[test]
fn seed_mismatch_is_refused_and_foreign_faults_rejected() {
    let w = world(50);
    let dir = fresh_dir("mismatch");
    Service::resume_or_start(&w, config(50, dir.clone()), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap();
    // Same state dir, different seed: refuse, don't clobber.
    let other = config(51, dir);
    match Service::resume_or_start(&w, other, ServicePlan::default()) {
        Err(OpsError::Invalid { what }) => assert!(what.contains("seed"), "{what}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    // A fault schedule naming a VHO outside the world is rejected up
    // front.
    let mut bad = config(52, fresh_dir("badfaults"));
    bad.cycle_faults = vec![(
        0,
        FaultSchedule {
            events: vec![FaultEvent {
                start: SimTime::new(0),
                end: SimTime::new(10),
                kind: FaultKind::VhoOutage {
                    vho: VhoId::new(99),
                },
            }],
            admission: false,
        },
    )];
    match Service::resume_or_start(&w, bad, ServicePlan::default()) {
        Err(OpsError::Invalid { what }) => assert!(what.contains("fault"), "{what}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn the_service_shares_the_trace_of_the_world_it_was_given() {
    let w = world(53);
    let s = Service::resume_or_start(&w, config(53, fresh_dir("shared")), ServicePlan::default())
        .unwrap();
    // The service evolves its own copy of the world, but a trace is a
    // view: the copy reads the caller's requests, it does not hold a
    // second set.
    assert_eq!(s.world().trace.len(), w.trace.len());
    assert_eq!(
        s.world().trace.requests().as_ptr(),
        w.trace.requests().as_ptr()
    );
}

#[test]
fn a_delta_after_the_cycles_instance_was_built_is_seen_by_the_solve() {
    // The cycle's instance is built once and shared by its stages. The
    // only thing that builds one *before* a delta of the same cycle is
    // the delta before it, when a solver checkpoint is there to remap.
    // So: leave a checkpoint behind (die mid-solve in cycle 0, lose the
    // state file), then restart under a schedule with two deltas due at
    // cycle 0. The first delta builds cycle 0's instance; the second
    // takes VHO 1's storage away. Estimate and solve run after both and
    // must see both.
    let w = world(54);
    let dir = fresh_dir("late_delta");
    let plan = ServicePlan {
        kill_mid_solve: vec![(0, 1)],
        ..ServicePlan::default()
    };
    let mut dying = Service::resume_or_start(&w, config(54, dir.clone()), plan).unwrap();
    while !matches!(dying.step().unwrap(), StepOutcome::SimulatedCrash { .. }) {}
    drop(dying);
    assert!(dir.join("solver.ckpt").exists());
    std::fs::remove_file(dir.join("service.state")).unwrap();

    let mut cfg = config(54, dir);
    cfg.cycle_deltas = vec![
        WorldDelta {
            cycle: 0,
            seed: 0xE1,
            ops: vec![DeltaOp::ScaleLink {
                link: LinkId::new(0),
                factor: 0.5,
            }],
        },
        WorldDelta {
            cycle: 0,
            seed: 0xE2,
            ops: vec![DeltaOp::DecommissionVho { vho: VhoId::new(1) }],
        },
    ];
    let mut s = Service::resume_or_start(&w, cfg, ServicePlan::default()).unwrap();
    let mut outcomes = Vec::new();
    while s.state().cycle == 0 {
        outcomes.push(s.step().unwrap());
    }
    assert_eq!(
        outcomes[..4],
        [
            StepOutcome::DeltaApplied { cycle: 0, index: 0 },
            StepOutcome::DeltaApplied { cycle: 0, index: 1 },
            StepOutcome::StageDone {
                cycle: 0,
                stage: StageId::Estimate
            },
            StepOutcome::StageDone {
                cycle: 0,
                stage: StageId::Solve
            },
        ]
    );
    assert!(s.dark_mask()[1]);
    let record = &s.state().records[0];
    assert!(record.degraded.is_none(), "{:?}", record.degraded);
    // A solve against the pre-decommission instance would have used
    // VHO 1's disk like any other (and validated against that same
    // instance); the one that saw the delta stores nothing there.
    let (_, deployed) = s.state().deployed.as_ref().unwrap();
    let dark = VhoId::new(1);
    for (m, holders) in deployed.holder_lists().iter().enumerate() {
        assert!(!holders.is_empty());
        assert!(!holders.contains(&dark), "video {m} placed on dark VHO 1");
    }
}
