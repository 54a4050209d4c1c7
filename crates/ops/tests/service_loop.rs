//! End-to-end properties of the long-running service loop: every
//! cycle deploys (or degrades with a typed reason, never aborts), the
//! churn cap bounds per-cycle migration with deferrals that drain,
//! stale-serve windows account their denials, exhausted retries fall
//! back to the last-good deployment, the watchdog degrades stalled
//! cycles, and kill/corruption at any point re-converges to the
//! uninterrupted run's deployments bit for bit.
#![expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures and builds raw VhoIds and reads and writes files directly"
)]

use std::path::{Path, PathBuf};
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
    world_of(seed, LibraryConfig::default_for(50, 14, seed), 600.0)
}

/// A 6-VHO mesh at 1 Gb/s, serving `library` at `requests_per_day`.
fn world_of(seed: u64, library: LibraryConfig, requests_per_day: f64) -> OpsWorld {
    let mut net = topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let paths = PathSet::shortest_paths(&net);
    let catalog = synthesize_library(&library);
    let trace = generate_trace(
        &catalog,
        &net,
        &TraceConfig::default_for(requests_per_day, 14, seed),
    );
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

fn config(seed: u64, dir: &Path) -> ServiceConfig {
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
            state_dir: dir.to_path_buf(),
        },
        churn_cap: None,
        cycle_step_budget: None,
        watchdog_budget: 32,
        cycle_faults: Vec::new(),
        cycle_deltas: Vec::new(),
    }
}

/// A test's state directory: emptied before use, removed when the
/// guard drops, so a failing test leaves none behind either.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for StateDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for StateDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// A fresh per-test state directory (stale state from a previous test
/// process would otherwise be resumed), removed again when the returned
/// guard drops.
fn fresh_dir(name: &str) -> StateDir {
    let dir = std::env::temp_dir().join(format!("vod_svc_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StateDir(dir)
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

#[test]
fn clean_service_run_deploys_every_cycle() {
    let w = world(42);
    let clean_dir = fresh_dir("clean");
    let mut s =
        Service::resume_or_start(&w, config(42, &clean_dir), ServicePlan::default()).unwrap();
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
    let det_a_dir = fresh_dir("det_a");
    let a = Service::resume_or_start(&w, config(48, &det_a_dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    let det_b_dir = fresh_dir("det_b");
    let b = Service::resume_or_start(&w, config(48, &det_b_dir), ServicePlan::default())
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
    let cap_base_dir = fresh_dir("cap_base");
    let base = Service::resume_or_start(&w, config(43, &cap_base_dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    let full_target = base.deployed.as_ref().unwrap().1.clone();

    let capped_dir = fresh_dir("capped");
    let mut cfg = config(43, &capped_dir);
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
    let stale_dir = fresh_dir("stale");
    let mut s = Service::resume_or_start(&w, config(44, &stale_dir), plan).unwrap();
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
    let dir = fresh_dir(&format!("lastgood_{stage}"));
    let mut cfg = config(seed, &dir);
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
    let stall_dir = fresh_dir("stall");
    let mut cfg = config(45, &stall_dir);
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
    let quiet_dir = fresh_dir("quiet");
    let quiet = Service::resume_or_start(&w, config(46, &quiet_dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    let stormy_dir = fresh_dir("stormy");
    let mut cfg = config(46, &stormy_dir);
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
    let kill_base_dir = fresh_dir("kill_base");
    let base = Service::resume_or_start(&w, config(47, &kill_base_dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    let base_fps = fingerprints(&base);

    // Chaos run: stage-boundary kills, a mid-solve kill, and a torn
    // state file after the first crash. Every crash drops the service
    // value and rebuilds it from the durable state alone.
    let dir = fresh_dir("kill_resume");
    let mut plan = ServicePlan {
        kill_at_stage: vec![(0, StageId::Solve), (2, StageId::Validate)],
        kill_mid_solve: vec![(1, 1)],
        ..ServicePlan::default()
    };
    let mut torn = false;
    let mut crashes = 0usize;
    loop {
        let mut s = Service::resume_or_start(&w, config(47, &dir), plan.clone()).unwrap();
        let mut crashed = false;
        loop {
            match s.step().unwrap() {
                StepOutcome::SimulatedCrash { cycle, kill } => {
                    // Drop the kill that just fired so the "restart"
                    // makes progress past it.
                    plan.retire(cycle, kill);
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
    let corrupt_base_dir = fresh_dir("corrupt_base");
    let base = Service::resume_or_start(&w, config(55, &corrupt_base_dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();

    // Die mid-solve in cycle 0 (after 1 checkpoint) and in cycle 1
    // (after 2), dropping the service value at each crash and resuming
    // from the durable state alone — a true process death.
    let dir = fresh_dir("corrupt_resume");
    let mut plan = ServicePlan {
        kill_mid_solve: vec![(0, 1), (1, 2)],
        ..ServicePlan::default()
    };
    while !plan.kill_mid_solve.is_empty() {
        let mut s = Service::resume_or_start(&w, config(55, &dir), plan.clone()).unwrap();
        loop {
            match s.step().unwrap() {
                StepOutcome::SimulatedCrash { cycle, kill } => {
                    plan.retire(cycle, kill);
                    break;
                }
                StepOutcome::Finished => panic!("kills {:?} never fired", plan.kill_mid_solve),
                _ => {}
            }
        }
        if plan.kill_mid_solve.is_empty() {
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

    let mut s = Service::resume_or_start(&w, config(55, &dir), ServicePlan::default()).unwrap();
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
    let budget_dir = fresh_dir("budget");
    let mut cfg = config(49, &budget_dir);
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
    Service::resume_or_start(&w, config(50, &dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap();
    // Same state dir, different seed: refuse, don't clobber.
    let other = config(51, &dir);
    match Service::resume_or_start(&w, other, ServicePlan::default()) {
        Err(OpsError::Invalid { what }) => assert!(what.contains("seed"), "{what}"),
        other => panic!("expected Invalid, got {other:?}"),
    }
    // A fault schedule naming a VHO outside the world is rejected up
    // front.
    let badfaults_dir = fresh_dir("badfaults");
    let mut bad = config(52, &badfaults_dir);
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
    let shared_dir = fresh_dir("shared");
    let s = Service::resume_or_start(&w, config(53, &shared_dir), ServicePlan::default()).unwrap();
    // The service evolves its own copy of the world, but a trace is a
    // view: the copy reads the caller's requests, it does not hold a
    // second set.
    assert_eq!(s.world().trace.len(), w.trace.len());
    assert!(s.world().trace.shares_storage(&w.trace));
}

#[test]
fn a_delta_after_the_cycles_instance_was_built_is_seen_by_the_solve() {
    // The cycle's instance is built once and shared by its stages, and
    // every delta drops the one built so far; nothing builds one during
    // a delta. Leave a checkpoint behind (die mid-solve in cycle 0,
    // lose the state file), then restart under a schedule with two
    // deltas due at cycle 0: a capacity scale, then VHO 1's storage
    // taken away. Estimate and solve run after both and must see both.
    let w = world(54);
    let dir = fresh_dir("late_delta");
    let plan = ServicePlan {
        kill_mid_solve: vec![(0, 1)],
        ..ServicePlan::default()
    };
    let mut dying = Service::resume_or_start(&w, config(54, &dir), plan).unwrap();
    while !matches!(dying.step().unwrap(), StepOutcome::SimulatedCrash { .. }) {}
    drop(dying);
    assert!(dir.join("solver.ckpt").exists());
    std::fs::remove_file(dir.join("service.state")).unwrap();

    let mut cfg = config(54, &dir);
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

#[test]
fn a_fractional_artifact_solved_under_another_config_is_solved_again() {
    // Die before cycle 0's round stage, leaving `fractional.snap` on
    // disk, then restart over the same state dir with exact
    // certification on. The artifact was solved without it: the round
    // stage must refuse it and send the cycle back to the solve.
    let w = world(56);
    let cfg = |dir: &Path, exact_cert: usize| {
        let mut c = config(56, dir);
        c.ops.cycles = 1;
        c.ops.epf.exact_cert = exact_cert;
        c
    };
    let dir = fresh_dir("stale_artifact");
    let plan = ServicePlan {
        kill_at_stage: vec![(0, StageId::Round)],
        ..ServicePlan::default()
    };
    let mut dying = Service::resume_or_start(&w, cfg(&dir, 0), plan).unwrap();
    while !matches!(dying.step().unwrap(), StepOutcome::SimulatedCrash { .. }) {}
    drop(dying);
    assert!(dir.join("fractional.snap").exists());

    let mut s = Service::resume_or_start(&w, cfg(&dir, 2), ServicePlan::default()).unwrap();
    assert_eq!(
        s.step().unwrap(),
        StepOutcome::Retreated {
            cycle: 0,
            stage: StageId::Round
        }
    );
    assert!(!dir.join("fractional.snap").exists());
    assert_eq!(
        s.step().unwrap(),
        StepOutcome::StageDone {
            cycle: 0,
            stage: StageId::Solve
        }
    );
    let st = s.run().unwrap().clone();

    // The cycle deploys what an uninterrupted run under the new config
    // deploys, and records that run's lower bound.
    let reference_dir = fresh_dir("stale_artifact_reference");
    let reference = Service::resume_or_start(&w, cfg(&reference_dir, 2), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    assert_eq!(fingerprints(&st), fingerprints(&reference));
    assert_eq!(
        st.records[0].lower_bound.map(f64::to_bits),
        reference.records[0].lower_bound.map(f64::to_bits)
    );
}

#[test]
fn a_later_cycles_checkpoint_is_not_resumed_after_a_lost_state_file() {
    // Die mid-solve in cycle 1 and lose `service.state`: the restart
    // replays from cycle 0 with cycle 1's checkpoint still on disk and
    // cycle 0's capacity-only delta due first. Demand on every (video,
    // VHO) pair in both windows gives the two cycles' checkpoints the
    // same shapes, so only the fingerprint tells them apart. Cycle 0
    // must solve as its uninterrupted twin did, not resume the later
    // cycle's iterate.
    let library = LibraryConfig {
        n_series: 0,
        blockbusters_per_week: 0,
        other_new_per_week: 0,
        ..LibraryConfig::default_for(50, 14, 77)
    };
    let w = world_of(77, library, 20_000.0);
    let cfg = |dir: &Path| {
        let mut c = config(77, dir);
        c.cycle_deltas = vec![WorldDelta {
            cycle: 0,
            seed: 0xE3,
            ops: vec![DeltaOp::ScaleLink {
                link: LinkId::new(0),
                factor: 0.5,
            }],
        }];
        c
    };
    let twin_dir = fresh_dir("later_ckpt_twin");
    let twin = Service::resume_or_start(&w, cfg(&twin_dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();

    let dir = fresh_dir("later_ckpt");
    let plan = ServicePlan {
        kill_mid_solve: vec![(1, 1)],
        ..ServicePlan::default()
    };
    let mut dying = Service::resume_or_start(&w, cfg(&dir), plan).unwrap();
    while !matches!(dying.step().unwrap(), StepOutcome::SimulatedCrash { .. }) {}
    drop(dying);
    assert!(dir.join("solver.ckpt").exists());
    std::fs::remove_file(dir.join("service.state")).unwrap();

    let st = Service::resume_or_start(&w, cfg(&dir), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    assert_eq!(fingerprints(&st), fingerprints(&twin));
    let bounds = |s: &ServiceState| -> Vec<_> {
        s.records
            .iter()
            .map(|r| r.lower_bound.map(f64::to_bits))
            .collect()
    };
    assert_eq!(bounds(&st), bounds(&twin));
    assert_eq!(st.records[0].solver_resumes, 0);
}
