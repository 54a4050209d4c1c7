//! Service drill — the deterministic chaos matrix for the supervised
//! placement service (robustness harness, not a paper table).
//!
//! For each drill seed the same scenario runs twice:
//!
//! - **baseline**: the [`vod_ops::Service`] daemon loop uninterrupted —
//!   streaming estimates, budgeted warm-started solves, churn-capped
//!   deploys, a fault storm replayed in cycle 1,
//! - **chaos**: the identical config driven through a seeded
//!   kill/corruption matrix — a stage-boundary kill in *every* cycle
//!   (the killed stage rotates across seeds so all five stages are
//!   covered), mid-solve kills in cycles 0 and 1, the `service.state`
//!   file torn inside its header after the first crash, the surviving
//!   cycle-0 solver checkpoint planted over cycle 1's (a foreign
//!   checkpoint the validator must refuse), bit rot in the fractional
//!   snapshot, and one transient injected stage failure per cycle.
//!
//! Asserts the chaos run's per-cycle deployed placements and denial
//! counts are *byte-identical* to the baseline's, that the churn cap
//! is never exceeded, that recovery took the typed ladder rungs
//! (warm-resume after a mid-solve kill, cold-solve after the foreign
//! checkpoint, exactly one cold restart from the torn state), and that
//! nothing panics or degrades. Emits `results/BENCH_service.json` —
//! counters and fingerprints only, no wall times (the service never
//! reads a clock).
use std::path::{Path, PathBuf};
use vod_bench::{save_results, Defaults, Scale, Scenario};
use vod_estimate::{EstimateConfig, EstimatorKind};
use vod_json::{obj, Value};
use vod_model::rng::derive_seed;
use vod_model::{LinkId, Mbps, SimTime, VhoId};
use vod_ops::{
    DegradeReason, Kill, OpsConfig, OpsWorld, RecoveryAction, Service, ServiceConfig, ServicePlan,
    ServiceRecord, ServiceState, StageId, StepOutcome,
};
use vod_sim::{FaultEvent, FaultKind, FaultSchedule};

/// Drill seeds: three independent worlds; the stage-kill rotation
/// across them covers all five stages.
const SEEDS: [u64; 3] = [2010, 2011, 2012];

/// Copies the service may migrate per cycle in the drill.
const CHURN_CAP: usize = 64;

/// Snapshot container header for the `ops-service` kind: 8B magic +
/// 1B kind-len + 11B kind + 4B version + 8B payload-len + 8B checksum.
/// Torn-write offsets are drawn inside this range.
const SERVICE_HEADER_LEN: u64 = 8 + 1 + 11 + 4 + 8 + 8;

fn world(s: &Scenario, d: &Defaults) -> OpsWorld {
    let mut net = s.net.clone();
    net.set_uniform_capacity(Mbps::from_gbps(d.link_gbps));
    OpsWorld {
        net,
        paths: s.paths.clone(),
        catalog: s.catalog.clone(),
        trace: s.trace.clone(),
        disks: s.full_disks(d),
        mip_disk: s.mip_disk(d),
        est: EstimateConfig {
            window_secs: d.window_secs,
            n_windows: d.n_windows,
        },
    }
}

/// Cycle 1's replay storm: one VHO dark for the whole window, one
/// backbone link at quarter capacity, demand doubled everywhere, with
/// admission control on. Identical in both twins — faults may change
/// what is *denied*, never what is *placed*.
#[expect(
    clippy::disallowed_methods,
    reason = "the storm darkens VHO 1 by convention"
)]
fn storm(horizon: SimTime) -> FaultSchedule {
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
                kind: FaultKind::LinkDegrade {
                    link: LinkId::new(0),
                    capacity_scale: 0.25,
                },
            },
            FaultEvent {
                start: SimTime::new(0),
                end: horizon,
                kind: FaultKind::FlashCrowd {
                    vho: None,
                    multiplier: 2,
                },
            },
        ],
        admission: true,
    }
}

fn config(s: &Scenario, w: &OpsWorld, dir: PathBuf) -> ServiceConfig {
    let epf = s.epf_config();
    // Budget each cycle at 3/4 of the scenario's pass limit: tight
    // enough to exercise the budget path, loose enough to stay
    // serviceable. Deterministic in passes, never wall time.
    let budget = epf.step_limit.map(|l| l * 3 / 4);
    ServiceConfig {
        ops: OpsConfig {
            cycles: 3,
            period_days: match s.scale {
                Scale::Quick => 2,
                _ => 7,
            },
            start_day: 7,
            estimator: EstimatorKind::History,
            epf,
            max_attempts: 3,
            checkpoint_every: 3,
            backoff_base_ms: 250,
            validate_tol: 1e-6,
            simulate: true,
            state_dir: dir,
        },
        churn_cap: Some(CHURN_CAP),
        cycle_step_budget: budget,
        watchdog_budget: 64,
        cycle_faults: vec![(1, storm(w.trace.horizon()))],
        cycle_deltas: Vec::new(),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vod_service_drill_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

fn denials(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.denied).collect()
}

fn run_baseline(w: &OpsWorld, s: &Scenario, dir: &Path) -> ServiceState {
    let mut svc =
        Service::resume_or_start(w, config(s, w, dir.to_path_buf()), ServicePlan::default())
            .expect("service config is valid");
    svc.run().expect("baseline service run completes").clone()
}

struct ChaosOutcome {
    state: ServiceState,
    crashes: u64,
    torn: bool,
    planted: bool,
    stages_killed: Vec<StageId>,
}

/// The chaos run: drop the service value on every simulated crash and
/// rebuild it over the same state directory, corrupting the durable
/// artifacts along the way. Fired kills are retired from the plan
/// between rebuilds — each crash site fires exactly once.
#[expect(
    clippy::disallowed_methods,
    reason = "the chaos run tears, plants and corrupts state files on purpose"
)]
fn run_chaos(w: &OpsWorld, s: &Scenario, dir: &Path, rotate: usize) -> ChaosOutcome {
    let stages = StageId::ALL;
    // One transient failure per cycle at a seeded stage (attempt 0
    // only — the retry then succeeds).
    let fail: Vec<(usize, StageId, u32)> = (0..3)
        .map(|c| {
            let pick = derive_seed(s.seed, 0xFA11 ^ c as u64) % stages.len() as u64;
            (c, stages[usize::try_from(pick).expect("pick < 5")], 0)
        })
        .collect();
    let mut plan = ServicePlan {
        fail,
        // A stage-boundary kill in every cycle; the stage index rotates
        // with the drill seed so the matrix covers all five stages.
        kill_at_stage: (0..3)
            .map(|c| (c, stages[(c + rotate) % stages.len()]))
            .collect(),
        // Mid-solve kills in cycles 0 and 1, each after one surviving
        // checkpoint emission.
        kill_mid_solve: vec![(0, 1), (1, 1)],
        ..ServicePlan::default()
    };
    let stages_killed: Vec<StageId> = plan.kill_at_stage.iter().map(|&(_, st)| st).collect();
    let mut crashes = 0u64;
    let mut torn = false;
    let mut planted = false;
    let mut stash: Vec<u8> = Vec::new();
    loop {
        let mut svc = Service::resume_or_start(w, config(s, w, dir.to_path_buf()), plan.clone())
            .expect("service config is valid");
        let crashed_at = loop {
            match svc.step().expect("cycle trouble degrades, it never aborts") {
                StepOutcome::SimulatedCrash { cycle, kill } => break Some((cycle, kill)),
                StepOutcome::Finished => break None,
                _ => {}
            }
        };
        let Some((cycle, kill)) = crashed_at else {
            return ChaosOutcome {
                state: svc.state().clone(),
                crashes,
                torn,
                planted,
                stages_killed,
            };
        };
        crashes += 1;
        plan.retire(cycle, kill);
        if let Kill::MidSolve { .. } = kill {
            if cycle == 0 {
                // Stash the surviving cycle-0 checkpoint: it becomes
                // the *foreign* checkpoint planted over cycle 1's.
                stash = std::fs::read(dir.join("solver.ckpt")).unwrap_or_default();
            } else if !stash.is_empty() {
                // Foreign-checkpoint flip: cycle 1 resumes against a
                // checkpoint written for cycle 0. The validator must
                // refuse it and fall through to a cold solve.
                std::fs::write(dir.join("solver.ckpt"), &stash).expect("plant checkpoint");
                planted = true;
            }
        }
        if crashes == 1 {
            // Torn write: only a seeded prefix of the service-state
            // header survives the first crash. The rebuild must cold
            // restart and deterministically replay the schedule.
            let path = dir.join("service.state");
            let bytes = std::fs::read(&path).expect("state file exists");
            let cut = usize::try_from(derive_seed(s.seed, 0x7EA2) % SERVICE_HEADER_LEN)
                .expect("cut < header");
            std::fs::write(&path, &bytes[..cut.min(bytes.len())]).expect("tear state file");
            torn = true;
        } else if crashes == 3 {
            // Bit rot in the fractional snapshot (when one survived
            // the crash): the round stage must reject it and retreat
            // to a fresh — still deterministic — solve.
            let path = dir.join("fractional.snap");
            if let Ok(mut bytes) = std::fs::read(&path) {
                if let Some(b) = bytes.last_mut() {
                    *b ^= 0x20;
                }
                std::fs::write(&path, &bytes).expect("corrupt fractional snapshot");
            }
        }
    }
}

fn reason_str(r: &DegradeReason) -> String {
    match r {
        DegradeReason::StageFailed {
            stage, attempts, ..
        } => format!("stage-failed:{stage}:{attempts}"),
        DegradeReason::ValidationFailed { .. } => "validation-failed".into(),
        DegradeReason::Stalled { stage, .. } => format!("stalled:{stage}"),
        DegradeReason::SnapshotUnavailable { failures, .. } => {
            format!("snapshot-unavailable:{failures}")
        }
    }
}

fn ledger(st: &ServiceState) -> Value {
    let row = |r: &ServiceRecord| {
        obj(vec![
            ("cycle", Value::Num(r.cycle as f64)),
            (
                "degraded",
                r.degraded
                    .as_ref()
                    .map_or(Value::Null, |d| Value::Str(reason_str(d))),
            ),
            (
                "recoveries",
                Value::Arr(
                    r.recoveries
                        .iter()
                        .map(|a| Value::Str(a.name().into()))
                        .collect(),
                ),
            ),
            ("attempts", Value::Num(f64::from(r.attempts))),
            ("backoff_ms", Value::Num(r.backoff_ms as f64)),
            ("solver_resumes", Value::Num(f64::from(r.solver_resumes))),
            (
                "placement_fnv",
                Value::Str(format!("{:016x}", r.placement_fnv)),
            ),
            ("objective", r.objective.map_or(Value::Null, Value::Num)),
            ("lower_bound", r.lower_bound.map_or(Value::Null, Value::Num)),
            (
                "gap",
                match (r.objective, r.lower_bound) {
                    (Some(o), Some(l)) if l > 0.0 => Value::Num(o / l - 1.0),
                    _ => Value::Null,
                },
            ),
            ("moved", Value::Num(r.moved as f64)),
            ("deferred", Value::Num(r.deferred as f64)),
            ("denied", Value::Num(r.denied as f64)),
            ("denial_rate", r.denial_rate.map_or(Value::Null, Value::Num)),
            ("stale", Value::Bool(r.stale)),
            (
                "sim",
                r.sim.as_ref().map_or(Value::Null, |m| {
                    obj(vec![
                        ("max_gbps", Value::Num(m.max_gbps)),
                        ("local_frac", Value::Num(m.local_frac)),
                        ("total_requests", Value::Num(m.total_requests as f64)),
                    ])
                }),
            ),
        ])
    };
    obj(vec![
        ("records", Value::Arr(st.records.iter().map(row).collect())),
        ("resumes", Value::Num(st.resumes as f64)),
        ("cold_restarts", Value::Num(st.cold_restarts as f64)),
        ("stale_serves", Value::Num(st.stale_serves as f64)),
        ("queue_len", Value::Num(st.deferred.len() as f64)),
    ])
}

/// Drill assertions common to both twins: the churn cap holds, the
/// bootstrap cycle is a free bulk load, nothing degrades.
fn check_common(st: &ServiceState, who: &str) {
    for r in &st.records {
        assert!(
            r.degraded.is_none(),
            "{who}: cycle {} degraded: {:?}",
            r.cycle,
            r.degraded
        );
        assert!(!r.stale, "{who}: cycle {} served stale", r.cycle);
        assert!(
            r.moved <= CHURN_CAP,
            "{who}: cycle {} moved {} > cap {CHURN_CAP}",
            r.cycle,
            r.moved
        );
        if let (Some(o), Some(l)) = (r.objective, r.lower_bound) {
            assert!(
                l <= o * (1.0 + 1e-9),
                "{who}: cycle {} bound {l} above objective {o}",
                r.cycle
            );
        }
    }
    assert_eq!(
        st.records.first().map(|r| r.moved),
        Some(0),
        "{who}: bootstrap deployment must be a free bulk load"
    );
}

fn main() {
    let scale = Scale::from_args();
    let mut seed_rows = Vec::new();
    let mut stages_covered: Vec<StageId> = Vec::new();
    let mut all_identical = true;

    for (rotate, &seed) in SEEDS.iter().enumerate() {
        let s = Scenario::operational(scale, seed);
        let d = Defaults::for_scale(s.scale);
        let w = world(&s, &d);

        let base = run_baseline(&w, &s, &fresh_dir(&format!("base_{seed}")));
        check_common(&base, "baseline");
        assert_eq!(base.cold_restarts, 0, "baseline must never cold-restart");

        let chaos = run_chaos(&w, &s, &fresh_dir(&format!("chaos_{seed}")), rotate);
        check_common(&chaos.state, "chaos");
        for st in &chaos.stages_killed {
            if !stages_covered.contains(st) {
                stages_covered.push(*st);
            }
        }
        assert_eq!(
            chaos.crashes, 5,
            "seed {seed}: expected 5 crashes (3 stage kills + 2 mid-solve)"
        );
        assert!(
            chaos.torn && chaos.planted,
            "seed {seed}: matrix incomplete"
        );
        assert_eq!(
            chaos.state.cold_restarts, 1,
            "seed {seed}: the torn state must cause exactly one cold restart"
        );
        let recoveries: Vec<RecoveryAction> = chaos
            .state
            .records
            .iter()
            .flat_map(|r| r.recoveries.iter().copied())
            .collect();
        assert!(
            recoveries.contains(&RecoveryAction::WarmResume),
            "seed {seed}: a mid-solve kill must warm-resume from its checkpoint"
        );
        assert!(
            recoveries.contains(&RecoveryAction::ColdSolve),
            "seed {seed}: the foreign checkpoint must be refused into a cold solve"
        );

        let identical = fingerprints(&chaos.state) == fingerprints(&base)
            && denials(&chaos.state) == denials(&base);
        assert!(
            identical,
            "seed {seed}: chaos run diverged from its uninterrupted twin:\n  \
             base  {:x?} denied {:?}\n  chaos {:x?} denied {:?}",
            fingerprints(&base),
            denials(&base),
            fingerprints(&chaos.state),
            denials(&chaos.state),
        );
        all_identical &= identical;

        println!(
            "service_drill seed {seed}: {} cycles | crashes 5 (stages {:?}) | \
             cold restarts {} | identical to twin: {identical}",
            chaos.state.records.len(),
            chaos
                .stages_killed
                .iter()
                .map(|st| st.name())
                .collect::<Vec<_>>(),
            chaos.state.cold_restarts,
        );

        seed_rows.push(obj(vec![
            ("seed", Value::Num(seed as f64)),
            ("identical", Value::Bool(identical)),
            ("crashes", Value::Num(chaos.crashes as f64)),
            (
                "stages_killed",
                Value::Arr(
                    chaos
                        .stages_killed
                        .iter()
                        .map(|st| Value::Str(st.name().into()))
                        .collect(),
                ),
            ),
            ("state_torn", Value::Bool(chaos.torn)),
            ("foreign_checkpoint_planted", Value::Bool(chaos.planted)),
            ("baseline", ledger(&base)),
            ("chaos", ledger(&chaos.state)),
        ]));
    }

    assert_eq!(
        stages_covered.len(),
        StageId::ALL.len(),
        "the rotation must kill every stage at least once across seeds"
    );

    save_results(
        "BENCH_service",
        &obj(vec![
            ("scale", Value::Str(format!("{scale:?}").to_lowercase())),
            ("churn_cap", Value::Num(CHURN_CAP as f64)),
            ("identical_after_chaos", Value::Bool(all_identical)),
            (
                "stages_covered",
                Value::Arr(
                    stages_covered
                        .iter()
                        .map(|st| Value::Str(st.name().into()))
                        .collect(),
                ),
            ),
            ("seeds", Value::Arr(seed_rows)),
        ]),
    );
}
