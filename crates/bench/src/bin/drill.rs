//! The service's chaos drills (robustness harnesses, not paper tables):
//! `cargo run --release -p vod-bench --bin drill -- [--quick|--full] [service|reconfig]`
//! runs the named drill, or both in that order; bad arguments exit 2.
//!
//! Per seed one twin driver runs the same scenario twice: the
//! **baseline** is the [`vod_ops::Service`] loop uninterrupted under the
//! drill's storm; the **chaos** twin adds a seeded kill matrix (a
//! stage-boundary kill in every cycle, rotating across seeds over all
//! five stages, and mid-solve kills in cycles 0 and 1), rebuilds the
//! service over the same state dir after each crash, and damages it as
//! the drill says. Every twin passes one [`check`]; the chaos twin's
//! placements, denials and repair fingerprints must be byte-identical
//! to the baseline's. A drill writes `results/BENCH_<name>.json` —
//! counters and fingerprints, no wall times — and removes its state
//! dirs once it passes.
use std::path::{Path, PathBuf};
use vod_bench::{fresh_dir, save_results, Defaults, Named, Scale, Scenario};
use vod_estimate::EstimatorKind;
use vod_json::faults::{FaultHandle, FaultPlan as IoFaultPlan, IoFault};
use vod_json::{obj, ToJson, Value};
use vod_model::rng::derive_seed;
use vod_model::{LinkId, SimTime, VhoId};
use vod_ops::{
    DegradeReason, DeltaOp, Kill, OpsConfig, OpsWorld, RecoveryAction, Service, ServiceConfig,
    ServicePlan, ServiceRecord, ServiceState, StageId, StepOutcome, WorldDelta, SERVICE_KIND,
};
use vod_sim::{FaultEvent, FaultKind, FaultSchedule};

/// Copies the service may migrate per cycle — shared by scheduled
/// deploys *and* delta-triggered feasibility repair.
const CHURN_CAP: usize = 64;

/// Snapshot container header for the `ops-service` kind: 8B magic +
/// 1B kind-len + the kind + 4B version + 8B payload-len + 8B checksum.
/// Torn-write offsets are drawn inside this range.
const SERVICE_HEADER_LEN: usize = 8 + 1 + SERVICE_KIND.len() + 4 + 8 + 8;

/// Videos appended at the reconfig drill's cycle-2 delta.
const GROWTH: usize = 8;

// A drill's storm (replay faults and world deltas, per cycle); its
// chaos twin with the fields the seed row adds; a crash hook, called
// with `(crashes so far, cycle, kill, state dir)`.
type Storm = (Vec<(usize, FaultSchedule)>, Vec<WorldDelta>);
type Chaos = (Twin, Vec<(&'static str, Value)>);
type Damage<'a> = &'a mut dyn FnMut(u64, usize, Kill, &Path);

/// What a drill adds to the shared runner; its name in [`DRILLS`] names
/// `BENCH_<name>.json`, the state dirs and the progress lines.
struct Drill {
    /// Three worlds: the stage-kill rotation covers all five stages.
    seeds: [u64; 3],
    /// Videos the delta schedule appends; a result-file field when set.
    growth: Option<usize>,
    /// The chaos twin may degrade with typed `SnapshotUnavailable`.
    io_storm: bool,
    storm: fn(&Scenario, &OpsWorld) -> Storm,
    /// The drill's own checks of every twin.
    check: fn(&Twin, &str),
    /// Run the chaos twin from the shared kills and assert its rungs.
    chaos: fn(&Scenario, &OpsWorld, &ServiceConfig, ServicePlan) -> Chaos,
    ledger: fn(&ServiceState) -> Value,
}

const DRILLS: &[Named<Drill>] = &[
    (
        &["service"],
        Drill {
            seeds: [2010, 2011, 2012],
            growth: None,
            io_storm: false,
            storm: |_, w| (vec![(1, storm(w.trace.horizon()))], Vec::new()),
            check: |_, _| {},
            chaos: service_chaos,
            ledger: service_ledger,
        },
    ),
    (
        &["reconfig"],
        Drill {
            seeds: [2020, 2021, 2022],
            growth: Some(GROWTH),
            io_storm: true,
            storm: |s, _| (Vec::new(), storm_deltas(s.seed)),
            check: check_reconfig,
            chaos: reconfig_chaos,
            ledger: reconfig_ledger,
        },
    ),
];

fn config(s: &Scenario, dir: PathBuf, (cycle_faults, cycle_deltas): Storm) -> ServiceConfig {
    let epf = s.epf_config();
    // Budget each cycle at 3/4 of the scenario's pass limit: tight
    // enough to exercise the budget path, loose enough to stay
    // serviceable. Deterministic in passes, never wall time.
    let budget = epf.step_limit.map(|l| l * 3 / 4);
    ServiceConfig {
        ops: OpsConfig {
            cycles: 3,
            period_days: if s.scale == Scale::Quick { 2 } else { 7 },
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
        cycle_faults,
        cycle_deltas,
    }
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

fn denials(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.denied).collect()
}

fn repairs(st: &ServiceState) -> Vec<Vec<u64>> {
    st.records.iter().map(|r| r.repairs.clone()).collect()
}

/// What one twin run ends with.
struct Twin {
    state: ServiceState,
    crashes: u64,
    deltas_seen: usize,
    catalog_len: usize,
    dark: Vec<bool>,
}

/// Step a service over `cfg` until it finishes. At every simulated
/// crash the service value is dropped, the fired kill retired from the
/// plan, `damage` run on the state dir and the service rebuilt over it,
/// so each crash site fires once. The baseline has the default plan.
fn run_twin(w: &OpsWorld, cfg: &ServiceConfig, mut plan: ServicePlan, damage: Damage) -> Twin {
    let (mut crashes, mut deltas_seen) = (0, 0);
    loop {
        let mut svc =
            Service::resume_or_start(w, cfg.clone(), plan.clone()).expect("drill config is valid");
        let crashed_at = loop {
            match svc.step().expect("cycle trouble degrades, it never aborts") {
                StepOutcome::SimulatedCrash { cycle, kill } => break Some((cycle, kill)),
                StepOutcome::DeltaApplied { .. } => deltas_seen += 1,
                StepOutcome::Finished => break None,
                _ => {}
            }
        };
        let Some((cycle, kill)) = crashed_at else {
            return Twin {
                state: svc.state().clone(),
                crashes,
                deltas_seen,
                catalog_len: svc.world().catalog.len(),
                dark: svc.dark_mask().to_vec(),
            };
        };
        crashes += 1;
        plan.retire(cycle, kill);
        damage(crashes, cycle, kill, &cfg.ops.state_dir);
    }
}

/// Every twin of both drills: the churn cap holds (repair included),
/// every cycle deploys fresh, the bound stays under the objective, the
/// bootstrap is a free bulk load, and the only tolerated degradation is
/// typed snapshot unavailability — the I/O storm's, never a baseline's.
fn check(t: &Twin, who: &str, io_storm: bool) {
    for r in &t.state.records {
        match r.degraded.as_ref() {
            None => {}
            Some(DegradeReason::SnapshotUnavailable { .. }) if io_storm => {}
            Some(other) => panic!("{who}: cycle {} degraded: {other:?}", r.cycle),
        }
        assert!(!r.stale, "{who}: cycle {} served stale", r.cycle);
        assert_ne!(
            r.placement_fnv, 0,
            "{who}: cycle {} deployed nothing",
            r.cycle
        );
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
        t.state.records.first().map(|r| r.moved),
        Some(0),
        "{who}: bootstrap deployment must be a free bulk load"
    );
}

fn run(name: &str, d: &Drill, scale: Scale) {
    let mut seed_rows = Vec::new();
    let mut stages_covered: Vec<StageId> = Vec::new();
    let mut all_identical = true;
    let mut dirs = Vec::new();

    for (rotate, &seed) in d.seeds.iter().enumerate() {
        let s = Scenario::operational(scale, seed);
        let w = s.ops_world(&Defaults::for_scale(s.scale));
        let grown = w.catalog.len() + d.growth.unwrap_or(0);
        let mut cfg = |tag: &str| {
            dirs.push(fresh_dir(&format!("{name}_drill_{tag}_{seed}")));
            config(&s, dirs[dirs.len() - 1].clone(), (d.storm)(&s, &w))
        };

        let base_cfg = cfg("base");
        let base = run_twin(&w, &base_cfg, ServicePlan::default(), &mut |_, _, _, _| {});
        check(&base, "baseline", false);
        (d.check)(&base, "baseline");
        assert_eq!(base.state.cold_restarts, 0, "baseline never cold-restarts");
        let scheduled = base_cfg.cycle_deltas.len();
        assert_eq!(base.deltas_seen, scheduled, "baseline delta count");
        assert_eq!(base.catalog_len, grown, "baseline catalog");

        // The kills both chaos twins share: a stage-boundary kill in
        // every cycle, the stage rotating with the seed, and mid-solve
        // kills in cycles 0 and 1, each after one surviving checkpoint.
        let stages = StageId::ALL;
        let stages_killed: Vec<_> = (0..3)
            .map(|c| stages[(c + rotate) % stages.len()])
            .collect();
        let plan = ServicePlan {
            kill_at_stage: stages_killed.iter().copied().enumerate().collect(),
            kill_mid_solve: vec![(0, 1), (1, 1)],
            ..ServicePlan::default()
        };
        for st in &stages_killed {
            if !stages_covered.contains(st) {
                stages_covered.push(*st);
            }
        }
        let (chaos, extra) = (d.chaos)(&s, &w, &cfg("chaos"), plan);
        check(&chaos, "chaos", d.io_storm);
        (d.check)(&chaos, "chaos");
        assert_eq!(
            chaos.crashes, 5,
            "seed {seed}: expected 5 crashes (3 stage kills + 2 mid-solve)"
        );
        // Replays may re-apply a delta whose transition was lost with
        // the crash — never fewer applications than the schedule.
        assert!(chaos.deltas_seen >= scheduled, "seed {seed}: deltas lost");
        assert_eq!(chaos.catalog_len, grown, "seed {seed}: catalog");

        let (b, c) = (&base.state, &chaos.state);
        let deployed = |st| (fingerprints(st), denials(st), repairs(st));
        let identical = deployed(c) == deployed(b);
        assert!(
            identical,
            "seed {seed}: chaos run diverged from its uninterrupted twin:\n  \
             base  (placements, denied, repairs) {:x?}\n  chaos (placements, denied, repairs) {:x?}",
            deployed(b),
            deployed(c),
        );
        all_identical &= identical;

        println!(
            "{} drill seed {seed}: {} cycles | deltas {} | crashes {} (stages {:?}) | \
             cold restarts {} | snapshot failures {} | identical to twin: {identical}",
            name,
            c.records.len(),
            chaos.deltas_seen,
            chaos.crashes,
            stage_names(&stages_killed),
            c.cold_restarts,
            c.snapshot_failures,
        );
        let mut row = vec![
            ("seed", Value::Num(seed as f64)),
            ("identical", Value::Bool(identical)),
            ("crashes", Value::Num(chaos.crashes as f64)),
            ("stages_killed", stage_names(&stages_killed).to_value()),
        ];
        row.extend(extra);
        row.push(("baseline", (d.ledger)(b)));
        row.push(("chaos", (d.ledger)(c)));
        seed_rows.push(obj(row));
    }

    assert_eq!(
        stages_covered.len(),
        StageId::ALL.len(),
        "the rotation must kill every stage at least once across seeds"
    );

    let mut file = vec![
        ("scale", Value::Str(format!("{scale:?}").to_lowercase())),
        ("churn_cap", Value::Num(CHURN_CAP as f64)),
    ];
    file.extend(d.growth.map(|g| ("growth", Value::Num(g as f64))));
    file.push(("identical_after_chaos", Value::Bool(all_identical)));
    file.push(("stages_covered", stage_names(&stages_covered).to_value()));
    file.push(("seeds", Value::Arr(seed_rows)));
    save_results(&format!("BENCH_{name}"), &obj(file));
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
}

fn recovered(t: &Twin, action: RecoveryAction) -> bool {
    t.state
        .records
        .iter()
        .any(|r| r.recoveries.contains(&action))
}

fn stage_names(stages: &[StageId]) -> Vec<&'static str> {
    stages.iter().map(|st| st.name()).collect()
}

fn main() {
    let (scale, selected) = vod_bench::args_or_exit("drill", DRILLS);
    for (names, d) in selected {
        run(names[0], d, scale);
    }
}

// The service drill.

/// Cycle 1's replay storm: one VHO dark for the whole window, one
/// backbone link at quarter capacity, demand doubled everywhere, with
/// admission control on. Identical in both twins — faults may change
/// what is *denied*, never what is *placed*.
#[expect(clippy::disallowed_methods, reason = "the storm darkens VHO 1")]
fn storm(horizon: SimTime) -> FaultSchedule {
    let whole = |kind| FaultEvent {
        start: SimTime::new(0),
        end: horizon,
        kind,
    };
    FaultSchedule {
        events: vec![
            whole(FaultKind::VhoOutage { vho: VhoId::new(1) }),
            whole(FaultKind::LinkDegrade {
                link: LinkId::new(0),
                capacity_scale: 0.25,
            }),
            whole(FaultKind::FlashCrowd {
                vho: None,
                multiplier: 2,
            }),
        ],
        admission: true,
    }
}

/// The service chaos twin: the shared kills plus one transient failure
/// per cycle at a seeded stage (attempt 0 only — the retry then
/// succeeds), and damage to the durable artifacts along the way.
#[expect(
    clippy::disallowed_methods,
    reason = "tears, plants and rots state files"
)]
fn service_chaos(s: &Scenario, w: &OpsWorld, cfg: &ServiceConfig, mut plan: ServicePlan) -> Chaos {
    let stages = StageId::ALL;
    plan.fail = (0..3)
        .map(|c| {
            let pick = derive_seed(s.seed, 0xFA11 ^ c as u64) % stages.len() as u64;
            (c, stages[usize::try_from(pick).expect("pick < 5")], 0)
        })
        .collect();
    let (mut torn, mut planted) = (false, false);
    let mut stash: Vec<u8> = Vec::new();
    let chaos = run_twin(w, cfg, plan, &mut |crashes, cycle, kill, dir| {
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
            let cut = usize::try_from(derive_seed(s.seed, 0x7EA2) % SERVICE_HEADER_LEN as u64)
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
    });
    let seed = s.seed;
    assert!(torn && planted, "seed {seed}: matrix incomplete");
    assert_eq!(
        chaos.state.cold_restarts, 1,
        "seed {seed}: the torn state must cause exactly one cold restart"
    );
    assert!(
        recovered(&chaos, RecoveryAction::WarmResume),
        "seed {seed}: a mid-solve kill must warm-resume from its checkpoint"
    );
    assert!(
        recovered(&chaos, RecoveryAction::ColdSolve),
        "seed {seed}: the foreign checkpoint must be refused into a cold solve"
    );
    let extra = vec![
        ("state_torn", Value::Bool(torn)),
        ("foreign_checkpoint_planted", Value::Bool(planted)),
    ];
    (chaos, extra)
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

fn service_ledger(st: &ServiceState) -> Value {
    let row = |r: &ServiceRecord| {
        let recoveries: Vec<_> = r.recoveries.iter().map(|a| a.name()).collect();
        obj(vec![
            ("cycle", r.cycle.to_value()),
            ("degraded", r.degraded.as_ref().map(reason_str).to_value()),
            ("recoveries", recoveries.to_value()),
            ("attempts", r.attempts.to_value()),
            ("backoff_ms", r.backoff_ms.to_value()),
            ("solver_resumes", r.solver_resumes.to_value()),
            ("placement_fnv", hex(r.placement_fnv)),
            ("objective", r.objective.to_value()),
            ("lower_bound", r.lower_bound.to_value()),
            (
                "gap",
                match (r.objective, r.lower_bound) {
                    (Some(o), Some(l)) if l > 0.0 => Value::Num(o / l - 1.0),
                    _ => Value::Null,
                },
            ),
            ("moved", r.moved.to_value()),
            ("deferred", r.deferred.to_value()),
            ("denied", r.denied.to_value()),
            ("denial_rate", r.denial_rate.to_value()),
            ("stale", Value::Bool(r.stale)),
            (
                "sim",
                r.sim.as_ref().map_or(Value::Null, |m| {
                    obj(vec![
                        ("max_gbps", Value::Num(m.max_gbps)),
                        ("local_frac", Value::Num(m.local_frac)),
                        ("total_requests", m.total_requests.to_value()),
                    ])
                }),
            ),
        ])
    };
    obj(vec![
        ("records", Value::Arr(st.records.iter().map(row).collect())),
        ("resumes", st.resumes.to_value()),
        ("cold_restarts", st.cold_restarts.to_value()),
        ("stale_serves", st.stale_serves.to_value()),
        ("queue_len", st.deferred.len().to_value()),
    ])
}

// The reconfiguration drill.

/// The storm both twins replay: a capacity-only squeeze (the deployed
/// placement survives and warm-starts the next solve) before cycle 1,
/// then a topology+catalog delta (repair required) before cycle 2.
fn storm_deltas(seed: u64) -> Vec<WorldDelta> {
    vec![
        WorldDelta {
            cycle: 1,
            seed,
            ops: vec![
                DeltaOp::ScaleLink {
                    link: LinkId::new(0),
                    factor: 0.5,
                },
                DeltaOp::CutLink {
                    link: LinkId::new(1),
                },
            ],
        },
        WorldDelta {
            cycle: 2,
            seed,
            #[expect(clippy::disallowed_methods, reason = "the drill darkens VHO 1")]
            ops: vec![
                DeltaOp::DecommissionVho { vho: VhoId::new(1) },
                DeltaOp::AppendVideos { count: GROWTH },
            ],
        },
    ]
}

/// The snapshot-I/O fault storm: scattered write faults (flavour
/// rotating through ENOSPC, torn partial writes, failed fsync) and two
/// read-EIO faults, all fired by deterministic operation index across
/// the whole chaos scenario — constructions, crashes and rebuilds
/// share one counter.
fn io_storm() -> IoFaultPlan {
    let flavours = [
        IoFault::WriteEnospc,
        IoFault::WritePartial { keep: 7 },
        IoFault::FsyncFail,
    ];
    IoFaultPlan {
        writes: [3u64, 7, 11, 19, 31, 43]
            .iter()
            .enumerate()
            .map(|(i, &at)| (at, flavours[i % flavours.len()]))
            .collect(),
        reads: vec![2, 6],
    }
}

/// What the delta schedule must leave in every twin. These hold only
/// where deltas are applied, so they are the reconfig drill's own.
fn check_reconfig(t: &Twin, who: &str) {
    assert!(t.dark[1], "{who}: VHO 1 must end storage-dark");
    // The capacity-only delta met a deployed placement: recorded as a
    // typed warm-remap recovery on its cycle.
    assert!(
        recovered(t, RecoveryAction::WarmRemap),
        "{who}: capacity-only delta must record a warm-remap"
    );
    // The decommission forced a feasibility repair under the cap.
    assert!(
        t.state.records.iter().any(|r| !r.repairs.is_empty()),
        "{who}: darkening a serving VHO must fingerprint a repair plan"
    );
}

/// The reconfig chaos twin: the shared kills plus the I/O storm, every
/// rebuild with a clone of one fault handle so the storm's operation
/// indices run across the scenario's whole lifetime.
#[expect(clippy::disallowed_methods, reason = "tears the state file on purpose")]
fn reconfig_chaos(s: &Scenario, w: &OpsWorld, cfg: &ServiceConfig, mut plan: ServicePlan) -> Chaos {
    let io = FaultHandle::new(io_storm());
    plan.io = io.clone();
    let mut torn = false;
    let chaos = run_twin(w, cfg, plan, &mut |_, _, _, dir| {
        if !torn {
            // Torn write after the first crash: the rebuild must cold
            // restart and replay the delta schedule deterministically.
            let path = dir.join("service.state");
            if let Ok(bytes) = std::fs::read(&path) {
                std::fs::write(&path, &bytes[..bytes.len().min(23)]).expect("tear state file");
                torn = true;
            }
        }
    });
    let seed = s.seed;
    assert!(
        chaos.state.cold_restarts >= 1,
        "seed {seed}: the torn state must cold-restart"
    );
    // Every scheduled I/O fault actually fired.
    assert!(io.writes_seen() > 43, "seed {seed}: write storm idle");
    assert!(io.reads_seen() > 6, "seed {seed}: read storm idle");
    let extra = vec![
        ("deltas_applied", chaos.deltas_seen.to_value()),
        ("catalog_len", chaos.catalog_len.to_value()),
        ("io_writes_seen", io.writes_seen().to_value()),
        ("io_reads_seen", io.reads_seen().to_value()),
    ];
    (chaos, extra)
}

fn reconfig_ledger(st: &ServiceState) -> Value {
    let hexes = |fs: &[u64]| Value::Arr(fs.iter().copied().map(hex).collect());
    let rejections: Vec<_> = st.records.iter().flat_map(|r| &r.rejections).collect();
    obj(vec![
        ("placements", hexes(&fingerprints(st))),
        ("denied", denials(st).to_value()),
        (
            "repairs",
            Value::Arr(repairs(st).iter().map(|c| hexes(c)).collect()),
        ),
        ("rejections", rejections.to_value()),
        ("resumes", st.resumes.to_value()),
        ("cold_restarts", st.cold_restarts.to_value()),
        ("snapshot_failures", st.snapshot_failures.to_value()),
    ])
}

/// A fingerprint as the ledgers print it: 16 lowercase hex digits.
fn hex(f: u64) -> Value {
    Value::Str(format!("{f:016x}"))
}
