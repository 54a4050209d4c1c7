//! Reconfiguration drill — the deterministic live-churn matrix for the
//! supervised placement service (robustness harness, not a paper
//! table).
//!
//! For each drill seed the same *reconfiguration storm* — a
//! capacity-only link squeeze before cycle 1, then a VHO decommission
//! plus catalog growth before cycle 2 — runs twice:
//!
//! - **baseline**: the [`vod_ops::Service`] daemon applies the delta
//!   schedule uninterrupted: warm-state remap across the capacity-only
//!   delta, churn-capped feasibility repair of the darkened VHO,
//!   catalog-tail growth re-solved in place,
//! - **chaos**: the identical config driven through a seeded kill
//!   matrix (a stage-boundary kill per cycle, rotating across seeds;
//!   mid-solve kills in cycles 0 and 1; the `service.state` file torn
//!   after the first crash) *plus* an injected snapshot-I/O fault
//!   storm: scattered ENOSPC, torn partial writes, failed fsync
//!   barriers and read-EIO faults fired by operation index through one
//!   [`vod_json::faults::FaultHandle`] shared by every rebuild.
//!
//! Asserts the chaos run's per-cycle deployed placements, denial
//! counts and feasibility-repair fingerprints are *byte-identical* to
//! the baseline's, that warm-remap is recorded for the capacity-only
//! delta in both twins, that the churn cap is never exceeded (repair
//! included), and that the service never aborts — snapshot trouble
//! degrades to typed `SnapshotUnavailable` cycles served from memory.
//! Emits `results/BENCH_reconfig.json` — counters and fingerprints
//! only, no wall times (the service never reads a clock).
use std::path::{Path, PathBuf};
use vod_bench::{save_results, Defaults, Scale, Scenario};
use vod_estimate::EstimateConfig;
use vod_estimate::EstimatorKind;
use vod_json::faults::{FaultHandle, FaultPlan as IoFaultPlan, IoFault};
use vod_json::{obj, Value};
use vod_model::{LinkId, Mbps, VhoId};
use vod_ops::{
    DegradeReason, DeltaOp, OpsConfig, OpsWorld, RecoveryAction, Service, ServiceConfig,
    ServicePlan, ServiceState, StageId, StepOutcome, WorldDelta,
};

/// Drill seeds: three independent worlds; the stage-kill rotation
/// across them covers all five stages.
const SEEDS: [u64; 3] = [2020, 2021, 2022];

/// Copies the service may migrate per cycle — shared by scheduled
/// deploys *and* delta-triggered feasibility repair.
const CHURN_CAP: usize = 64;

/// Videos appended at the cycle-2 delta.
const GROWTH: usize = 8;

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

/// The storm both twins replay: a capacity-only squeeze (remap
/// eligible — warm solver state survives) before cycle 1, then a
/// topology+catalog delta (repair required) before cycle 2.
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
            #[expect(
                clippy::disallowed_methods,
                reason = "the drill darkens VHO 1 by convention"
            )]
            ops: vec![
                DeltaOp::DecommissionVho { vho: VhoId::new(1) },
                DeltaOp::AppendVideos { count: GROWTH },
            ],
        },
    ]
}

fn config(s: &Scenario, dir: PathBuf) -> ServiceConfig {
    let epf = s.epf_config();
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
        cycle_faults: Vec::new(),
        cycle_deltas: storm_deltas(s.seed),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vod_reconfig_drill_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

struct TwinOutcome {
    state: ServiceState,
    deltas_seen: usize,
    catalog_len: usize,
    dark_vho1: bool,
}

fn run_baseline(w: &OpsWorld, s: &Scenario, dir: &Path) -> TwinOutcome {
    let mut svc = Service::resume_or_start(w, config(s, dir.to_path_buf()), ServicePlan::default())
        .expect("drill config is valid");
    let mut deltas_seen = 0usize;
    loop {
        match svc.step().expect("baseline never aborts") {
            StepOutcome::DeltaApplied { .. } => deltas_seen += 1,
            StepOutcome::Finished => break,
            _ => {}
        }
    }
    TwinOutcome {
        state: svc.state().clone(),
        deltas_seen,
        catalog_len: svc.world().catalog.len(),
        dark_vho1: svc.dark_mask()[1],
    }
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

struct ChaosOutcome {
    twin: TwinOutcome,
    crashes: u64,
    io_writes_seen: u64,
    io_reads_seen: u64,
    stages_killed: Vec<StageId>,
}

/// The chaos run: drop the service value on every simulated crash and
/// rebuild it over the same state directory, every rebuild with a
/// clone of one I/O fault handle, so the storm's operation indices run
/// across the scenario's whole lifetime. Fired kills are retired from
/// the plan between rebuilds.
#[expect(
    clippy::disallowed_methods,
    reason = "the chaos run tears, plants and corrupts state files on purpose"
)]
fn run_chaos(w: &OpsWorld, s: &Scenario, dir: &Path, rotate: usize) -> ChaosOutcome {
    let io = FaultHandle::new(io_storm());
    let stages = StageId::ALL;
    let mut plan = ServicePlan {
        kill_at_stage: (0..3)
            .map(|c| (c, stages[(c + rotate) % stages.len()]))
            .collect(),
        kill_mid_solve: vec![(0, 1), (1, 1)],
        io: io.clone(),
        ..ServicePlan::default()
    };
    let stages_killed: Vec<StageId> = plan.kill_at_stage.iter().map(|&(_, st)| st).collect();
    let mut crashes = 0u64;
    let mut torn = false;
    let mut deltas_seen = 0usize;
    loop {
        let mut svc = Service::resume_or_start(w, config(s, dir.to_path_buf()), plan.clone())
            .expect("drill config is valid");
        let crashed_at = loop {
            match svc
                .step()
                .expect("reconfig trouble degrades, it never aborts")
            {
                StepOutcome::SimulatedCrash { cycle, kill } => break Some((cycle, kill)),
                StepOutcome::DeltaApplied { .. } => deltas_seen += 1,
                StepOutcome::Finished => break None,
                _ => {}
            }
        };
        let Some((cycle, kill)) = crashed_at else {
            return ChaosOutcome {
                twin: TwinOutcome {
                    state: svc.state().clone(),
                    deltas_seen,
                    catalog_len: svc.world().catalog.len(),
                    dark_vho1: svc.dark_mask()[1],
                },
                crashes,
                io_writes_seen: io.writes_seen(),
                io_reads_seen: io.reads_seen(),
                stages_killed,
            };
        };
        crashes += 1;
        plan.retire(cycle, kill);
        if !torn {
            // Torn write after the first crash: the rebuild must cold
            // restart and replay the delta schedule deterministically.
            let path = dir.join("service.state");
            if let Ok(bytes) = std::fs::read(&path) {
                std::fs::write(&path, &bytes[..bytes.len().min(23)]).expect("tear state file");
                torn = true;
            }
        }
    }
}

/// Twin-shared assertions: the churn cap holds through scheduled
/// deploys and delta repair, every cycle deploys, and the only
/// tolerated degradation is typed snapshot unavailability (the I/O
/// storm's signature — baseline runs must not show even that).
fn check_twin(out: &TwinOutcome, who: &str, io_faults_allowed: bool) {
    let st = &out.state;
    for r in &st.records {
        match r.degraded.as_ref() {
            None => {}
            Some(DegradeReason::SnapshotUnavailable { .. }) if io_faults_allowed => {}
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
    }
    assert!(out.dark_vho1, "{who}: VHO 1 must end storage-dark");
    // The capacity-only delta carried warm state across: recorded as a
    // typed warm-remap recovery on its cycle.
    assert!(
        st.records
            .iter()
            .any(|r| r.recoveries.contains(&RecoveryAction::WarmRemap)),
        "{who}: capacity-only delta must record a warm-remap"
    );
    // The decommission forced a feasibility repair under the cap.
    assert!(
        st.records.iter().any(|r| !r.repairs.is_empty()),
        "{who}: darkening a serving VHO must fingerprint a repair plan"
    );
}

fn ledger(st: &ServiceState) -> Value {
    obj(vec![
        (
            "placements",
            Value::Arr(
                fingerprints(st)
                    .iter()
                    .map(|f| Value::Str(format!("{f:016x}")))
                    .collect(),
            ),
        ),
        (
            "denied",
            Value::Arr(denials(st).iter().map(|&d| Value::Num(d as f64)).collect()),
        ),
        (
            "repairs",
            Value::Arr(
                repairs(st)
                    .iter()
                    .map(|c| {
                        Value::Arr(c.iter().map(|f| Value::Str(format!("{f:016x}"))).collect())
                    })
                    .collect(),
            ),
        ),
        (
            "rejections",
            Value::Arr(
                st.records
                    .iter()
                    .flat_map(|r| r.rejections.iter())
                    .map(|m| Value::Str(m.clone()))
                    .collect(),
            ),
        ),
        ("resumes", Value::Num(st.resumes as f64)),
        ("cold_restarts", Value::Num(st.cold_restarts as f64)),
        ("snapshot_failures", Value::Num(st.snapshot_failures as f64)),
    ])
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
        let grown = w.catalog.len() + GROWTH;

        let base = run_baseline(&w, &s, &fresh_dir(&format!("base_{seed}")));
        check_twin(&base, "baseline", false);
        assert_eq!(base.state.cold_restarts, 0, "baseline never cold-restarts");
        assert_eq!(base.deltas_seen, 2, "baseline applies each delta once");
        assert_eq!(base.catalog_len, grown, "baseline catalog must grow");

        let chaos = run_chaos(&w, &s, &fresh_dir(&format!("chaos_{seed}")), rotate);
        check_twin(&chaos.twin, "chaos", true);
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
            chaos.twin.state.cold_restarts >= 1,
            "seed {seed}: the torn state must cold-restart"
        );
        // Replays may re-apply a delta whose transition was lost with
        // the crash — never fewer applications than the schedule.
        assert!(chaos.twin.deltas_seen >= 2, "seed {seed}: deltas lost");
        assert_eq!(chaos.twin.catalog_len, grown, "seed {seed}: catalog");
        // Every scheduled I/O fault actually fired.
        assert!(chaos.io_writes_seen > 43, "seed {seed}: write storm idle");
        assert!(chaos.io_reads_seen > 6, "seed {seed}: read storm idle");

        let identical = fingerprints(&chaos.twin.state) == fingerprints(&base.state)
            && denials(&chaos.twin.state) == denials(&base.state)
            && repairs(&chaos.twin.state) == repairs(&base.state);
        assert!(
            identical,
            "seed {seed}: chaos run diverged from its uninterrupted twin:\n  \
             base  {:x?} denied {:?} repairs {:x?}\n  chaos {:x?} denied {:?} repairs {:x?}",
            fingerprints(&base.state),
            denials(&base.state),
            repairs(&base.state),
            fingerprints(&chaos.twin.state),
            denials(&chaos.twin.state),
            repairs(&chaos.twin.state),
        );
        all_identical &= identical;

        println!(
            "reconfig_drill seed {seed}: {} cycles | deltas {} | crashes {} \
             (stages {:?}) | cold restarts {} | snapshot failures {} | \
             identical to twin: {identical}",
            chaos.twin.state.records.len(),
            chaos.twin.deltas_seen,
            chaos.crashes,
            chaos
                .stages_killed
                .iter()
                .map(|st| st.name())
                .collect::<Vec<_>>(),
            chaos.twin.state.cold_restarts,
            chaos.twin.state.snapshot_failures,
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
            ("deltas_applied", Value::Num(chaos.twin.deltas_seen as f64)),
            ("catalog_len", Value::Num(chaos.twin.catalog_len as f64)),
            ("io_writes_seen", Value::Num(chaos.io_writes_seen as f64)),
            ("io_reads_seen", Value::Num(chaos.io_reads_seen as f64)),
            ("baseline", ledger(&base.state)),
            ("chaos", ledger(&chaos.twin.state)),
        ]));
    }

    assert_eq!(
        stages_covered.len(),
        StageId::ALL.len(),
        "the rotation must kill every stage at least once across seeds"
    );

    save_results(
        "BENCH_reconfig",
        &obj(vec![
            ("scale", Value::Str(format!("{scale:?}").to_lowercase())),
            ("churn_cap", Value::Num(CHURN_CAP as f64)),
            ("growth", Value::Num(GROWTH as f64)),
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
