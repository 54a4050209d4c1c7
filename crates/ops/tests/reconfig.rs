//! Live-reconfiguration robustness: validated world deltas (topology
//! and catalog churn) applied between cycles as durable transitions,
//! feasibility repair of the serving placement under the churn cap,
//! a warm start off the deployed placement across capacity-only
//! deltas, typed checkpoint rejection, and injected snapshot-I/O fault
//! storms — all while the service re-converges byte-identically to an
//! undisturbed twin and never aborts. A fault schedule is a handle in
//! the faulted service's plan, so it cannot leak into a concurrently
//! running test.
#![expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures and builds raw VhoIds and reads and writes files directly"
)]

use std::path::{Path, PathBuf};
use vod_core::{DiskConfig, EpfConfig};
use vod_estimate::{EstimateConfig, EstimatorKind};
use vod_json::faults::{FaultHandle, FaultPlan as IoFaultPlan, IoFault};
use vod_model::{Gigabytes, LinkId, Mbps, VhoId};
use vod_net::{topologies, PathSet};
use vod_ops::{
    DegradeReason, DeltaOp, OpsConfig, OpsError, OpsWorld, RecoveryAction, Service, ServiceConfig,
    ServicePlan, ServiceState, StageId, StepOutcome, WorldDelta,
};
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
    let dir = std::env::temp_dir().join(format!("vod_reconf_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StateDir(dir)
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

/// A three-cycle reconfiguration storm: a capacity-only squeeze before
/// cycle 1, then a VHO decommission plus catalog growth before cycle 2.
fn storm_deltas() -> Vec<WorldDelta> {
    vec![
        WorldDelta {
            cycle: 1,
            seed: 0xD1,
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
            seed: 0xD2,
            ops: vec![
                DeltaOp::DecommissionVho { vho: VhoId::new(1) },
                DeltaOp::AppendVideos { count: 5 },
            ],
        },
    ]
}

#[test]
fn deltas_apply_between_cycles_with_repair_and_warm_remap() {
    let w = world(70);
    let apply_dir = fresh_dir("apply");
    let mut cfg = config(70, &apply_dir);
    cfg.cycle_deltas = storm_deltas();
    let mut s = Service::resume_or_start(&w, cfg, ServicePlan::default()).unwrap();

    let mut applied = Vec::new();
    loop {
        match s.step().unwrap() {
            StepOutcome::DeltaApplied { cycle, index } => applied.push((cycle, index)),
            StepOutcome::Finished => break,
            _ => {}
        }
    }
    assert_eq!(
        applied,
        vec![(1, 0), (2, 1)],
        "each delta fires once, at the start of its cycle"
    );

    // The world evolved in place: cycle 2's delta darkened VHO 1 and
    // grew the catalog tail.
    assert!(s.dark_mask()[1], "VHO 1 must be storage-dark");
    assert_eq!(s.world().catalog.len(), 55, "catalog grew by 5");
    assert_eq!(s.world().disks[1], Gigabytes::new(0.0));

    let st = s.state().clone();
    assert_eq!(st.records.len(), 3);
    for r in &st.records {
        assert!(r.degraded.is_none(), "cycle {}: {:?}", r.cycle, r.degraded);
        assert_ne!(r.placement_fnv, 0);
    }
    // The capacity-only delta met a deployed placement, which
    // warm-starts the next solve (recorded as warm-remap), and needed
    // no feasibility repair (disks untouched).
    assert!(
        st.records[1]
            .recoveries
            .contains(&RecoveryAction::WarmRemap),
        "capacity-only delta must record warm-remap: {:?}",
        st.records[1].recoveries
    );
    assert!(st.records[1].repairs.is_empty());
    // The decommission stranded copies on VHO 1: the repair plan ran
    // and left a fingerprint in the cycle ledger.
    assert!(
        !st.records[2].repairs.is_empty(),
        "darkening a serving VHO must trigger feasibility repair"
    );
    // Uncapped: by the final deployment nothing is placed on the dark
    // VHO (a capped run may legitimately still be draining it).
    let (_, deployed) = st.deployed.as_ref().unwrap();
    for (vid, holders) in deployed.holder_lists().iter().enumerate() {
        assert!(
            !holders.contains(&VhoId::new(1)),
            "video {vid} still has a copy on the dark VHO"
        );
    }
}

#[test]
fn delta_schedule_is_validated_up_front() {
    let w = world(71);

    // Out of order by cycle: refused before any state is touched.
    let unsorted_dir = fresh_dir("unsorted");
    let mut unsorted = config(71, &unsorted_dir);
    unsorted.cycle_deltas = vec![
        WorldDelta {
            cycle: 2,
            seed: 1,
            ops: vec![DeltaOp::CutLink {
                link: LinkId::new(0),
            }],
        },
        WorldDelta {
            cycle: 1,
            seed: 2,
            ops: vec![DeltaOp::AppendVideos { count: 1 }],
        },
    ];
    match Service::resume_or_start(&w, unsorted, ServicePlan::default()) {
        Err(OpsError::Invalid { what }) => assert!(what.contains("sorted"), "{what}"),
        other => panic!("expected Invalid, got {other:?}"),
    }

    // A delta naming a VHO outside the world is refused with the
    // validator's dangling diagnostic, prefixed by its index.
    let dangling_dir = fresh_dir("dangling");
    let mut dangling = config(72, &dangling_dir);
    dangling.cycle_deltas = vec![WorldDelta {
        cycle: 0,
        seed: 3,
        ops: vec![DeltaOp::DecommissionVho {
            vho: VhoId::new(99),
        }],
    }];
    match Service::resume_or_start(&w, dangling, ServicePlan::default()) {
        Err(OpsError::Invalid { what }) => {
            assert!(what.contains("world delta 0"), "{what}");
            assert!(what.contains("dangling"), "{what}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
}

#[test]
fn delta_storms_with_kills_and_torn_state_reconverge_identically() {
    let w = world(73);
    let storm_base_dir = fresh_dir("storm_base");
    let mut base_cfg = config(73, &storm_base_dir);
    base_cfg.cycle_deltas = storm_deltas();
    base_cfg.churn_cap = Some(3);
    let base = Service::resume_or_start(&w, base_cfg, ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    let base_fps = fingerprints(&base);

    // Chaos twin: same deltas and cap, plus stage-boundary kills, a
    // mid-solve kill, and a torn state file after the first crash.
    let dir = fresh_dir("storm_chaos");
    let mut plan = ServicePlan {
        kill_at_stage: vec![(1, StageId::Solve), (2, StageId::Validate)],
        kill_mid_solve: vec![(2, 1)],
        ..ServicePlan::default()
    };
    let mut torn = false;
    let mut crashes = 0usize;
    let st = loop {
        let mut cfg = config(73, &dir);
        cfg.cycle_deltas = storm_deltas();
        cfg.churn_cap = Some(3);
        let mut s = Service::resume_or_start(&w, cfg, plan.clone()).unwrap();
        let mut crashed = false;
        loop {
            match s.step().unwrap() {
                StepOutcome::SimulatedCrash { cycle, kill } => {
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
                let path = dir.join("service.state");
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len().min(23)]).unwrap();
                torn = true;
            }
            continue;
        }
        break s.state().clone();
    };
    assert!(crashes >= 3, "expected all three kills to fire");
    assert!(st.cold_restarts >= 1, "torn state must cold-restart");

    // Identity anchors: placements, denials, repair plans and
    // checkpoint-rejection ledgers are byte-for-byte the base twin's.
    assert_eq!(fingerprints(&st), base_fps);
    assert_eq!(
        st.records.iter().map(|r| r.denied).collect::<Vec<_>>(),
        base.records.iter().map(|r| r.denied).collect::<Vec<_>>()
    );
    assert_eq!(
        st.records
            .iter()
            .map(|r| r.repairs.clone())
            .collect::<Vec<_>>(),
        base.records
            .iter()
            .map(|r| r.repairs.clone())
            .collect::<Vec<_>>()
    );
    // The churn cap holds in both twins, through repair and deploy.
    for r in st.records.iter().chain(base.records.iter()) {
        assert!(r.moved <= 3, "cycle {} moved {} > cap 3", r.cycle, r.moved);
        assert!(r.degraded.is_none());
    }
}

#[test]
fn snapshot_fault_storm_degrades_but_reconverges() {
    let w = world(74);
    let clean = {
        let iostorm_base_dir = fresh_dir("iostorm_base");
        let mut cfg = config(74, &iostorm_base_dir);
        cfg.cycle_deltas = storm_deltas();
        Service::resume_or_start(&w, cfg, ServicePlan::default())
            .unwrap()
            .run()
            .unwrap()
            .clone()
    };

    // Storm twin: every snapshot write for the whole run fails, with
    // the fault flavour rotating through ENOSPC, torn partial writes
    // and failed fsync barriers. Nothing durable ever lands — the
    // service keeps serving from memory, records its backoff, and
    // still converges to the clean twin's exact deployments.
    let faults_cycle = [
        IoFault::WriteEnospc,
        IoFault::WritePartial { keep: 7 },
        IoFault::FsyncFail,
        IoFault::WritePartial { keep: 0 },
    ];
    let plan = IoFaultPlan {
        writes: (0..512)
            .map(|i| (i, faults_cycle[(i % 4) as usize]))
            .collect(),
        reads: Vec::new(),
    };
    let io = FaultHandle::new(plan);
    let iostorm_dir = fresh_dir("iostorm");
    let mut cfg = config(74, &iostorm_dir);
    cfg.cycle_deltas = storm_deltas();
    let plan = ServicePlan {
        io: io.clone(),
        ..ServicePlan::default()
    };
    let mut s = Service::resume_or_start(&w, cfg, plan).unwrap();
    assert!(s.is_dirty(), "the constructor's persist already failed");
    let st = s.run().unwrap().clone();
    assert!(io.writes_seen() > 0);

    assert_eq!(fingerprints(&st), fingerprints(&clean));
    assert_eq!(
        st.records.iter().map(|r| r.denied).collect::<Vec<_>>(),
        clean.records.iter().map(|r| r.denied).collect::<Vec<_>>()
    );
    assert!(st.snapshot_failures > 0);
    // Every cycle closed dirty: the degradation is typed, counted and
    // carries the last failure's description.
    for r in &st.records {
        match r.degraded.as_ref() {
            Some(DegradeReason::SnapshotUnavailable { failures, what }) => {
                assert!(*failures > 0);
                assert!(!what.is_empty());
            }
            other => panic!(
                "cycle {} must degrade SnapshotUnavailable, got {other:?}",
                r.cycle
            ),
        }
        // The retries recorded deterministic backoff instead of
        // sleeping or aborting.
        assert!(r.backoff_ms > 0, "cycle {} recorded no backoff", r.cycle);
        assert_ne!(r.placement_fnv, 0, "cycle {} failed to deploy", r.cycle);
    }
}

#[test]
fn checkpoint_rejection_records_the_solvers_reason() {
    let w = world(75);
    let dir = fresh_dir("reject");

    // Kill mid-solve in cycle 0: the durable state is a killed process
    // with a surviving solver checkpoint.
    let plan = ServicePlan {
        kill_mid_solve: vec![(0, 1)],
        ..ServicePlan::default()
    };
    let mut s = Service::resume_or_start(&w, config(75, &dir), plan).unwrap();
    loop {
        match s.step().unwrap() {
            StepOutcome::SimulatedCrash { .. } => break,
            StepOutcome::Finished => panic!("kill never fired"),
            _ => {}
        }
    }
    drop(s);
    assert!(
        dir.join("solver.ckpt").exists(),
        "the kill must leave a checkpoint behind"
    );

    // Restart under a different per-cycle step budget: the solver
    // config token changes, so the checkpoint no longer validates. The
    // ledger records the solver's reason as it gave it, and the cycle
    // re-solves cold.
    let mut cfg = config(75, &dir);
    cfg.cycle_step_budget = Some(25);
    let mut s = Service::resume_or_start(&w, cfg, ServicePlan::default()).unwrap();
    let st = s.run().unwrap();
    let r0 = &st.records[0];
    assert!(
        matches!(&r0.rejections[..], [m] if m.starts_with("config/instance fingerprint mismatch:")),
        "expected the solver's fingerprint rejection, got {:?}",
        r0.rejections
    );
    assert!(r0.recoveries.contains(&RecoveryAction::ColdSolve));
    for r in &st.records {
        assert!(
            r.degraded.is_none(),
            "rejection must not degrade cycle {}",
            r.cycle
        );
    }
    assert_ne!(r0.placement_fnv, 0);
}
