//! Tier-1 smoke of the ops layer: one short `vod_ops::Service` run with
//! a churn cap, a link delta and a kill-and-resume, checked against its
//! unkilled twin. The full matrix lives in `crates/ops/tests`.
#![allow(clippy::unwrap_used)]

use vod_json::snapshot::read_json_snapshot;
use vod_ops::{
    DeltaOp, OpsConfig, OpsWorld, Service, ServiceConfig, ServicePlan, ServiceState, StageId,
    StepOutcome, WorldDelta, SERVICE_KIND, SERVICE_VERSION,
};
use vodplace::model::LinkId;
use vodplace::net::topologies;
use vodplace::prelude::*;

const SEED: u64 = 71;

fn world() -> OpsWorld {
    let mut net = topologies::mesh_backbone(6, 9, SEED);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let paths = PathSet::shortest_paths(&net);
    let catalog = synthesize_library(&LibraryConfig::default_for(40, 14, SEED));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(400.0, 14, SEED));
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

fn config(name: &str) -> ServiceConfig {
    let dir = std::env::temp_dir().join(format!("vod_smoke_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ServiceConfig {
        ops: OpsConfig {
            cycles: 3,
            period_days: 2,
            start_day: 7,
            estimator: EstimatorKind::History,
            epf: EpfConfig {
                max_passes: 40,
                seed: SEED,
                ..EpfConfig::default()
            },
            max_attempts: 3,
            checkpoint_every: 3,
            backoff_base_ms: 250,
            validate_tol: 1e-6,
            simulate: true,
            state_dir: dir,
        },
        churn_cap: Some(32),
        cycle_step_budget: None,
        watchdog_budget: 32,
        cycle_faults: Vec::new(),
        cycle_deltas: vec![WorldDelta {
            cycle: 1,
            seed: 0xD1,
            ops: vec![DeltaOp::ScaleLink {
                link: LinkId::new(0),
                factor: 0.5,
            }],
        }],
    }
}

fn fingerprints(st: &ServiceState) -> Vec<u64> {
    st.records.iter().map(|r| r.placement_fnv).collect()
}

#[test]
fn killed_service_resumes_to_its_twins_deployments() {
    let w = world();
    let twin = Service::resume_or_start(&w, config("twin"), ServicePlan::default())
        .unwrap()
        .run()
        .unwrap()
        .clone();
    assert_eq!(twin.records.len(), 3);

    // The process dies before cycle 1's round stage; the service value
    // is dropped and rebuilt from the state directory alone.
    let cfg = config("killed");
    let plan = ServicePlan {
        kill_at_stage: vec![(1, StageId::Round)],
        ..ServicePlan::default()
    };
    let mut s = Service::resume_or_start(&w, cfg.clone(), plan).unwrap();
    while s.step().unwrap() != (StepOutcome::SimulatedCrash { cycle: 1 }) {}
    drop(s);
    let mut s = Service::resume_or_start(&w, cfg.clone(), ServicePlan::default()).unwrap();
    let st = s.run().unwrap();

    assert_eq!(st.resumes, 1);
    assert_eq!(st.deltas_applied, 1);
    for r in &st.records {
        assert!(r.degraded.is_none(), "cycle {}: {:?}", r.cycle, r.degraded);
        assert!(!r.stale);
        assert!(r.moved <= 32);
    }
    assert_eq!(fingerprints(st), fingerprints(&twin));

    // What an operator tool would read back from disk is that ledger.
    let on_disk = read_json_snapshot(
        &cfg.ops.state_dir.join("service.state"),
        SERVICE_KIND,
        SERVICE_VERSION,
    )
    .unwrap();
    let on_disk = ServiceState::from_value(&on_disk).unwrap();
    assert_eq!(fingerprints(&on_disk), fingerprints(&twin));
}
