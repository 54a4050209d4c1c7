//! `service-week`: `vod_ops::Service` end to end — estimate, budgeted
//! warm solve, round, validate, simulate, five persists per cycle —
//! over six weekly cycles on `ebone`, with one link delta and, on every
//! other run, one kill before a Round stage followed by a full resume.
//! One op is one cycle; a service run is six of them.

use super::{probes, Ctx, ScratchDir, OP_SPAN};
use std::time::Instant;
use vod_core::{DiskConfig, EpfConfig, MipInstance};
use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind};
use vod_model::{LinkId, Mbps, SimTime, TimeWindow};
use vod_net::PathSet;
use vod_ops::{
    DeltaOp, OpsConfig, OpsError, OpsWorld, Service, ServiceConfig, ServicePlan, ServiceState,
    StageId, StepOutcome, WorldDelta,
};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

const CYCLES: usize = 6;
const DAYS: u64 = 7 * (CYCLES as u64 + 1);
const DISK_RATIO: f64 = 2.0;
const CACHE_SHARE: f64 = 0.05;
/// The run that is killed dies before this stage of this cycle.
const KILL_AT: (usize, StageId) = (4, StageId::Round);

fn build_world(ctx: &mut Ctx) -> OpsWorld {
    let seed = ctx.seed;
    let n_videos = ctx.size(600, 150);
    let requests_per_day = ctx.size(30_000.0, 1_500.0);
    let mut net = vod_net::topologies::ebone();
    net.set_uniform_capacity(Mbps::from_gbps(ctx.size(1.5, 0.1)));
    ctx.report.sample("net.nodes", net.num_nodes() as f64);
    ctx.report.sample("net.links", net.num_links() as f64);
    let paths = ctx.timed("net.paths_s", || PathSet::shortest_paths(&net));
    let catalog = ctx.timed("trace.library_s", || {
        synthesize_library(&LibraryConfig::default_for(n_videos, DAYS, seed))
    });
    let trace = ctx.timed("trace.generate_s", || {
        generate_trace(
            &catalog,
            &net,
            &TraceConfig::default_for(requests_per_day, DAYS, seed),
        )
    });
    ctx.report.sample("trace.requests", trace.len() as f64);
    if let Some(s) = ctx.report.last("trace.generate_s") {
        ctx.report
            .sample("trace.gen_reqs_per_s", trace.len() as f64 / s);
    }
    let disks =
        DiskConfig::UniformRatio { ratio: DISK_RATIO }.capacities(&net, catalog.total_size());
    OpsWorld {
        net,
        paths,
        catalog,
        trace,
        disks,
        mip_disk: DiskConfig::UniformRatio {
            ratio: DISK_RATIO * (1.0 - CACHE_SHARE),
        },
        est: EstimateConfig::default(),
    }
}

fn service_config(ctx: &Ctx, dir: &ScratchDir) -> ServiceConfig {
    let passes = ctx.size(60, 12);
    ServiceConfig {
        ops: OpsConfig {
            cycles: CYCLES,
            period_days: 7,
            start_day: 7,
            estimator: EstimatorKind::History,
            epf: EpfConfig {
                max_passes: passes,
                step_limit: Some(passes as u64),
                threads: ctx.threads,
                seed: ctx.seed,
                ..Default::default()
            },
            max_attempts: 3,
            checkpoint_every: 10,
            backoff_base_ms: 250,
            // 1e-6 degrades some seeds' cycles on this budget; the
            // benchmark wants six fresh deployments at every seed.
            validate_tol: 0.02,
            simulate: true,
            state_dir: dir.0.clone(),
        },
        churn_cap: Some(256),
        cycle_step_budget: Some(passes as u64 * 3 / 4),
        watchdog_budget: 64,
        cycle_faults: Vec::new(),
        cycle_deltas: vec![WorldDelta {
            cycle: 3,
            seed: ctx.seed,
            ops: vec![DeltaOp::ScaleLink {
                link: LinkId::new(0),
                factor: 0.5,
            }],
        }],
    }
}

/// Span name of a `step()` that completed no stage: a kill, the final
/// `Finished`. It is not a metric.
const OTHER_STEP: &str = "ops.step";

/// Span and metric name of one `step()`, known once it has returned.
fn step_name(outcome: &Result<StepOutcome, OpsError>) -> &'static str {
    match outcome {
        Ok(StepOutcome::StageDone { stage, .. }) => match stage {
            StageId::Estimate => "ops.stage.estimate_s",
            StageId::Solve => "ops.stage.solve_s",
            StageId::Round => "ops.stage.round_s",
            StageId::Validate => "ops.stage.validate_s",
            StageId::Simulate => "ops.stage.simulate_s",
        },
        Ok(StepOutcome::DeltaApplied { .. }) => "ops.delta_apply_s",
        _ => OTHER_STEP,
    }
}

fn dir_bytes(dir: &ScratchDir) -> u64 {
    std::fs::read_dir(&dir.0)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Drive one service to completion with `step()`. `kill` plans the
/// kill of [`KILL_AT`]: the value is dropped where it fires and a new
/// one resumes from the state dir, as a restarted process would.
fn run_service(ctx: &mut Ctx, world: &OpsWorld, kill: bool, tag: &str) -> Option<ServiceState> {
    let dir = ScratchDir::new(tag);
    let cfg = service_config(ctx, &dir);
    let plan = ServicePlan {
        kill_at_stage: if kill { vec![KILL_AT] } else { Vec::new() },
        ..Default::default()
    };
    let began = Instant::now();
    let mut svc = match Service::resume_or_start(world, cfg.clone(), plan) {
        Ok(svc) => svc,
        Err(e) => {
            ctx.report.check(&format!("service starts: {e:?}"), false);
            return None;
        }
    };
    let mut steps = 0u64;
    // Start and root span of the cycle in flight.
    let mut cycle: Option<(Instant, Option<usize>)> = None;
    loop {
        if cycle.is_none() && svc.state().cycle < svc.effective_cycles() {
            cycle = Some((Instant::now(), ctx.tracer.open(OP_SPAN)));
        }
        let (outcome, secs) = ctx.tracer.time_named(|| svc.step(), step_name);
        steps += 1;
        let name = step_name(&outcome);
        if name != OTHER_STEP {
            ctx.report.sample(name, secs);
        }
        match outcome {
            Ok(StepOutcome::StageDone {
                stage: StageId::Simulate,
                ..
            }) => {
                let (start, root) = cycle.take().expect("a cycle is in flight");
                ctx.tracer.close(root);
                ctx.op_wall(start.elapsed().as_secs_f64());
            }
            Ok(StepOutcome::StageDone { .. } | StepOutcome::DeltaApplied { .. }) => {}
            Ok(StepOutcome::SimulatedCrash { .. }) => {
                drop(svc);
                let resumed = ctx.timed("ops.resume_s", || {
                    Service::resume_or_start(world, cfg.clone(), ServicePlan::default())
                });
                match resumed {
                    Ok(resumed) => svc = resumed,
                    Err(e) => {
                        ctx.report.check(&format!("service resumes: {e:?}"), false);
                        return None;
                    }
                }
            }
            Ok(StepOutcome::Finished) => break,
            other => {
                // Retries, retreats and degraded cycles are all ways
                // of not deploying fresh on the first attempt.
                ctx.report
                    .check(&format!("every step completes its stage: {other:?}"), false);
                if other.is_err() {
                    return None;
                }
            }
        }
    }
    // A degraded cycle never reaches its Simulate stage.
    if let Some((_, root)) = cycle {
        ctx.tracer.close(root);
    }
    ctx.report
        .sample("ops.service_wall_s", began.elapsed().as_secs_f64());
    ctx.report.sample("ops.steps", steps as f64);
    ctx.report
        .sample("ops.state_dir_bytes", dir_bytes(&dir) as f64);
    Some(svc.state().clone())
}

fn record_ledger(ctx: &mut Ctx, state: &ServiceState) {
    let records = &state.records;
    let r = &mut ctx.report;
    r.check("the service closes all six cycles", records.len() == CYCLES);
    let degraded = records
        .iter()
        .filter(|c| c.degraded.is_some() || c.stale)
        .count();
    r.check("every cycle deploys a fresh placement", degraded == 0);
    r.sample("ops.degraded_cycles", degraded as f64);
    r.sample(
        "ops.moved_copies",
        records.iter().map(|c| c.moved).sum::<usize>() as f64,
    );
    r.sample(
        "ops.deferred_max",
        records.iter().map(|c| c.deferred).max().unwrap_or(0) as f64,
    );
    let requests: u64 = records
        .iter()
        .filter_map(|c| c.sim.as_ref())
        .map(|s| s.total_requests)
        .sum();
    let denied: u64 = records.iter().map(|c| c.denied).sum();
    r.check("every cycle replays its week", requests > 0);
    r.sample("sim.requests", requests as f64);
    r.sample("ops.denied_pct", 100.0 * denied as f64 / requests as f64);
    let gaps: Vec<f64> = records
        .iter()
        .filter_map(|c| Some(c.objective? / c.lower_bound? - 1.0))
        .collect();
    r.check(
        "every cycle certifies a lower bound",
        gaps.len() == records.len(),
    );
    r.sample(
        "core.int_gap_pct",
        100.0 * gaps.iter().sum::<f64>() / gaps.len() as f64,
    );
}

pub fn service_week(ctx: &mut Ctx) {
    let world = ctx.setup(build_world);
    let mut fingerprints: Option<Vec<u64>> = None;
    let mut last_state = None;
    // At least two runs: the even ones are killed and resumed, the odd
    // ones are not, and all must deploy the same placements.
    ctx.timed_section(2, |ctx, rep| {
        let Some(state) = run_service(ctx, &world, rep % 2 == 0, &format!("service-{rep}")) else {
            return;
        };
        record_ledger(ctx, &state);
        let fnv: Vec<u64> = state.records.iter().map(|c| c.placement_fnv).collect();
        ctx.report.check(
            "killed-and-resumed and unkilled runs end with the same placement fingerprints",
            *fingerprints.get_or_insert_with(|| fnv.clone()) == fnv,
        );
        if rep % 2 == 0 {
            ctx.report
                .check("the killed run resumed once", state.resumes == 1);
        }
        last_state = Some(state);
    });
    if !ctx.trace {
        return;
    }
    let Some(state) = last_state else { return };
    let dir = ScratchDir::new("service-probe");
    probes::json(ctx, &state, &dir);
    // The first cycle's instance, as the service builds it: History
    // estimate of week 0 for the period starting on day 7.
    let week = |w: u64| {
        world.trace.restricted(TimeWindow::new(
            SimTime::new(w * 7 * 86_400),
            SimTime::new((w + 1) * 7 * 86_400),
        ))
    };
    let (week0, week1) = (week(0), week(1));
    let demand = ctx.timed("estimate.demand_s", || {
        estimate_demand(
            EstimatorKind::History,
            &world.catalog,
            world.net.num_nodes(),
            &week0,
            &week1,
            7,
            7,
            &world.est,
        )
    });
    let inst = ctx.timed("core.instance_build_s", || {
        MipInstance::new(
            world.net.clone(),
            world.catalog.clone(),
            demand,
            &world.mip_disk,
            1.0,
            0.0,
            None,
        )
    });
    probes::checkpoint(ctx, &inst, &service_config(ctx, &dir).ops.epf);
}
