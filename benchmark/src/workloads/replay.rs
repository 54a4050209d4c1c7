//! `replay-week`: the simulator does all the timed work. Set-up builds
//! a two-week world on `backbone55` and one placement from the History
//! estimate of week 0; one op replays week 1 five ways serially (LRU,
//! LFU, LRFU, no cache, LRU under a fault storm) and then the four
//! non-baseline jobs as one `simulate_batch`.

use super::{solver::placement_covers, Ctx, OP_SPAN};
use std::time::Instant;
use vod_core::{solve_placement, DiskConfig, EpfConfig, MipInstance, Placement};
use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind};
use vod_model::{Catalog, Gigabytes, LinkId, Mbps, SimTime, TimeWindow, VhoId};
use vod_net::{Network, PathSet};
use vod_sim::{
    mip_vho_configs, simulate, simulate_batch, CacheKind, FaultEvent, FaultKind, FaultSchedule,
    PolicyKind, SimConfig, SimJob, SimReport, VhoConfig,
};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, Trace, TraceConfig};

const WEEK_SECS: u64 = 7 * 86_400;
const DISK_RATIO: f64 = 2.0;
const CACHE_SHARE: f64 = 0.05;

struct World {
    net: Network,
    paths: PathSet,
    catalog: Catalog,
    week1: Trace,
    disks: Vec<Gigabytes>,
    placement: Placement,
}

fn build_world(ctx: &mut Ctx) -> World {
    let seed = ctx.seed;
    let n_videos = ctx.size(500, 150);
    let requests_per_day = ctx.size(100_000.0, 2_000.0);
    let passes = ctx.size(40, 10);
    let mut net = vod_net::topologies::backbone55();
    net.set_uniform_capacity(Mbps::from_gbps(ctx.size(1.5, 0.1)));
    ctx.report.sample("net.nodes", net.num_nodes() as f64);
    ctx.report.sample("net.links", net.num_links() as f64);
    let paths = ctx.timed("net.paths_s", || PathSet::shortest_paths(&net));
    let catalog = ctx.timed("trace.library_s", || {
        synthesize_library(&LibraryConfig::default_for(n_videos, 14, seed))
    });
    let trace = ctx.timed("trace.generate_s", || {
        generate_trace(
            &catalog,
            &net,
            &TraceConfig::default_for(requests_per_day, 14, seed),
        )
    });
    ctx.report.sample("trace.requests", trace.len() as f64);
    if let Some(s) = ctx.report.last("trace.generate_s") {
        ctx.report
            .sample("trace.gen_reqs_per_s", trace.len() as f64 / s);
    }
    let week = |w: u64| {
        trace.restricted(TimeWindow::new(
            SimTime::new(w * WEEK_SECS),
            SimTime::new((w + 1) * WEEK_SECS),
        ))
    };
    let (week0, week1) = (week(0), week(1));
    let demand = ctx.timed("estimate.demand_s", || {
        estimate_demand(
            EstimatorKind::History,
            &catalog,
            net.num_nodes(),
            &week0,
            &week1,
            7,
            7,
            &EstimateConfig::default(),
        )
    });
    let inst = ctx.timed("core.instance_build_s", || {
        MipInstance::new(
            net.clone(),
            catalog.clone(),
            demand,
            &DiskConfig::UniformRatio {
                ratio: DISK_RATIO * (1.0 - CACHE_SHARE),
            },
            1.0,
            0.0,
            None,
        )
    });
    let cfg = EpfConfig {
        max_passes: passes,
        step_limit: Some(passes as u64),
        polish_iters: 0,
        threads: 1,
        seed,
        ..Default::default()
    };
    let out = solve_placement(&inst, &cfg).expect("the replay world's instance is well formed");
    if let Some(gap) = out.rounding.optimality_gap {
        ctx.report.sample("core.int_gap_pct", 100.0 * gap);
    }
    let disks =
        DiskConfig::UniformRatio { ratio: DISK_RATIO }.capacities(&net, catalog.total_size());
    World {
        net,
        paths,
        catalog,
        week1,
        disks,
        placement: out.placement,
    }
}

/// VHO 1 dark, link 0 at quarter capacity and demand doubled for the
/// whole week, admission control on (the chaos drill's storm).
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

struct Variant {
    /// `sim.replay_<tag>_s`, `sim.replay_<tag>_reqs_per_s`.
    wall: &'static str,
    rate: &'static str,
    vhos: Vec<VhoConfig>,
    policy: PolicyKind,
    cfg: SimConfig,
}

fn variants(w: &World, seed: u64) -> Vec<Variant> {
    let cfg = SimConfig {
        measure_from: SimTime::new(WEEK_SECS),
        seed,
        ..Default::default()
    };
    let mip = PolicyKind::MipRouting(w.placement.clone());
    let cached = |kind| mip_vho_configs(&w.placement, &w.disks, CACHE_SHARE, kind);
    let variant = |wall, rate, vhos, policy, cfg| Variant {
        wall,
        rate,
        vhos,
        policy,
        cfg,
    };
    vec![
        variant(
            "sim.replay_lru_s",
            "sim.replay_lru_reqs_per_s",
            cached(CacheKind::Lru),
            mip.clone(),
            cfg.clone(),
        ),
        variant(
            "sim.replay_lfu_s",
            "sim.replay_lfu_reqs_per_s",
            cached(CacheKind::Lfu),
            mip.clone(),
            cfg.clone(),
        ),
        variant(
            "sim.replay_lrfu_s",
            "sim.replay_lrfu_reqs_per_s",
            cached(CacheKind::Lrfu(0.001)),
            mip.clone(),
            cfg.clone(),
        ),
        variant(
            "sim.replay_nocache_s",
            "sim.replay_nocache_reqs_per_s",
            mip_vho_configs(&w.placement, &w.disks, 0.0, CacheKind::Lru),
            PolicyKind::NearestReplica,
            cfg.clone(),
        ),
        variant(
            "sim.replay_faulted_s",
            "sim.replay_faulted_reqs_per_s",
            cached(CacheKind::Lru),
            mip,
            SimConfig {
                faults: storm(w.week1.horizon()),
                ..cfg
            },
        ),
    ]
}

/// Bitwise fingerprint of a report: what ops and the batched pass must
/// agree on.
fn fingerprint(rep: &SimReport) -> [u64; 8] {
    let mut series = 0u64;
    for &v in rep.peak_link_mbps.iter().chain(&rep.transfer_gb) {
        series = series.rotate_left(7) ^ v.to_bits();
    }
    [
        rep.total_requests,
        rep.served_local_pinned,
        rep.served_local_cached,
        rep.served_remote,
        rep.denied(),
        rep.total_gb_hops.to_bits(),
        rep.max_link_mbps.to_bits(),
        series,
    ]
}

fn conserved(rep: &SimReport) -> bool {
    rep.served_local_pinned + rep.served_local_cached + rep.served_remote + rep.denied()
        == rep.total_requests
}

pub fn replay_week(ctx: &mut Ctx) {
    let world = ctx.setup(build_world);
    let w = &world;
    ctx.report.check(
        "set-up placement has one row per video and a copy of each",
        placement_covers(&w.placement, w.catalog.len()),
    );
    let variants = variants(w, ctx.seed);
    let jobs: Vec<SimJob> = variants[1..]
        .iter()
        .map(|v| SimJob {
            net: &w.net,
            paths: &w.paths,
            catalog: &w.catalog,
            trace: &w.week1,
            vhos: &v.vhos,
            policy: &v.policy,
            cfg: v.cfg.clone(),
        })
        .collect();
    let threads = ctx.threads;
    let mut first: Option<Vec<[u64; 8]>> = None;

    ctx.timed_section(1, |ctx, _| {
        let start = Instant::now();
        let root = ctx.tracer.open(OP_SPAN);
        let mut serial = Vec::with_capacity(variants.len());
        for v in &variants {
            let rep = ctx.timed(v.wall, || {
                simulate(
                    &w.net, &w.paths, &w.catalog, &w.week1, &v.vhos, &v.policy, &v.cfg,
                )
            });
            let wall = ctx.report.last(v.wall).expect("just sampled");
            ctx.report.sample(v.rate, rep.total_requests as f64 / wall);
            serial.push(rep);
        }
        let batch = ctx.timed("sim.batch_s", || simulate_batch(&jobs, threads));
        ctx.tracer.close(root);
        ctx.op_wall(start.elapsed().as_secs_f64());

        let r = &mut ctx.report;
        let batch_s = r.last("sim.batch_s").expect("just sampled");
        let batch_requests: u64 = batch.iter().map(|b| b.total_requests).sum();
        r.sample("sim.batch_reqs_per_s", batch_requests as f64 / batch_s);
        let serial_s: f64 = variants[1..]
            .iter()
            .map(|v| r.last(v.wall).expect("just sampled"))
            .sum();
        r.sample("sim.batch_speedup", serial_s / batch_s);
        let lru = &serial[0];
        r.sample("sim.requests", lru.total_requests as f64);
        r.sample("sim.local_frac", lru.local_fraction());
        let faulted = &serial[4];
        r.sample("sim.denied_capacity", faulted.denied_capacity as f64);
        r.sample("sim.denied_no_replica", faulted.denied_no_replica as f64);
        r.sample("sim.interrupted", faulted.interrupted_streams as f64);

        r.check(
            "fault-free replays count exactly the week's requests",
            serial[..4]
                .iter()
                .all(|rep| rep.total_requests as usize == w.week1.len()),
        );
        r.check(
            "the flash crowd only adds requests",
            faulted.total_requests as usize >= w.week1.len(),
        );
        r.check(
            "served and denied partition the requests of every replay",
            serial.iter().all(conserved),
        );
        let prints: Vec<_> = serial.iter().map(fingerprint).collect();
        r.check(
            "simulate_batch reports equal the serial ones",
            batch
                .iter()
                .map(fingerprint)
                .eq(prints[1..].iter().copied()),
        );
        r.check(
            "ops agree bitwise on every report",
            *first.get_or_insert_with(|| prints.clone()) == prints,
        );
    });
}
