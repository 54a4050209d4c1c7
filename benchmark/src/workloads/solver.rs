//! The three solver workloads: one cold `solve_placement` per op on a
//! Table III instance (`synthetic_demand`, disk ratio 2.0).

use super::{probes, Ctx, OP_SPAN};
use std::hint::black_box;
use std::time::Instant;
use vod_core::rounding::round_solution;
use vod_core::{
    solve_fractional, solve_placement, DiskConfig, EpfConfig, EpfStats, MipInstance, Placement,
    RoundingStats,
};
use vod_model::rng::derive_seed;
use vod_model::VideoId;
use vod_net::{Network, PathSet};
use vod_trace::{synthesize_library, synthetic_demand, LibraryConfig, TraceConfig};

/// The Table III generator (as `solver_baseline` uses it), each call
/// into a layer timed.
fn build_instance(ctx: &mut Ctx, net: &Network, n_videos: usize, seed: u64) -> MipInstance {
    let days = 7;
    ctx.report.sample("net.nodes", net.num_nodes() as f64);
    ctx.report.sample("net.links", net.num_links() as f64);
    // `MipInstance::new` computes the paths itself; this extra call
    // only isolates the net layer's share of the instance build.
    ctx.timed("net.paths_s", || {
        black_box(PathSet::shortest_paths(net));
    });
    let lib = ctx.timed("trace.library_s", || {
        synthesize_library(&LibraryConfig::default_for(n_videos, days, seed))
    });
    let tc = TraceConfig::default_for(n_videos as f64 * 1.2, days, seed);
    let demand = ctx.timed("trace.demand_s", || synthetic_demand(&lib, net, &tc));
    ctx.timed("core.instance_build_s", || {
        MipInstance::new(
            net.clone(),
            lib,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        )
    })
}

/// Bit-for-bit identity of a solve: what ops, thread counts and the
/// traced path must all agree on.
type SolveKey = (u64, u64, u64, u64);

fn solve_key(epf: &EpfStats, rounding: &RoundingStats) -> SolveKey {
    (
        epf.objective.to_bits(),
        epf.lower_bound.to_bits(),
        epf.block_steps,
        rounding.objective.to_bits(),
    )
}

/// Placement shape: one row per video, at least one copy of each.
pub fn placement_covers(placement: &Placement, n_videos: usize) -> bool {
    placement.n_videos() == n_videos
        && (0..n_videos).all(|m| !placement.stores(VideoId::from_index(m)).is_empty())
}

/// One library of a run: its instance and the solver configuration
/// carrying its seed.
struct Library {
    inst: MipInstance,
    cfg: EpfConfig,
    /// The first solve's identity; every later one must match it.
    first: Option<SolveKey>,
}

/// One op: a cold solve of every library of the run, in order. Untraced
/// a solve is the single `solve_placement` call a user makes; traced it
/// is the same two steps called separately (`solve_fractional`,
/// `round_solution`), which must reproduce the untraced result bit for
/// bit.
fn solve_op(ctx: &mut Ctx, libraries: &mut [Library]) {
    let traced = ctx.tracer.recording();
    let start = Instant::now();
    let root = ctx.tracer.open(OP_SPAN);
    for lib in libraries.iter_mut() {
        let (inst, cfg) = (&lib.inst, &lib.cfg);
        let (placement, epf, rounding) = if traced {
            let (frac, epf) = ctx.timed("core.epf_s", || solve_fractional(inst, cfg));
            let (placement, rounding) = ctx.timed("core.round_s", || {
                round_solution(inst, &frac, cfg.gamma, cfg.kernel)
            });
            (placement, epf, rounding)
        } else {
            match solve_placement(inst, cfg) {
                Ok(out) => (out.placement, out.epf, out.rounding),
                Err(e) => {
                    ctx.report.check(&format!("solve_placement: {e}"), false);
                    continue;
                }
            }
        };
        let r = &mut ctx.report;
        r.check("solve_placement returns a placement", true);
        r.check(
            "placement has one row per video and a copy of each",
            placement_covers(&placement, inst.n_videos()),
        );
        let key = solve_key(&epf, &rounding);
        r.check(
            "ops (traced ones too) agree bitwise on objective, lower bound and block steps",
            *lib.first.get_or_insert(key) == key,
        );
        r.check(
            "the solve certifies a positive lower bound",
            epf.lower_bound > 0.0 && rounding.optimality_gap.is_some(),
        );
        r.sample("core.epf_passes", epf.passes as f64);
        r.sample("core.epf_block_steps", epf.block_steps as f64);
        r.sample("core.epf_approx_mb", epf.approx_bytes as f64 / 1e6);
        r.sample(
            "core.frac_gap_pct",
            100.0 * (epf.objective / epf.lower_bound - 1.0),
        );
        r.sample(
            "core.int_gap_pct",
            100.0 * rounding.optimality_gap.unwrap_or(f64::NAN),
        );
        r.sample("core.max_violation_pct", 100.0 * rounding.max_violation);
        r.sample("core.round_videos", rounding.videos_rounded as f64);
        if traced {
            let epf_s = r.last("core.epf_s").expect("just sampled");
            let round_s = r.last("core.round_s").expect("just sampled");
            r.sample("core.epf_block_steps_per_s", epf.block_steps as f64 / epf_s);
            r.sample(
                "core.round_videos_per_s",
                rounding.videos_rounded as f64 / round_s,
            );
        }
    }
    ctx.tracer.close(root);
    ctx.op_wall(start.elapsed().as_secs_f64());
}

/// The repeated set-up builds `count` libraries of `n_videos` — the
/// first from the run's seed itself, the others from seeds derived from
/// it — and every op solves them all again from cold; all ops must
/// agree bit for bit. Returns the first library's instance.
fn run_solver(
    ctx: &mut Ctx,
    net: &Network,
    n_videos: usize,
    count: u64,
    cfg_of: impl Fn(u64) -> EpfConfig,
) -> MipInstance {
    let seeds: Vec<u64> = (0..count)
        .map(|i| {
            if i == 0 {
                ctx.seed
            } else {
                derive_seed(ctx.seed, i)
            }
        })
        .collect();
    let mut libraries = ctx.setup(|ctx| {
        seeds
            .iter()
            .map(|&seed| Library {
                inst: build_instance(ctx, net, n_videos, seed),
                cfg: cfg_of(seed),
                first: None,
            })
            .collect::<Vec<_>>()
    });
    ctx.timed_section(1, |ctx, _| solve_op(ctx, &mut libraries));
    libraries.swap_remove(0).inst
}

pub fn ladder_5k(ctx: &mut Ctx) {
    let passes = ctx.size(60, 6);
    let cfg_of = |seed| EpfConfig {
        max_passes: passes,
        step_limit: Some(passes as u64),
        threads: 1,
        seed,
        ..Default::default()
    };
    let net = vod_net::topologies::tiscali();
    let inst = run_solver(ctx, &net, ctx.size(5000, 120), 1, cfg_of);
    if ctx.trace {
        probes::kernels(ctx, 49, 98);
        probes::penalty(ctx, &inst);
    }
}

pub fn mesh100_9k(ctx: &mut Ctx) {
    let passes = ctx.size(20, 4);
    let threads = ctx.threads;
    let cfg_of = |seed| EpfConfig {
        max_passes: passes,
        step_limit: Some(passes as u64),
        epsilon: 0.02,
        gap_limit: Some(0.02),
        polish_iters: 0,
        threads,
        seed,
        ..Default::default()
    };
    let net = vod_net::topologies::ladder_mesh(ctx.size(100, 20));
    let inst = run_solver(ctx, &net, ctx.size(9000, 200), 1, cfg_of);
    if ctx.trace {
        probes::thread_speedup(ctx, &inst, &cfg_of(ctx.seed));
        probes::kernels(ctx, 100, 200);
        probes::penalty(ctx, &inst);
    }
}

/// Certification time depends on the dual point the passes end on far
/// more than the other solves do (the simplex pivots differently from
/// library to library: ±15 % at any library size, even when only
/// `EpfConfig.seed` changes), so one library says little: an op
/// certifies ten small ones.
pub fn certify_10x100(ctx: &mut Ctx) {
    let passes = ctx.size(100, 20);
    let polish_iters = ctx.size(10, 2);
    let exact_cert = ctx.size(3, 1);
    let cfg_of = |seed| EpfConfig {
        max_passes: passes,
        step_limit: Some(passes as u64),
        epsilon: 0.02,
        gap_limit: Some(0.02),
        polish_iters,
        exact_cert,
        threads: 1,
        seed,
        ..Default::default()
    };
    let net = vod_net::topologies::ebone();
    run_solver(ctx, &net, ctx.size(100, 60), ctx.size(10, 2), cfg_of);
    if ctx.trace {
        probes::exact_lp(ctx);
    }
}
