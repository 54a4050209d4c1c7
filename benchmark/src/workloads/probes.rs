//! Layer probes of the traced run: single public calls timed in
//! isolation on seeded inputs shaped like the workload, so a change
//! inside `core.epf_s` or a service stage can be told apart by part.

use super::{Ctx, ScratchDir};
use crate::stats::median;
use rand::Rng;
use std::hint::black_box;
use std::time::Instant;
use vod_core::block::{UflProblem, UflScratch};
use vod_core::direct::{build_direct_lp, exact_block_lp_solution};
use vod_core::potential::{Duals, RowLayout};
use vod_core::{
    solve_fractional, solve_fractional_checkpointed, CheckpointSpec, DiskConfig, EpfConfig, Kernel,
    MipInstance, PenaltyArena, SolverCheckpoint,
};
use vod_json::snapshot::{read_json_snapshot, write_json_snapshot};
use vod_json::Value;
use vod_model::rng::derive_rng;
use vod_trace::{synthesize_library, synthetic_demand, LibraryConfig, TraceConfig};

fn secs_of<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Seeded UFL problems with `n` facilities and `clients` clients:
/// service costs uniform in [0, 1), opening costs a quarter to a half
/// of a column's expected sum, so a handful of facilities open.
fn ufl_problems(seed: u64, count: usize, n: usize, clients: usize) -> Vec<UflProblem> {
    let mut rng = derive_rng(seed, 0xB10C);
    (0..count)
        .map(|_| {
            let open = clients as f64 / 8.0;
            let facility: Vec<f64> = (0..n).map(|_| open * rng.gen_range(1.0..2.0)).collect();
            let service: Vec<f64> = (0..n * clients).map(|_| rng.gen::<f64>()).collect();
            UflProblem::from_flat(facility, service)
        })
        .collect()
}

/// `core.block.*`: median µs per block call, default and scalar
/// kernel — the numbers that decide the scalar/lane arms.
pub fn kernels(ctx: &mut Ctx, n: usize, clients: usize) {
    let problems = ufl_problems(ctx.seed, ctx.size(256, 8), n, clients);
    let mut scratch = UflScratch::default();
    let arms = [
        (
            Kernel::default(),
            "core.block.local_search_us",
            "core.block.dual_ascent_us",
        ),
        (
            Kernel::Scalar,
            "core.block.local_search_scalar_us",
            "core.block.dual_ascent_scalar_us",
        ),
    ];
    let mut costs: Vec<Vec<u64>> = Vec::new();
    for (kernel, search_name, ascent_name) in arms {
        let mut search_us = Vec::with_capacity(problems.len());
        let mut ascent_us = Vec::with_capacity(problems.len());
        let mut arm_costs = Vec::with_capacity(problems.len());
        for p in &problems {
            let (sol, s) = secs_of(|| p.solve_local_search_fast_with_kernel(&mut scratch, kernel));
            search_us.push(s * 1e6);
            let (bound, s) = secs_of(|| p.dual_ascent_bound_with_kernel(&mut scratch, kernel));
            ascent_us.push(s * 1e6);
            arm_costs.push(p.cost(&sol).to_bits() ^ bound.to_bits().rotate_left(1));
        }
        ctx.report.sample(search_name, median(&search_us));
        ctx.report.sample(ascent_name, median(&ascent_us));
        costs.push(arm_costs);
    }
    ctx.report.check(
        "default and scalar kernels agree bitwise on every probe block",
        costs[0] == costs[1],
    );
}

/// `core.penalty.*`: a from-scratch arena for seeded duals, then an
/// incremental update after perturbing 10 % of the link dual rows.
pub fn penalty(ctx: &mut Ctx, inst: &MipInstance) {
    let layout = RowLayout {
        n_vhos: inst.n_vhos(),
        n_links: inst.network.num_links(),
        n_windows: inst.n_windows(),
    };
    let mut rng = derive_rng(ctx.seed, 0x9E7A);
    let mut rows: Vec<f64> = (0..layout.n_rows()).map(|_| rng.gen::<f64>()).collect();
    let kernel = Kernel::default();
    let mut rebuild_ms = Vec::new();
    let mut update_ms = Vec::new();
    for _ in 0..ctx.size(9, 2) {
        let duals = Duals::new(rows.clone(), 1.0);
        let (mut arena, s) = secs_of(|| PenaltyArena::for_duals(inst, &layout, &duals, kernel));
        rebuild_ms.push(s * 1e3);
        for row in rows.iter_mut().skip(layout.n_vhos) {
            if rng.gen_bool(0.1) {
                *row += rng.gen::<f64>();
            }
        }
        let duals = Duals::new(rows.clone(), 1.0);
        let ((), s) = secs_of(|| {
            black_box(arena.update(inst, &layout, &duals, kernel));
        });
        update_ms.push(s * 1e3);
    }
    ctx.report
        .sample("core.penalty.rebuild_ms", median(&rebuild_ms));
    ctx.report
        .sample("core.penalty.update_ms", median(&update_ms));
}

/// `core.epf_thread_speedup`: the workload's EPF at `threads = 1` over
/// `threads = 2`, which must also agree bit for bit. The traced ops
/// already ran one of the two counts; this runs the other.
pub fn thread_speedup(ctx: &mut Ctx, inst: &MipInstance, cfg: &EpfConfig) {
    let other = if cfg.threads == 1 { 2 } else { 1 };
    let other_cfg = EpfConfig {
        threads: other,
        ..cfg.clone()
    };
    let ((_, stats), other_s) = secs_of(|| solve_fractional(inst, &other_cfg));
    let own_s = ctx
        .report
        .value("core.epf_s")
        .expect("traced ops ran before the probes");
    let (one_s, two_s) = if other == 1 {
        (other_s, own_s)
    } else {
        (own_s, other_s)
    };
    ctx.report.sample("core.epf_thread_speedup", one_s / two_s);
    let own_steps = ctx.report.value("core.epf_block_steps");
    let own_gap = ctx.report.value("core.frac_gap_pct");
    let gap = 100.0 * (stats.objective / stats.lower_bound - 1.0);
    ctx.report.check(
        "threads = 1 and threads = 2 agree bitwise on block steps and the fractional gap",
        own_steps == Some(stats.block_steps as f64) && own_gap == Some(gap),
    );
}

/// `core.direct.*` and `lp.*`: the exact per-block LP that the
/// certification stage solves (23 ebone facilities, 10 clients: with
/// uniform random costs the simplex needs 200 times longer at 46), and the
/// non-decomposed LP of a 60-video / 8-VHO instance — Table III's
/// "CPLEX" leg.
pub fn exact_lp(ctx: &mut Ctx) {
    let blocks = ufl_problems(ctx.seed, ctx.size(32, 2), 23, 10);
    let mut block_ms = Vec::with_capacity(blocks.len());
    let mut solved = 0;
    for p in &blocks {
        let (sol, s) = secs_of(|| exact_block_lp_solution(p));
        block_ms.push(s * 1e3);
        solved += usize::from(sol.is_some());
    }
    ctx.report
        .sample("core.direct.exact_block_lp_ms", median(&block_ms));
    ctx.report.check(
        "every probe block LP solves to optimality",
        solved == blocks.len(),
    );

    let net = vod_net::topologies::ladder_mesh(8);
    let n_videos = ctx.size(60, 12);
    let lib = synthesize_library(&LibraryConfig::default_for(n_videos, 7, ctx.seed));
    let tc = TraceConfig::default_for(n_videos as f64 * 1.2, 7, ctx.seed);
    let demand = synthetic_demand(&lib, &net, &tc);
    let inst = MipInstance::new(
        net,
        lib,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    );
    let start = Instant::now();
    let direct = build_direct_lp(&inst);
    let (solution, solve_s) = secs_of(|| vod_lp::solve_lp(&direct.lp));
    ctx.report
        .sample("lp.direct_lp_s", start.elapsed().as_secs_f64());
    ctx.report.sample("lp.solve_lp_ms", solve_s * 1e3);
    ctx.report.check(
        "the direct LP solves to a finite optimum",
        solution.is_ok_and(|s| s.objective.is_finite()),
    );
}

/// `core.checkpoint.*`: encode and decode of a checkpoint captured
/// through `solve_fractional_checkpointed`'s sink — the payload the
/// service's solve stage persists every `checkpoint_every` passes.
pub fn checkpoint(ctx: &mut Ctx, inst: &MipInstance, cfg: &EpfConfig) {
    let cfg = cfg.budgeted(4);
    let mut captured: Option<SolverCheckpoint> = None;
    let mut sink = |ck: SolverCheckpoint| captured = Some(ck);
    let solved = solve_fractional_checkpointed(
        inst,
        &cfg,
        None,
        CheckpointSpec {
            every: 2,
            sink: &mut sink,
        },
    );
    let Some(ck) = captured.filter(|_| solved.is_ok()) else {
        ctx.report
            .check("a 4-pass solve hands a checkpoint to its sink", false);
        return;
    };
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    let mut round_trips = true;
    for _ in 0..ctx.size(9, 2) {
        let (bytes, s) = secs_of(|| ck.to_bytes());
        encode_ms.push(s * 1e3);
        let (back, s) = secs_of(|| SolverCheckpoint::from_bytes(&bytes));
        decode_ms.push(s * 1e3);
        round_trips &= back.is_ok_and(|b| b.to_bytes() == bytes);
        ctx.report
            .sample("core.checkpoint.bytes", bytes.len() as f64);
    }
    ctx.report
        .sample("core.checkpoint.encode_ms", median(&encode_ms));
    ctx.report
        .sample("core.checkpoint.decode_ms", median(&decode_ms));
    ctx.report
        .check("a checkpoint survives encode and decode", round_trips);
}

/// `json.*`: the service state through every codec step the persist
/// path takes, and one snapshot write and read in the scratch dir.
pub fn json(ctx: &mut Ctx, state: &vod_ops::ServiceState, dir: &ScratchDir) {
    let path = dir.0.join("probe.state");
    let mut samples: [Vec<f64>; 5] = Default::default();
    let mut bytes = 0;
    let mut round_trips = true;
    for _ in 0..ctx.size(9, 2) {
        let (value, s) = secs_of(|| state.to_value());
        samples[0].push(s * 1e3);
        let (text, s) = secs_of(|| value.to_string_pretty());
        samples[1].push(s * 1e3);
        bytes = text.len();
        let (parsed, s) = secs_of(|| Value::parse(&text));
        samples[2].push(s * 1e3);
        round_trips &= parsed.is_ok_and(|p| p == value);
        let (wrote, s) = secs_of(|| write_json_snapshot(&path, "bench-probe", 1, &value));
        samples[3].push(s * 1e3);
        let (read, s) = secs_of(|| read_json_snapshot(&path, "bench-probe", 1));
        samples[4].push(s * 1e3);
        round_trips &= wrote.is_ok() && read.is_ok_and(|r| r == value);
    }
    let [to_value, encode, parse, write, read] = samples.map(|s| median(&s));
    let mb = bytes as f64 / 1e6;
    let r = &mut ctx.report;
    r.sample("json.state_bytes", bytes as f64);
    r.sample("json.to_value_ms", to_value);
    r.sample("json.encode_ms", encode);
    r.sample("json.encode_mb_per_s", mb / (encode / 1e3));
    r.sample("json.parse_ms", parse);
    r.sample("json.parse_mb_per_s", mb / (parse / 1e3));
    r.sample("json.snapshot_write_ms", write);
    r.sample("json.snapshot_read_ms", read);
    r.check(
        "the service state survives encode, parse and a snapshot round trip",
        round_trips,
    );
}
