//! Tracked solver performance baseline — emits `BENCH_solver.json`
//! (schema `BENCH_solver/v4`).
//!
//! Runs the Table III EPF instance ladder (same generator as
//! `table03_scalability`, decomposition solver only) plus the
//! large-library *scale* rows on 100+-VHO [`ladder_mesh`] backbones.
//! Three row modes:
//!
//! - **perf** — the PR trajectory numbers: min-of-`REPEATS` (≥ 3)
//!   wall time per kernel backend, per-repeat walls recorded, plus
//!   the speedup over the `scalar` reference. Backends promise
//!   bitwise-identical results ([`vod_core::kernel`]) and this binary
//!   *asserts* it on every perf row.
//! - **quality** — one adaptive-budget solve per Table III instance
//!   (`gap_limit`, polish + exact certification) reporting the
//!   certified gap and convergence flag.
//! - **scale** — the 10⁵ (default) / 10⁶ (`--full`) video rows:
//!   wall, peak approximate working set, gap, and a `threads = 1` vs
//!   `threads = 4` byte-identity assert (the sharded-EPF determinism
//!   contract at multi-shard block counts); the 4-thread solve's wall
//!   is recorded beside the 1-thread one as `wall_threads_s` /
//!   `threads_n` / `thread_speedup` (read it against the envelope's
//!   `threads`, the cores of the box).
//!
//! Scales: `--quick` (CI smoke: small ebone rows + a 20 k-video /
//! 100-VHO scale smoke), default (PR ladder), `--full` (paper-scale
//! plus the 10⁶ stretch row).
use std::time::Instant;
use vod_bench::{fmt, save_results, Scale, Table};
use vod_core::{
    solve_fractional, DiskConfig, EpfConfig, EpfStats, FractionalSolution, Kernel, MipInstance,
};
use vod_json::{obj, ToJson, Value};
use vod_trace::{synthesize_library, synthetic_demand, LibraryConfig, TraceConfig};

/// Timed repeats per perf row (min-of-N reported).
const REPEATS: usize = 3;

fn instance(n_videos: usize, net: &vod_net::Network, seed: u64) -> MipInstance {
    let days = 7;
    let lib = synthesize_library(&LibraryConfig::default_for(n_videos, days, seed));
    let tc = TraceConfig::default_for(n_videos as f64 * 1.2, days, seed);
    let demand = synthetic_demand(&lib, net, &tc);
    MipInstance::new(
        net.clone(),
        lib,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    )
}

/// Backends requested by `--kernel NAME` (repeatable; `all` = both
/// backends). Default: scalar + chunked.
fn kernels_from_args() -> Vec<Kernel> {
    let mut out: Vec<Kernel> = Vec::new();
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg != "--kernel" {
            continue;
        }
        let value = args.next();
        let picked = match value.as_deref() {
            Some("all") => Kernel::all().to_vec(),
            name => match name.and_then(Kernel::from_name) {
                Some(k) => vec![k],
                None => {
                    eprintln!("--kernel takes (scalar|chunked|all), got {name:?}");
                    std::process::exit(2);
                }
            },
        };
        for k in picked {
            if !out.contains(&k) {
                out.push(k);
            }
        }
    }
    if out.is_empty() {
        out = vec![Kernel::Scalar, Kernel::Chunked];
    }
    out
}

struct Row {
    label: String,
    mode: &'static str,
    kernel: &'static str,
    n_videos: usize,
    n_vhos: usize,
    wall_s: f64,
    walls_s: Vec<f64>,
    speedup_vs_scalar: Option<f64>,
    /// Scale rows only: `(threads, wall)` of the multi-thread solve.
    threaded: Option<(usize, f64)>,
    passes: usize,
    block_steps: u64,
    approx_mb: f64,
    objective: f64,
    lower_bound: f64,
    gap: f64,
    converged: bool,
}

impl ToJson for Row {
    fn to_value(&self) -> Value {
        obj(vec![
            ("label", self.label.to_value()),
            ("mode", self.mode.to_value()),
            ("kernel", self.kernel.to_value()),
            ("n_videos", self.n_videos.to_value()),
            ("n_vhos", self.n_vhos.to_value()),
            ("wall_s", self.wall_s.to_value()),
            (
                "walls_s",
                self.walls_s
                    .iter()
                    .map(|w| w.to_value())
                    .collect::<Vec<_>>()
                    .to_value(),
            ),
            (
                "speedup_vs_scalar",
                self.speedup_vs_scalar.map_or(Value::Null, |s| s.to_value()),
            ),
            (
                "wall_threads_s",
                self.threaded.map_or(Value::Null, |(_, w)| w.to_value()),
            ),
            (
                "threads_n",
                self.threaded.map_or(Value::Null, |(n, _)| n.to_value()),
            ),
            (
                "thread_speedup",
                self.threaded
                    .map_or(Value::Null, |(_, w)| (self.wall_s / w).to_value()),
            ),
            ("passes", self.passes.to_value()),
            ("block_steps", self.block_steps.to_value()),
            ("approx_mb", self.approx_mb.to_value()),
            ("objective", self.objective.to_value()),
            ("lower_bound", self.lower_bound.to_value()),
            ("gap", self.gap.to_value()),
            ("converged", self.converged.to_value()),
        ])
    }
}

fn gap_of(frac: &FractionalSolution) -> f64 {
    if frac.lower_bound > 0.0 {
        frac.objective / frac.lower_bound - 1.0
    } else {
        f64::INFINITY
    }
}

/// Solution identity key: the bitwise contract every backend and
/// thread count must agree on.
fn identity_key(frac: &FractionalSolution, stats: &EpfStats) -> (u64, u64, usize, u64) {
    (
        frac.objective.to_bits(),
        frac.lower_bound.to_bits(),
        stats.passes,
        stats.block_steps,
    )
}

#[expect(
    clippy::too_many_arguments,
    reason = "one row per labelled solve, each argument a column"
)]
fn row_from(
    label: &str,
    mode: &'static str,
    kernel: Kernel,
    inst: &MipInstance,
    frac: &FractionalSolution,
    stats: &EpfStats,
    walls_s: Vec<f64>,
    speedup: Option<f64>,
) -> Row {
    Row {
        label: label.to_string(),
        mode,
        kernel: kernel.name(),
        n_videos: inst.n_videos(),
        n_vhos: inst.n_vhos(),
        wall_s: walls_s.iter().cloned().fold(f64::INFINITY, f64::min),
        walls_s,
        speedup_vs_scalar: speedup,
        threaded: None,
        passes: stats.passes,
        block_steps: stats.block_steps,
        approx_mb: stats.approx_bytes as f64 / 1e6,
        objective: frac.objective,
        lower_bound: frac.lower_bound,
        gap: gap_of(frac),
        converged: stats.converged,
    }
}

fn main() {
    let scale = Scale::from_args();
    let kernels = kernels_from_args();
    // The EPF rows of Table III: library size × Rocketfuel-like net.
    // The smallest row of each scale doubles as the CI smoke instance.
    let ladder: Vec<(usize, vod_net::Network, &str)> = match scale {
        Scale::Quick => vec![
            (200, vod_net::topologies::ebone(), "ebone"),
            (500, vod_net::topologies::ebone(), "ebone"),
        ],
        Scale::Default => vec![
            (1000, vod_net::topologies::ebone(), "ebone"),
            (2000, vod_net::topologies::sprint(), "sprint"),
            (5000, vod_net::topologies::tiscali(), "tiscali"),
        ],
        Scale::Full => vec![
            (5000, vod_net::topologies::tiscali(), "tiscali"),
            (20_000, vod_net::topologies::tiscali(), "tiscali"),
            (50_000, vod_net::topologies::tiscali(), "tiscali"),
        ],
    };
    // Large-library scale rows on ladder meshes: (videos, vhos,
    // max_passes). Pass budgets are deliberate wall caps — the row
    // reports whatever gap that budget certifies.
    let scale_rows: Vec<(usize, usize, usize)> = match scale {
        Scale::Quick => vec![(20_000, 100, 40)],
        Scale::Default => vec![(100_000, 100, 60)],
        Scale::Full => vec![(100_000, 100, 60), (1_000_000, 100, 24)],
    };
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut table = Table::new(
        "Solver baseline — EPF Table III ladder + scale rows",
        &[
            "instance",
            "mode",
            "kernel",
            "wall (s)",
            "vs scalar",
            "N threads",
            "passes",
            "approx MB",
            "gap",
            "conv",
        ],
    );
    let mut rows: Vec<Row> = Vec::new();
    let mut push = |table: &mut Table, r: Row| {
        table.row(vec![
            r.label.clone(),
            r.mode.to_string(),
            r.kernel.to_string(),
            fmt(r.wall_s),
            r.speedup_vs_scalar
                .map_or_else(|| "-".to_string(), |s| format!("{s:.2}x")),
            r.threaded.map_or_else(
                || "-".to_string(),
                |(n, w)| format!("{:.2}x @{n}", r.wall_s / w),
            ),
            r.passes.to_string(),
            fmt(r.approx_mb),
            if r.gap.is_finite() {
                format!("{:.1}%", r.gap * 100.0)
            } else {
                "-".to_string()
            },
            r.converged.to_string(),
        ]);
        rows.push(r);
    };

    // ---- Table III perf + quality rows ----
    for (n, net, net_name) in &ladder {
        let inst = instance(*n, net, 3);
        let label = format!("{n}/{net_name}");
        let perf_cfg = EpfConfig {
            max_passes: 60,
            seed: 3,
            ..Default::default()
        };
        let mut scalar_key: Option<(f64, (u64, u64, usize, u64))> = None;
        for &kernel in &kernels {
            let cfg = EpfConfig {
                kernel,
                ..perf_cfg.clone()
            };
            let mut walls = Vec::with_capacity(REPEATS);
            let mut out = None;
            for _ in 0..REPEATS {
                let t0 = Instant::now();
                let (frac, stats) = solve_fractional(&inst, &cfg);
                walls.push(t0.elapsed().as_secs_f64());
                out = Some((frac, stats));
            }
            let (frac, stats) = out.expect("REPEATS >= 1");
            let key = identity_key(&frac, &stats);
            let best = walls.iter().cloned().fold(f64::INFINITY, f64::min);
            let speedup = match (kernel, &scalar_key) {
                (Kernel::Scalar, _) => {
                    scalar_key = Some((best, key));
                    None
                }
                (_, Some(s)) => {
                    // The backends' bitwise-identity contract, asserted
                    // on every ladder row (this is what CI smoke runs).
                    assert_eq!(
                        s.1,
                        key,
                        "kernel {} diverged from scalar on {label}: \
                         objective/lower_bound/passes/block_steps must be bitwise equal",
                        kernel.name(),
                    );
                    Some(s.0 / best)
                }
                (_, None) => None,
            };
            push(
                &mut table,
                row_from(&label, "perf", kernel, &inst, &frac, &stats, walls, speedup),
            );
        }
        // Quality row: adaptive budget with certification. Exact
        // per-block LPs only below ~3k blocks, where they are cheaper
        // than the passes they certify.
        {
            let cfg = EpfConfig {
                max_passes: 400,
                seed: 3,
                epsilon: 0.02,
                gap_limit: Some(0.02),
                exact_cert: if *n <= 2_000 { 16 } else { 0 },
                ..Default::default()
            };
            let t0 = Instant::now();
            let (frac, stats) = solve_fractional(&inst, &cfg);
            let wall = t0.elapsed().as_secs_f64();
            push(
                &mut table,
                row_from(
                    &label,
                    "quality",
                    cfg.kernel,
                    &inst,
                    &frac,
                    &stats,
                    vec![wall],
                    None,
                ),
            );
        }
    }

    // ---- Scale rows: 10⁵–10⁶ videos on 100+-VHO ladder meshes ----
    for (n, vhos, max_passes) in scale_rows {
        let net = vod_net::topologies::ladder_mesh(vhos);
        let inst = instance(n, &net, 3);
        let label = format!("{n}/mesh{vhos}");
        println!("[scale] {label}: solving (threads=1, then the timed 4-thread identity solve)");
        let cfg = EpfConfig {
            max_passes,
            seed: 3,
            epsilon: 0.02,
            gap_limit: Some(0.02),
            threads: 1,
            ..Default::default()
        };
        let t0 = Instant::now();
        let (frac, stats) = solve_fractional(&inst, &cfg);
        let wall = t0.elapsed().as_secs_f64();
        // The sharded-EPF determinism contract at multi-shard block
        // counts, and the worker pool's scaling at this size: on a box
        // with fewer than 4 cores the recorded speedup is the
        // oversubscribed one.
        const THREADS_N: usize = 4;
        let t0 = Instant::now();
        let (frac4, stats4) = solve_fractional(
            &inst,
            &EpfConfig {
                threads: THREADS_N,
                ..cfg.clone()
            },
        );
        let wall4 = t0.elapsed().as_secs_f64();
        assert_eq!(
            identity_key(&frac, &stats),
            identity_key(&frac4, &stats4),
            "threads=4 diverged from threads=1 on {label}: sharded EPF must be thread-invariant",
        );
        let mut row = row_from(
            &label,
            "scale",
            cfg.kernel,
            &inst,
            &frac,
            &stats,
            vec![wall],
            None,
        );
        row.threaded = Some((THREADS_N, wall4));
        push(&mut table, row);
    }

    table.print();
    let payload = obj(vec![
        ("schema", "BENCH_solver/v4".to_value()),
        ("scale", format!("{scale:?}").to_value()),
        ("threads", threads.to_value()),
        ("repeats", REPEATS.to_value()),
        (
            "kernels",
            kernels
                .iter()
                .map(|k| k.name().to_value())
                .collect::<Vec<_>>()
                .to_value(),
        ),
        ("rows", rows.to_value()),
    ]);
    save_results("BENCH_solver", &payload);
}
