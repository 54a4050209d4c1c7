//! The final lower-bound polish must not move a returned bit.
//!
//! Seven seeded small solves on the Table III generator, their
//! `(objective, lower_bound)` bits and `block_steps` captured on the
//! solver *before* `polish_bound` learned to stop a stalled stage
//! (parent of PR 23). They cover the shapes the polish meets:
//!
//! - a heuristic stage that never improves on its seed evaluation,
//! - one that climbs for more than a hundred sweeps and still ends
//!   below the bound the passes already hold (two seeds),
//! - a productive exact stage on top of a heuristic stage that climbs
//!   to its last sweep, never pausing for more than eight,
//! - a productive exact stage on top of a heuristic stage that never
//!   improves,
//! - the `certify-10x100` benchmark shape (10 + 3 polish iterations),
//! - the `ladder-5k` shape in small (the widest Table III network under
//!   a pass budget).
//!
//! A change to the polish's schedule has to leave all of them alone.
#![allow(clippy::unwrap_used)]

use vod_core::{
    solve, solve_fractional, CheckpointSpec, DiskConfig, EpfConfig, EpfStats, Hooks, MipInstance,
    SolverCheckpoint, Start,
};
use vod_net::{topologies, Network};
use vod_trace::{synthesize_library, synthetic_demand, LibraryConfig, TraceConfig};

/// The Table III generator (as `solver_baseline` and the benchmark's
/// solver workloads use it).
fn instance(n_videos: usize, net: &Network, seed: u64) -> MipInstance {
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

struct Case {
    name: &'static str,
    n_videos: usize,
    net: fn() -> Network,
    cfg: EpfConfig,
    /// `(objective bits, lower_bound bits, block_steps)` of the
    /// unchanged solver.
    want: (u64, u64, u64),
}

impl Case {
    fn instance(&self) -> MipInstance {
        instance(self.n_videos, &(self.net)(), self.cfg.seed)
    }
}

/// A single-thread solve under a pass budget, as the benchmark's solver
/// workloads configure it.
fn cfg(seed: u64, passes: usize, polish_iters: usize, exact_cert: usize) -> EpfConfig {
    EpfConfig {
        max_passes: passes,
        step_limit: Some(passes as u64),
        polish_iters,
        exact_cert,
        threads: 1,
        seed,
        ..Default::default()
    }
}

fn key(stats: &EpfStats) -> (u64, u64, u64) {
    (
        stats.objective.to_bits(),
        stats.lower_bound.to_bits(),
        stats.block_steps,
    )
}

fn never_improves() -> Case {
    Case {
        name: "500/ebone, 200 passes: stage 0 never improves",
        n_videos: 500,
        net: topologies::ebone,
        cfg: cfg(3, 200, 120, 0),
        want: (0x40a09684866c6204, 0x409564126aac811e, 46967),
    }
}

fn long_climb(seed: u64, want: (u64, u64, u64)) -> Case {
    Case {
        name: "200/sprint, 60 passes: long climb that ends below lb",
        n_videos: 200,
        net: topologies::sprint,
        cfg: cfg(seed, 60, 120, 0),
        want,
    }
}

fn exact_after_a_climb() -> Case {
    Case {
        name: "150/ebone, 120 passes, exact_cert 8: productive exact stage after a climb",
        n_videos: 150,
        net: topologies::ebone,
        cfg: cfg(3, 120, 120, 8),
        want: (0x408637d956f4f661, 0x4080a8cda0404526, 12771),
    }
}

fn exact_after_a_stall() -> Case {
    Case {
        name:
            "150/sprint, 120 passes, polish 40, exact_cert 8: productive exact stage after a stall",
        n_videos: 150,
        net: topologies::sprint,
        cfg: cfg(11, 120, 40, 8),
        want: (0x40879a35f3de8a5d, 0x4081416d9e5107b0, 13759),
    }
}

fn certify_shape() -> Case {
    Case {
        name: "100/ebone, polish 10 + exact 3: the certify-10x100 shape",
        n_videos: 100,
        net: topologies::ebone,
        cfg: EpfConfig {
            epsilon: 0.02,
            gap_limit: Some(0.02),
            ..cfg(3, 100, 10, 3)
        },
        want: (0x4081cf91cca47531, 0x4078eb582b800cef, 7000),
    }
}

fn wide_budgeted() -> Case {
    Case {
        name: "300/tiscali, 40 passes: the ladder-5k shape in small",
        n_videos: 300,
        net: topologies::tiscali,
        cfg: cfg(11, 40, 120, 0),
        want: (0x40ab40194f9e0f9f, 0x4090bf02ec04f688, 6871),
    }
}

fn cases() -> Vec<Case> {
    vec![
        never_improves(),
        long_climb(3, (0x409fa1aaf94351ba, 0x4087a9d2c09dc168, 7851)),
        long_climb(11, (0x409b4c2f6b52cfc6, 0x407fbd42436ce569, 7733)),
        exact_after_a_climb(),
        exact_after_a_stall(),
        certify_shape(),
        wide_budgeted(),
    ]
}

#[test]
fn seeded_solves_keep_their_bits() {
    let mut misses = Vec::new();
    for case in &cases() {
        let (_, stats) = solve_fractional(&case.instance(), &case.cfg);
        let got = key(&stats);
        if got != case.want {
            misses.push(format!(
                "{} (seed {}): got (0x{:016x}, 0x{:016x}, {}), pinned (0x{:016x}, 0x{:016x}, {})",
                case.name,
                case.cfg.seed,
                got.0,
                got.1,
                got.2,
                case.want.0,
                case.want.1,
                case.want.2
            ));
        }
    }
    assert!(misses.is_empty(), "{}", misses.join("\n"));
}

// ---------------------------------------------------------------------
// With the stall stop (PR 23): `EpfStats::polish_sweeps` makes the
// polish's schedule observable without a clock.
// ---------------------------------------------------------------------

/// `POLISH_STALL` of `crates/core/src/epf.rs`: consecutive sweeps
/// without a new best that end a stage.
const STALL: u64 = 10;

/// Sweeps per case: a stage that never improves is its seed evaluation
/// and STALL fruitless sweeps (of a budget of 120), budgets at or under
/// the stall run in full (10 + 3 and their two opening evaluations), a
/// climb runs until it pauses for STALL sweeps, and the exact stage is
/// counted from zero whatever the heuristic stage before it did. A
/// stall counter that survives an improvement ends the climb of
/// `exact_after_a_climb` early, one that survives into the exact stage
/// ends `exact_after_a_stall` and `certify_shape` before their first
/// exact step: both move the pinned lower bounds above as well as
/// these counts.
#[test]
fn polish_sweeps_of_every_case() {
    let want = [
        1 + STALL,
        11,
        39,
        1 + 120 + 1 + 8,
        1 + STALL + 1 + 8,
        1 + 10 + 1 + 3,
        12,
    ];
    let got: Vec<u64> = cases()
        .iter()
        .map(|case| {
            solve_fractional(&case.instance(), &case.cfg)
                .1
                .polish_sweeps
        })
        .collect();
    assert_eq!(got, want);
}

/// The polish runs on the worker pool: a second thread must not move a
/// sweep or a bit (a stalled exact-free solve, and both stages).
#[test]
fn thread_count_moves_neither_sweeps_nor_bits() {
    for case in [long_climb(11, (0, 0, 0)), exact_after_a_stall()] {
        let inst = case.instance();
        let solve = |threads| {
            solve_fractional(
                &inst,
                &EpfConfig {
                    threads,
                    ..case.cfg.clone()
                },
            )
            .1
        };
        let (one, two) = (solve(1), solve(2));
        assert_eq!(one.polish_sweeps, two.polish_sweeps, "{}", case.name);
        assert_eq!(key(&one), key(&two), "{}", case.name);
    }
}

/// The polish runs after the last pass, from state the checkpoint
/// carries: a solve resumed from a mid-run checkpoint polishes exactly
/// as the uninterrupted one does.
#[test]
fn a_resumed_solve_polishes_like_the_uninterrupted_one() {
    let case = exact_after_a_stall();
    let inst = case.instance();
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let mut sink = |ck: SolverCheckpoint| snaps.push(ck.to_bytes());
    let hooks = Hooks {
        checkpoint: Some(CheckpointSpec {
            every: 7,
            sink: &mut sink,
        }),
        observe: None,
    };
    let full = solve(&inst, &case.cfg, Start::default(), hooks)
        .unwrap()
        .rounded(&inst, &case.cfg);
    assert_eq!(key(&full.epf), case.want);
    let mid = SolverCheckpoint::from_bytes(&snaps[snaps.len() / 2]).unwrap();
    let start = Start {
        prior: Some(&mid),
        warm: None,
    };
    let resumed = solve(&inst, &case.cfg, start, Hooks::default())
        .unwrap()
        .rounded(&inst, &case.cfg);
    assert_eq!(resumed.epf.polish_sweeps, full.epf.polish_sweeps);
    assert_eq!(key(&resumed.epf), key(&full.epf));
}

/// What the stop gives up, pinned so it stays visible: on 150/sprint
/// (120 passes, `exact_cert 8`, seed 3) the heuristic stage's climb
/// resumes after a 16-sweep pause, so the stall cuts it (22 sweeps
/// instead of 130) and the exact stage starts from an earlier point.
/// The result is still a certificate, 1.6 % under the 619.54 the full
/// 120-sweep stage led to; of six such rows measured four moved up
/// (EXPERIMENTS.md "Where the polish's sweeps went").
#[test]
fn a_climb_cut_by_the_stall_still_certifies() {
    let cfg = cfg(3, 120, 120, 8);
    let inst = instance(150, &topologies::sprint(), cfg.seed);
    let (_, stats) = solve_fractional(&inst, &cfg);
    // The passes are the parent's; only the polish differs.
    assert_eq!(stats.objective.to_bits(), 0x40898265d6d1a446);
    assert_eq!(stats.block_steps, 13199);
    assert_eq!(stats.polish_sweeps, 1 + 12 + 1 + 8);
    let full_budget = 619.54;
    assert!(stats.lower_bound < stats.objective);
    assert!(stats.lower_bound > 0.98 * full_budget && stats.lower_bound < full_budget);
}
