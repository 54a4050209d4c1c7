//! The final lower-bound polish: exact block LPs, or nothing.
//!
//! Eight seeded small solves on the Table III generator, their
//! `(objective, lower_bound)` bits and `block_steps` pinned. Six were
//! captured before `polish_bound` learned to stop a stalled stage, and
//! kept their bits when its heuristic (dual-ascent) stage was deleted:
//!
//! - four solves without `exact_cert`, which polished with that stage
//!   and now do not polish at all: one whose stage never improved on
//!   its seed evaluation, two whose stage climbed for more than a
//!   hundred sweeps and still ended below the bound the passes already
//!   held, and the `ladder-5k` shape in small;
//! - two with `exact_cert` whose heuristic stage never improved, so
//!   the exact ascent started from the smoothed duals then as now — one
//!   of them the `certify-10x100` shape.
//!
//! The other two are exact ascents that used to start where a heuristic
//! climb ended and now start from the smoothed duals. Their passes kept
//! their bits and their bounds are re-pinned (EXPERIMENTS.md "The
//! heuristic stage deleted"): 533.10 → 529.10 on 150/ebone, and
//! 609.43 → 601.00 on 150/sprint, whose climb the stall stop had cut.
#![expect(clippy::unwrap_used, reason = "test code unwraps its own fixtures")]

use vod_core::{
    solve, solve_fractional, CheckpointSpec, DiskConfig, EpfConfig, EpfStats, Hooks, MipInstance,
    SolverCheckpoint, Start,
};
use vod_net::{topologies, Network};
use vod_trace::{synthesize_library, synthetic_demand, LibraryConfig, TraceConfig};

/// The Table III generator (as `solver_baseline` and the benchmark's
/// solver workloads use it) at disk ratio `disk_ratio`.
fn instance(n_videos: usize, net: &Network, seed: u64, disk_ratio: f64) -> MipInstance {
    let days = 7;
    let lib = synthesize_library(&LibraryConfig::default_for(n_videos, days, seed));
    let tc = TraceConfig::default_for(n_videos as f64 * 1.2, days, seed);
    let demand = synthetic_demand(&lib, net, &tc);
    MipInstance::new(
        net.clone(),
        lib,
        demand,
        &DiskConfig::UniformRatio { ratio: disk_ratio },
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
    /// `(objective bits, lower_bound bits, block_steps)`.
    want: (u64, u64, u64),
}

impl Case {
    fn instance(&self) -> MipInstance {
        instance(self.n_videos, &(self.net)(), self.cfg.seed, 2.0)
    }
}

/// A single-thread solve under a pass budget, as the benchmark's solver
/// workloads configure it.
fn cfg(seed: u64, passes: usize, exact_cert: usize) -> EpfConfig {
    EpfConfig {
        max_passes: passes,
        step_limit: Some(passes as u64),
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

fn never_improved() -> Case {
    Case {
        name: "500/ebone, 200 passes: the heuristic stage never improved",
        n_videos: 500,
        net: topologies::ebone,
        cfg: cfg(3, 200, 0),
        want: (0x40a09684866c6204, 0x409564126aac811e, 46967),
    }
}

fn long_climb(seed: u64, want: (u64, u64, u64)) -> Case {
    Case {
        name: "200/sprint, 60 passes: a long heuristic climb that ended below lb",
        n_videos: 200,
        net: topologies::sprint,
        cfg: cfg(seed, 60, 0),
        want,
    }
}

fn exact_after_a_climb() -> Case {
    Case {
        name: "150/ebone, 120 passes, exact_cert 8: once after a heuristic climb",
        n_videos: 150,
        net: topologies::ebone,
        cfg: cfg(3, 120, 8),
        want: (0x408637d956f4f661, 0x408088cd3dafa2a4, 12771),
    }
}

fn exact_after_a_cut_climb() -> Case {
    Case {
        name: "150/sprint, 120 passes, exact_cert 8: once after a climb the stall stop cut",
        n_videos: 150,
        net: topologies::sprint,
        cfg: cfg(3, 120, 8),
        want: (0x40898265d6d1a446, 0x4082c7f603592c34, 13199),
    }
}

fn exact_after_a_stall() -> Case {
    Case {
        name: "150/sprint, 120 passes, exact_cert 8: once after a stalled heuristic stage",
        n_videos: 150,
        net: topologies::sprint,
        cfg: cfg(11, 120, 8),
        want: (0x40879a35f3de8a5d, 0x4081416d9e5107b0, 13759),
    }
}

fn certify_shape() -> Case {
    Case {
        name: "100/ebone, exact 3: the certify-10x100 shape",
        n_videos: 100,
        net: topologies::ebone,
        cfg: EpfConfig {
            epsilon: 0.02,
            gap_limit: Some(0.02),
            ..cfg(3, 100, 3)
        },
        want: (0x4081cf91cca47531, 0x4078eb582b800cef, 7000),
    }
}

fn wide_budgeted() -> Case {
    Case {
        name: "300/tiscali, 40 passes: the ladder-5k shape in small",
        n_videos: 300,
        net: topologies::tiscali,
        cfg: cfg(11, 40, 0),
        want: (0x40ab40194f9e0f9f, 0x4090bf02ec04f688, 6871),
    }
}

fn cases() -> Vec<Case> {
    vec![
        never_improved(),
        long_climb(3, (0x409fa1aaf94351ba, 0x4087a9d2c09dc168, 7851)),
        long_climb(11, (0x409b4c2f6b52cfc6, 0x407fbd42436ce569, 7733)),
        exact_after_a_climb(),
        exact_after_a_stall(),
        certify_shape(),
        wide_budgeted(),
        exact_after_a_cut_climb(),
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

/// `POLISH_STALL` of `crates/core/src/epf.rs`: consecutive steps
/// without a new best that end the exact ascent.
const STALL: u64 = 10;

/// Sweeps per case: none without `exact_cert`, else the seed
/// evaluation and every step of a budget too short to stall (a polish
/// that ran on a dual-ascent sweep again would count it here).
#[test]
fn polish_sweeps_of_every_case() {
    let want = [0, 0, 0, 1 + 8, 1 + 8, 1 + 3, 0, 1 + 8];
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

/// The ascent stops after [`STALL`] steps without a new best, and
/// only then: on a tight-disk instance (ratio 1.2) a budget of 60 steps
/// ends after 51, improving until step 41. A counter that survives an
/// improvement stops it earlier, at a lower bound.
#[test]
fn the_exact_ascent_stops_after_ten_fruitless_steps() {
    let cfg = cfg(3, 60, 60);
    let inst = instance(60, &topologies::ebone(), cfg.seed, 1.2);
    let (_, stats) = solve_fractional(&inst, &cfg);
    assert_eq!(stats.polish_sweeps, 1 + 41 + STALL);
    assert_eq!(stats.lower_bound.to_bits(), 0x408629c9d62d99b8); // 709.22
}

/// The polish runs on the worker pool: a second thread must not move a
/// sweep or a bit (a solve without `exact_cert`, and one with).
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
