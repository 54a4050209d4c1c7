//! Kill-and-resume identity for the EPF solver.
//!
//! A solve interrupted at *any* checkpointed pass boundary and resumed
//! from the serialized checkpoint must produce a final placement
//! bitwise-identical to the uninterrupted run: same holder lists, same
//! objective bits, same pass/step counters. Checkpoint cadence is
//! step-based (global passes), never wall-clock, which is what makes
//! this identity machine-independent.

#![expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures and builds a raw VhoId"
)]

use proptest::prelude::*;
use std::sync::OnceLock;
use vod_core::{
    solve, CheckpointSpec, EpfConfig, Hooks, MipInstance, ResumeKind, Solved, SolverCheckpoint,
    Start,
};
use vod_core::{DiskConfig, Placement, PlacementOutput};
use vod_model::{LinkId, Mbps, VhoId};
use vod_net::{topologies, DeltaOp, Network, WorldDelta};
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

const SEEDS: [u64; 2] = [11, 23];
const CKPT_EVERY: u64 = 3;

/// One of two topologies (mesh vs line), per seed.
fn network(topology: usize, seed: u64) -> Network {
    let mut net = match topology {
        0 => topologies::mesh_backbone(6, 9, seed),
        _ => topologies::line(5),
    };
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    net
}

/// Small instance on one of two topologies (mesh vs line), per seed.
fn instance(topology: usize, seed: u64) -> MipInstance {
    instance_on(network(topology, seed), seed)
}

fn instance_on(net: Network, seed: u64) -> MipInstance {
    let catalog = synthesize_library(&LibraryConfig::default_for(50, 7, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(500.0, 7, seed));
    let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
    let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
    MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    )
}

fn config(seed: u64) -> EpfConfig {
    EpfConfig {
        max_passes: 90,
        seed,
        ..Default::default()
    }
}

/// Uninterrupted baseline + every checkpoint it emitted, serialized —
/// the resume tests re-hydrate via `from_bytes` so the container round
/// trip is always on the path under test.
type Baseline = (MipInstance, PlacementOutput, Vec<Vec<u8>>);

fn baselines() -> &'static Vec<Baseline> {
    static CELL: OnceLock<Vec<Baseline>> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut out = Vec::new();
        for topology in 0..2 {
            for &seed in &SEEDS {
                let inst = instance(topology, seed);
                let cfg = config(seed);
                let mut snaps: Vec<Vec<u8>> = Vec::new();
                let mut sink = |ck: SolverCheckpoint| snaps.push(ck.to_bytes());
                let hooks = Hooks {
                    checkpoint: Some(CheckpointSpec {
                        every: CKPT_EVERY,
                        sink: &mut sink,
                    }),
                    observe: None,
                };
                let full = solve(&inst, &cfg, Start::default(), hooks)
                    .expect("baseline solve")
                    .rounded(&inst, &cfg);
                assert!(
                    !snaps.is_empty(),
                    "baseline (topology {topology}, seed {seed}) emitted no checkpoints"
                );
                out.push((inst, full, snaps));
            }
        }
        out
    })
}

/// Resume `ck` on `inst`, rounded; the solve must say it resumed.
fn resume(
    inst: &MipInstance,
    cfg: &EpfConfig,
    ck: &SolverCheckpoint,
    checkpoint: Option<CheckpointSpec<'_>>,
) -> PlacementOutput {
    let start = Start {
        prior: Some(ck),
        warm: None,
    };
    let hooks = Hooks {
        checkpoint,
        observe: None,
    };
    let solved = solve(inst, cfg, start, hooks).expect("resume solve");
    assert_eq!(solved.kind, ResumeKind::Checkpoint);
    solved.rounded(inst, cfg)
}

fn assert_identical(a: &PlacementOutput, b: &PlacementOutput) {
    assert_eq!(
        a.placement.holder_lists(),
        b.placement.holder_lists(),
        "holder lists diverged"
    );
    assert_eq!(
        a.fractional.objective.to_bits(),
        b.fractional.objective.to_bits()
    );
    assert_eq!(
        a.fractional.lower_bound.to_bits(),
        b.fractional.lower_bound.to_bits()
    );
    assert_eq!(
        a.fractional.max_violation.to_bits(),
        b.fractional.max_violation.to_bits()
    );
    assert_eq!(a.epf.passes, b.epf.passes, "pass counters diverged");
    assert_eq!(
        a.epf.block_steps, b.epf.block_steps,
        "step counters diverged"
    );
    assert_eq!(
        a.rounding.objective.to_bits(),
        b.rounding.objective.to_bits()
    );
}

/// Serialize → deserialize → continue equals the continuous run, at
/// 2 seeds × 2 topologies, resuming from a mid-run checkpoint.
#[test]
fn resume_from_mid_checkpoint_matches_continuous_run() {
    for (i, (inst, full, snaps)) in baselines().iter().enumerate() {
        let seed = SEEDS[i % 2];
        let ck = SolverCheckpoint::from_bytes(&snaps[snaps.len() / 2]).expect("decode checkpoint");
        let resumed = resume(inst, &config(seed), &ck, None);
        assert_identical(full, &resumed);
    }
}

/// A checkpoint at every pass boundary: each pass's Lagrangian bound
/// sweep may still be in flight on the pool when the pass ends, and it
/// must be folded into `run.lb_run` before the capture. The stream is
/// the same bytes at one thread and at two, pinned by a fingerprint of
/// the solver that priced each bound inline, and emitting it moves no
/// bit of the result.
#[test]
fn checkpoints_at_every_pass_fold_the_bound_in_flight() {
    const STREAM_FNV: u64 = 0xad4c_1788_5d25_54c8;
    let inst = instance(0, SEEDS[0]);
    let run = |threads: usize, every: u64| {
        let cfg = EpfConfig {
            threads,
            ..config(SEEDS[0])
        };
        let mut snaps: Vec<Vec<u8>> = Vec::new();
        let mut sink = |ck: SolverCheckpoint| snaps.push(ck.to_bytes());
        let hooks = Hooks {
            checkpoint: Some(CheckpointSpec {
                every,
                sink: &mut sink,
            }),
            observe: None,
        };
        let out = solve(&inst, &cfg, Start::default(), hooks)
            .expect("checkpointed solve")
            .rounded(&inst, &cfg);
        (out, snaps)
    };
    let (one, one_snaps) = run(1, 1);
    let (two, two_snaps) = run(2, 1);
    let (plain, none) = run(2, 0);
    assert!(
        none.is_empty() && one_snaps.len() >= 20,
        "{} checkpoints",
        one_snaps.len()
    );
    assert!(
        one_snaps == two_snaps,
        "checkpoint bytes differ across thread counts"
    );
    assert_identical(&plain, &one);
    assert_identical(&plain, &two);
    let stream = one_snaps.iter().fold(0u64, |h, s| {
        h.rotate_left(5) ^ vod_json::snapshot::fnv1a64(s)
    });
    assert_eq!(
        stream, STREAM_FNV,
        "checkpoint stream moved: {stream:#018x}"
    );
}

/// What a solve ends on, bit for bit.
fn key(s: &Solved) -> (u64, u64, usize, u64) {
    (
        s.stats.objective.to_bits(),
        s.stats.lower_bound.to_bits(),
        s.stats.passes,
        s.stats.block_steps,
    )
}

/// A checkpoint from one (config, instance) pair never resumes a
/// different one, and is never an error: the solve reports it
/// `Rejected` and lands on exactly the bits of the same solve without
/// it — so nothing of it was silently resumed.
#[test]
fn mismatched_checkpoint_is_rejected_and_not_resumed() {
    let (inst, _, snaps) = &baselines()[0];
    let ck = SolverCheckpoint::from_bytes(&snaps[0]).expect("decode checkpoint");
    let mut other = config(SEEDS[0]);
    other.seed ^= 0x5A5A;
    let start = Start {
        prior: Some(&ck),
        warm: None,
    };
    let with = solve(inst, &other, start, Hooks::default()).expect("rejection is not an error");
    match &with.kind {
        ResumeKind::Rejected { reason } => assert!(reason.contains("fingerprint"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    let without = solve(inst, &other, Start::default(), Hooks::default()).unwrap();
    assert_eq!(without.kind, ResumeKind::Cold);
    assert_eq!(key(&with), key(&without));
}

/// A capacity-only delta moves no id axis, but the checkpoint priced
/// the old capacities: after the delta the solve rejects it, naming
/// the fingerprint, even when a warm placement is also given, and
/// lands on the bits of the same solve without it. A warm placement
/// shorter than the instance (append-only catalog growth) still
/// warm-starts.
#[test]
fn a_checkpoint_from_before_a_capacity_delta_is_rejected() {
    let (base, _, snaps) = &baselines()[0];
    let ck = SolverCheckpoint::from_bytes(&snaps[snaps.len() / 2]).expect("decode checkpoint");
    let cfg = config(SEEDS[0]);
    let mut net = network(0, SEEDS[0]);
    let delta = WorldDelta {
        cycle: 0,
        seed: SEEDS[0],
        ops: vec![
            DeltaOp::ScaleLink {
                link: LinkId::new(0),
                factor: 0.5,
            },
            DeltaOp::CutLink {
                link: LinkId::new(3),
            },
        ],
    };
    assert!(delta.validate(&net).is_ok() && delta.is_capacity_only());
    delta.apply_links(&mut net);
    let moved = instance_on(net, SEEDS[0]);
    let solve_from = |inst: &MipInstance, prior, warm| {
        solve(inst, &cfg, Start { prior, warm }, Hooks::default()).unwrap()
    };

    let rejected = solve_from(&moved, Some(&ck), None);
    match &rejected.kind {
        ResumeKind::Rejected { reason } => assert!(reason.contains("fingerprint"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(key(&rejected), key(&solve_from(&moved, None, None)));

    let shorter = Placement::from_stores(
        base.n_vhos(),
        (0..base.n_videos() - 4)
            .map(|_| vec![VhoId::from_index(0)])
            .collect(),
    );
    let warm = solve_from(&moved, Some(&ck), Some(&shorter)).kind;
    assert!(matches!(warm, ResumeKind::Rejected { .. }), "{warm:?}");
    assert_eq!(
        solve_from(&moved, None, Some(&shorter)).kind,
        ResumeKind::WarmStart
    );
}

/// Truncating a serialized checkpoint yields a typed snapshot error.
#[test]
fn truncated_checkpoint_is_a_typed_error() {
    let (_, _, snaps) = &baselines()[0];
    let bytes = &snaps[0];
    for cut in [0, 4, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            SolverCheckpoint::from_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} must fail"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Kill at an arbitrary checkpointed step k, resume, and the final
    /// placement is bitwise-identical — for any k and any of the four
    /// (topology, seed) baselines.
    #[test]
    fn resume_at_any_checkpointed_step_is_identical(
        combo in 0usize..4,
        pick in 0usize..1usize << 16,
    ) {
        let (inst, full, snaps) = &baselines()[combo];
        let seed = SEEDS[combo % 2];
        let ck = SolverCheckpoint::from_bytes(&snaps[pick % snaps.len()]).unwrap();
        let resumed = resume(inst, &config(seed), &ck, None);
        assert_identical(full, &resumed);
    }
}

/// `step_limit` is a deterministic budget: two identical runs stop at
/// the same pass with bit-identical results, and the pass counter never
/// exceeds the limit.
#[test]
fn step_limit_budget_is_deterministic() {
    let inst = instance(0, SEEDS[0]);
    let cfg = EpfConfig {
        step_limit: Some(17),
        ..config(SEEDS[0])
    };
    let a = vod_core::solve_placement(&inst, &cfg).expect("budgeted solve");
    let b = vod_core::solve_placement(&inst, &cfg).expect("budgeted solve");
    assert!(a.epf.passes <= 17, "step budget overrun: {}", a.epf.passes);
    assert_identical(&a, &b);
}

/// A resumed run keeps emitting checkpoints, and those continue the
/// global pass numbering of the interrupted run.
#[test]
fn resumed_runs_keep_checkpointing() {
    let (inst, _, snaps) = &baselines()[1];
    let ck = SolverCheckpoint::from_bytes(&snaps[0]).expect("decode checkpoint");
    let first_pass = ck.pass();
    let mut later: Vec<u64> = Vec::new();
    let mut sink = |c: SolverCheckpoint| later.push(c.pass());
    let spec = CheckpointSpec {
        every: CKPT_EVERY,
        sink: &mut sink,
    };
    resume(inst, &config(SEEDS[1]), &ck, Some(spec));
    assert!(
        later.iter().all(|&p| p > first_pass),
        "resumed checkpoints must continue the pass numbering"
    );
}
