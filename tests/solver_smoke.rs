//! Tier-1 smoke of the solver layer: one small mesh instance solved at
//! 1, 2 and 5 compute threads (5: more than a CI box has cores, and
//! than a pass's ragged last chunk has parts), plus one kill-and-resume
//! on the worker pool — all bit for bit the single-thread solve, event
//! stream included — and the same solve and rounding on the scalar
//! reference kernel. The full
//! matrices live in
//! `crates/core/tests/{determinism,checkpoint_resume,kernel_props}.rs`.
//! Last, the exact certification stage on an instance small enough for
//! the direct LP: heuristic bound < certified bound ≤ `LP*` ≤ objective.
#![expect(clippy::unwrap_used, reason = "test code unwraps its own fixtures")]

use vodplace::core::{
    solve, CheckpointSpec, Hooks, Kernel, PlacementOutput, ResumeKind, SolveEvent,
    SolverCheckpoint, Start,
};
use vodplace::net::topologies;
use vodplace::prelude::*;

const SEED: u64 = 73;

fn instance() -> MipInstance {
    instance_of(70, 600.0, 1.0)
}

fn instance_of(videos: usize, requests_per_day: f64, link_gbps: f64) -> MipInstance {
    let mut net = topologies::mesh_backbone(6, 9, SEED);
    net.set_uniform_capacity(Mbps::from_gbps(link_gbps));
    let catalog = synthesize_library(&LibraryConfig::default_for(videos, 7, SEED));
    let trace = generate_trace(
        &catalog,
        &net,
        &TraceConfig::default_for(requests_per_day, 7, SEED),
    );
    let windows = vodplace::trace::analysis::select_peak_windows(&trace, &catalog, 3600, 2);
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

fn config(threads: usize) -> EpfConfig {
    EpfConfig {
        max_passes: 45,
        // The polish runs, so the event stream covers it.
        exact_cert: 2,
        threads,
        seed: SEED,
        ..Default::default()
    }
}

fn assert_identical(a: &PlacementOutput, b: &PlacementOutput, what: &str) {
    assert_eq!(
        a.epf.objective.to_bits(),
        b.epf.objective.to_bits(),
        "{what}"
    );
    assert_eq!(
        a.epf.lower_bound.to_bits(),
        b.epf.lower_bound.to_bits(),
        "{what}"
    );
    assert_eq!(a.epf.passes, b.epf.passes, "{what}");
    assert_eq!(a.epf.block_steps, b.epf.block_steps, "{what}");
    assert_eq!(
        a.rounding.objective.to_bits(),
        b.rounding.objective.to_bits(),
        "{what}"
    );
    assert_eq!(
        a.placement.holder_lists(),
        b.placement.holder_lists(),
        "{what}"
    );
}

/// `solve` with an observer attached, rounded, and the events it saw.
fn observed(
    inst: &MipInstance,
    cfg: &EpfConfig,
    start: Start<'_>,
) -> (PlacementOutput, ResumeKind, Vec<SolveEvent>) {
    let mut events = Vec::new();
    let mut observe = |e: &SolveEvent| events.push(e.clone());
    let hooks = Hooks {
        checkpoint: None,
        observe: Some(&mut observe),
    };
    let solved = solve(inst, cfg, start, hooks).unwrap();
    let kind = solved.kind.clone();
    (solved.rounded(inst, cfg), kind, events)
}

#[test]
fn thread_count_and_resume_do_not_move_a_bit() {
    let inst = instance();
    let one = solve_placement(&inst, &config(1)).unwrap();
    assert!(one.epf.block_steps > 0 && one.epf.lower_bound > 0.0);

    // The observer sees every pass once, in order, and every polish
    // sweep `polish_sweeps` counts — and watching moves no bit.
    let (watched, _, stream) = observed(&inst, &config(1), Start::default());
    assert_identical(&one, &watched, "with an observer");
    let passes: Vec<u64> = stream
        .iter()
        .filter_map(|e| match e {
            SolveEvent::Pass { pass, .. } => Some(*pass),
            _ => None,
        })
        .collect();
    assert_eq!(passes, (1..=one.epf.passes as u64).collect::<Vec<_>>());
    let sweeps = stream
        .iter()
        .filter(|e| matches!(e, SolveEvent::Polish { .. }))
        .count();
    assert!(one.epf.polish_sweeps > 0, "fixture must polish");
    assert_eq!(sweeps as u64, one.epf.polish_sweeps);

    for threads in [2, 5] {
        let (many, _, many_stream) = observed(&inst, &config(threads), Start::default());
        assert_identical(&one, &many, &format!("threads = {threads}"));
        assert!(many_stream == stream, "event stream, threads = {threads}");
    }

    // Kill at a mid-run checkpoint, resume from its bytes at two
    // threads: the tail of the run replays on the worker pool, and its
    // events are the uninterrupted stream's after the checkpoint's pass.
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let mut sink = |ck: SolverCheckpoint| snaps.push(ck.to_bytes());
    let hooks = Hooks {
        checkpoint: Some(CheckpointSpec {
            every: 5,
            sink: &mut sink,
        }),
        observe: None,
    };
    let full = solve(&inst, &config(2), Start::default(), hooks)
        .unwrap()
        .rounded(&inst, &config(2));
    assert_identical(&one, &full, "checkpointed, threads = 2");
    assert!(snaps.len() >= 2, "{} checkpoints", snaps.len());
    let mid = SolverCheckpoint::from_bytes(&snaps[snaps.len() / 2]).unwrap();
    let start = Start {
        prior: Some(&mid),
        warm: None,
    };
    let (resumed, kind, tail) = observed(&inst, &config(2), start);
    assert_eq!(kind, ResumeKind::Checkpoint);
    assert_identical(&one, &resumed, "resumed, threads = 2");
    let at = stream
        .iter()
        .position(|e| matches!(e, SolveEvent::Pass { pass, .. } if *pass == mid.pass()))
        .unwrap();
    assert!(tail == stream[at + 1..], "event stream after a resume");
}

/// Rounding across backends: the full add / drop / swap search and the
/// penalty arena run their lane arms by default and their reference
/// arms under `Kernel::Scalar`; the rounded placement must not tell.
#[test]
fn scalar_kernel_rounds_to_the_same_placement() {
    let inst = instance();
    let lane = solve_placement(&inst, &config(1)).unwrap();
    assert!(
        lane.rounding.videos_rounded > 0,
        "fixture must leave fractional videos for the rounding search"
    );
    let scalar_cfg = EpfConfig {
        kernel: Kernel::Scalar,
        ..config(1)
    };
    let scalar = solve_placement(&inst, &scalar_cfg).unwrap();
    assert_identical(&lane, &scalar, "kernel = scalar");
}

/// The certification stage against the direct LP, ROADMAP 5(c)'s
/// sandwich in miniature: exact block LPs must lift the polished bound
/// above the dual-ascent one and never past `LP*` — a bound above `LP*`
/// is a bug, not slack — and thread count must not move a bit of it.
#[test]
fn exact_certification_lifts_the_bound_and_stays_under_the_lp_optimum() {
    let inst = instance_of(18, 150.0, 0.3);
    let direct = vodplace::core::direct::build_direct_lp(&inst);
    let lp_star = vodplace::lp::solve_lp(&direct.lp).unwrap().objective;
    let solve = |exact_cert, threads| {
        let cfg = EpfConfig {
            max_passes: 60,
            epsilon: 0.02,
            exact_cert,
            threads,
            seed: SEED,
            ..Default::default()
        };
        vodplace::core::solve_fractional(&inst, &cfg).1
    };
    let heuristic = solve(0, 1);
    let certified = solve(2, 1);
    assert!(
        heuristic.lower_bound < certified.lower_bound,
        "exact block LPs did not lift the bound: {} vs {}",
        heuristic.lower_bound,
        certified.lower_bound
    );
    assert!(
        certified.lower_bound <= lp_star * (1.0 + 1e-9),
        "certified bound {} above LP* {lp_star}",
        certified.lower_bound
    );
    assert!(
        lp_star <= certified.objective * 1.02,
        "LP* {lp_star} above the 2 %-feasible objective {}",
        certified.objective
    );
    let two = solve(2, 2);
    assert_eq!(certified.lower_bound.to_bits(), two.lower_bound.to_bits());
    assert_eq!(certified.objective.to_bits(), two.objective.to_bits());
}
