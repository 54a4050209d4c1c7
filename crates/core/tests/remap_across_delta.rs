//! Warm-state remapping across world deltas: a mid-solve checkpoint
//! captured before a *capacity-only* delta is rejected verbatim (the
//! fingerprint moved), remaps cleanly, and resumes deterministically;
//! an *axis-changing* delta (catalog growth) is a typed
//! [`RemapError::AxisChanged`]; and `solve` surfaces the
//! discarded-checkpoint path as `ResumeKind::Rejected` with the
//! validation reason instead of silently cold-solving.

#![expect(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures, pins exact float bits and builds raw VhoIds"
)]

use vod_core::remap::{remap_checkpoint, remap_fractional, RemapError};
use vod_core::{
    solve, CheckpointSpec, EpfConfig, Hooks, MipInstance, ResumeKind, Solved, SolverCheckpoint,
    Start,
};
use vod_core::{DiskConfig, Placement};
use vod_model::{Catalog, LinkId, Mbps, Video, VideoClass, VideoId, VideoKind};
use vod_net::{topologies, DeltaOp, Network, WorldDelta};
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

const SEED: u64 = 31;

/// `solve` from `prior` and `warm`, without hooks.
fn solve_from(
    inst: &MipInstance,
    cfg: &EpfConfig,
    prior: Option<&SolverCheckpoint>,
    warm: Option<&Placement>,
) -> Solved {
    solve(inst, cfg, Start { prior, warm }, Hooks::default()).unwrap()
}

fn base_net() -> Network {
    let mut net = topologies::mesh_backbone(6, 9, SEED);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    net
}

fn instance_on(net: Network, extra_videos: usize) -> MipInstance {
    let mut catalog = synthesize_library(&LibraryConfig::default_for(50, 7, SEED));
    // The trace is always generated against the *base* catalog so a
    // grown catalog only appends zero-demand tail videos — exactly the
    // append-only world-delta semantics.
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(500.0, 7, SEED));
    if extra_videos > 0 {
        let mut videos: Vec<Video> = catalog.iter().cloned().collect();
        for k in 0..extra_videos {
            videos.push(Video {
                id: VideoId::from_index(videos.len()),
                class: VideoClass::Show,
                kind: VideoKind::OtherNew,
                release_day: 0,
                weight: 0.5 + k as f64,
            });
        }
        catalog = Catalog::new(videos);
    }
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

fn config() -> EpfConfig {
    EpfConfig {
        max_passes: 60,
        seed: SEED,
        ..Default::default()
    }
}

/// A checkpoint captured partway through a solve on the base world.
fn mid_solve_checkpoint(inst: &MipInstance, cfg: &EpfConfig) -> SolverCheckpoint {
    let mut snaps: Vec<Vec<u8>> = Vec::new();
    let mut sink = |ck: SolverCheckpoint| snaps.push(ck.to_bytes());
    let hooks = Hooks {
        checkpoint: Some(CheckpointSpec {
            every: 3,
            sink: &mut sink,
        }),
        observe: None,
    };
    solve(inst, cfg, Start::default(), hooks).unwrap();
    assert!(!snaps.is_empty(), "solve must emit checkpoints");
    SolverCheckpoint::from_bytes(&snaps[snaps.len() / 2]).unwrap()
}

fn capacity_delta() -> WorldDelta {
    WorldDelta {
        cycle: 0,
        seed: SEED,
        ops: vec![
            DeltaOp::ScaleLink {
                link: LinkId::new(0),
                factor: 0.5,
            },
            DeltaOp::CutLink {
                link: LinkId::new(3),
            },
        ],
    }
}

#[test]
fn capacity_only_delta_remaps_and_resumes() {
    let cfg = config();
    let base = instance_on(base_net(), 0);
    let ckpt = mid_solve_checkpoint(&base, &cfg);

    // Apply a capacity-only delta and rebuild the instance.
    let mut net = base_net();
    let delta = capacity_delta();
    assert!(delta.validate(&net).is_ok() && delta.is_capacity_only());
    delta.apply_links(&mut net);
    let moved = instance_on(net, 0);

    // The raw checkpoint is now foreign: rejected with its reason, and
    // not resumed — the solve is bit for bit the one without it.
    let rejected = solve_from(&moved, &cfg, Some(&ckpt), None);
    match &rejected.kind {
        ResumeKind::Rejected { reason } => assert!(reason.contains("fingerprint"), "{reason}"),
        other => panic!("expected Rejected, got {other:?}"),
    }
    let cold = solve_from(&moved, &cfg, None, None);
    let key = |s: &Solved| {
        (
            s.stats.objective.to_bits(),
            s.stats.lower_bound.to_bits(),
            s.stats.passes,
            s.stats.block_steps,
        )
    };
    assert_eq!(key(&rejected), key(&cold));

    // Remapped, it validates and resumes — and the dual bound was
    // dropped to neutral while the primal pass counter survived.
    let remapped = remap_checkpoint(ckpt.clone(), &moved, &cfg).expect("capacity-only must remap");
    assert_eq!(remapped.pass(), ckpt.pass());
    let a = solve_from(&moved, &cfg, Some(&remapped), None);
    assert_eq!(a.kind, ResumeKind::Checkpoint, "remap must warm-resume");

    // Determinism: remap + resume twice lands on identical bits.
    let remapped2 = remap_checkpoint(ckpt, &moved, &cfg).unwrap();
    let b = solve_from(&moved, &cfg, Some(&remapped2), None);
    assert_eq!(
        a.fractional.objective.to_bits(),
        b.fractional.objective.to_bits()
    );
    for (x, y) in a.fractional.blocks.iter().zip(&b.fractional.blocks) {
        assert_eq!(x.y, y.y);
    }
}

#[test]
fn catalog_growth_is_a_typed_axis_invalidation() {
    let cfg = config();
    let base = instance_on(base_net(), 0);
    let ckpt = mid_solve_checkpoint(&base, &cfg);
    let grown = instance_on(base_net(), 5);
    match remap_checkpoint(ckpt, &grown, &cfg) {
        Err(RemapError::AxisChanged { what }) => assert!(what.contains("video axis"), "{what}"),
        other => panic!("expected AxisChanged, got {other:?}"),
    }
}

#[test]
fn fractional_remap_follows_the_same_rules() {
    let cfg = config();
    let base = instance_on(base_net(), 0);
    let frac = solve_from(&base, &cfg, None, None).fractional;

    let mut net = base_net();
    capacity_delta().apply_links(&mut net);
    let moved = instance_on(net, 0);
    let remapped = remap_fractional(frac.clone(), &moved).expect("capacity-only must remap");
    assert_eq!(remapped.lower_bound, 0.0, "stale dual bound must drop");
    assert_eq!(remapped.blocks.len(), frac.blocks.len());

    let grown = instance_on(base_net(), 3);
    match remap_fractional(frac, &grown) {
        Err(RemapError::AxisChanged { what }) => assert!(what.contains("video axis"), "{what}"),
        other => panic!("expected AxisChanged, got {other:?}"),
    }
}

#[test]
fn rejected_checkpoints_surface_their_reason() {
    let cfg = config();
    let base = instance_on(base_net(), 0);
    let ckpt = mid_solve_checkpoint(&base, &cfg);

    let mut net = base_net();
    capacity_delta().apply_links(&mut net);
    let moved = instance_on(net, 0);

    // Foreign checkpoint + no warm placement: falls through to a cold
    // trajectory but reports the typed rejection.
    let kind = solve_from(&moved, &cfg, Some(&ckpt), None).kind;
    match kind {
        ResumeKind::Rejected { ref reason } => {
            assert!(reason.contains("fingerprint"), "{reason}");
            assert_eq!(kind.name(), "rejected");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // With a warm placement the rejection still wins over WarmStart.
    let warm = Placement::from_stores(
        base.n_vhos(),
        (0..base.n_videos())
            .map(|_| vec![vod_model::VhoId::new(0)])
            .collect(),
    );
    let kind = solve_from(&moved, &cfg, Some(&ckpt), Some(&warm)).kind;
    assert!(matches!(kind, ResumeKind::Rejected { .. }));

    // A *shorter* warm placement (append-only growth) is accepted.
    let grown = instance_on(base_net(), 4);
    let kind = solve_from(&grown, &cfg, None, Some(&warm)).kind;
    assert_eq!(kind, ResumeKind::WarmStart);
}
