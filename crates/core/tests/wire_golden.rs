//! Byte-level goldens for the solver's durable payloads.
//!
//! A `solver.ckpt` or `fractional.snap` written by one process is read
//! by the next, and `placement_fingerprint` hashes a placement's
//! encoded text, so these encodings are formats. One fixed value of
//! each — two checkpoints of a 3-pass solve of a 4-VHO, 6-video
//! instance (one in phase 1, one in phase 2), that solve's fractional
//! solution, and a hand-built placement with an empty routing row —
//! must encode to the checked-in text, and that text must decode and
//! re-encode to itself.
//!
//! The checkpoint and fractional goldens also pin the solver's bits on
//! this instance; a PR that moves them on purpose (and only such a PR)
//! replaces the files under `tests/golden/` with the `.actual` files a
//! failing run leaves in the target tmp dir.
#![allow(clippy::unwrap_used)]

use std::path::Path;
use vod_core::checkpoint::{
    fractional_from_value, fractional_to_value, placement_from_value, placement_to_value,
};
use vod_core::{
    solve_fractional_checkpointed, CheckpointSpec, DiskConfig, EpfConfig, FractionalSolution,
    MipInstance, Placement, SolverCheckpoint,
};
use vod_json::Value;
use vod_model::{Mbps, VhoId};
use vod_net::topologies;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn assert_golden(name: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected != actual {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
        std::fs::write(&dump, actual).unwrap();
        panic!(
            "encoding differs from {}; this run's text is in {}",
            golden.display(),
            dump.display()
        );
    }
}

/// Four VHOs on a ring, six videos, links tight enough that the first
/// pass ends in phase 1 and the second in phase 2.
fn instance() -> MipInstance {
    let mut net = topologies::ring(4);
    net.set_uniform_capacity(Mbps::new(100.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(6, 7, 5));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(600.0, 7, 5));
    let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
    let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
    MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 3.0 },
        1.0,
        0.0,
        None,
    )
}

/// The 3-pass solve: every pass boundary's checkpoint, and the result.
fn solve(inst: &MipInstance) -> (Vec<SolverCheckpoint>, FractionalSolution) {
    let cfg = EpfConfig {
        max_passes: 3,
        seed: 5,
        ..Default::default()
    };
    let mut snaps = Vec::new();
    let mut sink = |ck: SolverCheckpoint| snaps.push(ck);
    let spec = CheckpointSpec {
        every: 1,
        sink: &mut sink,
    };
    let (frac, _) = solve_fractional_checkpointed(inst, &cfg, None, spec).unwrap();
    (snaps, frac)
}

#[test]
fn checkpoints_in_and_out_of_phase_2_keep_their_bytes() {
    let (snaps, _) = solve(&instance());
    for (name, in_phase2) in [
        ("checkpoint_phase1.json", false),
        ("checkpoint_phase2.json", true),
    ] {
        let ck = snaps
            .iter()
            .find(|ck| ck.in_phase2() == in_phase2)
            .unwrap_or_else(|| panic!("no checkpoint with in_phase2 = {in_phase2}"));
        let bytes = ck.to_bytes();
        assert_golden(name, std::str::from_utf8(&bytes).unwrap());
        let back = SolverCheckpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes, "{name}");
    }
}

#[test]
fn a_fractional_solution_keeps_its_bytes() {
    let inst = instance();
    let (_, frac) = solve(&inst);
    let text = fractional_to_value(&frac).to_string_pretty();
    assert_golden("fractional.json", &text);
    let back = fractional_from_value(&Value::parse(&text).unwrap(), &inst).unwrap();
    assert_eq!(fractional_to_value(&back).to_string_pretty(), text);
}

#[test]
fn a_placement_with_an_empty_routing_row_keeps_its_bytes() {
    let vhos = |ids: &[u16]| ids.iter().map(|&i| VhoId::new(i)).collect::<Vec<_>>();
    let p = Placement::from_parts(
        4,
        vec![vhos(&[0, 2]), vhos(&[1]), vhos(&[0, 1, 3])],
        vec![
            vec![
                (VhoId::new(1), vec![(VhoId::new(0), 1.0)]),
                (
                    VhoId::new(3),
                    vec![(VhoId::new(0), 0.25), (VhoId::new(2), 0.75)],
                ),
            ],
            Vec::new(),
            vec![(
                VhoId::new(2),
                vec![
                    (VhoId::new(0), -0.0),
                    (VhoId::new(1), f64::from_bits(1)),
                    (VhoId::new(3), 1.0 / 3.0),
                ],
            )],
        ],
    )
    .unwrap();
    let text = placement_to_value(&p).to_string_pretty();
    assert_golden("placement.json", &text);
    let back = placement_from_value(&Value::parse(&text).unwrap()).unwrap();
    assert_eq!(placement_to_value(&back).to_string_pretty(), text);
}
