//! A checkpoint shares the solver's iterate copy-on-write, and a sink
//! may keep every checkpoint it is handed, as the benchmark probe does.
//! Whatever the solve does after an emission must not reach a kept
//! checkpoint: its bytes when the solve ends are its bytes when it was
//! captured, and a resume from it — the shared state itself, not a
//! decoded copy — reaches the uninterrupted solve's bits.

#![expect(clippy::unwrap_used, reason = "test code unwraps its own fixtures")]

use vod_core::{
    solve, CheckpointSpec, DiskConfig, EpfConfig, Hooks, MipInstance, ResumeKind, Solved,
    SolverCheckpoint, Start,
};
use vod_json::wire::Wire;
use vod_model::Mbps;
use vod_net::topologies;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn instance(seed: u64) -> MipInstance {
    let mut net = topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
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

/// Everything a solve hands back, as bytes: the fractional solution's
/// wire text (every weight and bound as its bit pattern) and its pass
/// and step counts.
fn bits(solved: &Solved) -> String {
    format!(
        "{} passes {} steps {}",
        solved.fractional.compact(),
        solved.stats.passes,
        solved.stats.block_steps
    )
}

#[test]
fn kept_checkpoints_keep_their_bytes_and_resume_to_the_same_bits() {
    for seed in [11, 23] {
        let inst = instance(seed);
        let cfg = EpfConfig {
            max_passes: 90,
            seed,
            ..Default::default()
        };
        let plain = bits(&solve(&inst, &cfg, Start::default(), Hooks::default()).unwrap());

        let mut kept: Vec<(SolverCheckpoint, Vec<u8>)> = Vec::new();
        let mut sink = |ck: SolverCheckpoint| {
            let at_capture = ck.to_bytes();
            kept.push((ck, at_capture));
        };
        let hooks = Hooks {
            checkpoint: Some(CheckpointSpec {
                every: 2,
                sink: &mut sink,
            }),
            observe: None,
        };
        let keeping = bits(&solve(&inst, &cfg, Start::default(), hooks).unwrap());
        assert_eq!(
            keeping, plain,
            "seed {seed}: a keeping sink moved the solve"
        );
        assert!(kept.len() > 10, "seed {seed}: {} checkpoints", kept.len());
        assert!(
            kept.iter().any(|(ck, _)| ck.in_phase2()),
            "seed {seed}: no checkpoint carries an incumbent"
        );

        for (ck, at_capture) in &kept {
            assert!(
                ck.to_bytes() == *at_capture,
                "seed {seed}: the checkpoint of pass {} changed after capture",
                ck.pass()
            );
        }
        for (ck, at_capture) in &kept {
            let start = Start {
                prior: Some(ck),
                warm: None,
            };
            let solved = solve(&inst, &cfg, start, Hooks::default()).unwrap();
            assert_eq!(solved.kind, ResumeKind::Checkpoint);
            assert_eq!(
                bits(&solved),
                plain,
                "seed {seed}: resume from pass {} diverged",
                ck.pass()
            );
            assert!(
                ck.to_bytes() == *at_capture,
                "seed {seed}: resuming from pass {} changed its checkpoint",
                ck.pass()
            );
        }
    }
}
