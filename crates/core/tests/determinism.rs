//! Worker-pool determinism regression: the EPF solver must produce
//! **byte-identical** fractional solutions whatever the thread count.
//!
//! The pool's contract (see `crates/core/src/pool.rs`) is that results
//! are reassembled in part order and each part runs the same code as
//! the inline path, so `threads = 1` vs `threads = 4` differ only in
//! wall-clock scheduling — never in a single bit of output. These
//! tests pin that with instances large enough that the parallel
//! dispatch path actually engages (chunks of ≥ 16 blocks).
use vod_core::{DiskConfig, EpfConfig, FractionalSolution, MipInstance};
use vod_model::Mbps;
use vod_net::topologies;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn instance(seed: u64) -> MipInstance {
    let mut net = topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(120, 7, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(800.0, 7, seed));
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

/// Bitwise equality of two fractional solutions: every `y` and `x`
/// entry (id and f64 bits), plus objective/violation/bound bits.
fn assert_bit_identical(a: &FractionalSolution, b: &FractionalSolution) {
    assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "objective");
    assert_eq!(
        a.max_violation.to_bits(),
        b.max_violation.to_bits(),
        "max_violation"
    );
    assert_eq!(
        a.lower_bound.to_bits(),
        b.lower_bound.to_bits(),
        "lower_bound"
    );
    assert_eq!(a.blocks.len(), b.blocks.len());
    for (m, (ba, bb)) in a.blocks.iter().zip(&b.blocks).enumerate() {
        assert_eq!(ba.y.len(), bb.y.len(), "video {m}: y length");
        for (&(ia, va), &(ib, vb)) in ba.y.iter().zip(&bb.y) {
            assert_eq!(ia, ib, "video {m}: y id");
            assert_eq!(va.to_bits(), vb.to_bits(), "video {m}: y value");
        }
        assert_eq!(
            ba.x.n_clients(),
            bb.x.n_clients(),
            "video {m}: client count"
        );
        for (c, (da, db)) in ba.x.iter().zip(bb.x.iter()).enumerate() {
            assert_eq!(da.len(), db.len(), "video {m} client {c}: x length");
            for (&(ia, va), &(ib, vb)) in da.iter().zip(db) {
                assert_eq!(ia, ib, "video {m} client {c}: x id");
                assert_eq!(va.to_bits(), vb.to_bits(), "video {m} client {c}: x value");
            }
        }
    }
}

#[test]
fn thread_count_is_invisible_in_results() {
    for seed in [11u64, 12] {
        let inst = instance(seed);
        let base = EpfConfig {
            max_passes: 40,
            seed,
            ..Default::default()
        };
        let (serial, serial_stats) = vod_core::solve_fractional(
            &inst,
            &EpfConfig {
                threads: 1,
                ..base.clone()
            },
        );
        let (parallel, parallel_stats) =
            vod_core::solve_fractional(&inst, &EpfConfig { threads: 4, ..base });
        assert_bit_identical(&serial, &parallel);
        assert_eq!(
            serial_stats.block_steps, parallel_stats.block_steps,
            "seed {seed}: step counts diverged"
        );
        assert_eq!(serial_stats.passes, parallel_stats.passes);
    }
}

/// Ladder-scale determinism: more blocks than one [`vod_core::shard`]
/// shard (8 192), on a 100-VHO [`topologies::ladder_mesh`], so the
/// washout reduction and the initial block build take the multi-shard
/// path and the sparse penalty arena carries real row counts. Byte
/// identity between `threads = 1` and `threads = 4` here is the
/// contract the 10⁵–10⁶ scale rows rely on. Release-profile CI runs
/// this via `--ignored` (bench-smoke); it is too slow for the
/// debug-profile default test run.
#[test]
#[ignore = "ladder scale: run with --ignored under --release (CI bench-smoke)"]
fn thread_count_is_invisible_at_multi_shard_scale() {
    use vod_trace::synthetic_demand;
    let n_videos = 9_000; // > one 8 192-block shard
    let mut net = topologies::ladder_mesh(100);
    net.set_uniform_capacity(Mbps::from_gbps(4.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 7, 3));
    let demand = synthetic_demand(
        &catalog,
        &net,
        &TraceConfig::default_for(n_videos as f64 * 1.2, 7, 3),
    );
    let inst = MipInstance::new(
        net,
        catalog,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    );
    let base = EpfConfig {
        max_passes: 8,
        seed: 3,
        ..Default::default()
    };
    let (serial, serial_stats) = vod_core::solve_fractional(
        &inst,
        &EpfConfig {
            threads: 1,
            ..base.clone()
        },
    );
    let (parallel, parallel_stats) =
        vod_core::solve_fractional(&inst, &EpfConfig { threads: 4, ..base });
    assert_bit_identical(&serial, &parallel);
    assert_eq!(serial_stats.block_steps, parallel_stats.block_steps);
    assert_eq!(serial_stats.passes, parallel_stats.passes);
}

#[test]
fn effective_threads_is_capped_by_block_count() {
    let cfg = EpfConfig {
        threads: 8,
        ..Default::default()
    };
    assert_eq!(cfg.effective_threads(3), 3);
    assert_eq!(cfg.effective_threads(100), 8);
    // Degenerate block counts never yield zero workers.
    assert_eq!(cfg.effective_threads(0), 1);
}
