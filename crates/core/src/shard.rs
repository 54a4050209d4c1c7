//! Deterministic sharding of per-video-block reductions.
//!
//! At 10⁵–10⁶ videos the two serial per-block sweeps left in the EPF
//! solver — the drift-washout state recomputation and the initial
//! block construction — become measurable fractions of a pass. This
//! module fans both over the [`crate::pool::map_ordered`] scoped
//! workers, with one hard rule: **the work partition is a function of
//! the data, never of the thread count.** Blocks are cut into
//! fixed-size shards of [`SHARD_SIZE`]; each shard reduces its own
//! `(usage, objective)` partial in block order, and the partials are
//! folded in shard order on the caller. The floating-point summation
//! tree is therefore identical for `threads = 1` and `threads = N` —
//! the same bitwise-determinism contract the block sweeps already get
//! from `map_ordered`'s index-ordered results.
//!
//! Instances below `SHARD_SIZE` blocks take the single-shard path,
//! which is the exact historical serial loop — every Table III row
//! (1 000–5 000 videos) reproduces its pre-sharding objectives
//! bitwise; only the new 10⁵⁺ ladder rows see a multi-shard
//! summation tree (and then the same one at every thread count).
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use std::ops::Range;

use crate::instance::MipInstance;
use crate::pool::map_ordered;
use crate::potential::RowLayout;
use crate::solution::BlockSolution;

/// Fixed shard width (blocks). A data constant, not a tuning knob: it
/// defines the summation tree, so changing it changes low-order bits
/// of every multi-shard reduction.
pub const SHARD_SIZE: usize = 8192;

/// The fixed partition of `n` blocks into `SHARD_SIZE`-wide ranges
/// (last shard ragged).
pub fn shard_ranges(n: usize, shard_size: usize) -> Vec<Range<usize>> {
    debug_assert!(shard_size > 0);
    (0..n.div_ceil(shard_size))
        .map(|s| s * shard_size..((s + 1) * shard_size).min(n))
        .collect()
}

/// One shard's `(usage, objective)` partial, accumulated in block
/// order — the exact loop the serial `compute_state` ran over the full
/// range.
fn partial_state(
    inst: &MipInstance,
    layout: &RowLayout,
    blocks: &[BlockSolution],
    range: Range<usize>,
) -> (Vec<f64>, f64) {
    let mut usage = vec![0.0; layout.n_rows()];
    let mut obj = 0.0;
    for (b, data) in blocks[range.clone()].iter().zip(&inst.blocks()[range]) {
        for &(i, yv) in &b.y {
            usage[layout.disk_row(i)] += data.size_gb * yv;
            if let Some(&fo) = data.facility_obj_cost.get(i.index()) {
                obj += fo * yv;
            }
        }
        for (client, dist) in data.clients.iter().zip(b.x.iter()) {
            for &(i, xv) in dist {
                obj += client.demand_gb * inst.cost(i, client.j) * xv;
                for (t, &rate) in client.rate.iter().enumerate() {
                    if rate != 0.0 {
                        for &l in inst.paths.path(i, client.j) {
                            usage[layout.link_row(l, t)] += rate * xv;
                        }
                    }
                }
            }
        }
    }
    (usage, obj)
}

/// Sharded drift-washout state recomputation: coupling usage and
/// objective from scratch, partitioned by [`SHARD_SIZE`] and folded in
/// shard order (see module docs for the determinism argument).
pub(crate) fn state(
    inst: &MipInstance,
    layout: &RowLayout,
    blocks: &[BlockSolution],
    threads: usize,
) -> (Vec<f64>, f64) {
    state_with(inst, layout, blocks, threads, SHARD_SIZE)
}

/// [`state`] with an explicit shard width — the test seam that lets
/// the determinism property run multi-shard on small instances.
pub(crate) fn state_with(
    inst: &MipInstance,
    layout: &RowLayout,
    blocks: &[BlockSolution],
    threads: usize,
    shard_size: usize,
) -> (Vec<f64>, f64) {
    let shards = shard_ranges(blocks.len(), shard_size);
    if shards.len() <= 1 {
        // Single shard: the historical serial loop, bit for bit.
        return partial_state(inst, layout, blocks, 0..blocks.len());
    }
    let parts = map_ordered(threads, &shards, |r| {
        partial_state(inst, layout, blocks, r.clone())
    });
    let mut usage = vec![0.0; layout.n_rows()];
    let mut obj = 0.0;
    for (pu, po) in parts {
        for (acc, v) in usage.iter_mut().zip(&pu) {
            *acc += v;
        }
        obj += po;
    }
    (usage, obj)
}

/// Sharded per-block construction: `build(m)` for every block index in
/// order, fanned over shards. Each block is built independently, so
/// thread-count invariance here is structural; sharding only amortizes
/// the ordered-collection bookkeeping over `SHARD_SIZE`-wide chunks.
pub(crate) fn build_blocks<F>(threads: usize, n: usize, build: F) -> Vec<BlockSolution>
where
    F: Fn(usize) -> BlockSolution + Sync,
{
    let shards = shard_ranges(n, SHARD_SIZE);
    if shards.len() <= 1 {
        return (0..n).map(build).collect();
    }
    map_ordered(threads, &shards, |r| {
        r.clone().map(&build).collect::<Vec<BlockSolution>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epf::tests::small_instance;
    use crate::epf::{compute_state, layout_of};
    use crate::solution::initial_block;

    fn setup(n_videos: usize) -> (MipInstance, RowLayout, Vec<BlockSolution>) {
        let inst = small_instance(n_videos, 2.0, 1.0, 42);
        let layout = layout_of(&inst);
        let blocks: Vec<BlockSolution> = inst
            .blocks()
            .iter()
            .map(|b| initial_block(b, inst.n_vhos()))
            .collect();
        (inst, layout, blocks)
    }

    #[test]
    fn ranges_cover_exactly_once() {
        for (n, w) in [
            (0usize, 5usize),
            (1, 5),
            (5, 5),
            (6, 5),
            (17, 4),
            (8192, 8192),
        ] {
            let shards = shard_ranges(n, w);
            let mut next = 0;
            for r in &shards {
                assert_eq!(r.start, next, "n={n} w={w}");
                assert!(r.end > r.start || n == 0);
                assert!(r.end - r.start <= w);
                next = r.end;
            }
            assert_eq!(next, n, "n={n} w={w}");
        }
    }

    /// `threads = 1` and `threads = N` fold the same shard partials in
    /// the same order: bitwise-identical usage and objective, even
    /// when the instance spans many (ragged) shards.
    #[test]
    fn multi_shard_state_is_thread_invariant() {
        let (inst, layout, blocks) = setup(61);
        for shard_size in [3usize, 7, 16] {
            let (u1, o1) = state_with(&inst, &layout, &blocks, 1, shard_size);
            for threads in [2usize, 3, 8] {
                let (un, on) = state_with(&inst, &layout, &blocks, threads, shard_size);
                assert_eq!(o1.to_bits(), on.to_bits(), "obj @ shard={shard_size}");
                for (a, b) in u1.iter().zip(&un) {
                    assert_eq!(a.to_bits(), b.to_bits(), "usage @ shard={shard_size}");
                }
            }
        }
    }

    /// The single-shard path is the serial reference loop bit for bit
    /// (what pins every historical Table III objective), and the
    /// multi-shard fold stays within float-reassociation distance.
    #[test]
    fn single_shard_matches_serial_reference_bitwise() {
        let (inst, layout, blocks) = setup(40);
        let (us, os) = compute_state(&inst, &layout, &blocks);
        let (u1, o1) = state_with(&inst, &layout, &blocks, 4, usize::MAX);
        assert_eq!(os.to_bits(), o1.to_bits());
        for (a, b) in us.iter().zip(&u1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (um, om) = state_with(&inst, &layout, &blocks, 4, 6);
        assert!((om - os).abs() <= os.abs() * 1e-12);
        for (a, b) in us.iter().zip(&um) {
            assert!((a - b).abs() <= a.abs().max(1.0) * 1e-12);
        }
    }

    #[test]
    fn build_blocks_preserves_order_across_threads() {
        let (inst, _, _) = setup(25);
        let build = |m: usize| initial_block(&inst.blocks()[m], inst.n_vhos());
        let serial: Vec<BlockSolution> = (0..inst.n_videos()).map(build).collect();
        for threads in [1usize, 2, 5] {
            let sharded = build_blocks(threads, inst.n_videos(), build);
            assert_eq!(serial, sharded, "threads={threads}");
        }
    }
}
