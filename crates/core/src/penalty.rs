//! Flat link-dual penalty matrices — the innermost data structure of
//! the EPF hot path.
//!
//! Every UFL block build needs `D_t(i, j) = Σ_{l ∈ P_ij} π_{(l,t)}`:
//! the link-dual cost of serving client `j` from server `i` during
//! window `t`. [`PenaltyArena`] keeps all windows in one flat
//! `Vec<f64>` and brings a window up to date with one pass over a
//! table of `(dst, src, link)` triples, skipping every window none of
//! whose link duals changed.
//!
//! The arena is stored **client-major** — `data[(t·V + j)·V + i]` — so
//! one client's penalties over all servers form a contiguous slice
//! ([`PenaltyArena::client_row`]) that `build_ufl_into` streams
//! through the lane kernels of [`crate::kernel`]. Its size is
//! `T·V²` floats and one 12-byte table entry per ordered pair whatever
//! the library: the coupling rows are per VHO and per (link, window),
//! never per video (0.07 MB at 49 VHOs, 0.29 MB at 100, two windows),
//! so it carries no library-scale machinery.
//!
//! **The prefix recurrence.** `PathSet::shortest_paths` routes along
//! one BFS tree per server, so paths are prefix-closed: with `l` the
//! last link of `P_ij` and `p` its tail node, `P_ij = P_ip ++ [l]`, and
//! `D_t(i, j) = D_t(i, p) + π_{(l,t)}` is *bitwise* the left-to-right
//! path-order sum — the same additions in the same order
//! (`D_t(i, i) = 0.0` is never written, and `0.0 + π = π`). The table
//! lists one triple per ordered pair, shorter paths first, so a single
//! walk meets every source entry after it was written;
//! [`PenaltyArena::new`] asserts the prefix property pair by pair.
//!
//! **Invariant:** a window is either left alone (no link dual of it
//! changed bitwise) or recomputed whole from the new duals, never
//! patched with a `+=` delta — so the arena is a pure function of the
//! last snapshot: bitwise identical to a from-scratch rebuild, whatever
//! update sequence produced it and whichever [`Kernel`] backend ran it
//! (the scalar backend walks `inst.paths` pair by pair, the reference
//! shape). `tests/penalty_props.rs` (and the determinism contract of
//! [`crate::pool`]) leans on exactly this.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::instance::MipInstance;
use crate::kernel::Kernel;
use crate::potential::{Duals, RowLayout};
use vod_model::LinkId;

/// Outcome of a [`PenaltyArena::update`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PenaltyUpdate {
    /// The snapshot is version-identical to the previous one (a clone
    /// of the same `Duals`): nothing was compared or touched.
    SkippedVersion,
    /// Rows were compared bitwise; `resummed` entries recomputed (every
    /// off-diagonal entry of each window with a changed row).
    Applied {
        changed_rows: usize,
        resummed: usize,
    },
}

/// Per-window penalty matrices `D_t` in a single flat arena, plus the
/// table that recomputes a window from a dual snapshot.
#[derive(Debug, Clone)]
pub struct PenaltyArena {
    n_vhos: usize,
    n_links: usize,
    n_windows: usize,
    /// `data[(t·V + j)·V + i] = Σ_{l ∈ P_ij} π_{(l,t)}` (client-major).
    data: Vec<f64>,
    /// One `[dst, src, link]` per ordered pair `i ≠ j`, by ascending
    /// path length: within a window, `data[dst] = data[src] + π_link`
    /// with `dst = j·V + i`, `src = p·V + i` for the tail `p` of the
    /// path's last link (the zero diagonal when the path is one hop).
    steps: Vec<[u32; 3]>,
    /// The dual snapshot the arena currently reflects. Starts as the
    /// all-zero snapshot (version 0, `obj = 1`), matching the zeroed
    /// `data`.
    last: Duals,
}

impl PenaltyArena {
    /// Build the recurrence table and a zeroed arena (which is exactly
    /// the penalty of the all-zero dual snapshot).
    pub fn new(inst: &MipInstance, layout: &RowLayout) -> Self {
        let v = inst.n_vhos();
        assert_eq!(v, layout.n_vhos, "layout does not match instance");
        let n_links = layout.n_links;
        #[expect(
            clippy::expect_used,
            reason = "constructor-only size guard, once per instance"
        )]
        let idx = |x: usize| u32::try_from(x).expect("arena index exceeds u32");
        let pairs = inst
            .network
            .vho_ids()
            .flat_map(|i| inst.network.vho_ids().map(move |j| (i, j)));
        let mut steps: Vec<(usize, [u32; 3])> = pairs
            .filter_map(|(i, j)| {
                let (&last, prefix) = inst.paths.path(i, j).split_last()?;
                let p = inst.network.link(last).from;
                // The recurrence's precondition, checked where the
                // table is built: a routing table that is not
                // prefix-closed must not price a single block.
                assert!(
                    inst.paths.path(i, p) == prefix,
                    "path {i} -> {j} does not extend path {i} -> {p}: routing is not prefix-closed"
                );
                let (dst, src) = (j.index() * v + i.index(), p.index() * v + i.index());
                Some((prefix.len(), [idx(dst), idx(src), idx(last.index())]))
            })
            .collect();
        // Stable: equal-length pairs keep their (i, j) scan order.
        steps.sort_by_key(|&(len, _)| len);
        Self {
            n_vhos: v,
            n_links,
            n_windows: layout.n_windows,
            data: vec![0.0; layout.n_windows * v * v],
            steps: steps.into_iter().map(|(_, step)| step).collect(),
            last: Duals::new(vec![0.0; layout.n_rows()], 1.0),
        }
    }

    /// An arena already reflecting `duals` (from-scratch rebuild; the
    /// reference point the incremental path must match bitwise).
    pub fn for_duals(
        inst: &MipInstance,
        layout: &RowLayout,
        duals: &Duals,
        kernel: Kernel,
    ) -> Self {
        let mut arena = Self::new(inst, layout);
        arena.update(inst, layout, duals, kernel);
        arena
    }

    /// Bring the arena up to date with `duals`.
    ///
    /// Fast paths, in order: (1) same snapshot version as the last
    /// applied update → return immediately; (2) a window none of whose
    /// link duals changed bitwise is left alone. Every other window is
    /// recomputed whole (see the module invariant): the scalar backend
    /// sums each pair's path in `inst.paths` link by link (the
    /// reference shape), the lane backend walks the recurrence table
    /// against the window's contiguous dual slice — same additions,
    /// same order, one add per entry.
    pub fn update(
        &mut self,
        inst: &MipInstance,
        layout: &RowLayout,
        duals: &Duals,
        kernel: Kernel,
    ) -> PenaltyUpdate {
        assert_eq!(duals.rows.len(), layout.n_rows(), "dual row count mismatch");
        if duals.version() != 0 && duals.version() == self.last.version() {
            return PenaltyUpdate::SkippedVersion;
        }
        let v = self.n_vhos;
        let mut changed_rows = 0usize;
        let mut resummed = 0usize;
        for t in 0..self.n_windows {
            // The window's link-dual rows are one contiguous slice of
            // the dual vector (`link_row(l, t) = disk_rows + t·L + l`).
            let w0 = layout.link_row(LinkId::from_index(0), t);
            let w = &duals.rows[w0..w0 + self.n_links];
            let changed = w
                .iter()
                .zip(&self.last.rows[w0..w0 + self.n_links])
                .filter(|(new, old)| new.to_bits() != old.to_bits())
                .count();
            if changed == 0 {
                continue;
            }
            changed_rows += changed;
            resummed += self.steps.len();
            let window = &mut self.data[t * v * v..(t + 1) * v * v];
            match kernel {
                Kernel::Scalar => {
                    for i in inst.network.vho_ids() {
                        for j in inst.network.vho_ids() {
                            let path = inst.paths.path(i, j);
                            if !path.is_empty() {
                                window[j.index() * v + i.index()] = path
                                    .iter()
                                    .map(|&l| duals.rows[layout.link_row(l, t)])
                                    .sum();
                            }
                        }
                    }
                }
                Kernel::Chunked => {
                    for &[dst, src, link] in &self.steps {
                        window[dst as usize] = window[src as usize] + w[link as usize];
                    }
                }
            }
        }
        // Carry the caller's version so a later update with a clone of
        // the same snapshot hits the version fast path.
        self.last.copy_from(duals);
        PenaltyUpdate::Applied {
            changed_rows,
            resummed,
        }
    }

    /// Penalty of serving client `j` from server `i` in window `t`.
    #[inline]
    pub fn at(&self, t: usize, i: usize, j: usize) -> f64 {
        self.data[(t * self.n_vhos + j) * self.n_vhos + i]
    }

    /// Client `j`'s contiguous penalty row over all servers in window
    /// `t` — the slice `build_ufl_into` streams through the kernels.
    #[inline]
    pub fn client_row(&self, t: usize, j: usize) -> &[f64] {
        let v = self.n_vhos;
        let base = (t * v + j) * v;
        &self.data[base..base + v]
    }

    /// The dual snapshot the arena currently reflects — the one every
    /// consumer of the arena's entries must price against.
    #[inline]
    pub fn duals(&self) -> &Duals {
        &self.last
    }

    #[inline]
    pub fn n_windows(&self) -> usize {
        self.n_windows
    }

    #[inline]
    pub fn n_vhos(&self) -> usize {
        self.n_vhos
    }

    /// Approximate heap bytes held by the arena (reported through
    /// `EpfStats::approx_bytes`).
    pub fn approx_bytes(&self) -> usize {
        self.data.capacity() * 8
            + self.steps.capacity() * std::mem::size_of::<[u32; 3]>()
            + self.last.rows.capacity() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epf::tests::small_instance;
    use crate::epf::{caps_of, compute_state, layout_of};
    use crate::potential::Coupling;
    use crate::solution::initial_block;

    fn setup() -> (MipInstance, RowLayout, Duals) {
        let inst = small_instance(30, 2.0, 1.0, 42);
        let layout = layout_of(&inst);
        let blocks: Vec<_> = inst
            .blocks()
            .iter()
            .map(|b| initial_block(b, inst.n_vhos()))
            .collect();
        let (usage, obj) = compute_state(&inst, &layout, &blocks);
        let mut coupling = Coupling::new(layout, caps_of(&inst, &layout), 1.0, None);
        coupling.set_state(usage, obj);
        coupling.init_scale(0.01);
        let duals = coupling.duals();
        (inst, layout, duals)
    }

    /// Reference implementation: the old from-scratch nested rebuild
    /// (transposed here to the arena's client-major packing).
    fn reference_matrices(inst: &MipInstance, layout: &RowLayout, duals: &Duals) -> Vec<Vec<f64>> {
        let v = inst.n_vhos();
        (0..layout.n_windows)
            .map(|t| {
                let mut mat = vec![0.0; v * v];
                for i in inst.network.vho_ids() {
                    for j in inst.network.vho_ids() {
                        if i != j {
                            let sum: f64 = inst
                                .paths
                                .path(i, j)
                                .iter()
                                .map(|&l| duals.rows[layout.link_row(l, t)])
                                .sum();
                            mat[j.index() * v + i.index()] = sum;
                        }
                    }
                }
                mat
            })
            .collect()
    }

    #[test]
    fn rebuild_matches_reference() {
        let (inst, layout, duals) = setup();
        let v = inst.n_vhos();
        let reference = reference_matrices(&inst, &layout, &duals);
        for &k in Kernel::all() {
            let arena = PenaltyArena::for_duals(&inst, &layout, &duals, k);
            for (t, want) in reference.iter().enumerate() {
                for j in 0..v {
                    assert_eq!(
                        arena.client_row(t, j),
                        &want[j * v..(j + 1) * v],
                        "window {t} client {j} ({})",
                        k.name()
                    );
                }
            }
        }
    }

    #[test]
    fn at_and_client_row_agree() {
        // Every (t, j), whether or not client j has demand in window t.
        let (inst, layout, duals) = setup();
        let arena = PenaltyArena::for_duals(&inst, &layout, &duals, Kernel::Chunked);
        let v = inst.n_vhos();
        for t in 0..layout.n_windows {
            for j in 0..v {
                let row = arena.client_row(t, j);
                assert_eq!(row.len(), v);
                for (i, &x) in row.iter().enumerate() {
                    assert_eq!(x.to_bits(), arena.at(t, i, j).to_bits());
                }
            }
        }
    }

    #[test]
    fn version_skip_on_same_snapshot() {
        let (inst, layout, duals) = setup();
        let mut arena = PenaltyArena::new(&inst, &layout);
        let first = arena.update(&inst, &layout, &duals, Kernel::Chunked);
        assert!(matches!(first, PenaltyUpdate::Applied { .. }));
        // Same snapshot (clone): skipped without any row comparison.
        let again = arena.update(&inst, &layout, &duals.clone(), Kernel::Chunked);
        assert_eq!(again, PenaltyUpdate::SkippedVersion);
        // A bumped clone with identical values is re-compared but
        // resums nothing.
        let mut bumped = duals.clone();
        bumped.bump_version();
        match arena.update(&inst, &layout, &bumped, Kernel::Chunked) {
            PenaltyUpdate::Applied {
                changed_rows,
                resummed,
            } => {
                assert_eq!(changed_rows, 0);
                assert_eq!(resummed, 0);
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    #[test]
    fn incremental_update_matches_rebuild_after_row_change() {
        let (inst, layout, duals) = setup();
        let v = inst.n_vhos();
        for &k in Kernel::all() {
            let mut arena = PenaltyArena::for_duals(&inst, &layout, &duals, k);
            // Perturb one link row of window 0 (and one disk row, which
            // must not affect penalties at all).
            let mut perturbed = duals.clone();
            perturbed.rows[0] *= 3.0; // disk row
            let link_row0 = layout.link_row(LinkId::new(0), 0);
            perturbed.rows[link_row0] += 0.125;
            perturbed.bump_version();
            let upd = arena.update(&inst, &layout, &perturbed, k);
            let fresh = PenaltyArena::for_duals(&inst, &layout, &perturbed, k);
            for t in 0..layout.n_windows {
                for j in 0..v {
                    assert_eq!(
                        arena.client_row(t, j),
                        fresh.client_row(t, j),
                        "window {t} client {j} ({})",
                        k.name()
                    );
                }
            }
            // Only the touched link row counts, and only its window is
            // recomputed (every off-diagonal entry of it).
            assert!(
                layout.n_windows > 1,
                "fixture must have an untouched window"
            );
            assert_eq!(
                upd,
                PenaltyUpdate::Applied {
                    changed_rows: 1,
                    resummed: v * (v - 1),
                }
            );
        }
    }

    #[test]
    fn zero_arena_reflects_zero_duals() {
        let (inst, layout, _) = setup();
        let mut arena = PenaltyArena::new(&inst, &layout);
        assert!(arena.data.iter().all(|&x| x == 0.0));
        assert_eq!(arena.duals().obj, 1.0);
        // Updating with an explicit zero snapshot compares equal
        // everywhere and resums nothing.
        let zeros = Duals::new(vec![0.0; layout.n_rows()], 1.0);
        match arena.update(&inst, &layout, &zeros, Kernel::Chunked) {
            PenaltyUpdate::Applied {
                changed_rows,
                resummed,
            } => {
                assert_eq!((changed_rows, resummed), (0, 0));
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    /// The recurrence's precondition is checked, not assumed: a routing
    /// table computed on another graph (same node and link counts) does
    /// not extend its own prefixes over this network's links.
    #[test]
    #[should_panic(expected = "routing is not prefix-closed")]
    fn foreign_routing_table_is_refused() {
        let (inst, layout, _) = setup();
        let other = vod_net::topologies::mesh_backbone(6, 9, 43);
        assert_eq!(other.num_links(), inst.network.num_links());
        let inst = inst.with_paths(vod_net::PathSet::shortest_paths(&other));
        let _ = PenaltyArena::new(&inst, &layout);
    }

    #[test]
    fn approx_bytes_counts_arena() {
        let (inst, layout, _) = setup();
        let arena = PenaltyArena::new(&inst, &layout);
        let v = inst.n_vhos();
        assert!(arena.approx_bytes() >= layout.n_windows * v * v * 8);
    }
}
