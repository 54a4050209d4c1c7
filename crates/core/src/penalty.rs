//! Flat, incrementally-maintained link-dual penalty matrices — the
//! innermost data structure of the EPF hot path.
//!
//! Every UFL block build needs `D_t(i, j) = Σ_{l ∈ P_ij} π_{(l,t)}`:
//! the link-dual cost of serving client `j` from server `i` during
//! window `t`. [`PenaltyArena`] keeps all windows in one flat
//! `Vec<f64>` and updates it *incrementally*: a link → list-of-`(i,j)`
//! reverse index over `inst.paths` (CSR, built once per solve) maps
//! each changed dual row to exactly the entries it feeds, and only
//! those entries are recomputed.
//!
//! The arena is stored **client-major** — `data[(t·V + j)·V + i]` — so
//! one client's penalties over all servers form a contiguous slice
//! ([`PenaltyArena::client_row`]) that `build_ufl_into` streams
//! through the lane kernels of [`crate::kernel`]. Its size is
//! `T·V²` floats whatever the library: the coupling rows are per VHO
//! and per (link, window), never per video (0.2 MB at 49 VHOs, 0.96 MB
//! at 100, two windows), so it carries no library-scale machinery.
//!
//! **Invariant:** a dirty entry is *re-summed from scratch in path
//! order*, never patched with a `+=` delta — so the arena is always
//! bitwise identical to a full rebuild under the same duals, whatever
//! update sequence produced it, and whichever [`Kernel`] backend ran
//! the batched re-sum (both sum each path sequentially; see
//! `crate::kernel::gather_sum`). `tests/penalty_props.rs` (and the
//! determinism contract of [`crate::pool`]) leans on exactly this.

use crate::instance::MipInstance;
use crate::kernel::{self, Kernel};
use crate::potential::{Duals, RowLayout};
use vod_model::LinkId;

/// Outcome of a [`PenaltyArena::update`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PenaltyUpdate {
    /// The snapshot is version-identical to the previous one (a clone
    /// of the same `Duals`): nothing was compared or touched.
    SkippedVersion,
    /// Rows were compared bitwise; `resummed` entries recomputed.
    Applied {
        changed_rows: usize,
        resummed: usize,
    },
}

/// Per-window penalty matrices `D_t` in a single flat arena, plus the
/// machinery to update them incrementally from dual snapshots.
#[derive(Debug, Clone)]
pub struct PenaltyArena {
    n_vhos: usize,
    n_links: usize,
    n_windows: usize,
    /// `data[(t·V + j)·V + i] = Σ_{l ∈ P_ij} π_{(l,t)}` (client-major).
    data: Vec<f64>,
    /// Reverse routing index (CSR): for link `l`, the packed `j·V + i`
    /// pairs whose path `P_ij` traverses `l` are
    /// `rev_pairs[rev_off[l]..rev_off[l+1]]`.
    rev_off: Vec<u32>,
    rev_pairs: Vec<u32>,
    /// Forward routing index (CSR): for packed pair `j·V + i`, the link
    /// indices of `P_ij` *in path order* are
    /// `plinks[plinks_off[pair]..plinks_off[pair+1]]` — the batched
    /// re-sum streams these against the window's contiguous dual slice.
    plinks_off: Vec<u32>,
    plinks: Vec<u32>,
    /// The dual snapshot the arena currently reflects. Starts as the
    /// all-zero snapshot (version 0, `obj = 1`), matching the zeroed
    /// `data`.
    last: Duals,
    /// Epoch stamps (one per packed `j·V + i` pair) deduplicating dirty
    /// pairs fed by several changed links within one window.
    stamp: Vec<u32>,
    epoch: u32,
    /// Reusable dirty-pair buffer for the current window (capacity V²,
    /// the live prefix length is local to each update — no push, no
    /// steady-state allocation).
    dirty: Vec<u32>,
}

impl PenaltyArena {
    /// Build the routing indexes and a zeroed arena (which is exactly
    /// the penalty of the all-zero dual snapshot).
    pub fn new(inst: &MipInstance, layout: &RowLayout) -> Self {
        let v = inst.n_vhos();
        assert_eq!(v, layout.n_vhos, "layout does not match instance");
        let n_links = layout.n_links;
        // Two-pass CSR build: count, prefix-sum, cursor-fill — no
        // nested Vec, no push in the pair loop.
        let mut rev_off = vec![0u32; n_links + 1];
        let mut plinks_off = vec![0u32; v * v + 1];
        for i in inst.network.vho_ids() {
            for j in inst.network.vho_ids() {
                if i != j {
                    let path = inst.paths.path(i, j);
                    // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
                    let len = u32::try_from(path.len()).expect("path length exceeds u32");
                    plinks_off[j.index() * v + i.index() + 1] = len;
                    for &l in path {
                        rev_off[l.index() + 1] += 1;
                    }
                }
            }
        }
        for l in 0..n_links {
            rev_off[l + 1] += rev_off[l];
        }
        for pair in 0..v * v {
            plinks_off[pair + 1] += plinks_off[pair];
        }
        let mut rev_pairs = vec![0u32; rev_off[n_links] as usize];
        let mut plinks = vec![0u32; plinks_off[v * v] as usize];
        let mut cursor = rev_off.clone();
        for i in inst.network.vho_ids() {
            for j in inst.network.vho_ids() {
                if i != j {
                    let pair = u32::try_from(j.index() * v + i.index())
                        .expect("VHO pair index exceeds u32"); // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
                    let base = plinks_off[pair as usize] as usize;
                    for (k, &l) in inst.paths.path(i, j).iter().enumerate() {
                        rev_pairs[cursor[l.index()] as usize] = pair;
                        cursor[l.index()] += 1;
                        // lint:allow(no-panic-hot-path): constructor-only size guard, once per instance
                        let li = u32::try_from(l.index()).expect("link index exceeds u32");
                        plinks[base + k] = li;
                    }
                }
            }
        }
        Self {
            n_vhos: v,
            n_links,
            n_windows: layout.n_windows,
            data: vec![0.0; layout.n_windows * v * v],
            rev_off,
            rev_pairs,
            plinks_off,
            plinks,
            last: Duals::new(vec![0.0; layout.n_rows()], 1.0),
            stamp: vec![0; v * v],
            epoch: 0,
            dirty: vec![0; v * v],
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
    /// applied update → return immediately; (2) per-(link, window)
    /// bitwise row comparison → only rows whose dual actually changed
    /// mark entries dirty. Dirty entries are re-summed from scratch in
    /// path order (see the module invariant): the scalar backend walks
    /// `inst.paths` with per-link row lookups (the reference shape),
    /// the lane backend streams the CSR link lists against the
    /// window's contiguous dual slice — same additions, same order,
    /// batched memory access.
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
            self.epoch = self.epoch.wrapping_add(1);
            if self.epoch == 0 {
                // u32 wrap-around: reset stamps so stale epochs cannot
                // collide (unreachable in practice, cheap to guard).
                self.stamp.fill(0);
                self.epoch = 1;
            }
            let mut dirty_len = 0usize;
            for l in 0..self.n_links {
                let row = layout.link_row(LinkId::from_index(l), t);
                if duals.rows[row].to_bits() == self.last.rows[row].to_bits() {
                    continue;
                }
                changed_rows += 1;
                let (s, e) = (self.rev_off[l] as usize, self.rev_off[l + 1] as usize);
                for &pair in &self.rev_pairs[s..e] {
                    if self.stamp[pair as usize] != self.epoch {
                        self.stamp[pair as usize] = self.epoch;
                        self.dirty[dirty_len] = pair;
                        dirty_len += 1;
                    }
                }
            }
            let base = t * v * v;
            match kernel {
                Kernel::Scalar => {
                    for &pair in &self.dirty[..dirty_len] {
                        let (j, i) = (pair as usize / v, pair as usize % v);
                        // lint:allow(raw-index): the packed pair index is dense
                        // over VHO indices by construction of the reverse index
                        let iv = vod_model::VhoId::from_index(i);
                        // lint:allow(raw-index): same dense-pair decoding
                        let jv = vod_model::VhoId::from_index(j);
                        let sum: f64 = inst
                            .paths
                            .path(iv, jv)
                            .iter()
                            .map(|&l| duals.rows[layout.link_row(l, t)])
                            .sum();
                        self.data[base + pair as usize] = sum;
                    }
                }
                Kernel::Chunked => {
                    // Gather once: the window's link-dual rows are one
                    // contiguous slice of the dual vector
                    // (`link_row(l, t) = disk_rows + t·L + l`). Stream
                    // every dirty pair's path through it and scatter
                    // the sums back — `w[l]` is bitwise the same value
                    // the scalar path reads via `link_row`, summed in
                    // the same path order.
                    let w0 = layout.link_row(LinkId::from_index(0), t);
                    let w = &duals.rows[w0..w0 + self.n_links];
                    for &pair in &self.dirty[..dirty_len] {
                        let (s, e) = (
                            self.plinks_off[pair as usize] as usize,
                            self.plinks_off[pair as usize + 1] as usize,
                        );
                        self.data[base + pair as usize] = kernel::gather_sum(&self.plinks[s..e], w);
                    }
                }
            }
            resummed += dirty_len;
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
            + (self.rev_off.capacity()
                + self.rev_pairs.capacity()
                + self.plinks_off.capacity()
                + self.plinks.capacity())
                * 4
            + self.last.rows.capacity() * 8
            + self.stamp.capacity() * 4
            + self.dirty.capacity() * 4
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
            // Perturb a couple of link rows (and one disk row, which
            // must not affect penalties at all).
            let mut perturbed = duals.clone();
            perturbed.rows[0] *= 3.0; // disk row
            let link_row0 = layout.link_row(LinkId::new(0), 0);
            perturbed.rows[link_row0] += 0.125;
            if layout.n_windows > 1 {
                let r = layout.link_row(LinkId::new(1), 1);
                perturbed.rows[r] *= 0.5;
            }
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
            match upd {
                PenaltyUpdate::Applied {
                    changed_rows,
                    resummed,
                } => {
                    // Only the touched link rows count; the resummed
                    // pairs are exactly those routed over the changed
                    // links.
                    assert!((1..=2).contains(&changed_rows), "{changed_rows}");
                    assert!(resummed > 0);
                    let total_entries = layout.n_windows * v * v;
                    assert!(
                        resummed < total_entries,
                        "incremental update resummed everything ({resummed}/{total_entries})"
                    );
                }
                other => panic!("expected Applied, got {other:?}"),
            }
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

    #[test]
    fn approx_bytes_counts_arena() {
        let (inst, layout, _) = setup();
        let arena = PenaltyArena::new(&inst, &layout);
        let v = inst.n_vhos();
        assert!(arena.approx_bytes() >= layout.n_windows * v * v * 8);
    }
}
