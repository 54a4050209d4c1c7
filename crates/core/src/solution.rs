//! Solution representations: per-video block solutions (possibly
//! fractional) and the final integral [`Placement`].

use crate::block::UflSolution;
use crate::instance::{MipInstance, VideoBlock};
use vod_model::{Catalog, Gigabytes, VhoId, VideoId};

/// Threshold below which y/x components are pruned during convex
/// combination steps (keeps block solutions sparse across passes).
pub const PRUNE_TOL: f64 = 1e-7;

/// Tolerance for calling a value integral.
pub const INT_TOL: f64 = 1e-6;

/// One video's (possibly fractional) solution: its `y_i^m` values and,
/// for each block client (same order as `VideoBlock::clients`), the
/// serving distribution `x_{·j}^m`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockSolution {
    /// Sparse `(i, y_i)` with `y_i > 0`, sorted by VHO.
    pub y: Vec<(VhoId, f64)>,
    /// Per client: sparse `(i, x_ij)` summing to 1, sorted by VHO.
    pub x: Vec<Vec<(VhoId, f64)>>,
}

/// The entry "all of it at UFL facility `i`".
fn full_at(i: usize) -> (VhoId, f64) {
    // lint:allow(raw-index): UFL solutions index facilities densely
    (VhoId::from_index(i), 1.0)
}

impl BlockSolution {
    /// The all-at-one-facility solution used both as the initial point
    /// and as the shape of every UFL candidate.
    pub fn from_ufl(sol: &UflSolution) -> Self {
        let mut y: Vec<(VhoId, f64)> = sol.open.iter().map(|&i| full_at(i)).collect();
        y.sort_by_key(|&(i, _)| i);
        let x = sol.assign.iter().map(|&i| vec![full_at(i)]).collect();
        Self { y, x }
    }

    /// `y` value at VHO `i` (0 when absent).
    pub fn y_at(&self, i: VhoId) -> f64 {
        self.y
            .binary_search_by_key(&i, |&(v, _)| v)
            .map(|k| self.y[k].1)
            .unwrap_or(0.0)
    }

    /// Whether all `y` are within `INT_TOL` of {0, 1}.
    pub fn is_integral(&self) -> bool {
        self.y
            .iter()
            .all(|&(_, v)| v <= INT_TOL || (v - 1.0).abs() <= INT_TOL)
    }

    /// VHOs with `y ≈ 1` (the stored copies once integral).
    pub fn stores(&self) -> Vec<VhoId> {
        self.y
            .iter()
            .filter(|&&(_, v)| v >= 0.5)
            .map(|&(i, _)| i)
            .collect()
    }

    /// Convex step `z ← (1−τ)·z + τ·ẑ` with pruning and exact
    /// renormalization of every client distribution. Block-feasibility
    /// (x ≤ y, Σx = 1) is preserved: both endpoints satisfy it and the
    /// prune/renormalize bumps `y` up to cover any renormalized `x`.
    pub fn step_toward(&mut self, hat: &BlockSolution, tau: f64) {
        debug_assert!((0.0..=1.0).contains(&tau));
        if tau == 0.0 {
            return;
        }
        self.y = merge_combine(&self.y, &hat.y, tau, PRUNE_TOL);
        debug_assert_eq!(self.x.len(), hat.x.len());
        for (cur, new) in self.x.iter_mut().zip(&hat.x) {
            let mut combined = merge_combine(cur, new, tau, PRUNE_TOL);
            let total: f64 = combined.iter().map(|&(_, v)| v).sum();
            debug_assert!(total > 0.5, "distribution lost its mass");
            for e in &mut combined {
                e.1 /= total;
            }
            *cur = combined;
        }
        // Re-cover: ensure y_i >= max_j x_ij after pruning noise.
        for dist in &self.x {
            for &(i, v) in dist {
                match self.y.binary_search_by_key(&i, |&(w, _)| w) {
                    Ok(k) => self.y[k].1 = self.y[k].1.max(v),
                    Err(k) => self.y.insert(k, (i, v)),
                }
            }
        }
    }
}

/// A reusable [`BlockSolution`] for directions that live only until
/// the next block: the EPF step-apply path materialises every UFL
/// candidate and every corrective re-routing into one of these instead
/// of allocating `C + 2` vectors per block. Client lists beyond the
/// current block's count are parked in `spare`, so shrinking and
/// regrowing from block to block frees and allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct BlockBuf {
    block: BlockSolution,
    spare: Vec<Vec<(VhoId, f64)>>,
}

impl BlockBuf {
    /// The buffer as a block of exactly `n_clients` client lists, all
    /// contents stale: the caller overwrites `y` and every list.
    pub(crate) fn with_clients(&mut self, n_clients: usize) -> &mut BlockSolution {
        let x = &mut self.block.x;
        if x.len() > n_clients {
            self.spare.extend(x.drain(n_clients..));
        } else {
            let keep = self.spare.len().saturating_sub(n_clients - x.len());
            x.extend(self.spare.drain(keep..));
            x.resize_with(n_clients, Vec::new);
        }
        &mut self.block
    }

    /// Overwrite with the all-zero block of `n_clients` clients: the
    /// `cur` against which [`crate::epf::block_delta`] returns a
    /// candidate's whole usage.
    pub(crate) fn set_empty(&mut self, n_clients: usize) -> &BlockSolution {
        let block = self.with_clients(n_clients);
        block.y.clear();
        block.x.iter_mut().for_each(Vec::clear);
        block
    }

    /// Overwrite with the block [`BlockSolution::from_ufl`] would build.
    pub(crate) fn set_from_ufl(&mut self, sol: &UflSolution) -> &BlockSolution {
        let block = self.with_clients(sol.assign.len());
        block.y.clear();
        block.y.extend(sol.open.iter().map(|&i| full_at(i)));
        block.y.sort_by_key(|&(i, _)| i);
        for (dist, &i) in block.x.iter_mut().zip(&sol.assign) {
            dist.clear();
            dist.resize(1, full_at(i));
        }
        block
    }
}

/// Sparse merge of `(1−τ)·a + τ·b`, dropping entries below `tol`.
fn merge_combine(a: &[(VhoId, f64)], b: &[(VhoId, f64)], tau: f64, tol: f64) -> Vec<(VhoId, f64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.len() || ib < b.len() {
        let (id, val) = match (a.get(ia), b.get(ib)) {
            (Some(&(va, xa)), Some(&(vb, xb))) if va == vb => {
                ia += 1;
                ib += 1;
                (va, (1.0 - tau) * xa + tau * xb)
            }
            (Some(&(va, xa)), Some(&(vb, _))) if va < vb => {
                ia += 1;
                (va, (1.0 - tau) * xa)
            }
            (Some(&(va, xa)), None) => {
                ia += 1;
                (va, (1.0 - tau) * xa)
            }
            (_, Some(&(vb, xb))) => {
                ib += 1;
                (vb, tau * xb)
            }
            (None, None) => unreachable!(), // lint:allow(no-panic-hot-path): loop condition keeps one side Some
        };
        if val > tol {
            out.push((id, val.min(1.0)));
        }
    }
    out
}

/// A complete fractional solution with solver-certified quality data.
#[derive(Debug, Clone)]
pub struct FractionalSolution {
    pub blocks: Vec<BlockSolution>,
    /// Objective value `cz` (original objective (2), plus the eq. (11)
    /// term when enabled).
    pub objective: f64,
    /// Max relative violation of disk/link constraints, `δ_c(z)`.
    pub max_violation: f64,
    /// Lagrangian lower bound on the LP optimum (0 in feasibility-only
    /// runs).
    pub lower_bound: f64,
}

/// The final placement: which VHOs store each video (`y`, integral) and
/// how each VHO's requests are split across the copies (`x`).
/// A fractional serving distribution over source VHOs.
pub type ServingDist = Vec<(VhoId, f64)>;

#[derive(Debug, Clone)]
pub struct Placement {
    n_vhos: usize,
    stores: Vec<Vec<VhoId>>,
    /// Per video: `(client j, serving distribution over servers)`,
    /// sorted by client, only for clients the solve knew about.
    routing: Vec<Vec<(VhoId, ServingDist)>>,
}

impl Placement {
    /// Assemble from integral block solutions.
    pub fn from_blocks(inst: &MipInstance, blocks: &[BlockSolution]) -> Self {
        assert_eq!(blocks.len(), inst.n_videos());
        let mut stores = Vec::with_capacity(blocks.len());
        let mut routing = Vec::with_capacity(blocks.len());
        for (b, data) in blocks.iter().zip(inst.blocks()) {
            let s = b.stores();
            assert!(!s.is_empty(), "video {} has no stored copy", data.video);
            let mut r: Vec<(VhoId, Vec<(VhoId, f64)>)> = data
                .clients
                .iter()
                .zip(&b.x)
                .map(|(c, dist)| (c.j, dist.clone()))
                .collect();
            r.sort_by_key(|&(j, _)| j);
            stores.push(s);
            routing.push(r);
        }
        Self {
            n_vhos: inst.n_vhos(),
            stores,
            routing,
        }
    }

    /// Build a placement directly from per-video holder lists (used by
    /// the baseline strategies: random single copy, top-K replication).
    pub fn from_stores(n_vhos: usize, stores: Vec<Vec<VhoId>>) -> Self {
        let routing = vec![Vec::new(); stores.len()];
        Self {
            n_vhos,
            stores,
            routing,
        }
    }

    #[inline]
    pub fn n_videos(&self) -> usize {
        self.stores.len()
    }

    #[inline]
    pub fn n_vhos(&self) -> usize {
        self.n_vhos
    }

    /// The VHOs holding a copy of `m`, sorted.
    #[inline]
    pub fn stores(&self, m: VideoId) -> &[VhoId] {
        &self.stores[m.index()]
    }

    pub fn has_copy(&self, m: VideoId, i: VhoId) -> bool {
        self.stores[m.index()].binary_search(&i).is_ok()
    }

    /// Serving distribution for requests of `m` at `j`, if the solve
    /// produced one (demand clients only).
    pub fn serving_distribution(&self, m: VideoId, j: VhoId) -> Option<&[(VhoId, f64)]> {
        let r = &self.routing[m.index()];
        r.binary_search_by_key(&j, |&(c, _)| c)
            .ok()
            .map(|k| r[k].1.as_slice())
            .filter(|d| !d.is_empty())
    }

    /// Number of copies of each video, in the order of `ids` (e.g.
    /// demand rank order for Fig. 8).
    pub fn copy_counts(&self, ids: &[VideoId]) -> Vec<usize> {
        ids.iter().map(|&m| self.stores[m.index()].len()).collect()
    }

    /// Total copies across the system.
    pub fn total_copies(&self) -> usize {
        self.stores.iter().map(Vec::len).sum()
    }

    /// Disk used at each VHO by the pinned copies.
    pub fn disk_usage(&self, catalog: &Catalog) -> Vec<Gigabytes> {
        let mut use_gb = vec![Gigabytes::ZERO; self.n_vhos];
        for (mi, holders) in self.stores.iter().enumerate() {
            let s = catalog.video(VideoId::from_index(mi)).size();
            for &h in holders {
                use_gb[h.index()] += s;
            }
        }
        use_gb
    }

    /// Fig. 7: per-VHO disk split into (top-100, next 20 %, tail)
    /// popularity classes; `ranked` is the demand-ranked video list.
    pub fn disk_usage_by_popularity(
        &self,
        catalog: &Catalog,
        ranked: &[VideoId],
    ) -> Vec<[Gigabytes; 3]> {
        let mut class = vec![2u8; self.stores.len()];
        let top100 = 100.min(ranked.len());
        let next20 = (ranked.len() / 5 + top100).min(ranked.len());
        for (r, &m) in ranked.iter().enumerate() {
            class[m.index()] = if r < top100 {
                0
            } else if r < next20 {
                1
            } else {
                2
            };
        }
        let mut out = vec![[Gigabytes::ZERO; 3]; self.n_vhos];
        for (mi, holders) in self.stores.iter().enumerate() {
            let s = catalog.video(VideoId::from_index(mi)).size();
            for &h in holders {
                out[h.index()][class[mi] as usize] += s;
            }
        }
        out
    }

    /// Number of (video, VHO) copies present here but not in `prev` —
    /// the transfers a placement update must perform (Section VII-H).
    pub fn migration_copies_from(&self, prev: &Placement) -> usize {
        assert_eq!(self.n_videos(), prev.n_videos());
        self.stores
            .iter()
            .zip(&prev.stores)
            .map(|(now, before)| {
                now.iter()
                    .filter(|i| before.binary_search(i).is_err())
                    .count()
            })
            .sum()
    }

    /// Per-video holder lists (for feeding `PlacementCost::previous`).
    pub fn holder_lists(&self) -> &[Vec<VhoId>] {
        &self.stores
    }

    /// The serving-distribution routing, per video (for persistence —
    /// see `impl Wire for Placement` in [`crate::checkpoint`]).
    pub fn routing_lists(&self) -> &[Vec<(VhoId, ServingDist)>] {
        &self.routing
    }

    /// Rebuild a placement from persisted parts, validating every
    /// index against the declared shape so a corrupt snapshot cannot
    /// produce a placement that panics downstream.
    pub fn from_parts(
        n_vhos: usize,
        stores: Vec<Vec<VhoId>>,
        routing: Vec<Vec<(VhoId, ServingDist)>>,
    ) -> Result<Self, String> {
        if routing.len() != stores.len() {
            return Err(format!(
                "routing covers {} videos, stores cover {}",
                routing.len(),
                stores.len()
            ));
        }
        let in_range = |i: VhoId| i.index() < n_vhos;
        for (m, holders) in stores.iter().enumerate() {
            if holders.is_empty() {
                return Err(format!("video {m} has no stored copy"));
            }
            if !holders.windows(2).all(|w| w[0] < w[1]) || !holders.iter().all(|&i| in_range(i)) {
                return Err(format!("video {m}: holder list unsorted or out of range"));
            }
        }
        for (m, clients) in routing.iter().enumerate() {
            if !clients.windows(2).all(|w| w[0].0 < w[1].0) {
                return Err(format!("video {m}: routing clients unsorted"));
            }
            for (j, dist) in clients {
                if !in_range(*j) || !dist.iter().all(|&(i, x)| in_range(i) && x.is_finite()) {
                    return Err(format!("video {m}: routing entry out of range"));
                }
            }
        }
        Ok(Self {
            n_vhos,
            stores,
            routing,
        })
    }

    /// Objective (2) (+ the eq. (11) term if the instance has one) of
    /// this placement under `inst`'s demand, using the stored routing
    /// where available and nearest-copy service otherwise.
    pub fn objective_under(&self, inst: &MipInstance) -> f64 {
        let mut total = 0.0;
        for (data, (holders, routing)) in inst
            .blocks()
            .iter()
            .zip(self.stores.iter().zip(&self.routing))
        {
            if !data.facility_obj_cost.is_empty() {
                for &h in holders {
                    total += data.facility_obj_cost[h.index()];
                }
            }
            for c in &data.clients {
                let dist = routing
                    .binary_search_by_key(&c.j, |&(j, _)| j)
                    .ok()
                    .map(|k| routing[k].1.as_slice());
                match dist {
                    Some(d) if !d.is_empty() => {
                        for &(i, frac) in d {
                            total += c.demand_gb * inst.cost(i, c.j) * frac;
                        }
                    }
                    _ => {
                        // Nearest copy.
                        let best = holders
                            .iter()
                            .map(|&i| inst.cost(i, c.j))
                            .fold(f64::MAX, f64::min);
                        total += c.demand_gb * best;
                    }
                }
            }
        }
        total
    }
}

/// Helper: the initial solution's UFL shape for one block — store at
/// the client with the largest demand (or the cheapest facility when
/// the video has no demand yet), serve everyone from there.
pub fn initial_block(block: &VideoBlock, n_vhos: usize) -> BlockSolution {
    let home = block
        .clients
        .iter()
        .max_by(|a, b| a.demand_gb.total_cmp(&b.demand_gb).then(b.j.cmp(&a.j)))
        .map(|c| c.j)
        .unwrap_or_else(|| {
            if block.facility_obj_cost.is_empty() {
                // lint:allow(raw-index): degenerate block with no clients parks its copy at VHO 0
                VhoId::new(0)
            } else {
                let i = (0..n_vhos)
                    .min_by(|&a, &b| {
                        block.facility_obj_cost[a].total_cmp(&block.facility_obj_cost[b])
                    })
                    .unwrap_or(0);
                // lint:allow(raw-index): recovers the id from a dense 0..n_vhos vector index
                VhoId::from_index(i)
            }
        });
    BlockSolution {
        y: vec![(home, 1.0)],
        x: block.clients.iter().map(|_| vec![(home, 1.0)]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(y: &[(u16, f64)], x: Vec<Vec<(u16, f64)>>) -> BlockSolution {
        BlockSolution {
            y: y.iter().map(|&(i, v)| (VhoId::new(i), v)).collect(),
            x: x.into_iter()
                .map(|d| d.into_iter().map(|(i, v)| (VhoId::new(i), v)).collect())
                .collect(),
        }
    }

    #[test]
    fn integrality_detection() {
        assert!(bs(&[(0, 1.0), (3, 1.0)], vec![]).is_integral());
        assert!(bs(&[(0, 1.0 - 1e-9)], vec![]).is_integral());
        assert!(!bs(&[(0, 0.5)], vec![]).is_integral());
    }

    #[test]
    fn block_buf_rebuilds_from_ufl_blocks_of_any_size() {
        // Shrink, regrow past the old size, shrink to nothing: every
        // time the buffer reads exactly what `from_ufl` builds, and the
        // parked client lists come back instead of fresh ones.
        let mut buf = BlockBuf::default();
        let sols = [
            (vec![1, 4], vec![4, 1, 1, 4, 1]),
            (vec![2], vec![2, 2]),
            (vec![0, 3, 5], vec![5, 0, 3, 3, 0, 5, 5]),
            (vec![6], vec![]),
            (vec![1, 2], vec![2, 1, 2]),
        ];
        let mut lists_held = 0;
        for (open, assign) in sols {
            let sol = UflSolution { open, assign };
            assert_eq!(buf.set_from_ufl(&sol), &BlockSolution::from_ufl(&sol));
            lists_held = lists_held.max(sol.assign.len());
            assert_eq!(buf.block.x.len() + buf.spare.len(), lists_held);
        }
    }

    #[test]
    fn step_combines_and_normalizes() {
        let mut a = bs(&[(0, 1.0)], vec![vec![(0, 1.0)]]);
        let hat = bs(&[(1, 1.0)], vec![vec![(1, 1.0)]]);
        a.step_toward(&hat, 0.25);
        assert_eq!(a.y.len(), 2);
        assert!((a.y_at(VhoId::new(0)) - 0.75).abs() < 1e-12);
        assert!((a.y_at(VhoId::new(1)) - 0.25).abs() < 1e-12);
        let total: f64 = a.x[0].iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // x <= y maintained.
        for dist in &a.x {
            for &(i, v) in dist {
                assert!(v <= a.y_at(i) + 1e-12);
            }
        }
    }

    #[test]
    fn step_prunes_tiny_mass() {
        let mut a = bs(&[(0, 1.0)], vec![vec![(0, 1.0)]]);
        let hat = bs(&[(1, 1.0)], vec![vec![(1, 1.0)]]);
        // Take nearly-full steps repeatedly; VHO 0's share should
        // eventually be pruned.
        for _ in 0..20 {
            a.step_toward(&hat, 0.9);
        }
        assert_eq!(a.y.len(), 1);
        assert_eq!(a.y[0].0, VhoId::new(1));
        assert!((a.x[0][0].1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn full_step_replaces() {
        let mut a = bs(&[(0, 0.4), (2, 0.6)], vec![vec![(0, 0.4), (2, 0.6)]]);
        let hat = bs(&[(1, 1.0)], vec![vec![(1, 1.0)]]);
        a.step_toward(&hat, 1.0);
        assert_eq!(a.stores(), vec![VhoId::new(1)]);
        assert!(a.is_integral());
    }

    #[test]
    fn from_ufl_shape() {
        let u = UflSolution {
            open: vec![2, 0],
            assign: vec![0, 2],
        };
        let b = BlockSolution::from_ufl(&u);
        assert_eq!(b.y, vec![(VhoId::new(0), 1.0), (VhoId::new(2), 1.0)]);
        assert_eq!(b.x[0], vec![(VhoId::new(0), 1.0)]);
        assert_eq!(b.x[1], vec![(VhoId::new(2), 1.0)]);
    }

    #[test]
    fn placement_basics() {
        let p = Placement::from_stores(
            3,
            vec![vec![VhoId::new(0), VhoId::new(2)], vec![VhoId::new(1)]],
        );
        assert_eq!(p.n_videos(), 2);
        assert!(p.has_copy(VideoId::new(0), VhoId::new(2)));
        assert!(!p.has_copy(VideoId::new(1), VhoId::new(2)));
        assert_eq!(p.total_copies(), 3);
        assert_eq!(
            p.copy_counts(&[VideoId::new(1), VideoId::new(0)]),
            vec![1, 2]
        );
        assert!(p
            .serving_distribution(VideoId::new(0), VhoId::new(1))
            .is_none());
    }

    #[test]
    fn migration_counts_new_copies_only() {
        let prev = Placement::from_stores(3, vec![vec![VhoId::new(0)], vec![VhoId::new(1)]]);
        let next = Placement::from_stores(
            3,
            vec![
                vec![VhoId::new(0), VhoId::new(1)], // one new copy
                vec![VhoId::new(2)],                // moved: one new copy
            ],
        );
        assert_eq!(next.migration_copies_from(&prev), 2);
        assert_eq!(prev.migration_copies_from(&prev), 0);
    }
}
