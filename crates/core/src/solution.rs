//! Solution representations: per-video block solutions (possibly
//! fractional) and the final integral [`Placement`].
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::block::UflSolution;
use crate::instance::{MipInstance, VideoBlock};
use vod_model::narrow::u32_from;
use vod_model::{Catalog, Gigabytes, VhoId, VideoId};

/// Threshold below which y/x components are pruned during convex
/// combination steps (keeps block solutions sparse across passes).
pub const PRUNE_TOL: f64 = 1e-7;

/// Tolerance for calling a value integral.
pub const INT_TOL: f64 = 1e-6;

/// One video's (possibly fractional) solution: its `y_i^m` values and,
/// for each block client (same order as `VideoBlock::clients`), the
/// serving distribution `x_{·j}^m`.
///
/// The distributions live in one client-major buffer: client `c`'s
/// entries are `x[ends[c - 1]..ends[c]]` (from 0 for the first client),
/// so a block holds three heap buffers whatever its client count, and a
/// step or a clone allocates two or three times instead of once per
/// client. Read them through [`BlockSolution::dist`] and
/// [`BlockSolution::dists`]; build them through
/// [`BlockSolution::from_dists`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockSolution {
    /// Sparse `(i, y_i)` with `y_i > 0`, sorted by VHO.
    pub y: Vec<(VhoId, f64)>,
    /// Every client's sparse `(i, x_ij)` summing to 1, sorted by VHO,
    /// one client after another.
    x: Vec<(VhoId, f64)>,
    /// Per client: the end of its entries in `x`.
    ends: Vec<u32>,
}

/// The entry "all of it at UFL facility `i`".
#[expect(
    clippy::disallowed_methods,
    reason = "UFL solutions index facilities densely"
)]
fn full_at(i: usize) -> (VhoId, f64) {
    (VhoId::from_index(i), 1.0)
}

impl BlockSolution {
    /// A block with stored fractions `y` and the serving distributions
    /// `lists`, one per client in block order.
    pub fn from_dists<D: AsRef<[(VhoId, f64)]>>(
        y: Vec<(VhoId, f64)>,
        lists: impl IntoIterator<Item = D>,
    ) -> Self {
        let mut block = Self {
            y,
            x: Vec::new(),
            ends: Vec::new(),
        };
        for dist in lists {
            block.push_dist(dist.as_ref());
        }
        block.x.shrink_to_fit();
        block.ends.shrink_to_fit();
        block
    }

    /// A block from its flat parts, as a decoder reads them: `ends`
    /// ascending, the last one `x.len()`.
    pub(crate) fn from_flat(y: Vec<(VhoId, f64)>, x: Vec<(VhoId, f64)>, ends: Vec<u32>) -> Self {
        debug_assert!(ends.windows(2).all(|w| w[0] <= w[1]));
        debug_assert_eq!(ends.last().map_or(0, |&e| e as usize), x.len());
        Self { y, x, ends }
    }

    /// The all-at-one-facility solution used both as the initial point
    /// and as the shape of every UFL candidate.
    pub fn from_ufl(sol: &UflSolution) -> Self {
        let mut block = BlockBuf::default();
        block.set_from_ufl(sol);
        block.block
    }

    /// Number of clients (serving distributions).
    #[inline]
    pub fn n_clients(&self) -> usize {
        self.ends.len()
    }

    /// Where client `c`'s entries start in `x`.
    #[inline]
    fn start(&self, c: usize) -> usize {
        if c == 0 {
            0
        } else {
            self.ends[c - 1] as usize
        }
    }

    /// Client `c`'s serving distribution.
    #[inline]
    pub fn dist(&self, c: usize) -> &[(VhoId, f64)] {
        &self.x[self.start(c)..self.ends[c] as usize]
    }

    /// Every client's serving distribution, in block order.
    pub fn dists(&self) -> impl ExactSizeIterator<Item = &[(VhoId, f64)]> + '_ {
        (0..self.n_clients()).map(|c| self.dist(c))
    }

    /// Replace client `c`'s serving distribution with `dist`, shifting
    /// the later clients' entries.
    pub fn set_dist(&mut self, c: usize, dist: &[(VhoId, f64)]) {
        let (start, end) = (self.start(c), self.ends[c] as usize);
        self.x.splice(start..end, dist.iter().copied());
        let (old_len, new_len) = (end - start, dist.len());
        if new_len != old_len {
            for e in &mut self.ends[c..] {
                *e = u32_from(*e as usize + new_len - old_len);
            }
        }
    }

    /// Append a client with serving distribution `dist`.
    pub(crate) fn push_dist(&mut self, dist: &[(VhoId, f64)]) {
        self.x.extend_from_slice(dist);
        self.ends.push(u32_from(self.x.len()));
    }

    /// Overwrite every serving distribution with `other`'s, keeping `y`.
    pub(crate) fn copy_dists_from(&mut self, other: &BlockSolution) {
        self.x.clone_from(&other.x);
        self.ends.clone_from(&other.ends);
    }

    /// Heap bytes of the three buffers at their lengths.
    pub(crate) fn approx_bytes(&self) -> usize {
        let tuple = std::mem::size_of::<(VhoId, f64)>();
        (self.y.len() + self.x.len()) * tuple + self.ends.len() * std::mem::size_of::<u32>()
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
    ///
    /// Every client is merged into one new exact-size buffer and `ends`
    /// is overwritten in place, so a step allocates `y` and `x` and
    /// nothing per client.
    pub fn step_toward(&mut self, hat: &BlockSolution, tau: f64) {
        debug_assert!((0.0..=1.0).contains(&tau));
        if tau == 0.0 {
            return;
        }
        let mut y = Vec::with_capacity(self.y.len() + hat.y.len());
        merge_combine(&self.y, &hat.y, tau, PRUNE_TOL, &mut y);
        self.y = y;
        debug_assert_eq!(self.n_clients(), hat.n_clients());
        // Sized exactly by a counting pass: a buffer sized for the
        // unpruned merge and shrunk afterwards left its freed tail
        // behind as heap fragments.
        let len = (0..self.n_clients())
            .map(|c| merged_len(self.dist(c), hat.dist(c), tau, PRUNE_TOL))
            .sum();
        let mut x = Vec::with_capacity(len);
        let mut start = 0;
        for (c, end) in self.ends.iter_mut().enumerate() {
            // Client c's old entries end at the old `ends[c]`: read it
            // before the new end overwrites it.
            let cur = &self.x[start..*end as usize];
            start = *end as usize;
            let first = x.len();
            merge_combine(cur, hat.dist(c), tau, PRUNE_TOL, &mut x);
            let combined = &mut x[first..];
            let total: f64 = combined.iter().map(|&(_, v)| v).sum();
            debug_assert!(total > 0.5, "distribution lost its mass");
            for e in combined {
                e.1 /= total;
            }
            *end = u32_from(x.len());
        }
        debug_assert_eq!(x.len(), len);
        self.x = x;
        // Re-cover: ensure y_i >= max_j x_ij after pruning noise.
        for &(i, v) in &self.x {
            match self.y.binary_search_by_key(&i, |&(w, _)| w) {
                Ok(k) => self.y[k].1 = self.y[k].1.max(v),
                Err(k) => self.y.insert(k, (i, v)),
            }
        }
    }
}

/// A reusable [`BlockSolution`] for directions that live only until
/// the next block: the EPF step-apply path materialises every UFL
/// candidate and every corrective re-routing into one of these instead
/// of allocating a block per candidate. Its three buffers keep their
/// capacity from block to block, so once grown it allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct BlockBuf {
    block: BlockSolution,
    /// One client's distribution while a `fill` closure writes it.
    dist: Vec<(VhoId, f64)>,
}

impl BlockBuf {
    /// Overwrite with the block of stored fractions `y` and `n_clients`
    /// clients, client `c`'s distribution written by `fill(c, dist)`
    /// into a cleared list.
    pub(crate) fn fill(
        &mut self,
        y: &[(VhoId, f64)],
        n_clients: usize,
        mut fill: impl FnMut(usize, &mut Vec<(VhoId, f64)>),
    ) -> &BlockSolution {
        let Self { block, dist } = self;
        block.y.clear();
        block.y.extend_from_slice(y);
        block.x.clear();
        block.ends.clear();
        for c in 0..n_clients {
            dist.clear();
            fill(c, dist);
            block.push_dist(dist);
        }
        block
    }

    /// Overwrite with the all-zero block of `n_clients` clients: the
    /// `cur` against which [`crate::epf::block_delta`] returns a
    /// candidate's whole usage.
    pub(crate) fn set_empty(&mut self, n_clients: usize) -> &BlockSolution {
        let block = &mut self.block;
        block.y.clear();
        block.x.clear();
        block.ends.clear();
        block.ends.resize(n_clients, 0);
        block
    }

    /// Overwrite with the block [`BlockSolution::from_ufl`] would build.
    pub(crate) fn set_from_ufl(&mut self, sol: &UflSolution) -> &BlockSolution {
        let block = &mut self.block;
        block.y.clear();
        block.y.extend(sol.open.iter().map(|&i| full_at(i)));
        block.y.sort_by_key(|&(i, _)| i);
        block.x.clear();
        block.x.extend(sol.assign.iter().map(|&i| full_at(i)));
        block.ends.clear();
        block.ends.extend((1..=sol.assign.len()).map(u32_from));
        block
    }
}

/// The sparse merge `(1−τ)·a + τ·b`, each entry above `tol` handed to
/// `kept` in id order.
fn merge_kept(
    a: &[(VhoId, f64)],
    b: &[(VhoId, f64)],
    tau: f64,
    tol: f64,
    mut kept: impl FnMut(VhoId, f64),
) {
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
            #[expect(clippy::unreachable, reason = "the loop condition keeps one side Some")]
            (None, None) => unreachable!(),
        };
        if val > tol {
            kept(id, val.min(1.0));
        }
    }
}

/// [`merge_kept`] onto the end of `out`.
fn merge_combine(
    a: &[(VhoId, f64)],
    b: &[(VhoId, f64)],
    tau: f64,
    tol: f64,
    out: &mut Vec<(VhoId, f64)>,
) {
    merge_kept(a, b, tau, tol, |id, val| out.push((id, val)));
}

/// How many entries [`merge_combine`] pushes.
fn merged_len(a: &[(VhoId, f64)], b: &[(VhoId, f64)], tau: f64, tol: f64) -> usize {
    let mut n = 0;
    merge_kept(a, b, tau, tol, |_, _| n += 1);
    n
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
                .zip(b.dists())
                .map(|(c, dist)| (c.j, dist.to_vec()))
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
    #[expect(
        clippy::disallowed_methods,
        reason = "a block with no clients parks its copy at VHO 0, or at its cheapest \
                  facility, recovered from the dense 0..n_vhos index"
    )]
    let home = block
        .clients
        .iter()
        .max_by(|a, b| a.demand_gb.total_cmp(&b.demand_gb).then(b.j.cmp(&a.j)))
        .map(|c| c.j)
        .unwrap_or_else(|| {
            if block.facility_obj_cost.is_empty() {
                VhoId::new(0)
            } else {
                let i = (0..n_vhos)
                    .min_by(|&a, &b| {
                        block.facility_obj_cost[a].total_cmp(&block.facility_obj_cost[b])
                    })
                    .unwrap_or(0);
                VhoId::from_index(i)
            }
        });
    BlockSolution::from_dists(
        vec![(home, 1.0)],
        block.clients.iter().map(|_| [(home, 1.0)]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Dist = Vec<(VhoId, f64)>;

    fn ids(d: &[(u16, f64)]) -> Dist {
        d.iter().map(|&(i, v)| (VhoId::new(i), v)).collect()
    }

    fn bs(y: &[(u16, f64)], x: Vec<Vec<(u16, f64)>>) -> BlockSolution {
        BlockSolution::from_dists(ids(y), x.iter().map(|d| ids(d)))
    }

    fn bits(d: &[(VhoId, f64)]) -> Vec<(VhoId, u64)> {
        d.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// The step over one list per client that [`BlockSolution::step_toward`]
    /// replaces, kept as its oracle: every sum, in the same order.
    fn step_nested(y: &mut Dist, x: &mut [Dist], hat_y: &[(VhoId, f64)], hat_x: &[Dist], tau: f64) {
        fn merge(a: &[(VhoId, f64)], b: &[(VhoId, f64)], tau: f64) -> Dist {
            let mut out = Vec::new();
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
                    #[expect(
                        clippy::unreachable,
                        reason = "the loop condition keeps one side Some"
                    )]
                    (None, None) => unreachable!(),
                };
                if val > PRUNE_TOL {
                    out.push((id, val.min(1.0)));
                }
            }
            out
        }
        if tau == 0.0 {
            return;
        }
        *y = merge(y, hat_y, tau);
        for (cur, new) in x.iter_mut().zip(hat_x) {
            let mut combined = merge(cur, new, tau);
            let total: f64 = combined.iter().map(|&(_, v)| v).sum();
            for e in &mut combined {
                e.1 /= total;
            }
            *cur = combined;
        }
        for dist in x.iter() {
            for &(i, v) in dist {
                match y.binary_search_by_key(&i, |&(w, _)| w) {
                    Ok(k) => y[k].1 = y[k].1.max(v),
                    Err(k) => y.insert(k, (i, v)),
                }
            }
        }
    }

    /// One case of the flat-step oracle: a block and a direction with
    /// the same client count, τ, and a `set_dist` edit.
    #[derive(Debug)]
    struct StepCase {
        y: Dist,
        x: Vec<Dist>,
        hat_y: Dist,
        hat_x: Vec<Dist>,
        tau: f64,
        edit: (usize, Dist),
    }

    /// 0–8 clients with 1–6 entries each (0–6 in `y` and in the
    /// edit's list) over 12 VHOs. `y` is drawn apart from the
    /// distributions, so it often misses a VHO they use and the step's
    /// re-cover inserts it; a quarter of the weights fall below
    /// [`PRUNE_TOL`] even after normalizing; τ is 1 in a quarter of the
    /// cases and small enough to prune every direction entry in
    /// another.
    struct StepCases;

    impl Strategy for StepCases {
        type Value = StepCase;

        fn generate(&self, rng: &mut proptest::TestRng) -> StepCase {
            fn below(rng: &mut proptest::TestRng, n: usize) -> usize {
                (0..n).generate(rng)
            }
            fn entries(rng: &mut proptest::TestRng, min: usize) -> Dist {
                let len = below(rng, 7 - min) + min;
                let mut vhos: Vec<u16> = (0..12).collect();
                let mut d: Dist = (0..len)
                    .map(|k| {
                        let pick = k + below(rng, 12 - k);
                        vhos.swap(k, pick);
                        let w = if below(rng, 4) == 0 {
                            1e-10 + rng.unit_f64() * 1e-7
                        } else {
                            1e-3 + rng.unit_f64()
                        };
                        (VhoId::new(vhos[k]), w)
                    })
                    .collect();
                d.sort_by_key(|&(i, _)| i);
                d
            }
            fn dist(rng: &mut proptest::TestRng) -> Dist {
                let mut d = entries(rng, 1);
                let total: f64 = d.iter().map(|&(_, v)| v).sum();
                d.iter_mut().for_each(|e| e.1 /= total);
                d
            }
            let clients = below(rng, 9);
            let y = entries(rng, 0);
            let x = (0..clients).map(|_| dist(rng)).collect();
            let hat_y = entries(rng, 0);
            let hat_x = (0..clients).map(|_| dist(rng)).collect();
            let tau = match below(rng, 4) {
                0 => 1.0,
                1 => 1e-10 + rng.unit_f64() * 1e-7,
                _ => rng.unit_f64(),
            };
            let edit = (below(rng, clients.max(1)), entries(rng, 0));
            StepCase {
                y,
                x,
                hat_y,
                hat_x,
                tau,
                edit,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        #[test]
        fn flat_step_and_set_dist_match_the_nested_lists(case in StepCases) {
            let StepCase { mut y, mut x, hat_y, hat_x, tau, edit: (c, new_dist) } = case;
            let mut flat = BlockSolution::from_dists(y.clone(), &x);
            flat.step_toward(&BlockSolution::from_dists(hat_y.clone(), &hat_x), tau);
            step_nested(&mut y, &mut x, &hat_y, &hat_x, tau);
            prop_assert_eq!(bits(&flat.y), bits(&y));
            prop_assert_eq!(flat.n_clients(), x.len());
            for (c, want) in x.iter().enumerate() {
                prop_assert_eq!(bits(flat.dist(c)), bits(want), "client {}", c);
            }
            if tau > 0.0 {
                prop_assert_eq!(flat.x.capacity(), flat.x.len());
            }

            if !x.is_empty() {
                flat.set_dist(c, &new_dist);
                x[c] = new_dist;
                prop_assert_eq!(&flat, &BlockSolution::from_dists(y, &x));
            }
        }
    }

    #[test]
    fn the_step_re_covers_a_pruned_y() {
        // `y` at VHO 2 is pruned away while the renormalized `x` keeps
        // its share there: the re-cover inserts it back, as the nested
        // step did.
        let y = ids(&[(0, 1.0), (2, 5e-8)]);
        let x = vec![ids(&[(0, 0.999_999), (2, 1e-6)])];
        let hat_y = ids(&[(0, 1.0)]);
        let hat_x = vec![ids(&[(0, 1.0)])];
        let mut flat = BlockSolution::from_dists(y.clone(), &x);
        flat.step_toward(&BlockSolution::from_dists(hat_y.clone(), &hat_x), 0.5);
        let (mut y, mut x) = (y, x);
        step_nested(&mut y, &mut x, &hat_y, &hat_x, 0.5);
        assert_eq!(flat.y.len(), 2, "re-cover inserted VHO 2: {:?}", flat.y);
        assert_eq!(bits(&flat.y), bits(&y));
        assert_eq!(bits(flat.dist(0)), bits(&x[0]));
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
        // time the buffer reads exactly what `from_ufl` builds.
        let mut buf = BlockBuf::default();
        let sols = [
            (vec![1, 4], vec![4, 1, 1, 4, 1]),
            (vec![2], vec![2, 2]),
            (vec![0, 3, 5], vec![5, 0, 3, 3, 0, 5, 5]),
            (vec![6], vec![]),
            (vec![1, 2], vec![2, 1, 2]),
        ];
        for (open, assign) in sols {
            let sol = UflSolution { open, assign };
            assert_eq!(buf.set_from_ufl(&sol), &BlockSolution::from_ufl(&sol));
            let empty = buf.set_empty(sol.assign.len());
            assert_eq!(empty.n_clients(), sol.assign.len());
            assert!(empty.dists().all(<[_]>::is_empty));
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
        let total: f64 = a.dist(0).iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // x <= y maintained.
        for dist in a.dists() {
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
        assert!((a.dist(0)[0].1 - 1.0).abs() < 1e-12);
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
        assert_eq!(b.dist(0), [(VhoId::new(0), 1.0)]);
        assert_eq!(b.dist(1), [(VhoId::new(2), 1.0)]);
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
