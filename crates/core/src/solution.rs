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

/// Serving distributions, one per client, in one client-major buffer:
/// client `c`'s sparse `(i, x_ij)` entries, sorted by VHO, are
/// `entries[ends[c - 1]..ends[c]]` (from 0 for the first client). So a
/// video's distributions take two heap buffers whatever its client
/// count, in the solver's iterate and in the final [`Placement`] alike.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dists {
    entries: Vec<(VhoId, f64)>,
    /// Per client: the end of its entries.
    ends: Vec<u32>,
}

impl Dists {
    /// The distributions `lists`, one per client in order.
    pub fn from_lists<D: AsRef<[(VhoId, f64)]>>(lists: impl IntoIterator<Item = D>) -> Self {
        let mut x = Self::default();
        for dist in lists {
            x.push_dist(dist.as_ref());
        }
        x.shrink_to_fit();
        x
    }

    /// Number of clients.
    #[inline]
    pub fn n_clients(&self) -> usize {
        self.ends.len()
    }

    /// Where client `c`'s entries start.
    #[inline]
    fn start(&self, c: usize) -> usize {
        c.checked_sub(1).map_or(0, |p| self.ends[p] as usize)
    }

    /// Client `c`'s serving distribution.
    #[inline]
    pub fn dist(&self, c: usize) -> &[(VhoId, f64)] {
        &self.entries[self.start(c)..self.ends[c] as usize]
    }

    /// Every client's serving distribution, in client order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[(VhoId, f64)]> + '_ {
        (0..self.n_clients()).map(|c| self.dist(c))
    }

    /// Replace client `c`'s serving distribution with `dist`, shifting
    /// the later clients' entries.
    pub fn set_dist(&mut self, c: usize, dist: &[(VhoId, f64)]) {
        let (start, end) = (self.start(c), self.ends[c] as usize);
        self.entries.splice(start..end, dist.iter().copied());
        let (old_len, new_len) = (end - start, dist.len());
        if new_len != old_len {
            for e in &mut self.ends[c..] {
                *e = u32_from(*e as usize + new_len - old_len);
            }
        }
    }

    /// Append a client with serving distribution `dist`.
    pub(crate) fn push_dist(&mut self, dist: &[(VhoId, f64)]) {
        self.entries.extend_from_slice(dist);
        self.ends.push(u32_from(self.entries.len()));
    }

    /// Append one entry to a client that [`Dists::end_dist`] will close.
    pub(crate) fn push_entry(&mut self, e: (VhoId, f64)) {
        self.entries.push(e);
    }

    /// Close a client after its entries; `None` past a `u32` end.
    pub(crate) fn end_dist(&mut self) -> Option<()> {
        self.ends.push(u32::try_from(self.entries.len()).ok()?);
        Some(())
    }

    /// Overwrite with `other`'s distributions, reusing the buffers.
    pub(crate) fn copy_from(&mut self, other: &Dists) {
        self.entries.clone_from(&other.entries);
        self.ends.clone_from(&other.ends);
    }

    /// Drop the buffers' spare capacity.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.entries.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// One video's (possibly fractional) solution: its `y_i^m` values and,
/// for each block client (same order as `VideoBlock::clients`), the
/// serving distribution `x_{·j}^m`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockSolution {
    /// Sparse `(i, y_i)` with `y_i > 0`, sorted by VHO.
    pub y: Vec<(VhoId, f64)>,
    /// Every client's sparse `(i, x_ij)` summing to 1.
    pub x: Dists,
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
    /// The all-at-one-facility solution used both as the initial point
    /// and as the shape of every UFL candidate.
    pub fn from_ufl(sol: &UflSolution) -> Self {
        let mut block = BlockBuf::default();
        block.set_from_ufl(sol);
        block.block
    }

    /// Heap bytes of the three buffers at their lengths.
    pub(crate) fn approx_bytes(&self) -> usize {
        let tuple = std::mem::size_of::<(VhoId, f64)>();
        let (x, ends) = (&self.x.entries, &self.x.ends);
        (self.y.len() + x.len()) * tuple + ends.len() * std::mem::size_of::<u32>()
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
        debug_assert_eq!(self.x.n_clients(), hat.x.n_clients());
        // Sized exactly by a counting pass: a buffer sized for the
        // unpruned merge and shrunk afterwards left its freed tail
        // behind as heap fragments.
        let len = (0..self.x.n_clients())
            .map(|c| merged_len(self.x.dist(c), hat.x.dist(c), tau, PRUNE_TOL))
            .sum();
        let mut x = Vec::with_capacity(len);
        let mut start = 0;
        let Dists { entries, ends } = &mut self.x;
        for (c, end) in ends.iter_mut().enumerate() {
            // Client c's old entries end at the old `ends[c]`: read it
            // before the new end overwrites it.
            let cur = &entries[start..*end as usize];
            start = *end as usize;
            let first = x.len();
            merge_combine(cur, hat.x.dist(c), tau, PRUNE_TOL, &mut x);
            let combined = &mut x[first..];
            let total: f64 = combined.iter().map(|&(_, v)| v).sum();
            debug_assert!(total > 0.5, "distribution lost its mass");
            for e in combined {
                e.1 /= total;
            }
            *end = u32_from(x.len());
        }
        debug_assert_eq!(x.len(), len);
        *entries = x;
        // Re-cover: ensure y_i >= max_j x_ij after pruning noise.
        for &(i, v) in entries.iter() {
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
        block.x.entries.clear();
        block.x.ends.clear();
        for c in 0..n_clients {
            dist.clear();
            fill(c, dist);
            block.x.push_dist(dist);
        }
        block
    }

    /// Overwrite with the all-zero block of `n_clients` clients: the
    /// `cur` against which [`crate::epf::block_delta`] returns a
    /// candidate's whole usage.
    pub(crate) fn set_empty(&mut self, n_clients: usize) -> &BlockSolution {
        let block = &mut self.block;
        block.y.clear();
        block.x.entries.clear();
        block.x.ends.clear();
        block.x.ends.resize(n_clients, 0);
        block
    }

    /// Overwrite with the block [`BlockSolution::from_ufl`] would build.
    pub(crate) fn set_from_ufl(&mut self, sol: &UflSolution) -> &BlockSolution {
        let block = &mut self.block;
        block.y.clear();
        block.y.extend(sol.open.iter().map(|&i| full_at(i)));
        block.y.sort_by_key(|&(i, _)| i);
        let x = &mut block.x;
        x.entries.clear();
        x.entries.extend(sol.assign.iter().map(|&i| full_at(i)));
        x.ends.clear();
        x.ends.extend((1..=sol.assign.len()).map(u32_from));
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

/// One video's routing in a [`Placement`]: the clients the solve knew
/// about, sorted, and `clients[k]`'s serving distribution `x.dist(k)`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct VideoRouting {
    pub clients: Vec<VhoId>,
    pub x: Dists,
}

impl VideoRouting {
    /// Every client with its serving distribution, in client order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (VhoId, &[(VhoId, f64)])> + '_ {
        self.clients.iter().copied().zip(self.x.iter())
    }
}

/// The final placement: which VHOs store each video (`y`, integral) and
/// how each VHO's requests are split across the copies (`x`).
#[derive(Debug, Clone)]
pub struct Placement {
    n_vhos: usize,
    stores: Vec<Vec<VhoId>>,
    routing: Vec<VideoRouting>,
}

impl Placement {
    /// Assemble from integral block solutions, moving their `x` in.
    pub fn from_blocks(inst: &MipInstance, blocks: Vec<BlockSolution>) -> Self {
        assert_eq!(blocks.len(), inst.n_videos());
        let stores = blocks.iter().zip(inst.blocks()).map(|(b, data)| {
            let s = b.stores();
            assert!(!s.is_empty(), "video {} has no stored copy", data.video);
            s
        });
        let stores = stores.collect();
        // Collected in place: the routing reuses the blocks' own buffer.
        let routing = blocks.into_iter().zip(inst.blocks()).map(|(b, data)| {
            let clients: Vec<VhoId> = data.clients.iter().map(|c| c.j).collect();
            let sorted = clients.windows(2).all(|w| w[0] < w[1]);
            assert!(sorted, "video {} has unsorted clients", data.video);
            VideoRouting { clients, x: b.x }
        });
        Self {
            n_vhos: inst.n_vhos(),
            stores,
            routing: routing.collect(),
        }
    }

    /// Build a placement directly from per-video holder lists (used by
    /// the baseline strategies: random single copy, top-K replication).
    pub fn from_stores(n_vhos: usize, stores: Vec<Vec<VhoId>>) -> Self {
        let routing = vec![VideoRouting::default(); stores.len()];
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
        let k = r.clients.binary_search(&j).ok()?;
        Some(r.x.dist(k)).filter(|d| !d.is_empty())
    }

    /// Every video's serving-distribution routing, in video order.
    pub fn routings(&self) -> &[VideoRouting] {
        &self.routing
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

    /// Rebuild a placement from persisted parts, validating every
    /// index against the declared shape so a corrupt snapshot cannot
    /// produce a placement that panics downstream.
    pub fn from_parts(
        n_vhos: usize,
        stores: Vec<Vec<VhoId>>,
        routing: Vec<VideoRouting>,
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
        for (m, r) in routing.iter().enumerate() {
            if r.clients.len() != r.x.n_clients() {
                return Err(format!(
                    "video {m}: routing clients and distributions differ"
                ));
            }
            if !r.clients.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("video {m}: routing clients unsorted"));
            }
            for (j, dist) in r.iter() {
                if !in_range(j) || !dist.iter().all(|&(i, x)| in_range(i) && x.is_finite()) {
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
        for (data, holders) in inst.blocks().iter().zip(&self.stores) {
            if !data.facility_obj_cost.is_empty() {
                for &h in holders {
                    total += data.facility_obj_cost[h.index()];
                }
            }
            for c in &data.clients {
                match self.serving_distribution(data.video, c.j) {
                    Some(d) => {
                        for &(i, frac) in d {
                            total += c.demand_gb * inst.cost(i, c.j) * frac;
                        }
                    }
                    None => {
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
    BlockSolution {
        y: vec![(home, 1.0)],
        x: Dists::from_lists(block.clients.iter().map(|_| [(home, 1.0)])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vod_json::wire::{enc_pair, enc_seq, Sink, Wire, WireError};

    type Dist = Vec<(VhoId, f64)>;

    fn ids(d: &[(u16, f64)]) -> Dist {
        d.iter().map(|&(i, v)| (VhoId::new(i), v)).collect()
    }

    fn block<D: AsRef<[(VhoId, f64)]>>(y: Dist, x: impl IntoIterator<Item = D>) -> BlockSolution {
        BlockSolution {
            y,
            x: Dists::from_lists(x),
        }
    }

    fn bs(y: &[(u16, f64)], x: Vec<Vec<(u16, f64)>>) -> BlockSolution {
        block(ids(y), x.iter().map(|d| ids(d)))
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
            let mut flat = block(y.clone(), &x);
            flat.step_toward(&block(hat_y.clone(), &hat_x), tau);
            step_nested(&mut y, &mut x, &hat_y, &hat_x, tau);
            prop_assert_eq!(bits(&flat.y), bits(&y));
            prop_assert_eq!(flat.x.n_clients(), x.len());
            for (c, want) in x.iter().enumerate() {
                prop_assert_eq!(bits(flat.x.dist(c)), bits(want), "client {}", c);
            }
            if tau > 0.0 {
                prop_assert_eq!(flat.x.entries.capacity(), flat.x.entries.len());
            }

            if !x.is_empty() {
                flat.x.set_dist(c, &new_dist);
                x[c] = new_dist;
                prop_assert_eq!(&flat, &block(y, &x));
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
        let mut flat = block(y.clone(), &x);
        flat.step_toward(&block(hat_y.clone(), &hat_x), 0.5);
        let (mut y, mut x) = (y, x);
        step_nested(&mut y, &mut x, &hat_y, &hat_x, 0.5);
        assert_eq!(flat.y.len(), 2, "re-cover inserted VHO 2: {:?}", flat.y);
        assert_eq!(bits(&flat.y), bits(&y));
        assert_eq!(bits(flat.x.dist(0)), bits(&x[0]));
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
            assert_eq!(empty.x.n_clients(), sol.assign.len());
            assert!(empty.x.iter().all(<[_]>::is_empty));
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
        let total: f64 = a.x.dist(0).iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // x <= y maintained.
        for dist in a.x.iter() {
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
        assert!((a.x.dist(0)[0].1 - 1.0).abs() < 1e-12);
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
        assert_eq!(b.x.dist(0), [(VhoId::new(0), 1.0)]);
        assert_eq!(b.x.dist(1), [(VhoId::new(2), 1.0)]);
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

    // ---- the nested-list placement, kept as the flat one's oracle ----

    type Nested = Vec<Vec<(VhoId, Dist)>>;

    /// The `Placement` routing [`VideoRouting`] replaced, one list per
    /// client: its `from_parts` checks, lookup, objective, wire form and
    /// the repair's prune-and-renormalise step, verbatim.
    struct NestedPlacement {
        n_vhos: usize,
        stores: Vec<Vec<VhoId>>,
        routing: Nested,
    }

    impl NestedPlacement {
        fn from_parts(
            n_vhos: usize,
            stores: Vec<Vec<VhoId>>,
            routing: Nested,
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
                if !holders.windows(2).all(|w| w[0] < w[1]) || !holders.iter().all(|&i| in_range(i))
                {
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

        fn serving_distribution(&self, m: VideoId, j: VhoId) -> Option<&[(VhoId, f64)]> {
            let r = &self.routing[m.index()];
            r.binary_search_by_key(&j, |&(c, _)| c)
                .ok()
                .map(|k| r[k].1.as_slice())
                .filter(|d| !d.is_empty())
        }

        fn objective_under(&self, inst: &MipInstance) -> f64 {
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

        /// Pass 4 of `repair_placement` against the repaired `stores`.
        fn prune(&mut self, stores: &[Vec<VhoId>]) {
            for (mi, clients) in self.routing.iter_mut().enumerate() {
                for (_, dist) in clients.iter_mut() {
                    dist.retain(|(h, _)| stores[mi].binary_search(h).is_ok());
                    let total: f64 = dist.iter().map(|&(_, x)| x).sum();
                    if total > 0.0 {
                        for e in dist.iter_mut() {
                            e.1 /= total;
                        }
                    } else {
                        dist.clear();
                    }
                }
            }
        }
    }

    impl Wire for NestedPlacement {
        fn emit<S: Sink>(&self, out: &mut S) {
            fn vho_enc<S: Sink>(i: &VhoId, out: &mut S) {
                i.index().emit(out);
            }
            fn dist_enc<S: Sink>(d: &[(VhoId, f64)], out: &mut S) {
                enc_seq(d, out, |(i, x), out| {
                    enc_pair(out, |out| vho_enc(i, out), |out| x.emit(out));
                });
            }
            out.begin_obj();
            out.key("n_vhos");
            self.n_vhos.emit(out);
            out.key("stores");
            enc_seq(&self.stores, out, |h, out| enc_seq(h, out, vho_enc));
            out.key("routing");
            enc_seq(&self.routing, out, |clients, out| {
                enc_seq(clients, out, |(j, dist), out| {
                    enc_pair(out, |out| vho_enc(j, out), |out| dist_enc(dist, out));
                });
            });
            out.end_obj();
        }

        fn read(_: &mut vod_json::reader::Reader<'_>) -> Result<Self, WireError> {
            Err(WireError::new("the oracle is write-only"))
        }
    }

    /// The flat routing of the same lists.
    fn flat(routing: &Nested) -> Vec<VideoRouting> {
        let video = |clients: &Vec<(VhoId, Dist)>| VideoRouting {
            clients: clients.iter().map(|&(j, _)| j).collect(),
            x: Dists::from_lists(clients.iter().map(|(_, d)| d)),
        };
        routing.iter().map(video).collect()
    }

    /// Every (client, distribution) of every video, weights as bits.
    type RoutingBits = Vec<Vec<(VhoId, Vec<(VhoId, u64)>)>>;

    fn routing_bits(p: &Placement) -> RoutingBits {
        let video = |r: &VideoRouting| r.iter().map(|(j, d)| (j, bits(d))).collect();
        p.routings().iter().map(video).collect()
    }

    fn nested_bits(routing: &Nested) -> RoutingBits {
        let video = |r: &Vec<(VhoId, Dist)>| r.iter().map(|(j, d)| (*j, bits(d))).collect();
        routing.iter().map(video).collect()
    }

    const ORACLE_VHOS: usize = 6;

    /// 8 videos on 6 VHOs, with the eq. (11) term on.
    fn oracle_instance() -> &'static MipInstance {
        static INST: std::sync::OnceLock<MipInstance> = std::sync::OnceLock::new();
        INST.get_or_init(|| {
            let net = vod_net::topologies::mesh_backbone(ORACLE_VHOS, 9, 4);
            let cfg = vod_trace::LibraryConfig::default_for(8, 7, 4);
            let catalog = vod_trace::synthesize_library(&cfg);
            let tc = vod_trace::TraceConfig::default_for(60.0, 7, 4);
            let trace = vod_trace::generate_trace(&catalog, &net, &tc);
            let windows = vod_trace::analysis::select_peak_windows(&trace, &catalog, 3600, 2);
            let demand = vod_trace::DemandInput::from_trace(&trace, &catalog, ORACLE_VHOS, windows);
            let cost = crate::instance::PlacementCost {
                weight: 0.5,
                previous: None,
                origin: VhoId::new(0),
            };
            let disk = crate::instance::DiskConfig::UniformRatio { ratio: 2.0 };
            MipInstance::new(net, catalog, demand, &disk, 1.0, 0.5, Some(&cost))
        })
    }

    /// One case of the flat-placement oracle: parts (malformed in one
    /// way when `defect > 0`), and a world delta for the repair.
    #[derive(Debug)]
    struct PlacementCase {
        n_vhos: usize,
        stores: Vec<Vec<VhoId>>,
        routing: Nested,
        defect: usize,
        dark: Vec<bool>,
        disks: Vec<f64>,
    }

    /// 0–8 videos on 6 VHOs, each stored at 1–3 of them and routing
    /// 0–6 of them, a third of the clients with an empty distribution,
    /// a third with one server and a third with two to four, weights
    /// anywhere in [0, 1). Half the cases carry one `from_parts`
    /// defect of the eight kinds below, when the parts have a place for
    /// it.
    struct PlacementCases;

    impl Strategy for PlacementCases {
        type Value = PlacementCase;

        fn generate(&self, rng: &mut proptest::TestRng) -> PlacementCase {
            fn below(rng: &mut proptest::TestRng, n: usize) -> usize {
                (0..n).generate(rng)
            }
            fn subset(rng: &mut proptest::TestRng, len: usize) -> Vec<VhoId> {
                let mut vhos: Vec<u16> = (0..ORACLE_VHOS as u16).collect();
                for k in 0..len {
                    let pick = k + below(rng, ORACLE_VHOS - k);
                    vhos.swap(k, pick);
                }
                let mut picked: Vec<VhoId> = vhos[..len].iter().map(|&i| VhoId::new(i)).collect();
                picked.sort_unstable();
                picked
            }
            let n_videos = below(rng, 9);
            let mut stores: Vec<Vec<VhoId>> = (0..n_videos)
                .map(|_| {
                    let len = 1 + below(rng, 3);
                    subset(rng, len)
                })
                .collect();
            let mut routing: Nested = (0..n_videos)
                .map(|_| {
                    let len = below(rng, ORACLE_VHOS + 1);
                    let clients = subset(rng, len);
                    clients
                        .into_iter()
                        .map(|j| {
                            let len = [0, 1, 2 + below(rng, 3)][below(rng, 3)];
                            let servers = subset(rng, len);
                            (
                                j,
                                servers.into_iter().map(|i| (i, rng.unit_f64())).collect(),
                            )
                        })
                        .collect()
                })
                .collect();
            let defect = if below(rng, 2) == 0 {
                0
            } else {
                1 + below(rng, 8)
            };
            let out_of_range = VhoId::new(ORACLE_VHOS as u16 + below(rng, 3) as u16);
            let video = below(rng, n_videos.max(1));
            let client = routing.get(video).map(|r| below(rng, r.len().max(1)));
            match defect {
                1 if below(rng, 2) == 0 => {
                    routing.pop();
                }
                1 => routing.push(Vec::new()),
                2 if n_videos > 0 => stores[video].clear(),
                3 if n_videos > 0 => {
                    let first = stores[video][0];
                    stores[video].push(first);
                }
                4 if n_videos > 0 => stores[video].push(out_of_range),
                5 if routing.get(video).is_some_and(|r| !r.is_empty()) => {
                    let r = &mut routing[video];
                    let first = r[0].clone();
                    r.push(first);
                }
                6 if routing.get(video).is_some_and(|r| !r.is_empty()) => {
                    let r = &mut routing[video];
                    let last = r.len() - 1;
                    r[last].0 = out_of_range;
                }
                7 | 8 => {
                    let dist = client
                        .and_then(|c| routing[video].get_mut(c))
                        .map(|(_, d)| d);
                    if let Some(d) = dist.filter(|d| !d.is_empty()) {
                        if defect == 7 {
                            d[0].0 = out_of_range;
                        } else {
                            d[0].1 = [f64::NAN, f64::INFINITY][below(rng, 2)];
                        }
                    }
                }
                _ => {}
            }
            let dark = (0..ORACLE_VHOS).map(|_| below(rng, 4) == 0).collect();
            let disks = (0..ORACLE_VHOS)
                .map(|_| 0.5 + 6.0 * rng.unit_f64())
                .collect();
            PlacementCase {
                n_vhos: ORACLE_VHOS,
                stores,
                routing,
                defect,
                dark,
                disks,
            }
        }
    }

    #[test]
    fn from_blocks_moves_the_routing_into_the_blocks_buffer() {
        // Same size and alignment, so the collect reuses the allocation
        // instead of making a new 72-byte-per-video one at the end of
        // rounding (that one raised `ladder-5k`'s peak by ~0.35 MB).
        let inst = oracle_instance();
        let blocks: Vec<_> = inst
            .blocks()
            .iter()
            .map(|b| initial_block(b, ORACLE_VHOS))
            .collect();
        let (buffer, dists) = (blocks.as_ptr() as usize, blocks[1].x.clone());
        let p = Placement::from_blocks(inst, blocks);
        assert_eq!(p.routing.as_ptr() as usize, buffer);
        assert_eq!(p.routing[1].x, dists);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn flat_placement_matches_the_nested_lists(case in PlacementCases) {
            let PlacementCase { n_vhos, stores, routing, defect, dark, disks } = case;
            let got = Placement::from_parts(n_vhos, stores.clone(), flat(&routing));
            let want = NestedPlacement::from_parts(n_vhos, stores, routing);
            let (got, mut want) = match (got, want) {
                (Ok(got), Ok(want)) => (got, want),
                (got, want) => {
                    prop_assert_eq!(got.err(), want.err(), "defect {}", defect);
                    return Ok(());
                }
            };
            for m in 0..got.n_videos() {
                for j in 0..ORACLE_VHOS {
                    let (m, j) = (VideoId::from_index(m), VhoId::from_index(j));
                    let (a, b) = (got.serving_distribution(m, j), want.serving_distribution(m, j));
                    prop_assert_eq!(a.map(bits), b.map(bits), "video {} at {}", m, j);
                }
            }
            let inst = oracle_instance();
            prop_assert_eq!(got.objective_under(inst).to_bits(), want.objective_under(inst).to_bits());
            let text = got.text();
            prop_assert_eq!(&text, &want.text());
            let back = Placement::from_text(text.as_bytes()).map_err(|e| e.to_string());
            prop_assert_eq!(back.map(|p| p.text()), Ok(text));

            let disks: Vec<Gigabytes> = disks.into_iter().map(Gigabytes::new).collect();
            let plan = crate::repair::repair_placement(&got, &inst.catalog, &dark, &disks);
            want.prune(plan.placement.holder_lists());
            prop_assert_eq!(routing_bits(&plan.placement), nested_bits(&want.routing));
        }
    }
}
