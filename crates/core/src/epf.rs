//! The exponential-potential-function (EPF) decomposition solver —
//! Algorithm 1 of the paper's Appendix.
//!
//! The LP relaxation of the placement MIP is decomposed into one
//! uncapacitated-facility-location block per video; the coupling disk
//! and link constraints are replaced by the exponential potential of
//! [`crate::potential`]. Each *pass* visits every block in a fresh
//! random order (the shuffling alone speeds convergence by a large
//! factor, per the paper), in chunks: a chunk snapshots the current
//! Lagrange multipliers, solves its blocks' UFLs **in parallel**
//! (the [`crate::pool`] fork-join), then applies the resulting directions
//! sequentially, each with an exact 1-D line search against the live
//! potential. After each pass the scale `δ` shrinks to the current
//! max infeasibility, the smoothed duals are updated, and a Lagrangian
//! lower-bound sweep (per-block dual ascent) both certifies quality and
//! raises the objective target `B` of `FEAS(B)`; the pool's idle workers
//! price that sweep while the next pass runs.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::block::UflProblem;
use crate::checkpoint::SolverCheckpoint;
use crate::instance::{MipInstance, VideoBlock};
use crate::kernel::{self, Kernel};
use crate::penalty::PenaltyArena;
use crate::pool::WorkerPool;
use crate::potential::{Coupling, Duals, RowLayout};
use crate::solution::{initial_block, BlockBuf, BlockSolution, FractionalSolution, Placement};
use rand::seq::SliceRandom;
use std::sync::Arc;
use vod_model::rng::derive_rng;

/// Blocks per chunk: one dual snapshot and one parallel batch each.
pub(crate) const CHUNK_SIZE: usize = 32;
/// Dual smoothing weight ρ of Algorithm 1 step 14.
pub(crate) const RHO: f64 = 0.5;

/// Solver parameters (Algorithm 1 line 1).
#[derive(Debug, Clone)]
pub struct EpfConfig {
    /// Approximation tolerance ε: the solver stops once the solution
    /// violates constraints by at most ε and is within ε of the lower
    /// bound (the paper uses 1 %).
    pub epsilon: f64,
    /// Exponent factor γ ≈ 1.
    pub gamma: f64,
    /// Hard cap on passes.
    pub max_passes: usize,
    /// Compute threads for chunk optimization, the calling thread
    /// included; 0 = all available cores.
    pub threads: usize,
    /// Pure feasibility mode: ignore the objective, stop as soon as
    /// `δ_c(z) ≤ ε` (used by the feasibility-region searches).
    pub feasibility_only: bool,
    /// Ignored by the solver: the final lower-bound polish is budgeted
    /// by `exact_cert` alone. Kept because the config fingerprint
    /// still hashes it and the benchmark harness still sets it (until
    /// ROADMAP 6-A (vii) deletes it).
    pub polish_iters: usize,
    pub seed: u64,
    /// Deterministic budget in *global passes*: the solver stops at the
    /// pass boundary once this many passes have completed and returns
    /// its best incumbent with `converged = false` and honest gap
    /// statistics — it never aborts. The cutoff lands on the same pass
    /// on every machine and survives checkpoint/resume (the pass
    /// counter is checkpointed), so budgeted runs stay
    /// byte-reproducible. The budget covers passes only: with
    /// `exact_cert > 0` the final lower-bound polish runs after the
    /// last one, bounded by `exact_cert` and its stall stop
    /// ([`EpfStats::polish_sweeps`] reports what it took).
    pub step_limit: Option<u64>,
    /// Lane backend for the hot penalty/UFL kernels
    /// ([`crate::kernel`]). Every backend is bitwise-identical per
    /// element, so this is a pure speed knob — but it is still part of
    /// the checkpoint fingerprint, so resumes refuse a mismatch rather
    /// than silently mixing code paths.
    pub kernel: Kernel,
    /// Certified-gap early stop: the solver reports `converged = true`
    /// (and stops bisecting) once `ub ≤ (1 + gap_limit)·lb`. `None`
    /// uses `epsilon` for both the per-run feasibility tolerance and
    /// the certificate — the historical behavior. Setting it looser
    /// than `epsilon` lets tight runs stop at a coarser certificate;
    /// it never loosens per-run feasibility.
    pub gap_limit: Option<f64>,
    /// Step budget of the final lower-bound polish, which runs only
    /// when this is above 0: one sweep of exact per-block LPs
    /// ([`crate::direct`]) at the smoothed duals the passes ended on,
    /// then up to this many ascent steps that each re-solve every
    /// block's LP and step along the LP minimizers' usage. It is an
    /// upper limit: the polish ends after 10 consecutive steps without
    /// a new best (measured pauses are 3 at most), and it sits outside
    /// the pass budget. Any value above 0 also certifies each failed
    /// `FEAS(B)` run with one such sweep. 0 disables both (the
    /// dual-ascent bounds of the passes only). A sweep costs
    /// one block LP per video — ≈ 0.1 ms each at 23 VHOs, tens of dual
    /// ascents — so the stage is priced in sweeps × blocks: measured on the
    /// 2-core reference box, 16 iterations add ≈ 1 s to a 2 s solve at
    /// 1 000 videos / 23 VHOs and 44 s to a 15 s solve at 5 000 / 49,
    /// where they take the certified gap from 51 % to 14 %
    /// (EXPERIMENTS.md "Large-library scale ladder").
    pub exact_cert: usize,
}

impl Default for EpfConfig {
    fn default() -> Self {
        Self {
            epsilon: 0.01,
            gamma: 1.0,
            max_passes: 1500,
            threads: 0,
            feasibility_only: false,
            polish_iters: 120,
            seed: 0,
            step_limit: None,
            kernel: Kernel::default(),
            gap_limit: None,
            exact_cert: 0,
        }
    }
}

impl EpfConfig {
    /// A feasibility-only variant of this configuration.
    pub fn feasibility(&self) -> Self {
        Self {
            feasibility_only: true,
            ..self.clone()
        }
    }

    /// This configuration with a deterministic per-cycle pass budget:
    /// the service loop re-solves every cycle under a bounded number
    /// of global passes so one hard cycle can never starve the next.
    /// An existing (tighter) `step_limit` is kept — the budget only
    /// ever shrinks the work, and in passes (not wall time) so the
    /// cutoff lands on the same pass on every machine. The final
    /// lower-bound polish is *not* inside this budget: with
    /// `exact_cert > 0` a budgeted solve still pays up to
    /// `1 + exact_cert` sweeps of exact block LPs after its last pass.
    pub fn budgeted(&self, steps: u64) -> Self {
        Self {
            step_limit: Some(self.step_limit.map_or(steps, |s| s.min(steps))),
            ..self.clone()
        }
    }

    /// Compute threads for a solve over `n_blocks` video blocks, the
    /// calling thread included (it claims items of every dispatch
    /// itself, so `N` spawns `N − 1` workers): the configured (or
    /// available) count, capped at the block count — a chunk never has
    /// an item for a thread beyond that.
    pub fn effective_threads(&self, n_blocks: usize) -> usize {
        let base = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        base.min(n_blocks.max(1))
    }
}

/// Solver statistics (also used for the Table III reproduction).
#[derive(Debug, Clone)]
pub struct EpfStats {
    pub passes: usize,
    pub block_steps: u64,
    /// Sweeps of exact block LPs in the final lower-bound polish, the
    /// seed evaluation included (0 when it did not run). They sit outside
    /// `passes` and `block_steps`; like those, the count is the same
    /// on every machine, at every thread count and across a resume.
    pub polish_sweeps: u64,
    pub lower_bound: f64,
    pub objective: f64,
    pub max_violation: f64,
    /// True iff the ε-criteria were met before `max_passes`.
    pub converged: bool,
    /// Approximate peak working-set bytes of solver state (block
    /// solutions + instance block data + potential rows + the pool's
    /// arenas and scratch; see `approx_bytes`).
    pub approx_bytes: usize,
}

// ---------------------------------------------------------------------------
// Shared engine pieces (also used by the rounding pass).
// ---------------------------------------------------------------------------

/// Row layout of an instance's coupling constraints.
pub(crate) fn layout_of(inst: &MipInstance) -> RowLayout {
    RowLayout {
        n_vhos: inst.n_vhos(),
        n_links: inst.network.num_links(),
        n_windows: inst.n_windows(),
    }
}

/// Capacity vector aligned with [`layout_of`]: disk GB then link Mb/s
/// per window.
pub(crate) fn caps_of(inst: &MipInstance, layout: &RowLayout) -> Vec<f64> {
    let mut caps = Vec::with_capacity(layout.n_rows());
    caps.extend(inst.disks.iter().map(|d| d.value()));
    caps.extend(
        (0..layout.n_windows)
            .flat_map(|_t| inst.network.links().iter().map(|l| l.capacity.value())),
    );
    caps
}

/// Recompute coupling usage and objective from scratch (drift washout).
/// Serial entry point — the solver's own call sites go through
/// [`crate::shard::state`], which shards the same loop over the worker
/// pool with a thread-count-invariant summation tree.
pub(crate) fn compute_state(
    inst: &MipInstance,
    layout: &RowLayout,
    blocks: &[BlockSolution],
) -> (Vec<f64>, f64) {
    crate::shard::state(inst, layout, blocks, 1)
}

/// Sparse merge iterator over two sorted `(VhoId, f64)` lists yielding
/// `(i, old, new)` for every id present in either.
fn merge_sparse<'a>(
    a: &'a [(vod_model::VhoId, f64)],
    b: &'a [(vod_model::VhoId, f64)],
) -> impl Iterator<Item = (vod_model::VhoId, f64, f64)> + 'a {
    let mut ia = 0;
    let mut ib = 0;
    std::iter::from_fn(move || match (a.get(ia), b.get(ib)) {
        (Some(&(va, xa)), Some(&(vb, xb))) => {
            if va == vb {
                ia += 1;
                ib += 1;
                Some((va, xa, xb))
            } else if va < vb {
                ia += 1;
                Some((va, xa, 0.0))
            } else {
                ib += 1;
                Some((vb, 0.0, xb))
            }
        }
        (Some(&(va, xa)), None) => {
            ia += 1;
            Some((va, xa, 0.0))
        }
        (None, Some(&(vb, xb))) => {
            ib += 1;
            Some((vb, 0.0, xb))
        }
        (None, None) => None,
    })
}

/// Caller-owned row accumulator for [`block_delta`]: a running sum per
/// coupling row, dense, plus the rows touched so far, sorted once when
/// the delta is complete. Reused across blocks, it allocates only when
/// the row count grows.
#[derive(Debug, Default)]
pub(crate) struct RowAcc {
    /// Running sum per row, `+0.0` between deltas: a row's first addend
    /// `val` lands on `0.0 + val`, the seed of the sorted map this
    /// replaced (`or_insert(0.0) += val`), which differs from `val` at
    /// `val == -0.0`.
    sums: Vec<f64>,
    /// Whether a row has an addend in the current delta.
    hit: Vec<bool>,
    /// The touched rows in `touched[..len]`; one slot longer than the
    /// row count, so that a bump writes its row unconditionally.
    touched: Vec<usize>,
    len: usize,
    /// The finished delta: `(row, sum)`, rows ascending.
    rows: Vec<(usize, f64)>,
}

impl RowAcc {
    /// Bytes one accumulator holds at `n_rows` coupling rows: the dense
    /// sums, flags and touched slots.
    pub(crate) fn approx_bytes(n_rows: usize) -> usize {
        n_rows
            * (std::mem::size_of::<f64>()
                + std::mem::size_of::<bool>()
                + std::mem::size_of::<usize>())
    }

    /// The last finished delta, rows ascending.
    pub(crate) fn rows(&self) -> &[(usize, f64)] {
        &self.rows
    }

    fn begin(&mut self, n_rows: usize) {
        if self.sums.len() < n_rows {
            self.sums.resize(n_rows, 0.0);
            self.hit.resize(n_rows, false);
            self.touched.resize(n_rows + 1, 0);
        }
        self.len = 0;
        self.rows.clear();
    }

    /// Branch-free: the row is always written to the next touched slot,
    /// and the slot is kept only on the row's first addend.
    #[inline]
    fn bump(&mut self, row: usize, val: f64) {
        self.sums[row] += val;
        self.touched[self.len] = row;
        self.len += usize::from(!self.hit[row]);
        self.hit[row] = true;
    }

    /// Sort the touched rows, emit them, and leave their sums and flags
    /// as `begin` expects them.
    fn finish(&mut self) {
        let touched = &mut self.touched[..self.len];
        touched.sort_unstable();
        let (sums, hit) = (&mut self.sums, &mut self.hit);
        self.rows.extend(touched.iter().map(|&row| {
            hit[row] = false;
            (row, std::mem::replace(&mut sums[row], 0.0))
        }));
    }
}

/// Full-step resource/objective delta of replacing `cur` by `hat` in
/// block `data` (scaled by τ at application time): leaves the touched
/// coupling rows in `acc` ([`RowAcc::rows`], ascending) and returns the
/// objective delta.
///
/// Exactness premise: each row's sum takes its addends in scan order
/// (`y` first, then clients in order, ids ascending, windows, path
/// links) from a `0.0 + first` seed, and a row with any addend is
/// listed even when its sum is 0 — so the rows, their order and every
/// bit match the sorted-map accumulator this replaces.
pub(crate) fn block_delta(
    inst: &MipInstance,
    layout: &RowLayout,
    data: &VideoBlock,
    cur: &BlockSolution,
    hat: &BlockSolution,
    acc: &mut RowAcc,
) -> f64 {
    acc.begin(layout.n_rows());
    let mut dobj = 0.0;
    for (i, old, new) in merge_sparse(&cur.y, &hat.y) {
        let d = new - old;
        if d != 0.0 {
            acc.bump(layout.disk_row(i), data.size_gb * d);
            if let Some(&fo) = data.facility_obj_cost.get(i.index()) {
                dobj += fo * d;
            }
        }
    }
    for (c_idx, client) in data.clients.iter().enumerate() {
        for (i, old, new) in merge_sparse(cur.x.dist(c_idx), hat.x.dist(c_idx)) {
            let d = new - old;
            if d == 0.0 {
                continue;
            }
            dobj += client.demand_gb * inst.cost(i, client.j) * d;
            for (t, &rate) in client.rate.iter().enumerate() {
                if rate != 0.0 {
                    for &l in inst.paths.path(i, client.j) {
                        acc.bump(layout.link_row(l, t), rate * d);
                    }
                }
            }
        }
    }
    acc.finish();
    dobj
}

/// Build the Lagrangized UFL for one block, in the *scaled* form
/// `π_0·c + π·A` (same argmin as `c(π) = c + π·A/π_0`, but finite in
/// feasibility mode where `π_0 = 0`), into a reusable buffer.
///
/// `duals` prices the objective and disk rows; the link-row part comes
/// from `arena` ([`crate::penalty`]), which may deliberately reflect a
/// *different* (earlier) snapshot — the rounding pass builds its UFLs
/// against post-removal disk duals but pre-removal link penalties.
pub(crate) fn build_ufl_into(
    inst: &MipInstance,
    layout: &RowLayout,
    data: &VideoBlock,
    duals: &Duals,
    arena: &PenaltyArena,
    out: &mut UflProblem,
    kernel: Kernel,
) {
    out.reset();
    out.facility_cost.extend(inst.network.vho_ids().map(|iv| {
        let fo = data
            .facility_obj_cost
            .get(iv.index())
            .copied()
            .unwrap_or(0.0);
        let disk_dual = duals.rows[layout.disk_row(iv)];
        duals.obj * fo + disk_dual * data.size_gb
    }));
    for client in &data.clients {
        let j = client.j.index();
        match kernel {
            Kernel::Scalar => out.push_service_row(inst.network.vho_ids().map(|iv| {
                let mut cost = duals.obj * client.demand_gb * inst.cost(iv, client.j);
                for (t, &rate) in client.rate.iter().enumerate() {
                    if rate != 0.0 {
                        cost += rate * arena.at(t, iv.index(), j);
                    }
                }
                cost
            })),
            // Lane backends stream contiguous client-major rows: the
            // instance's cost row scaled elementwise (`scale · c` is the
            // scalar closure's left-to-right product), then one axpy per
            // active window over the arena (t-ascending per element —
            // the exact addend order of the scalar closure above).
            _ => {
                let row = out.push_service_row_zeroed();
                let scale = duals.obj * client.demand_gb;
                for (slot, &c) in row.iter_mut().zip(inst.cost_row(client.j)) {
                    *slot = scale * c;
                }
                for (t, &rate) in client.rate.iter().enumerate() {
                    if rate != 0.0 {
                        kernel::axpy(kernel, row, rate, arena.client_row(t, j));
                    }
                }
            }
        }
    }
}

/// Corrective direction: keep the block's `y` as-is and re-route every
/// client's `x` optimally within it — each client greedily fills the
/// cheapest facilities (w.r.t. the current Lagrangized service costs)
/// up to their `y_i` capacities. This is the exact block optimum over
/// `x` for fixed `y`; adding it as a second line-searched direction
/// turns the slow vertex-only Frank-Wolfe into a (partially)
/// corrective variant and speeds up objective convergence markedly.
/// Prices come from the arena's own dual snapshot (`arena.duals()`);
/// `costs` and `out` are caller-owned scratch reused across blocks.
///
/// The fill usually stops after one or two facilities, so it selects
/// them one at a time — the least remaining `(cost, id)`, a total order
/// over unique ids — instead of sorting the whole list: the picks come
/// in the sorted order, and the first is the global argmin.
pub(crate) fn greedy_x_given_y<'a>(
    inst: &MipInstance,
    data: &VideoBlock,
    y: &[(vod_model::VhoId, f64)],
    arena: &PenaltyArena,
    costs: &mut Vec<(f64, vod_model::VhoId, f64)>,
    out: &'a mut BlockBuf,
) -> &'a BlockSolution {
    let duals = arena.duals();
    out.fill(y, data.clients.len(), |c, dist| {
        let client = &data.clients[c];
        let j = client.j.index();
        let c_row = inst.cost_row(client.j);
        costs.clear();
        costs.extend(y.iter().filter(|&&(_, yv)| yv > 0.0).map(|&(i, yv)| {
            let mut cost = duals.obj * client.demand_gb * c_row[i.index()];
            for (t, &rate) in client.rate.iter().enumerate() {
                if rate != 0.0 {
                    cost += rate * arena.at(t, i.index(), j);
                }
            }
            (cost, i, yv)
        }));
        let mut remaining = 1.0f64;
        for k in 0..costs.len() {
            if remaining <= 0.0 {
                break;
            }
            select_least(&mut costs[k..]);
            let (_, i, yv) = costs[k];
            let take = yv.min(remaining);
            if take > 0.0 {
                dist.push((i, take));
                remaining -= take;
            }
        }
        // The y-mass can dip fractionally below 1 from pruning
        // noise; dump the residue on the cheapest facility.
        if remaining > 1e-12 {
            if let Some(&(_, fi, _)) = costs.first() {
                if let Some(e) = dist.iter_mut().find(|e| e.0 == fi) {
                    e.1 += remaining;
                } else {
                    dist.push((fi, remaining));
                }
            }
        }
        dist.sort_by_key(|&(i, _)| i);
    })
}

/// Move the least `(cost, id)` entry of `costs` to its front.
fn select_least(costs: &mut [(f64, vod_model::VhoId, f64)]) {
    let mut best = 0;
    for (k, e) in costs.iter().enumerate().skip(1) {
        let b = &costs[best];
        if e.0.total_cmp(&b.0).then(e.1.cmp(&b.1)).is_lt() {
            best = k;
        }
    }
    costs.swap(0, best);
}

/// Start the Lagrangian lower bound `LR(λ̄)` with the smoothed duals
/// (Appendix, eq. (13)): per-block bounds in scaled units, then
/// `LR = (Σ_k scaledLB_k − Σ_rows π̄_r·b_r) / π̄_0`. `None` when
/// `π̄_0 = 0` (phase 1 has no objective row).
///
/// Block bounds are dual ascent, or with `exact`
/// `max(dual ascent, exact block LP)` — both valid per-block bounds, so
/// the mix is valid. The exact form is the certificate that converts a
/// failed `FEAS(B)` run's *uncertified* `lo` lift into a certified
/// lower bound: the run's own terminal duals typically prove a bound
/// within a fraction of a percent of the infeasible target `B`, which
/// is what lets the bisection close a ≤2 % certified gap instead of
/// reporting `converged: false` with a loose heuristic bound.
///
/// The block sweep runs on the pool's own bound arena, retargeted at
/// `smoothed` (skipped outright when they are version-identical to its
/// snapshot), and in the background: the pool's idle workers price it
/// while the caller goes on, and [`PendingBound::finish`] collects it.
/// The dispatch arena is never touched.
fn lagrangian_bound(
    layout: &RowLayout,
    coupling: &Coupling,
    smoothed: &Duals,
    pool: &WorkerPool<'_>,
    exact: bool,
) -> Option<PendingBound> {
    if smoothed.obj <= 0.0 {
        return None;
    }
    pool.start_bounds(smoothed, exact);
    let penalty_mass: f64 = (0..layout.n_rows())
        .map(|r| smoothed.rows[r] * coupling.cap(r))
        .sum();
    Some(PendingBound {
        penalty_mass,
        obj: smoothed.obj,
    })
}

/// A [`lagrangian_bound`] whose block sweep is in flight on the pool:
/// what turns the sweep's block sum into `LR`.
struct PendingBound {
    penalty_mass: f64,
    obj: f64,
}

impl PendingBound {
    /// Wait for the sweep and return `LR`.
    fn finish(self, pool: &WorkerPool<'_>) -> f64 {
        (pool.finish_bounds() - self.penalty_mass) / self.obj
    }
}

/// Fold the bound in flight, if any, into `lb_run` — the `max` it
/// would have taken at once had it been priced inline. Bounds fold in
/// the order they were started, so every folded value keeps its bits.
fn fold_bound(lb_run: &mut f64, in_flight: &mut Option<PendingBound>, pool: &WorkerPool<'_>) {
    if let Some(lr) = in_flight.take().map(|b| b.finish(pool)) {
        if lr > *lb_run {
            *lb_run = lr;
        }
    }
}

/// One evaluation of the Lagrangian dual at capacity-normalized
/// multipliers `ν` (`ν_r = μ_r·b_r`): retargets the dispatch arena,
/// runs one parallel sweep of exact block LPs, and returns
/// `g(ν) = Σ_k bound_k − Σ_r ν_r` while filling `rel` with the ν-space
/// subgradient (the dimensionless relative violation of each row under
/// the LP minimizers) — a true subgradient of the Lagrangian dual.
fn polish_eval(
    coupling: &Coupling,
    pool: &WorkerPool<'_>,
    idx_all: &[usize],
    nu: &[f64],
    duals: &mut Duals,
    rel: &mut [f64],
) -> f64 {
    for (r, d) in duals.rows.iter_mut().enumerate() {
        *d = nu[r] / coupling.cap(r);
    }
    duals.bump_version();
    pool.update_penalty(duals);
    let sweep = pool.polish_sweep(idx_all);
    rel.fill(-1.0); // gradient in ν-space
    for &(row, u) in &sweep.usage {
        rel[row] += u / coupling.cap(row);
    }
    sweep.bounds.iter().sum::<f64>() - nu.iter().sum::<f64>()
}

/// Consecutive steps without a new best after which [`polish_bound`]
/// ends. The 16-step ascents of the quality rows improve on almost
/// every sweep and pause for 3 at most (EXPERIMENTS.md "Where the
/// polish's sweeps went"); 10 clears that pause with room.
const POLISH_STALL: usize = 10;

/// Final lower-bound polish: subgradient ascent on the Lagrangian dual
/// `g(μ) = Σ_k min_{z∈F^k} (c + μA)z − μ·b` over `μ ≥ 0`, seeded with
/// the smoothed duals the EPF loop ended on. Every evaluation is one
/// sweep of exact block LPs ([`crate::direct`]), and every step follows
/// the LP minimizers' usage. Returns the best value seen and the number
/// of sweeps it took: the seed evaluation and up to `cfg.exact_cert`
/// steps.
///
/// The ascent works in *capacity-normalized* coordinates `ν_r = μ_r·b_r`
/// with exponentiated-gradient steps (multiplicative updates adapt
/// price magnitudes geometrically, which matters because the EPF seed
/// can be off by orders of magnitude). The iterate wanders with the
/// diminishing step `θ_k = θ₀/√k` — the step is never shrunk for any
/// other reason — and the best value seen is kept; every iterate's
/// value is a valid global bound, so the result can never fall below
/// the seed's own evaluation. One leash: an iterate that falls under
/// 85 % of the best value restarts the wander from the best point.
///
/// **Stall stop.** The ascent ends early once [`POLISH_STALL`]
/// consecutive steps have failed to raise the best value (the count
/// restarts on each improvement). The caller takes `lb.max(·)` over a
/// valid bound either way.
fn polish_bound(
    layout: &RowLayout,
    coupling: &Coupling,
    start: &Duals,
    cfg: &EpfConfig,
    pool: &WorkerPool<'_>,
    idx_all: &[usize],
    hooks: &mut Hooks<'_>,
) -> (f64, u64) {
    if start.obj <= 0.0 {
        return (f64::NEG_INFINITY, 0);
    }
    let n_rows = layout.n_rows();
    // Normalized multipliers ν_r = (π_r/π_0)·b_r.
    let mut nu: Vec<f64> = (0..n_rows)
        .map(|r| (start.rows[r] / start.obj) * coupling.cap(r))
        .collect();
    // The trial duals (rows mutated in place, version bumped so the
    // arena never skips the retarget) and the ν-space gradient.
    let mut duals = Duals::new(vec![0.0; n_rows], 1.0);
    let mut rel = vec![-1.0f64; n_rows];
    let mut sweeps = 0u64;
    let mut eval = |nu: &[f64], rel: &mut [f64]| {
        sweeps += 1;
        let value = polish_eval(coupling, pool, idx_all, nu, &mut duals, rel);
        hooks.emit(|| SolveEvent::Polish { value });
        value
    };

    // Exact block LPs on *every* block: on hard instances the dual-ascent
    // bounds can undershoot the true block minima by tens of percent,
    // which buries any dual progress in evaluation noise — no calibrated
    // subset survives that, so the wander pays for the full sweep.
    let mut best = eval(&nu, &mut rel);
    let mut best_nu = nu.clone();
    let mut best_rel = rel.clone();

    // Non-monotone diminishing-step subgradient ascent. The dual is
    // concave but kinked: at a kink the subgradient direction can
    // *decrease* g, so a monotone line-search style loop just shrinks
    // its step to nothing at the seed. The classic scheme — let the
    // iterate wander with θ_k = θ₀/√k and keep the best value seen
    // (every iterate is a valid bound) — climbs through the kinks
    // instead. One leash only: a catastrophic drop (>15 % of best)
    // restarts the wander from the best point.
    let theta0 = 0.05f64;
    let mut stalled = 0;
    for it in 0..cfg.exact_cert {
        if stalled == POLISH_STALL {
            break;
        }
        // Exponentiated gradient with a small additive floor so zero
        // rows can revive.
        let theta = theta0 / ((it + 1) as f64).sqrt();
        let floor = nu.iter().cloned().fold(0.0f64, f64::max) * 1e-9 + 1e-15;
        for (v, &g) in nu.iter_mut().zip(&rel) {
            let x = g.clamp(-1.0, 1.0);
            *v = (*v + floor) * (theta * x).exp();
        }
        let g = eval(&nu, &mut rel);
        if g > best {
            best = g;
            best_nu.copy_from_slice(&nu);
            best_rel.copy_from_slice(&rel);
            stalled = 0;
        } else {
            stalled += 1;
            if g < best * 0.85 {
                nu.copy_from_slice(&best_nu);
                rel.copy_from_slice(&best_rel);
            }
        }
    }
    (best, sweeps)
}

/// Approximate solver working-set bytes (reported in Table III):
/// block solutions + instance block data + potential rows + the pool's
/// two flat penalty arenas (dispatch and bound) and its per-block bound
/// values + per-thread UFL build/search scratch + `accumulators`
/// [`RowAcc`]s.
fn approx_bytes(
    inst: &MipInstance,
    blocks: &[BlockSolution],
    layout: &RowLayout,
    arena_bytes: usize,
    threads: usize,
    accumulators: usize,
) -> usize {
    let sol: usize = blocks.iter().map(BlockSolution::approx_bytes).sum();
    let data: usize = inst
        .blocks()
        .iter()
        .map(|d| {
            d.clients.len()
                * (std::mem::size_of::<crate::instance::BlockClient>()
                    + d.clients.first().map_or(0, |c| c.rate.len()) * 8)
                + d.facility_obj_cost.len() * 8
        })
        .sum();
    let v = layout.n_vhos;
    let max_clients = inst
        .blocks()
        .iter()
        .map(|d| d.clients.len())
        .max()
        .unwrap_or(0);
    // One reusable flat UFL (facility row + service matrix, column
    // sums + row minima) and solver scratch per compute thread (the
    // caller's included in `threads`).
    let per_scratch = (max_clients * v + v) * 8
        + (v + max_clients) * 8
        + crate::block::UflScratch::approx_bytes(v, max_clients);
    sol + data
        + layout.n_rows() * 16
        + arena_bytes
        + threads * per_scratch
        + accumulators * RowAcc::approx_bytes(layout.n_rows())
}

/// Loop state of one fixed-target FEAS run — the control-flow half of
/// the checkpointable solver state (the numeric half lives in the
/// coupling, the smoothed duals, and the block vectors; see
/// [`crate::checkpoint`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RunState {
    /// Passes completed within the current run.
    pub(crate) local_pass: usize,
    /// Pass budget of the current run.
    pub(crate) budget: usize,
    /// `δ(z)` at the last stall-window boundary.
    pub(crate) snap_delta: f64,
    /// Whether to sample the Lagrangian bound (phase 2 only — phase 1
    /// has no objective row, so `LR` needs `π_0 > 0`).
    pub(crate) track_lb: bool,
    /// Best bound seen within this run.
    pub(crate) lb_run: f64,
}

/// Periodic checkpoint emission: every `every` completed global passes
/// the solver hands a [`SolverCheckpoint`] to `sink`. Emission happens
/// at *pass boundaries* only — mid-chunk state is not serializable —
/// and only while a FEAS run is in flight; the inter-run transition
/// logic is a pure function of the checkpointed state and replays
/// identically on resume. A checkpoint shares the solver's iterate
/// rather than copying it: a sink that drops it before the next pass
/// costs nothing, one that keeps it costs the solve one copy there.
pub struct CheckpointSpec<'a> {
    /// Checkpoint cadence in global passes (0 disables emission).
    pub every: u64,
    /// Receiver for each captured checkpoint (typically: serialize and
    /// write atomically via `vod_json::snapshot`).
    pub sink: &'a mut dyn FnMut(SolverCheckpoint),
}

impl std::fmt::Debug for CheckpointSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointSpec")
            .field("every", &self.every)
            .field("sink", &"<fn>")
            .finish()
    }
}

/// Where a solve starts: a mid-solve checkpoint to resume, a previous
/// placement to warm-start from, or neither (cold).
/// [`crate::solver::solve`] states which one wins.
#[derive(Debug, Clone, Copy, Default)]
pub struct Start<'a> {
    pub prior: Option<&'a SolverCheckpoint>,
    pub warm: Option<&'a Placement>,
}

/// What a solve hands out while it runs: checkpoints and its
/// [`SolveEvent`]s, in order. Neither feeds back into the solve.
#[derive(Default)]
pub struct Hooks<'a> {
    pub checkpoint: Option<CheckpointSpec<'a>>,
    pub observe: Option<&'a mut dyn FnMut(&SolveEvent)>,
}

impl Hooks<'_> {
    /// Hand the observer the event `make` builds (built only for one).
    fn emit(&mut self, make: impl FnOnce() -> SolveEvent) {
        if let Some(observe) = self.observe.as_mut() {
            observe(&make());
        }
    }
}

impl std::fmt::Debug for Hooks<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hooks")
            .field("checkpoint", &self.checkpoint)
            .finish_non_exhaustive()
    }
}

/// How a fixed-target FEAS run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// δ(z) ≤ ε reached.
    Reached,
    /// No measurable progress over a stall window.
    Stalled,
    /// Pass budget exhausted.
    Budget,
}

/// One step of a solve, as [`Hooks::observe`] sees it. The stream is
/// as deterministic as the solve: the same at every thread count, and a
/// solve resumed from a checkpoint emits the uninterrupted solve's
/// events after the checkpoint's pass.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveEvent {
    /// Global pass `pass` (from 1) ended. Its run's stop test compares
    /// `dz` = `δ(z)` = `max(δ_c, r_0)` with ε next; `violation` is
    /// `δ_c(z)`, `target` the run's `B` (`None` in phase 1).
    Pass {
        pass: u64,
        dz: f64,
        violation: f64,
        objective: f64,
        target: Option<f64>,
        block_steps: u64,
    },
    /// A FEAS run ended; the bounds are those before its outcome is
    /// folded in.
    RunEnd {
        pass: u64,
        outcome: RunOutcome,
        budget: usize,
        target: Option<f64>,
        ub: f64,
        lb: f64,
        lo: f64,
    },
    /// One sweep of exact block LPs in the final lower-bound polish —
    /// each one [`EpfStats::polish_sweeps`] counts — and the dual
    /// `value` it evaluated.
    Polish { value: f64 },
}

/// Warm-start block for one video: open every surviving previous
/// holder and route each client to its cheapest one. Falls back to the
/// cold start when the previous placement held no copy.
fn warm_block(
    inst: &MipInstance,
    b: &crate::instance::VideoBlock,
    prev: &[vod_model::VhoId],
    n_vhos: usize,
) -> BlockSolution {
    let holders: Vec<vod_model::VhoId> = prev
        .iter()
        .copied()
        .filter(|h| h.index() < n_vhos)
        .collect();
    if holders.is_empty() {
        return initial_block(b, n_vhos);
    }
    let fallback = holders[0];
    let x = crate::solution::Dists::from_lists(b.clients.iter().map(|c| {
        let best = holders
            .iter()
            .copied()
            .min_by(|&a, &bb| {
                inst.cost(a, c.j)
                    .total_cmp(&inst.cost(bb, c.j))
                    .then(a.cmp(&bb))
            })
            .unwrap_or(fallback);
        [(best, 1.0)]
    }));
    let y = holders.iter().map(|&h| (h, 1.0)).collect();
    BlockSolution { y, x }
}

/// The EPF solve as an explicit state machine over pass boundaries.
///
/// The solver's control flow — phase 1 feasibility, the phase-2 target
/// bisection, and the FEAS runs inside each — is flattened into a
/// `Phase` loop whose complete state at any `Phase::Run` boundary is
/// `(blocks, zstar, coupling, smoothed, order, counters, lb/ub/lo,
/// RunState)`. That is exactly what [`SolverCheckpoint`] captures, so a
/// kill-and-resume at any checkpointed pass replays the remaining
/// passes bitwise-identically: the shuffle RNG re-derives from
/// `(seed, global_pass)`, the penalty arena rebuild equals its
/// incremental updates, and every inter-run transition is a pure
/// function of the captured state. [`crate::solver::solve`] has
/// validated `start.prior`; the loop only debug-asserts it.
pub(crate) fn solve_with_pool(
    inst: &MipInstance,
    cfg: &EpfConfig,
    layout: RowLayout,
    pool: &WorkerPool<'_>,
    start: Start<'_>,
    mut hooks: Hooks<'_>,
) -> (FractionalSolution, EpfStats) {
    let n = inst.n_videos();
    let threads = cfg.effective_threads(n);
    let idx_all: Vec<usize> = (0..n).collect();
    let fingerprint = crate::checkpoint::config_fingerprint(cfg, inst);

    /// Control state between ticks of the solver loop. Only `Run` is
    /// ever checkpointed; the other states are transient transitions.
    enum Phase {
        /// One FEAS run in flight: minimize Φ for the coupling's
        /// *current* objective target until δ(z) ≤ ε, progress stalls,
        /// or the budget runs out. With the target fixed, Φ is a
        /// well-defined convex function, so the per-block Frank-Wolfe
        /// steps genuinely converge — unlike any scheme that retargets
        /// B every pass (see DESIGN.md §4).
        Run(RunState),
        /// A run just ended; fold its outcome into lb/ub/lo. Carries
        /// the ended run's pass budget so the next run's budget can
        /// adapt from checkpointed state only (resume-safe).
        RunDone {
            outcome: RunOutcome,
            lb_run: f64,
            budget: usize,
        },
        /// Phase 2 steering: converged/budget checks, next target B.
        PickTarget,
    }

    // --- State init: cold/warm start, or restored from a checkpoint ---
    let (
        mut blocks,
        mut zstar,
        mut coupling,
        mut smoothed,
        mut order,
        mut global_pass,
        mut passes_done,
        mut block_steps,
        mut lb,
        mut ub,
        mut lo,
        run0,
    ) = match start.prior {
        None => {
            // Initial solution: warm-started from a previous placement
            // when given, otherwise each video at its biggest client.
            // Per-block independent, so the sharded build is
            // thread-count invariant by construction.
            let blocks: Vec<BlockSolution> = crate::shard::build_blocks(threads, n, |m| {
                let b = &inst.blocks()[m];
                match start.warm {
                    // A warm placement may be *shorter* than the
                    // instance (append-only catalog growth): tail
                    // videos have no history and open cold.
                    Some(prev) if b.video.index() < prev.n_videos() => {
                        warm_block(inst, b, prev.stores(b.video), inst.n_vhos())
                    }
                    _ => initial_block(b, inst.n_vhos()),
                }
            });

            // Trivial lower bound LR(0): per-block dual ascent with
            // zero multipliers (pure objective UFL). The fresh bound
            // arena is already the zero-dual penalty, so the start only
            // retargets its snapshot.
            let zero_duals = Duals::new(vec![0.0; layout.n_rows()], 1.0);
            pool.start_bounds(&zero_duals, false);
            let lb0 = pool.finish_bounds();

            let (usage, obj0) = crate::shard::state(inst, &layout, &blocks, threads);
            let mut coupling = Coupling::new(layout, caps_of(inst, &layout), cfg.gamma, None);
            coupling.set_state(usage, obj0);
            coupling.init_scale(cfg.epsilon);
            let smoothed = coupling.duals();

            // --- Phase 1: pure feasibility (no objective row). ---
            let phase1_budget = if cfg.feasibility_only {
                cfg.max_passes
            } else {
                (cfg.max_passes / 3).max(50)
            };
            (
                Arc::new(blocks),
                Arc::default(),
                coupling,
                smoothed,
                (0..n).collect::<Vec<usize>>(),
                0u64,
                0usize,
                0u64,
                lb0,
                f64::INFINITY,
                0.0f64,
                RunState {
                    local_pass: 0,
                    budget: phase1_budget,
                    snap_delta: f64::INFINITY,
                    track_lb: false,
                    lb_run: lb0,
                },
            )
        }
        Some(ck) => {
            debug_assert_eq!(ck.fingerprint, fingerprint, "unvalidated checkpoint");
            // The coupling is reconstructed exactly as the cold path
            // built it — `new` with `target: None` (so `γ·ln(m+1)`
            // uses the same m), then the checkpointed target, usage,
            // objective and scale are restored on top.
            let mut coupling = Coupling::new(layout, caps_of(inst, &layout), cfg.gamma, None);
            coupling.set_state(ck.usage.clone(), ck.obj);
            if let Some(b) = ck.target {
                coupling.set_target(b);
            }
            coupling.restore_scale(ck.delta);
            (
                Arc::clone(&ck.blocks),
                Arc::clone(&ck.zstar),
                coupling,
                Duals::new(ck.smoothed_rows.clone(), ck.smoothed_obj),
                ck.order.clone(),
                ck.global_pass,
                ck.passes_done,
                ck.block_steps,
                ck.lb,
                ck.ub,
                ck.lo,
                ck.run,
            )
        }
    };

    const STALL_WINDOW: usize = 25;
    let run_budget = (cfg.max_passes / 6).clamp(25, 400);
    // Next phase-2 run's pass budget; always (re)set by a `RunDone`
    // before any `PickTarget` consumes it, and derived only from the
    // checkpointed `RunState.budget`, so it needs no checkpoint field.
    let mut next_budget = run_budget;
    // The opt-in pass budget, checked at pass boundaries only against
    // the checkpointed pass counter.
    let over_steps = |gp: u64| cfg.step_limit.is_some_and(|s| gp >= s);
    // Step-apply scratch, reused across all chunks: the two candidate
    // directions of a block, its coupling-row delta, the line search's
    // terms and the greedy re-routing's cost list.
    let mut hat_buf = BlockBuf::default();
    let mut corrective_buf = BlockBuf::default();
    let mut deltas = RowAcc::default();
    let mut terms: Vec<(f64, f64)> = Vec::new();
    let mut greedy_costs: Vec<(f64, vod_model::VhoId, f64)> = Vec::new();
    // Pass p's bound sweep, started after its dual smoothing and priced
    // by idle workers during pass p + 1. It is folded into the run's
    // `lb_run` before the next sweep starts, before a checkpoint
    // captures the run, and when the run ends — never checkpointed.
    let mut in_flight: Option<PendingBound> = None;

    let finish = |blocks: Arc<Vec<BlockSolution>>,
                  lb: f64,
                  converged: bool,
                  passes_done: usize,
                  block_steps: u64,
                  polish_sweeps: u64| {
        let mut coupling_final = Coupling::new(layout, caps_of(inst, &layout), cfg.gamma, None);
        let (usage, objective) = crate::shard::state(inst, &layout, &blocks, threads);
        coupling_final.set_state(usage, objective);
        let max_violation = coupling_final.delta_c().max(0.0);
        // The step apply's accumulator, and one per compute thread once
        // the polish has run.
        let accumulators = 1 + if cfg.exact_cert > 0 { threads } else { 0 };
        let bytes = approx_bytes(
            inst,
            &blocks,
            &layout,
            pool.arena_bytes(),
            threads,
            accumulators,
        );
        let frac = FractionalSolution {
            // A copy only if a sink still holds a checkpoint of it.
            blocks: Arc::unwrap_or_clone(blocks),
            objective,
            max_violation,
            lower_bound: lb,
        };
        // The returned solution must be block-feasible exactly and
        // honest about the coupling violation it reports.
        #[cfg(feature = "audit")]
        crate::audit::check_fractional(inst, &frac, max_violation + crate::solution::INT_TOL)
            .assert_ok("fractional solution audit");
        (
            frac,
            EpfStats {
                passes: passes_done,
                block_steps,
                polish_sweeps,
                lower_bound: lb,
                objective,
                max_violation,
                converged,
                approx_bytes: bytes,
            },
        )
    };

    let mut phase = Phase::Run(run0);
    loop {
        phase = match phase {
            Phase::Run(mut run) => {
                if run.local_pass >= run.budget || over_steps(global_pass) {
                    Phase::RunDone {
                        outcome: RunOutcome::Budget,
                        lb_run: run.lb_run,
                        budget: run.budget,
                    }
                } else {
                    run.local_pass += 1;
                    global_pass += 1;
                    passes_done += 1;
                    let mut rng = derive_rng(cfg.seed, 0xE9F ^ global_pass);
                    order.shuffle(&mut rng);
                    // The pass's one write access to the iterate: a
                    // copy of it only if a checkpoint or `zstar` still
                    // shares it.
                    let iterate = Arc::make_mut(&mut blocks);

                    for chunk in order.chunks(CHUNK_SIZE) {
                        // Retarget the shared arena at this chunk's
                        // snapshot — incremental: only dual rows the
                        // previous chunk's applied steps touched get
                        // re-summed.
                        pool.update_penalty(&coupling.duals());
                        let candidates = pool.solve(chunk);
                        let arena = pool.penalty();
                        for (&m, sol) in chunk.iter().zip(&candidates) {
                            let data = &inst.blocks()[m];
                            let hat = hat_buf.set_from_ufl(sol);
                            let dobj =
                                block_delta(inst, &layout, data, &iterate[m], hat, &mut deltas);
                            let tau = coupling.line_search(deltas.rows(), dobj, &mut terms);
                            if tau > 0.0 {
                                coupling.apply(deltas.rows(), dobj, tau);
                                iterate[m].step_toward(hat, tau);
                                block_steps += 1;
                            }
                            // Corrective step: optimal x within the
                            // current y.
                            let corrective = greedy_x_given_y(
                                inst,
                                data,
                                &iterate[m].y,
                                &arena,
                                &mut greedy_costs,
                                &mut corrective_buf,
                            );
                            // A corrective equal to the block has no row
                            // delta and `dobj == 0.0`, so its line search
                            // has no terms and returns exactly 0.0.
                            if *corrective == iterate[m] {
                                continue;
                            }
                            let dobj = block_delta(
                                inst,
                                &layout,
                                data,
                                &iterate[m],
                                corrective,
                                &mut deltas,
                            );
                            let tau = coupling.line_search(deltas.rows(), dobj, &mut terms);
                            if tau > 0.0 {
                                coupling.apply(deltas.rows(), dobj, tau);
                                iterate[m].step_toward(corrective, tau);
                                block_steps += 1;
                            }
                        }
                        // Drop the read guard before the next update.
                        drop(arena);
                    }

                    // Drift washout.
                    if run.local_pass % 25 == 0 {
                        let (usage, obj) = crate::shard::state(inst, &layout, &blocks, threads);
                        coupling.set_state(usage, obj);
                    }
                    coupling.update_scale(cfg.epsilon);

                    // Runtime invariant audit: every pass must preserve
                    // block-local feasibility (Σ_i x_ij = 1, x ≤ y).
                    // Coupling rows are *not* asserted here — violating
                    // them mid-run is exactly what the potential is
                    // busy minimizing.
                    #[cfg(feature = "audit")]
                    crate::audit::check_blocks(inst, &blocks, crate::solution::INT_TOL)
                        .assert_ok("EPF pass block invariants");

                    // Smooth the duals (Algorithm 1 step 14). The
                    // in-place mutation invalidates the snapshot
                    // identity, so stamp a fresh version for the
                    // arena's skip logic.
                    let cur = coupling.duals();
                    for (sm, c) in smoothed.rows.iter_mut().zip(&cur.rows) {
                        *sm = RHO * *sm + (1.0 - RHO) * c;
                    }
                    smoothed.obj = RHO * smoothed.obj + (1.0 - RHO) * cur.obj;
                    smoothed.bump_version();

                    // Sample the Lagrangian bound along the trajectory
                    // — the duals wander, and the best bound often
                    // shows up mid-run. The sweep runs during the next
                    // pass; the previous one is folded first.
                    if run.track_lb {
                        fold_bound(&mut run.lb_run, &mut in_flight, pool);
                        in_flight = lagrangian_bound(&layout, &coupling, &smoothed, pool, false);
                    }

                    let dz = coupling.delta_z().max(coupling.delta_c());
                    hooks.emit(|| SolveEvent::Pass {
                        pass: global_pass,
                        dz,
                        violation: coupling.delta_c(),
                        objective: coupling.objective(),
                        target: coupling.target(),
                        block_steps,
                    });
                    if dz <= cfg.epsilon {
                        Phase::RunDone {
                            outcome: RunOutcome::Reached,
                            lb_run: run.lb_run,
                            budget: run.budget,
                        }
                    } else if run.local_pass % STALL_WINDOW == 0 && {
                        // Gap-based early stop: a window with next to no
                        // progress is a stall (the historical rule), and
                        // so is a window whose progress rate — even
                        // extrapolated over the *whole* remaining budget
                        // — cannot bring δ down to ε. Long runs on an
                        // infeasible target asymptote above ε with a
                        // slow, steady creep; projecting the creep stops
                        // them at the next window boundary instead of
                        // letting them drain the global pass budget.
                        let progress = run.snap_delta - dz;
                        let windows_left =
                            run.budget.saturating_sub(run.local_pass) as f64 / STALL_WINDOW as f64;
                        progress < 1e-4 || dz - progress * windows_left > cfg.epsilon
                    } {
                        Phase::RunDone {
                            outcome: RunOutcome::Stalled,
                            lb_run: run.lb_run,
                            budget: run.budget,
                        }
                    } else {
                        if run.local_pass % STALL_WINDOW == 0 {
                            run.snap_delta = dz;
                        }
                        // The run survives this pass boundary: emit a
                        // checkpoint if the cadence says so. Runs that
                        // just ended are not checkpointed — the
                        // transition logic below is a pure function of
                        // the last in-run checkpoint and replays.
                        if let Some(spec) = hooks.checkpoint.as_mut() {
                            if spec.every > 0 && global_pass % spec.every == 0 {
                                fold_bound(&mut run.lb_run, &mut in_flight, pool);
                                (spec.sink)(SolverCheckpoint {
                                    fingerprint,
                                    global_pass,
                                    passes_done,
                                    block_steps,
                                    lb,
                                    ub,
                                    lo,
                                    target: coupling.target(),
                                    delta: coupling.delta(),
                                    usage: coupling.usage_all().to_vec(),
                                    obj: coupling.objective(),
                                    smoothed_rows: smoothed.rows.clone(),
                                    smoothed_obj: smoothed.obj,
                                    order: order.clone(),
                                    run,
                                    blocks: Arc::clone(&blocks),
                                    zstar: Arc::clone(&zstar),
                                });
                            }
                        }
                        Phase::Run(run)
                    }
                }
            }

            Phase::RunDone {
                outcome,
                mut lb_run,
                budget,
            } => {
                // Every way out of a run — reached, stalled, out of
                // budget — comes through here.
                fold_bound(&mut lb_run, &mut in_flight, pool);
                hooks.emit(|| SolveEvent::RunEnd {
                    pass: global_pass,
                    outcome,
                    budget,
                    target: coupling.target(),
                    ub,
                    lb,
                    lo,
                });
                if coupling.target().is_none() {
                    // Phase 1 ended (`lb_run` tracked nothing: no
                    // objective row means LR is unavailable).
                    if cfg.feasibility_only {
                        return finish(
                            blocks,
                            0.0,
                            outcome == RunOutcome::Reached,
                            passes_done,
                            block_steps,
                            0,
                        );
                    }
                    if let Some(lr) = lagrangian_bound(&layout, &coupling, &smoothed, pool, false)
                        .map(|b| b.finish(pool))
                    {
                        lb = lb.max(lr);
                    }
                    if outcome != RunOutcome::Reached {
                        // Couldn't even reach ε-feasibility: certify
                        // what we have.
                        let mut polish_sweeps = 0;
                        if cfg.exact_cert > 0 {
                            let (polished, sweeps) = polish_bound(
                                &layout, &coupling, &smoothed, cfg, pool, &idx_all, &mut hooks,
                            );
                            polish_sweeps = sweeps;
                            lb = lb.max(polished);
                        }
                        return finish(blocks, lb, false, passes_done, block_steps, polish_sweeps);
                    }
                    // --- Enter phase 2: bisection on the target B. ---
                    ub = coupling.objective();
                    zstar = Arc::clone(&blocks);
                    // `lo` steers the bisection: certified lb, raised
                    // (uncertified) on failed FEAS(B) runs.
                    lo = lb.max(ub * 1e-3).max(1e-12);
                    next_budget = run_budget;
                    Phase::PickTarget
                } else {
                    if lb_run > lb {
                        lb = lb_run;
                        lo = lo.max(lb);
                    }
                    match outcome {
                        RunOutcome::Reached => {
                            let obj = coupling.objective();
                            if obj < ub {
                                ub = obj;
                                zstar = Arc::clone(&blocks);
                            }
                            next_budget = budget;
                        }
                        RunOutcome::Stalled | RunOutcome::Budget => {
                            // The *target row* still violates ε, but
                            // the terminal iterate may already be
                            // ε-feasible in the real coupling rows (the
                            // target row is only the bisection device,
                            // and it is exactly the real-row violation
                            // that the returned solution's
                            // `max_violation` reports). Harvest it when
                            // it beats the incumbent — FEAS(B) runs
                            // that *nearly* reach a low target often
                            // end on better points than the last run
                            // that fully converged.
                            // Only *stalled* endpoints are harvested:
                            // they are descent fixed points, so their
                            // blocks are as settled as a Reached
                            // iterate's. A Budget endpoint is an
                            // arbitrary mid-descent snapshot — often
                            // lower-objective but much more fractional,
                            // which the rounding pass pays for.
                            let obj = coupling.objective();
                            if outcome == RunOutcome::Stalled
                                && coupling.delta_c() <= cfg.epsilon
                                && obj < ub
                            {
                                ub = obj;
                                zstar = Arc::clone(&blocks);
                            }
                            // FEAS(B) looks infeasible at this target:
                            // steer the bisection up (not a certified
                            // bound).
                            if let Some(b) = coupling.target() {
                                lo = lo.max(b);
                            }
                            // With exact certification enabled, convert
                            // the failure into a *certified* bound: the
                            // exact-block-LP Lagrangian at the run's own
                            // smoothed duals lands close to the
                            // infeasible target.
                            if cfg.exact_cert > 0 {
                                if let Some(lr) =
                                    lagrangian_bound(&layout, &coupling, &smoothed, pool, true)
                                        .map(|b| b.finish(pool))
                                {
                                    if lr > lb {
                                        lb = lr;
                                    }
                                }
                            }
                            // Adaptive patience: a run that ran out of
                            // budget might only have needed more
                            // passes; give the next run 1.5×. Derived
                            // from the checkpointed `RunState.budget`
                            // alone, so resume replays identically.
                            next_budget = if outcome == RunOutcome::Budget {
                                (budget.saturating_mul(3) / 2).min(1200)
                            } else {
                                budget
                            };
                        }
                    }
                    Phase::PickTarget
                }
            }

            Phase::PickTarget => {
                // Certification tolerance: `gap_limit` when set (the
                // gap-based early stop), `epsilon` otherwise.
                let cert = cfg.gap_limit.unwrap_or(cfg.epsilon);
                let mut converged = ub <= (1.0 + cert) * lb + 1e-9;
                let out_of_budget = passes_done >= cfg.max_passes || over_steps(global_pass);
                // Pinched: B cannot move meaningfully anymore.
                let pinched = ub <= lo * (1.0 + cert);
                if converged || out_of_budget || pinched {
                    // Certification polish: tighten the Lagrangian
                    // bound by exact subgradient ascent from the (now
                    // well-tuned) EPF duals.
                    let mut polish_sweeps = 0;
                    if !converged && cfg.exact_cert > 0 {
                        let (polished, sweeps) = polish_bound(
                            &layout, &coupling, &smoothed, cfg, pool, &idx_all, &mut hooks,
                        );
                        polish_sweeps = sweeps;
                        lb = lb.max(polished);
                        converged = ub <= (1.0 + cert) * lb + 1e-9;
                    }
                    // The iterate goes first, so an incumbent that
                    // still shares it is returned without a copy.
                    drop(blocks);
                    return finish(
                        zstar,
                        lb,
                        converged,
                        passes_done,
                        block_steps,
                        polish_sweeps,
                    );
                }
                let b = (lo * ub).sqrt().min(ub / (1.0 + 1.5 * cfg.epsilon)).max(lo);
                coupling.set_target(b);
                coupling.init_scale(cfg.epsilon); // re-scale δ for the new target
                let budget = next_budget.min(cfg.max_passes.saturating_sub(passes_done).max(1));
                Phase::Run(RunState {
                    local_pass: 0,
                    budget,
                    snap_delta: f64::INFINITY,
                    track_lb: true,
                    lb_run: lb,
                })
            }
        };
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::DiskConfig;
    use crate::solution::Dists;
    use crate::solver::solve_fractional;
    use vod_model::Mbps;
    use vod_net::topologies;
    use vod_trace::{
        analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
    };

    pub(crate) fn small_instance(
        n_videos: usize,
        ratio: f64,
        capacity_gbps: f64,
        seed: u64,
    ) -> MipInstance {
        let mut net = topologies::mesh_backbone(6, 9, seed);
        net.set_uniform_capacity(Mbps::from_gbps(capacity_gbps));
        let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(800.0, 7, seed));
        let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio },
            1.0,
            0.0,
            None,
        )
    }

    /// `block_delta`'s scan with the sorted-map accumulator its dense
    /// one replaces, as the oracle of `RowAcc`; also counts the `-0.0`
    /// addends.
    fn block_delta_btree(
        inst: &MipInstance,
        layout: &RowLayout,
        data: &VideoBlock,
        cur: &BlockSolution,
        hat: &BlockSolution,
    ) -> (Vec<(usize, f64)>, f64, usize) {
        let mut acc = std::collections::BTreeMap::new();
        let mut neg_zero = 0;
        let mut dobj = 0.0;
        for (i, old, new) in merge_sparse(&cur.y, &hat.y) {
            let d = new - old;
            if d != 0.0 {
                *acc.entry(layout.disk_row(i)).or_insert(0.0) += data.size_gb * d;
                if let Some(&fo) = data.facility_obj_cost.get(i.index()) {
                    dobj += fo * d;
                }
            }
        }
        for (c_idx, client) in data.clients.iter().enumerate() {
            for (i, old, new) in merge_sparse(cur.x.dist(c_idx), hat.x.dist(c_idx)) {
                let d = new - old;
                if d == 0.0 {
                    continue;
                }
                dobj += client.demand_gb * inst.cost(i, client.j) * d;
                for (t, &rate) in client.rate.iter().enumerate() {
                    if rate != 0.0 {
                        for &l in inst.paths.path(i, client.j) {
                            let val = rate * d;
                            neg_zero += usize::from(val.to_bits() == (-0.0f64).to_bits());
                            *acc.entry(layout.link_row(l, t)).or_insert(0.0) += val;
                        }
                    }
                }
            }
        }
        (acc.into_iter().collect(), dobj, neg_zero)
    }

    /// A random block over `v` VHOs: dyadic fractions, so that addends
    /// cancel exactly on shared links, and the smallest subnormal, so
    /// that `rate · d` underflows to `±0.0`.
    fn random_block(rng: &mut rand::rngs::StdRng, v: usize, clients: usize) -> BlockSolution {
        use rand::Rng;
        let tiny = f64::from_bits(1);
        let entry = |rng: &mut rand::rngs::StdRng| -> Vec<(vod_model::VhoId, f64)> {
            let mut ids: Vec<usize> = (0..v).filter(|_| rng.gen_range(0..3u32) == 0).collect();
            if ids.is_empty() {
                ids.push(rng.gen_range(0..v));
            }
            ids.into_iter()
                .map(|i| {
                    let val = match rng.gen_range(0..6u32) {
                        0 => tiny,
                        1 => 1.0,
                        k => f64::from(k) * 0.125,
                    };
                    (vod_model::VhoId::from_index(i), val)
                })
                .collect()
        };
        let y = entry(rng);
        let x: Vec<_> = (0..clients).map(|_| entry(rng)).collect();
        BlockSolution {
            y,
            x: Dists::from_lists(x),
        }
    }

    #[test]
    fn dense_accumulator_matches_the_sorted_map() {
        use rand::Rng;
        let inst = small_instance(40, 2.0, 1.0, 12);
        let layout = layout_of(&inst);
        let v = inst.network.num_nodes();
        let mut rng = vod_model::rng::rng_from_seed(12);
        let mut acc = RowAcc::default();
        let (mut neg_zero, mut zero_sums) = (0usize, 0usize);
        for case in 0..3000 {
            let mut data = inst.blocks()[case % inst.n_videos()].clone();
            // Rates below 1/2 turn a `d` of one subnormal into a `-0.0`
            // addend.
            for c in &mut data.clients {
                for r in c.rate.iter_mut().filter(|r| **r != 0.0) {
                    *r = [0.25, 1.0, 3.0][rng.gen_range(0..3usize)];
                }
            }
            let cur = random_block(&mut rng, v, data.clients.len());
            let hat = if rng.gen_range(0..4u32) == 0 {
                BlockSolution {
                    y: Vec::new(),
                    x: Dists::from_lists(vec![[]; data.clients.len()]),
                }
            } else {
                random_block(&mut rng, v, data.clients.len())
            };
            let dobj = block_delta(&inst, &layout, &data, &cur, &hat, &mut acc);
            let (want, want_obj, nz) = block_delta_btree(&inst, &layout, &data, &cur, &hat);
            let bits = |rows: &[(usize, f64)]| -> Vec<(usize, u64)> {
                rows.iter().map(|&(r, x)| (r, x.to_bits())).collect()
            };
            assert_eq!(bits(acc.rows()), bits(&want), "case {case}");
            assert_eq!(dobj.to_bits(), want_obj.to_bits(), "case {case}");
            zero_sums += want.iter().filter(|e| e.1 == 0.0).count();
            neg_zero += nz;
        }
        // Both edge cases must occur: listed rows that sum to 0, and
        // `-0.0` addends (a `val` seed instead of `0.0 + val` turns a
        // row whose first addend is `-0.0` into `-0.0`).
        assert!(zero_sums > 100, "{zero_sums} rows summing to 0");
        assert!(neg_zero > 100, "{neg_zero} -0.0 addends");
    }

    /// The sort-based re-routing that `greedy_x_given_y`'s lazy
    /// selection replaced: the oracle of its picks, their order and
    /// where the residue lands.
    fn greedy_x_given_y_sorted(
        inst: &MipInstance,
        data: &VideoBlock,
        y: &[(vod_model::VhoId, f64)],
        arena: &PenaltyArena,
    ) -> BlockSolution {
        let duals = arena.duals();
        let mut costs: Vec<(f64, vod_model::VhoId, f64)> = Vec::new();
        let mut out = BlockBuf::default();
        out.fill(y, data.clients.len(), |c, dist| {
            let client = &data.clients[c];
            let j = client.j.index();
            costs.clear();
            costs.extend(y.iter().filter(|&&(_, yv)| yv > 0.0).map(|&(i, yv)| {
                let mut cost = duals.obj * client.demand_gb * inst.cost(i, client.j);
                for (t, &rate) in client.rate.iter().enumerate() {
                    if rate != 0.0 {
                        cost += rate * arena.at(t, i.index(), j);
                    }
                }
                (cost, i, yv)
            }));
            costs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut remaining = 1.0f64;
            for &(_, i, yv) in costs.iter() {
                if remaining <= 0.0 {
                    break;
                }
                let take = yv.min(remaining);
                if take > 0.0 {
                    dist.push((i, take));
                    remaining -= take;
                }
            }
            if remaining > 1e-12 {
                if let Some(&(_, fi, _)) = costs.first() {
                    if let Some(e) = dist.iter_mut().find(|e| e.0 == fi) {
                        e.1 += remaining;
                    } else {
                        dist.push((fi, remaining));
                    }
                }
            }
            dist.sort_by_key(|&(i, _)| i);
        })
        .clone()
    }

    fn entry_bits(e: &[(vod_model::VhoId, f64)]) -> Vec<(vod_model::VhoId, u64)> {
        e.iter().map(|&(i, v)| (i, v.to_bits())).collect()
    }

    /// A re-routing case: one of the instance's blocks with redrawn
    /// weights and rates, a `y` over a random support and an arena
    /// priced at random duals. Coarse grids make cost ties common (all
    /// of them at `π_0 = 0` with zero link duals); `y` has zero entries,
    /// fills over several facilities, and with probability 1/3 a mass
    /// just under 1, which leaves a residue.
    fn greedy_case(
        inst: &MipInstance,
        layout: &RowLayout,
        seed: u64,
    ) -> (VideoBlock, Vec<(vod_model::VhoId, f64)>, PenaltyArena) {
        use rand::Rng;
        let mut rng = vod_model::rng::rng_from_seed(seed);
        let mut data = inst.blocks()[rng.gen_range(0..inst.n_videos())].clone();
        for c in &mut data.clients {
            c.demand_gb = [0.0, 1.0, 2.5, rng.gen::<f64>()][rng.gen_range(0..4usize)];
            for r in &mut c.rate {
                *r = [0.0, 0.5, 1.0, rng.gen::<f64>()][rng.gen_range(0..4usize)];
            }
        }
        let dual_mode = rng.gen_range(0..3u32);
        let rows = (0..layout.n_rows())
            .map(|_| match dual_mode {
                0 => 0.0,
                1 => [0.0, 0.25, 1.0][rng.gen_range(0..3usize)],
                _ => rng.gen::<f64>(),
            })
            .collect();
        let obj = [0.0, 1.0, rng.gen::<f64>()][rng.gen_range(0..3usize)];
        let arena =
            PenaltyArena::for_duals(inst, layout, &Duals::new(rows, obj), Kernel::default());
        let mut y: Vec<(vod_model::VhoId, f64)> = inst
            .network
            .vho_ids()
            .filter_map(|i| {
                let v = match rng.gen_range(0..8u32) {
                    0..=3 => return None,
                    4 => 0.0,
                    5 => 1.0,
                    6 => f64::from(rng.gen_range(1..5u32)) * 0.125,
                    _ => rng.gen::<f64>(),
                };
                Some((i, v))
            })
            .collect();
        if rng.gen_range(0..3u32) == 0 {
            let mass: f64 = y.iter().map(|e| e.1).sum();
            if mass > 0.0 {
                for e in &mut y {
                    e.1 = e.1 / mass * (1.0 - 1e-9);
                }
            }
        }
        (data, y, arena)
    }

    fn greedy_setup() -> &'static (MipInstance, RowLayout) {
        static SETUP: std::sync::OnceLock<(MipInstance, RowLayout)> = std::sync::OnceLock::new();
        SETUP.get_or_init(|| {
            let inst = small_instance(40, 2.0, 1.0, 12);
            let layout = layout_of(&inst);
            (inst, layout)
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2000))]

        /// Lazy selection picks the sort's facilities in the sort's
        /// order and puts the residue where the sort did: every bit of
        /// the re-routed block is the sort-based one's.
        #[test]
        fn greedy_selection_matches_the_sort(seed in proptest::prelude::any::<u64>()) {
            let (inst, layout) = greedy_setup();
            let (data, y, arena) = greedy_case(inst, layout, seed);
            let want = greedy_x_given_y_sorted(inst, &data, &y, &arena);
            let (mut costs, mut buf) = (Vec::new(), BlockBuf::default());
            let got = greedy_x_given_y(inst, &data, &y, &arena, &mut costs, &mut buf);
            proptest::prop_assert_eq!(entry_bits(&got.y), entry_bits(&want.y));
            proptest::prop_assert_eq!(got.x.n_clients(), want.x.n_clients());
            for c in 0..want.x.n_clients() {
                proptest::prop_assert_eq!(
                    entry_bits(got.x.dist(c)),
                    entry_bits(want.x.dist(c)),
                    "client {}", c
                );
            }
        }
    }

    /// The premise of skipping a corrective step equal to the block: the
    /// step's delta has no rows and `dobj == 0.0`, and its line search
    /// returns exactly 0.0, with and without an objective target.
    #[test]
    fn an_unchanged_block_has_no_delta_and_no_step() {
        use rand::Rng;
        let (inst, layout) = greedy_setup();
        let v = inst.n_vhos();
        let blocks: Vec<_> = inst.blocks().iter().map(|b| initial_block(b, v)).collect();
        let (usage, obj) = compute_state(inst, layout, &blocks);
        let couplings = [None, Some(0.5 * obj)].map(|target| {
            let mut c = Coupling::new(*layout, caps_of(inst, layout), 1.0, target);
            c.set_state(usage.clone(), obj);
            c.init_scale(0.01);
            c
        });
        let mut rng = vod_model::rng::rng_from_seed(50);
        let (mut acc, mut terms) = (RowAcc::default(), Vec::new());
        let (mut costs, mut buf) = (Vec::new(), BlockBuf::default());
        for case in 0..2000 {
            let (data, y, arena) = greedy_case(inst, layout, case);
            let cur = if rng.gen_range(0..2u32) == 0 {
                random_block(&mut rng, v, data.clients.len())
            } else {
                greedy_x_given_y(inst, &data, &y, &arena, &mut costs, &mut buf).clone()
            };
            let corrective = cur.clone();
            let dobj = block_delta(inst, layout, &data, &cur, &corrective, &mut acc);
            assert!(acc.rows().is_empty(), "case {case}: {:?}", acc.rows());
            assert_eq!(dobj.to_bits(), 0.0f64.to_bits(), "case {case}");
            for c in &couplings {
                let tau = c.line_search(acc.rows(), dobj, &mut terms);
                assert_eq!(tau.to_bits(), 0.0f64.to_bits(), "case {case}");
            }
        }
    }

    #[test]
    fn converges_on_small_instance() {
        // Tiny instances have proportionally coarse granularity (one
        // video is a sizable share of a VHO's disk), so — exactly as
        // the paper observes for its smallest libraries (Section V-D:
        // 4.1 % at 5 K videos vs 1.0 % at 200 K) — the certified gap
        // tolerance is looser here than the 1 % production default.
        let inst = small_instance(160, 2.0, 1.0, 5);
        let cfg = EpfConfig {
            epsilon: 0.05,
            max_passes: 600,
            seed: 5,
            ..Default::default()
        };
        let (frac, stats) = solve_fractional(&inst, &cfg);
        assert!(stats.converged, "no convergence: {stats:?}");
        assert!(frac.max_violation <= cfg.epsilon + 1e-9);
        assert!(frac.objective <= (1.0 + cfg.epsilon) * frac.lower_bound + 1e-6);
        assert!(frac.lower_bound > 0.0);
    }

    #[test]
    fn blocks_satisfy_local_constraints() {
        let inst = small_instance(60, 2.0, 1.0, 6);
        let (frac, _) = solve_fractional(
            &inst,
            &EpfConfig {
                max_passes: 80,
                seed: 6,
                ..Default::default()
            },
        );
        for (b, data) in frac.blocks.iter().zip(inst.blocks()) {
            assert!(!b.y.is_empty(), "every video must be stored somewhere");
            assert_eq!(b.x.n_clients(), data.clients.len());
            for dist in b.x.iter() {
                let total: f64 = dist.iter().map(|&(_, v)| v).sum();
                assert!((total - 1.0).abs() < 1e-6, "x must sum to 1: {total}");
                for &(i, v) in dist {
                    assert!(v <= b.y_at(i) + 1e-6, "x_ij={v} exceeds y_i={}", b.y_at(i));
                }
            }
            for &(_, yv) in &b.y {
                assert!((0.0..=1.0 + 1e-9).contains(&yv));
            }
        }
    }

    #[test]
    fn feasibility_mode_detects_feasible_and_infeasible() {
        // Plenty of everything → feasible.
        let inst = small_instance(60, 3.0, 2.0, 7);
        let cfg = EpfConfig {
            max_passes: 120,
            seed: 7,
            ..Default::default()
        }
        .feasibility();
        let (frac, stats) = solve_fractional(&inst, &cfg);
        assert!(stats.converged);
        assert!(frac.max_violation <= cfg.epsilon + 1e-9);

        // Starved disk (just above 1 copy each, tiny links) → cannot
        // reach ε-feasibility in the pass budget.
        let starved = small_instance(60, 1.02, 0.002, 7);
        let cfg2 = EpfConfig {
            max_passes: 40,
            seed: 7,
            ..Default::default()
        }
        .feasibility();
        let (_, stats2) = solve_fractional(&starved, &cfg2);
        assert!(!stats2.converged);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = small_instance(50, 2.0, 1.0, 8);
        let cfg = EpfConfig {
            max_passes: 30,
            seed: 8,
            threads: 2,
            ..Default::default()
        };
        let (a, _) = solve_fractional(&inst, &cfg);
        let (b, _) = solve_fractional(&inst, &cfg);
        assert_eq!(a.objective, b.objective);
        assert_eq!(a.max_violation, b.max_violation);
    }

    #[test]
    fn lower_bound_is_sane() {
        // The Lagrangian bound must never exceed the achieved
        // objective once ε-feasible (up to the ε slack).
        let inst = small_instance(70, 2.5, 1.5, 9);
        let cfg = EpfConfig {
            max_passes: 150,
            seed: 9,
            ..Default::default()
        };
        let (frac, stats) = solve_fractional(&inst, &cfg);
        if stats.converged {
            assert!(frac.lower_bound <= frac.objective * (1.0 + 0.05));
        }
        assert!(frac.lower_bound >= 0.0);
    }

    #[test]
    fn popular_videos_get_more_copies() {
        let inst = small_instance(100, 2.0, 1.0, 10);
        let (frac, _) = solve_fractional(
            &inst,
            &EpfConfig {
                max_passes: 120,
                seed: 10,
                ..Default::default()
            },
        );
        let ranked = inst.demand.aggregate.rank_videos();
        let mass = |m: vod_model::VideoId| -> f64 {
            frac.blocks[m.index()].y.iter().map(|&(_, v)| v).sum()
        };
        let top: f64 = ranked[..10].iter().map(|&m| mass(m)).sum();
        let bottom: f64 = ranked[ranked.len() - 10..].iter().map(|&m| mass(m)).sum();
        assert!(
            top > bottom,
            "popular videos should hold more copy mass: top {top} vs bottom {bottom}"
        );
    }
}
