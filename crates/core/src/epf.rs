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
//! lower-bound pass (per-block dual ascent) both certifies quality and
//! raises the objective target `B` of `FEAS(B)`.

use crate::block::UflProblem;
use crate::checkpoint::SolverCheckpoint;
use crate::instance::{MipInstance, VideoBlock};
use crate::kernel::{self, Kernel};
use crate::penalty::PenaltyArena;
use crate::pool::WorkerPool;
use crate::potential::{Coupling, Duals, RowLayout};
use crate::solution::{initial_block, BlockBuf, BlockSolution, FractionalSolution, Placement};
use rand::seq::SliceRandom;
use std::sync::RwLock;
use std::time::{Duration, Instant};
use vod_model::rng::derive_rng;

/// Solver parameters (Algorithm 1 line 1).
#[derive(Debug, Clone)]
pub struct EpfConfig {
    /// Approximation tolerance ε: the solver stops once the solution
    /// violates constraints by at most ε and is within ε of the lower
    /// bound (the paper uses 1 %).
    pub epsilon: f64,
    /// Exponent factor γ ≈ 1.
    pub gamma: f64,
    /// Dual smoothing ρ ∈ [0, 1).
    pub rho: f64,
    /// Blocks per chunk (one dual snapshot / parallel batch per chunk).
    pub chunk_size: usize,
    /// Hard cap on passes.
    pub max_passes: usize,
    /// Compute threads for chunk optimization, the calling thread
    /// included; 0 = all available cores.
    pub threads: usize,
    /// Pure feasibility mode: ignore the objective, stop as soon as
    /// `δ_c(z) ≤ ε` (used by the feasibility-region searches).
    pub feasibility_only: bool,
    /// Compute the Lagrangian lower bound every this many passes.
    pub lb_every: usize,
    /// Upper limit on the sweeps of the heuristic stage of the final
    /// lower-bound polish (0 disables the whole polish, exact stage
    /// included). A sweep is one UFL build + dual ascent + local
    /// search per video — about the block work of two passes — and
    /// runs *after* the last pass: `max_passes` and `step_limit` do
    /// not count it. What bounds the stage besides this limit is its
    /// stall stop: it ends after 10 consecutive sweeps without a new
    /// best (see `polish_bound`) — the first 10, in two solves of
    /// three measured so far.
    pub polish_iters: usize,
    pub seed: u64,
    /// Optional wall-clock budget. When exceeded, the solver stops at
    /// the next pass boundary and returns its best incumbent with
    /// `converged = false` and honest gap statistics — it never
    /// aborts. **Determinism caveat:** where the cutoff lands depends
    /// on machine speed, so two runs with the same seed may return
    /// different (equally valid) incumbents; leave this `None` (the
    /// default) for byte-reproducible experiments. On a checkpoint
    /// resume the clock restarts: `wall_limit` is an operational
    /// latency cap for *this* process, never part of the deterministic
    /// resume contract. Use [`EpfConfig::step_limit`] for budgets that
    /// must land in the same place on every machine.
    pub wall_limit: Option<Duration>,
    /// Deterministic budget in *global passes*: the solver stops at the
    /// pass boundary once this many passes have completed, returning
    /// the best incumbent exactly like `wall_limit` does — but the
    /// cutoff lands on the same pass on every machine and survives
    /// checkpoint/resume (the pass counter is checkpointed), so
    /// budgeted runs stay byte-reproducible. When both limits are set,
    /// whichever trips first wins. Benchmarks use `step_limit`;
    /// `wall_limit` is for latency-capped operation. The budget covers
    /// passes only: the final lower-bound polish runs after the last
    /// one, bounded by `polish_iters` / `exact_cert` and its stall stop
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
    /// Iteration budget of the *exact certification* stage of the
    /// final lower-bound polish: one sweep of exact per-block LPs
    /// ([`crate::direct`]) at the best heuristic multipliers, then this
    /// many ascent iterations that each re-solve every block's LP and
    /// step along the LP minimizers' usage. It is an upper limit: the
    /// stage shares the heuristic stage's stall stop (10 consecutive
    /// sweeps without a new best; measured pauses are 3 at most), and
    /// like that stage it sits outside the pass budget. Any value
    /// above 0 also certifies each failed `FEAS(B)` run with one such
    /// sweep. 0 disables both (dual-ascent bounds only). A sweep costs
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
            rho: 0.5,
            chunk_size: 32,
            max_passes: 1500,
            threads: 0,
            feasibility_only: false,
            lb_every: 1,
            polish_iters: 120,
            seed: 0,
            wall_limit: None,
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
    /// lower-bound polish is *not* inside this budget: a budgeted
    /// solve still pays up to `1 + polish_iters` heuristic sweeps
    /// (`1 + 10` when the stage never improves, the usual case) and
    /// `1 + exact_cert` exact ones after its last pass.
    pub fn budgeted(&self, steps: u64) -> Self {
        Self {
            step_limit: Some(self.step_limit.map_or(steps, |s| s.min(steps))),
            ..self.clone()
        }
    }

    /// Compute threads for a solve over `n_blocks` video blocks, the
    /// calling thread included (it runs part 0 of every dispatch, so
    /// `N` spawns `N − 1` workers): the configured (or available)
    /// count, capped at the block count — a thread beyond that could
    /// never receive a chunk part and would only spin and sleep for the
    /// whole solve.
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
    /// Block sweeps of the final lower-bound polish, all stages, seed
    /// evaluations included (0 when it did not run). They sit outside
    /// `passes` and `block_steps`; like those, the count is the same
    /// on every machine, at every thread count and across a resume.
    pub polish_sweeps: u64,
    pub lower_bound: f64,
    pub objective: f64,
    pub max_violation: f64,
    /// True iff the ε-criteria were met before `max_passes`.
    pub converged: bool,
    pub wall: Duration,
    /// Approximate peak working-set bytes of solver state (block
    /// solutions + instance block data + potential rows).
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

/// Full-step resource/objective delta of replacing `cur` by `hat` in
/// block `data` (scaled by τ at application time): fills `acc` with the
/// touched coupling rows, ascending, and returns the objective delta.
pub(crate) fn block_delta(
    inst: &MipInstance,
    layout: &RowLayout,
    data: &VideoBlock,
    cur: &BlockSolution,
    hat: &BlockSolution,
    acc: &mut Vec<(usize, f64)>,
) -> f64 {
    // Row-sorted sparse accumulator in caller-owned scratch: a block
    // delta touches a handful of rows, so binary-search insertion into
    // a flat vec beats a fresh BTreeMap (node allocation per row) while
    // keeping the exact same per-row accumulation order (scan order)
    // and the exact same row-ascending output order.
    acc.clear();
    let bump = |acc: &mut Vec<(usize, f64)>, row: usize, val: f64| {
        match acc.binary_search_by_key(&row, |e| e.0) {
            Ok(pos) => acc[pos].1 += val,
            // `0.0 + val`, not `val`: the BTreeMap this replaces
            // seeded entries with `or_insert(0.0) += val`, and the
            // two differ bitwise at `val == -0.0`.
            Err(pos) => acc.insert(pos, (row, 0.0 + val)),
        }
    };
    let mut dobj = 0.0;
    for (i, old, new) in merge_sparse(&cur.y, &hat.y) {
        let d = new - old;
        if d != 0.0 {
            bump(acc, layout.disk_row(i), data.size_gb * d);
            if let Some(&fo) = data.facility_obj_cost.get(i.index()) {
                dobj += fo * d;
            }
        }
    }
    for (c_idx, client) in data.clients.iter().enumerate() {
        for (i, old, new) in merge_sparse(&cur.x[c_idx], &hat.x[c_idx]) {
            let d = new - old;
            if d == 0.0 {
                continue;
            }
            dobj += client.demand_gb * inst.cost(i, client.j) * d;
            for (t, &rate) in client.rate.iter().enumerate() {
                if rate != 0.0 {
                    for &l in inst.paths.path(i, client.j) {
                        bump(acc, layout.link_row(l, t), rate * d);
                    }
                }
            }
        }
    }
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
    let v = inst.n_vhos();
    out.reset();
    out.facility_cost.extend((0..v).map(|i| {
        let fo = data.facility_obj_cost.get(i).copied().unwrap_or(0.0);
        // lint:allow(raw-index): dual/penalty rows are dense over VHO indices
        let disk_dual = duals.rows[layout.disk_row(vod_model::VhoId::from_index(i))];
        duals.obj * fo + disk_dual * data.size_gb
    }));
    for client in &data.clients {
        let j = client.j.index();
        match kernel {
            Kernel::Scalar => out.push_service_row((0..v).map(|i| {
                // lint:allow(raw-index): dual/penalty rows are dense over VHO indices
                let iv = vod_model::VhoId::from_index(i);
                let mut cost = duals.obj * client.demand_gb * inst.cost(iv, client.j);
                for (t, &rate) in client.rate.iter().enumerate() {
                    if rate != 0.0 {
                        cost += rate * arena.at(t, i, j);
                    }
                }
                cost
            })),
            // Lane backends stream the arena's contiguous client-major
            // rows: base objective cost elementwise, then one axpy per
            // active window (t-ascending per element — the exact addend
            // order of the scalar closure above).
            _ => {
                let row = out.push_service_row_zeroed();
                for (iv, slot) in inst.network.vho_ids().zip(row.iter_mut()) {
                    *slot = duals.obj * client.demand_gb * inst.cost(iv, client.j);
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
pub(crate) fn greedy_x_given_y<'a>(
    inst: &MipInstance,
    data: &VideoBlock,
    y: &[(vod_model::VhoId, f64)],
    arena: &PenaltyArena,
    costs: &mut Vec<(f64, vod_model::VhoId, f64)>,
    out: &'a mut BlockBuf,
) -> &'a BlockSolution {
    let duals = arena.duals();
    let block = out.with_clients(data.clients.len());
    block.y.clear();
    block.y.extend_from_slice(y);
    data.clients
        .iter()
        .zip(&mut block.x)
        .for_each(|(client, dist)| {
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
            // `(cost, id)` is a total order over unique ids: the
            // unstable sort returns the stable sort's order.
            costs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut remaining = 1.0f64;
            dist.clear();
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
        });
    block
}

/// Lagrangian lower bound `LR(λ̄)` with the smoothed duals (Appendix,
/// eq. (13)): per-block bounds in scaled units, then
/// `LR = (Σ_k scaledLB_k − Σ_rows π̄_r·b_r) / π̄_0`.
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
/// Retargets the shared penalty arena at `smoothed`; when the smoothed
/// duals are version-identical to the arena's snapshot (nothing moved
/// since the last bound), the rebuild is skipped outright.
fn lagrangian_bound(
    layout: &RowLayout,
    coupling: &Coupling,
    smoothed: &Duals,
    pool: &WorkerPool<'_>,
    idx_all: &[usize],
    exact: bool,
) -> Option<f64> {
    if smoothed.obj <= 0.0 {
        return None;
    }
    pool.update_penalty(smoothed);
    let bounds = if exact {
        pool.exact_bounds(idx_all)
    } else {
        pool.dual_bounds(idx_all)
    };
    let scaled_sum: f64 = bounds.iter().sum();
    let penalty_mass: f64 = (0..layout.n_rows())
        .map(|r| smoothed.rows[r] * coupling.cap(r))
        .sum();
    Some((scaled_sum - penalty_mass) / smoothed.obj)
}

/// One evaluation of the Lagrangian dual at capacity-normalized
/// multipliers `ν` (`ν_r = μ_r·b_r`): retargets the arena, runs one
/// parallel block sweep, and returns `g(ν) = Σ_k bound_k − Σ_r ν_r`
/// while filling `rel` with the ν-space subgradient (the dimensionless
/// relative violation of each row under the block minimizers).
///
/// `exact` upgrades the whole sweep: exact block-LP bounds *and* the LP
/// minimizers' usage, so the returned `rel` is a true subgradient of
/// the Lagrangian dual rather than the heuristic minimizer's
/// approximation of it.
fn polish_eval(
    coupling: &Coupling,
    pool: &WorkerPool<'_>,
    idx_all: &[usize],
    nu: &[f64],
    exact: bool,
    duals: &mut Duals,
    rel: &mut [f64],
) -> f64 {
    for (r, d) in duals.rows.iter_mut().enumerate() {
        *d = nu[r] / coupling.cap(r);
    }
    duals.bump_version();
    pool.update_penalty(duals);
    let sweep = pool.polish_sweep(idx_all, exact);
    rel.fill(-1.0); // gradient in ν-space
    for &(row, u) in &sweep.usage {
        rel[row] += u / coupling.cap(row);
    }
    sweep.bounds.iter().sum::<f64>() - nu.iter().sum::<f64>()
}

/// Consecutive sweeps without a new best after which a stage of
/// [`polish_bound`] ends. Measured on Table III rows at seeds 3 and 11
/// (EXPERIMENTS.md "Where the polish's sweeps went"): in 40 of 40
/// solves without an exact stage — `ladder-5k`, the twelve
/// `service-week` cycles, the 5000/tiscali quality row, 24 rows of
/// 100–1000 videos — the heuristic stage either never beats its seed
/// evaluation (26: all 120, or 40, sweeps fruitless) or climbs to a
/// value still under the bound the passes already hold (14), so no
/// sweep after the seed evaluation bought a reported digit and any
/// stall length returns the same bits. The 16-sweep exact stages of
/// the quality rows improve on almost every sweep and pause for 3 at
/// most. 10 clears that pause with room, is the heuristic budget of
/// the `certify-10x100` benchmark shape (which therefore runs exactly
/// as before), and cuts a fruitless 120-sweep stage to 1 + 10. What it
/// gives up: a heuristic climb that resumes after a longer pause
/// (pauses of 16–81 sweeps were seen) — worth nothing in those 40
/// solves, and with an exact stage behind it a different starting
/// point for that stage, not a worse one (6 of 10 small rows moved by
/// −1.6 to +2.3 %, 4 of them up).
const POLISH_STALL: usize = 10;

/// Final lower-bound polish: subgradient ascent on the Lagrangian dual
/// `g(μ) = Σ_k min_{z∈F^k} (c + μA)z − μ·b` over `μ ≥ 0`, seeded with
/// the smoothed duals the EPF loop ended on. Returns the best value
/// seen and the number of block sweeps it took (every evaluation, the
/// seed's included).
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
/// Two stages. The first runs up to `cfg.polish_iters` sweeps with the
/// cheap per-block dual-ascent bounds and the heuristic minimizers'
/// usage as its direction. The second, when `cfg.exact_cert > 0`,
/// re-evaluates the best point with an exact block LP on every block
/// (which can only raise it) and runs up to `cfg.exact_cert` further
/// sweeps of exact LPs, stepping along the LP minimizers' usage.
///
/// **Stall stop.** Either stage ends early once [`POLISH_STALL`]
/// consecutive sweeps of it have failed to raise the best value (the
/// seed evaluation and the exact stage's opening sweep are not
/// counted; the count restarts with each stage and on each
/// improvement). A stage that never improves leaves the best point
/// where it found it, so stopping it early hands the next stage — or
/// the caller — exactly what the full budget would have: no returned
/// bit can differ. A heuristic stage that has improved and then stalls
/// gives up whatever a later sweep might still have found: without an
/// exact stage that has been worth nothing so far (its best stayed
/// under the caller's `lb`), with one it moves the point the exact
/// stage starts from and so the certificate, up as often as down
/// ([`POLISH_STALL`] has the counts). The caller takes `lb.max(·)` over
/// a valid bound either way.
fn polish_bound(
    layout: &RowLayout,
    coupling: &Coupling,
    start: &Duals,
    cfg: &EpfConfig,
    pool: &WorkerPool<'_>,
    idx_all: &[usize],
    trace: bool,
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
    let mut eval = |nu: &[f64], exact: bool, rel: &mut [f64]| {
        sweeps += 1;
        polish_eval(coupling, pool, idx_all, nu, exact, &mut duals, rel)
    };

    let mut best = eval(&nu, false, &mut rel);
    let mut best_nu = nu.clone();
    let mut best_rel = rel.clone();

    // The shared ascent step: exponentiated gradient with a small
    // additive floor so zero rows can revive.
    let step = |nu: &mut [f64], rel: &[f64], theta: f64| {
        let floor = nu.iter().cloned().fold(0.0f64, f64::max) * 1e-9 + 1e-15;
        for (v, &g) in nu.iter_mut().zip(rel) {
            let x = g.clamp(-1.0, 1.0);
            *v = (*v + floor) * (theta * x).exp();
        }
    };

    for stage in 0..2 {
        let exact = stage == 1;
        let iters = if exact {
            if cfg.exact_cert == 0 {
                break;
            }
            // Certification stage: evaluate with exact block LPs on
            // *every* block. On hard instances the heuristic
            // dual-ascent bounds can undershoot the true block minima
            // by tens of percent, which buries any dual progress in
            // evaluation noise — no calibrated subset survives that,
            // so the certification wander pays for the full sweep. The
            // first full-exact evaluation at the best point itself
            // lifts `best` (it can only raise per-block bounds).
            nu.copy_from_slice(&best_nu);
            best = eval(&nu, true, &mut rel).max(best);
            if trace {
                eprintln!(
                    "polish: exact stage on all {} blocks (best={best:.2})",
                    idx_all.len()
                );
            }
            best_rel.copy_from_slice(&rel);
            cfg.exact_cert
        } else {
            cfg.polish_iters
        };
        nu.copy_from_slice(&best_nu);
        rel.copy_from_slice(&best_rel);
        // Non-monotone diminishing-step subgradient ascent. The dual is
        // concave but kinked: at a kink the subgradient direction can
        // *decrease* g, so a monotone line-search style loop just
        // shrinks its step to nothing at the seed. The classic scheme —
        // let the iterate wander with θ_k = θ₀/√k and keep the best
        // value seen (every iterate is a valid bound) — climbs through
        // the kinks instead. One leash only: a catastrophic drop (>15 %
        // of best) restarts the wander from the best point.
        let theta0 = if exact { 0.05f64 } else { 0.2f64 };
        let mut stalled = 0;
        for it in 0..iters {
            if stalled == POLISH_STALL {
                break;
            }
            let theta = theta0 / ((it + 1) as f64).sqrt();
            step(&mut nu, &rel, theta);
            let g = eval(&nu, exact, &mut rel);
            if trace {
                eprintln!("polish[{stage}]: g={g:.2} best={best:.2} theta={theta:.4}");
            }
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
    }
    (best, sweeps)
}

/// Approximate solver working-set bytes (reported in Table III):
/// block solutions + instance block data + potential rows + the flat
/// penalty arena + per-thread UFL build/search scratch.
fn approx_bytes(
    inst: &MipInstance,
    blocks: &[BlockSolution],
    layout: &RowLayout,
    arena_bytes: usize,
    threads: usize,
) -> usize {
    let tuple = std::mem::size_of::<(vod_model::VhoId, f64)>();
    let sol: usize = blocks
        .iter()
        .map(|b| {
            (b.y.len() + b.x.iter().map(Vec::len).sum::<usize>()) * tuple
                + b.x.len() * std::mem::size_of::<Vec<()>>()
        })
        .sum();
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
    sol + data + layout.n_rows() * 16 + arena_bytes + threads * per_scratch
}

/// Solve the LP relaxation with the EPF method (Algorithm 1), returning
/// the ε-feasible, ε-optimal fractional solution and statistics.
pub fn solve_fractional(inst: &MipInstance, cfg: &EpfConfig) -> (FractionalSolution, EpfStats) {
    solve_fractional_seeded(inst, cfg, None)
}

/// As [`solve_fractional`], but optionally warm-started from a
/// previous placement: each video's block begins at its old holders
/// (greedily re-routed) instead of the cold single-copy start. Used by
/// `solver::resolve_from` to repair a placement after a fault.
pub(crate) fn solve_fractional_seeded(
    inst: &MipInstance,
    cfg: &EpfConfig,
    warm: Option<&Placement>,
) -> (FractionalSolution, EpfStats) {
    solve_fractional_driven(inst, cfg, warm, None, None)
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
/// identically on resume.
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

/// The full-control entry: warm start, checkpoint resume, and periodic
/// checkpoint emission. `resume` must have been validated against
/// `(inst, cfg)` by the caller (`solver::solve_resumable` does); the
/// solver itself only debug-asserts shapes.
pub(crate) fn solve_fractional_driven(
    inst: &MipInstance,
    cfg: &EpfConfig,
    warm: Option<&Placement>,
    resume: Option<&SolverCheckpoint>,
    ckpt: Option<CheckpointSpec<'_>>,
) -> (FractionalSolution, EpfStats) {
    // lint:allow(wall-clock): solver wall time is reported in EpfStats
    // and never feeds back into the optimization, so it cannot break
    // run-to-run determinism of the placement itself.
    let start = Instant::now();
    let n = inst.n_videos();
    assert!(n > 0, "instance has no videos");
    assert!(cfg.epsilon > 0.0 && cfg.rho < 1.0 && cfg.lb_every > 0);
    let layout = layout_of(inst);
    let threads = cfg.effective_threads(n);
    // The penalty arena and the worker pool live for the whole solve:
    // workers borrow both the instance and the arena, so the arena is
    // created first and the pool inside one scope wrapping the solver
    // body (see `crate::pool` for the determinism contract). On resume
    // the arena starts fresh and is rebuilt at the first chunk's dual
    // snapshot — bitwise-equal to the incremental updates it replaces,
    // by the arena's rebuild invariant (`tests/penalty_props.rs`).
    let arena = RwLock::new(PenaltyArena::new(inst, &layout));
    std::thread::scope(|scope| {
        let pool = WorkerPool::new(scope, threads, inst, layout, &arena, cfg.kernel);
        solve_with_pool(inst, cfg, layout, &pool, start, warm, resume, ckpt)
    })
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
    let x = b
        .clients
        .iter()
        .map(|c| {
            let best = holders
                .iter()
                .copied()
                .min_by(|&a, &bb| {
                    inst.cost(a, c.j)
                        .total_cmp(&inst.cost(bb, c.j))
                        .then(a.cmp(&bb))
                })
                .unwrap_or(fallback);
            vec![(best, 1.0)]
        })
        .collect();
    BlockSolution {
        y: holders.into_iter().map(|h| (h, 1.0)).collect(),
        x,
    }
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
/// function of the captured state.
// One extra arg over clippy's threshold: the resume/checkpoint pair
// belongs at this lowest level, where the loop state lives.
#[allow(clippy::too_many_arguments)]
fn solve_with_pool(
    inst: &MipInstance,
    cfg: &EpfConfig,
    layout: RowLayout,
    pool: &WorkerPool<'_>,
    start: Instant,
    warm: Option<&Placement>,
    resume: Option<&SolverCheckpoint>,
    mut ckpt: Option<CheckpointSpec<'_>>,
) -> (FractionalSolution, EpfStats) {
    let n = inst.n_videos();
    let threads = cfg.effective_threads(n);
    let idx_all: Vec<usize> = (0..n).collect();
    let chunk_size = cfg.chunk_size.clamp(1, n.max(1));
    let fingerprint = crate::checkpoint::config_fingerprint(cfg, inst);
    // Stderr convergence diagnostics (`EPF_TRACE=1`), read once per
    // solve; the flag gates `eprintln!` only and feeds no decision.
    let trace = std::env::var_os("EPF_TRACE").is_some();

    /// Outcome of one fixed-target FEAS run.
    #[derive(PartialEq, Clone, Copy, Debug)]
    enum RunOutcome {
        /// δ(z) ≤ ε reached.
        Reached,
        /// No measurable progress over a stall window.
        Stalled,
        /// Pass budget exhausted.
        Budget,
    }

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
    ) = match resume {
        None => {
            // Initial solution: warm-started from a previous placement
            // when given, otherwise each video at its biggest client.
            // Per-block independent, so the sharded build is
            // thread-count invariant by construction.
            let blocks: Vec<BlockSolution> = crate::shard::build_blocks(threads, n, |m| {
                let b = &inst.blocks()[m];
                match warm {
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
            // zero multipliers (pure objective UFL). The fresh arena is
            // already the zero-dual penalty, so the update only
            // retargets its snapshot.
            let zero_duals = Duals::new(vec![0.0; layout.n_rows()], 1.0);
            pool.update_penalty(&zero_duals);
            let lb0: f64 = pool.dual_bounds(&idx_all).iter().sum();

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
                blocks,
                Vec::new(),
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
                ck.blocks.clone(),
                ck.zstar.clone(),
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
    // Opt-in budgets, both checked at pass boundaries only: the wall
    // clock restarts on resume (operational latency cap), the step
    // budget is the checkpointed pass counter (deterministic).
    let over_wall = || cfg.wall_limit.is_some_and(|w| start.elapsed() >= w);
    let over_steps = |gp: u64| cfg.step_limit.is_some_and(|s| gp >= s);
    // Step-apply scratch, reused across all chunks: the two candidate
    // directions of a block, its coupling-row delta, the line search's
    // terms and the greedy re-routing's cost list.
    let mut hat_buf = BlockBuf::default();
    let mut corrective_buf = BlockBuf::default();
    let mut deltas: Vec<(usize, f64)> = Vec::new();
    let mut terms: Vec<(f64, f64)> = Vec::new();
    let mut greedy_costs: Vec<(f64, vod_model::VhoId, f64)> = Vec::new();

    let finish = |blocks: Vec<BlockSolution>,
                  lb: f64,
                  converged: bool,
                  passes_done: usize,
                  block_steps: u64,
                  polish_sweeps: u64| {
        let mut coupling_final = Coupling::new(layout, caps_of(inst, &layout), cfg.gamma, None);
        let (usage, objective) = crate::shard::state(inst, &layout, &blocks, threads);
        coupling_final.set_state(usage, objective);
        let max_violation = coupling_final.delta_c().max(0.0);
        let bytes = approx_bytes(
            inst,
            &blocks,
            &layout,
            pool.penalty().approx_bytes(),
            threads,
        );
        let frac = FractionalSolution {
            blocks,
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
                wall: start.elapsed(),
                approx_bytes: bytes,
            },
        )
    };

    let mut phase = Phase::Run(run0);
    loop {
        phase = match phase {
            Phase::Run(mut run) => {
                if run.local_pass >= run.budget || over_wall() || over_steps(global_pass) {
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

                    for chunk in order.chunks(chunk_size) {
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
                                block_delta(inst, &layout, data, &blocks[m], hat, &mut deltas);
                            let tau = coupling.line_search(&deltas, dobj, &mut terms);
                            if tau > 0.0 {
                                coupling.apply(&deltas, dobj, tau);
                                blocks[m].step_toward(hat, tau);
                                block_steps += 1;
                            }
                            // Corrective step: optimal x within the
                            // current y.
                            let corrective = greedy_x_given_y(
                                inst,
                                data,
                                &blocks[m].y,
                                &arena,
                                &mut greedy_costs,
                                &mut corrective_buf,
                            );
                            let dobj = block_delta(
                                inst,
                                &layout,
                                data,
                                &blocks[m],
                                corrective,
                                &mut deltas,
                            );
                            let tau = coupling.line_search(&deltas, dobj, &mut terms);
                            if tau > 0.0 {
                                coupling.apply(&deltas, dobj, tau);
                                blocks[m].step_toward(corrective, tau);
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
                        *sm = cfg.rho * *sm + (1.0 - cfg.rho) * c;
                    }
                    smoothed.obj = cfg.rho * smoothed.obj + (1.0 - cfg.rho) * cur.obj;
                    smoothed.bump_version();

                    // Sample the Lagrangian bound along the trajectory
                    // — the duals wander, and the best bound often
                    // shows up mid-run.
                    if run.track_lb && run.local_pass % cfg.lb_every.max(1) == 0 {
                        if let Some(lr) =
                            lagrangian_bound(&layout, &coupling, &smoothed, pool, &idx_all, false)
                        {
                            if lr > run.lb_run {
                                run.lb_run = lr;
                            }
                        }
                    }

                    let dz = coupling.delta_z().max(coupling.delta_c());
                    if trace {
                        eprintln!(
                            "pass {}: viol={:.5} r0={:.5} obj={:.2} B={:?} steps={}",
                            global_pass,
                            coupling.delta_c(),
                            coupling.r0(),
                            coupling.objective(),
                            coupling.target(),
                            block_steps
                        );
                    }
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
                        if let Some(spec) = ckpt.as_mut() {
                            if spec.every > 0 && global_pass % spec.every == 0 {
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
                                    blocks: blocks.clone(),
                                    zstar: zstar.clone(),
                                });
                            }
                        }
                        Phase::Run(run)
                    }
                }
            }

            Phase::RunDone {
                outcome,
                lb_run,
                budget,
            } => {
                if trace {
                    eprintln!(
                        "run done: outcome={outcome:?} budget={budget} B={:?} ub={ub:.2} lb={lb:.2} lo={lo:.2} pass={global_pass}",
                        coupling.target()
                    );
                }
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
                    if let Some(lr) =
                        lagrangian_bound(&layout, &coupling, &smoothed, pool, &idx_all, false)
                    {
                        lb = lb.max(lr);
                    }
                    if outcome != RunOutcome::Reached {
                        // Couldn't even reach ε-feasibility: certify
                        // what we have.
                        let mut polish_sweeps = 0;
                        if cfg.polish_iters > 0 {
                            let (polished, sweeps) = polish_bound(
                                &layout, &coupling, &smoothed, cfg, pool, &idx_all, trace,
                            );
                            polish_sweeps = sweeps;
                            lb = lb.max(polished);
                        }
                        return finish(blocks, lb, false, passes_done, block_steps, polish_sweeps);
                    }
                    // --- Enter phase 2: bisection on the target B. ---
                    ub = coupling.objective();
                    zstar = blocks.clone();
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
                                zstar = blocks.clone();
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
                                zstar = blocks.clone();
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
                                if let Some(lr) = lagrangian_bound(
                                    &layout, &coupling, &smoothed, pool, &idx_all, true,
                                ) {
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
                let out_of_budget =
                    passes_done >= cfg.max_passes || over_wall() || over_steps(global_pass);
                // Pinched: B cannot move meaningfully anymore.
                let pinched = ub <= lo * (1.0 + cert);
                if converged || out_of_budget || pinched {
                    // Certification polish: tighten the Lagrangian
                    // bound by subgradient ascent from the (now
                    // well-tuned) EPF duals.
                    let mut polish_sweeps = 0;
                    if !converged && cfg.polish_iters > 0 {
                        let (polished, sweeps) =
                            polish_bound(&layout, &coupling, &smoothed, cfg, pool, &idx_all, trace);
                        polish_sweeps = sweeps;
                        lb = lb.max(polished);
                        converged = ub <= (1.0 + cert) * lb + 1e-9;
                    }
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
            assert_eq!(b.x.len(), data.clients.len());
            for dist in &b.x {
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
