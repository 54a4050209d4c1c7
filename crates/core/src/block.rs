//! The per-video block subproblem: (fractional) uncapacitated facility
//! location.
//!
//! Section V-C: after Lagrangizing the coupling constraints, each
//! video's subproblem over `F^m = {Σ_i x_ij = 1, x_ij ≤ y_i, x, y ≥ 0}`
//! is an uncapacitated facility-location problem (UFL) with facility
//! costs from the disk duals and service costs from the objective plus
//! link duals. Two solvers are provided:
//!
//! - [`UflProblem::solve_local_search_with_kernel`] — a
//!   Charikar–Guha-style add/drop/swap local search over *integral*
//!   solutions (Section V-D cites [11]); an integral solution is a
//!   vertex of `F^m`, so it is a valid gradient-descent direction and,
//!   in the rounding pass, a valid integer assignment.
//!   [`UflProblem::solve_local_search_fast_with_kernel`] is its
//!   add/drop-only variant for the EPF pass loop.
//! - [`UflProblem::dual_ascent_bound_with_kernel`] — an
//!   Erlenkotter-style dual ascent producing a *feasible dual*
//!   solution, i.e. a valid lower bound on the fractional block
//!   optimum. The Lagrangian bound `LR(λ)` of the Appendix needs the
//!   exact block minimum; a feasible dual lower-bounds it, so summing
//!   these keeps the global bound valid (see DESIGN.md §4).
//!
//! The EPF loop solves hundreds of thousands of these tiny instances
//! per run, so the service matrix is a single flat row-major buffer
//! (not a `Vec<Vec<f64>>`) and every solver takes a caller-owned
//! [`UflScratch`] so a long-lived worker re-solves blocks with zero
//! steady-state allocations (see DESIGN.md "Solver performance
//! architecture").
//!
//! Every solver also takes the [`Kernel`] backend of
//! [`crate::kernel`]: the lane backend replaces the facility-major
//! strided scans of [`Kernel::Scalar`] (the original loops verbatim)
//! with client-row streaming passes — per-element addition order
//! unchanged, so the trajectory is bitwise-identical to the scalar
//! reference (pinned by `tests/kernel_props.rs`).

use crate::kernel::{self, Kernel};

/// A (small) UFL instance: `n` candidate facilities (the VHOs), a
/// nonnegative opening cost per facility, and for every client a dense
/// row of nonnegative service costs, stored row-major in one flat
/// buffer.
#[derive(Debug, Clone, Default)]
pub struct UflProblem {
    pub facility_cost: Vec<f64>,
    /// `service[c·n + i]` = cost of serving client `c` from facility
    /// `i`. Private so the row-major layout stays an implementation
    /// detail; build via [`UflProblem::from_rows`]/[`UflProblem::from_flat`]
    /// or rebuild in place through [`UflProblem::reset`]/[`UflProblem::push_service`].
    service: Vec<f64>,
    n_clients: usize,
    /// Lane-only fused precompute ([`UflProblem::precompute_lane_aux`]):
    /// per-facility service column sums and per-client row minima,
    /// shared by the dual-ascent and local-search seeds when both run
    /// on the same build. Empty (= absent) unless the owning worker
    /// opted in; cleared by [`UflProblem::reset`].
    col_sums: Vec<f64>,
    row_mins: Vec<f64>,
}

/// An integral UFL solution.
#[derive(Debug, Clone, PartialEq)]
pub struct UflSolution {
    /// Open facilities, sorted ascending.
    pub open: Vec<usize>,
    /// `assign[c]` = the open facility serving client `c`.
    pub assign: Vec<usize>,
}

/// Reusable scratch buffers for the UFL solvers. One per worker thread;
/// contents are fully overwritten by each solve, so reuse can never
/// leak state between blocks (the determinism tests pin this down).
#[derive(Debug, Clone, Default)]
pub struct UflScratch {
    open: Vec<bool>,
    assign: Vec<usize>,
    new_assign: Vec<usize>,
    used: Vec<bool>,
    // Dual-ascent state. The lane local search borrows all three: `v`
    // for the DROP reroute sums, `budget` for the SWAP deltas, `order`
    // for the live open list (ascending).
    v: Vec<f64>,
    budget: Vec<f64>,
    order: Vec<usize>,
    // Lane-kernel accumulators: per-facility (facc) and per-client
    // (cacc) — gain screens, column sums, current-assignment costs.
    facc: Vec<f64>,
    cacc: Vec<f64>,
    // Per-client best / second-best open service (values + indices),
    // kept exact across the whole lane local-search call — O(C) insert
    // per ADD, rescan-affected per DROP (`cidx`/`cb2i` say who is
    // affected), full rescan per SWAP. The DROP and SWAP arms read
    // their reroute targets from it.
    cidx: Vec<usize>,
    calt: Vec<f64>,
    cbest: Vec<f64>,
    cb2i: Vec<usize>,
}

impl UflScratch {
    /// Approximate heap bytes a scratch holds once it has run every
    /// solver on blocks of up to `n` facilities × `clients` clients:
    /// two flag vectors and eleven word vectors — seven client-sized,
    /// `budget` and `facc` facility-sized, `v` and `order` sized by the
    /// larger of the two (dual ascent indexes them by client, the
    /// local search by facility).
    pub fn approx_bytes(n: usize, clients: usize) -> usize {
        let flags = 2 * n; // open, used
        let per_client = 7 * clients; // assign, new_assign, cacc, cidx, calt, cbest, cb2i
        let per_facility = 2 * n; // budget, facc
        let either = 2 * n.max(clients); // v, order
        flags + 8 * (per_client + per_facility + either)
    }
}

const TOL: f64 = 1e-12;

impl UflProblem {
    /// Build from per-client service rows (convenience for tests,
    /// benches and property harnesses; the hot path uses
    /// [`UflProblem::reset`] + [`UflProblem::push_service`] instead).
    // lint:allow(vec-vec-f64): boundary constructor that immediately
    // flattens the nested rows into the row-major buffer
    pub fn from_rows(facility_cost: Vec<f64>, rows: Vec<Vec<f64>>) -> Self {
        let n = facility_cost.len();
        let n_clients = rows.len();
        let mut service = Vec::with_capacity(n * n_clients);
        for row in rows {
            assert_eq!(row.len(), n, "service row width must match facilities");
            service.extend(row);
        }
        Self {
            facility_cost,
            service,
            n_clients,
            col_sums: Vec::new(),
            row_mins: Vec::new(),
        }
    }

    /// Build from an already-flat row-major service buffer.
    pub fn from_flat(facility_cost: Vec<f64>, service: Vec<f64>) -> Self {
        let n = facility_cost.len();
        assert!(n > 0, "UFL needs at least one facility");
        assert_eq!(service.len() % n, 0, "flat service buffer must be c·n long");
        let n_clients = service.len() / n;
        Self {
            facility_cost,
            service,
            n_clients,
            col_sums: Vec::new(),
            row_mins: Vec::new(),
        }
    }

    /// Clear for in-place rebuilding, keeping both buffers' capacity.
    pub fn reset(&mut self) {
        self.facility_cost.clear();
        self.service.clear();
        self.n_clients = 0;
        self.col_sums.clear();
        self.row_mins.clear();
    }

    /// One fused sweep over the freshly built service matrix filling
    /// `col_sums` (per-facility column sums, the best-single seed) and
    /// `row_mins` (per-client row minima, the dual-ascent seed) — the
    /// exact values, in the exact per-element addend order, that the
    /// standalone lane passes inside the two solvers would produce.
    /// Workers call this once per build when *both* solvers will run
    /// on the same problem, halving the seeding traffic. No-op for the
    /// scalar reference backend, which recomputes facility-major.
    pub(crate) fn precompute_lane_aux(&mut self, kernel: Kernel) {
        if matches!(kernel, Kernel::Scalar) {
            return;
        }
        let n = self.n_facilities();
        self.col_sums.clear();
        self.col_sums.resize(n, 0.0);
        self.row_mins.clear();
        self.row_mins.resize(self.n_clients, 0.0);
        for (slot, row) in self
            .row_mins
            .iter_mut()
            .zip(self.service.chunks_exact(n.max(1)))
        {
            kernel::accum(kernel, &mut self.col_sums, row);
            *slot = kernel::row_min(kernel, row);
        }
    }

    /// Append one client's service row (row-major). The row length is
    /// checked once per client in [`UflProblem::finish_client`]-free
    /// style: callers push exactly `n_facilities` values then call this.
    pub fn push_service_row(&mut self, row: impl IntoIterator<Item = f64>) {
        let before = self.service.len();
        self.service.extend(row);
        debug_assert_eq!(
            self.service.len() - before,
            self.n_facilities(),
            "service row width must match facilities"
        );
        self.n_clients += 1;
    }

    /// Append one zero-filled client row and return it for in-place
    /// writing — the lane-kernel build path fills the base costs
    /// elementwise, then streams penalty rows in with
    /// [`crate::kernel::axpy`]. Allocation-free in steady state (the
    /// buffer's capacity is retained across [`UflProblem::reset`]).
    pub fn push_service_row_zeroed(&mut self) -> &mut [f64] {
        let n = self.n_facilities();
        let start = self.service.len();
        self.service.resize(start + n, 0.0);
        self.n_clients += 1;
        &mut self.service[start..]
    }

    pub fn n_facilities(&self) -> usize {
        self.facility_cost.len()
    }

    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// One client's dense service row.
    #[inline]
    pub fn service_row(&self, c: usize) -> &[f64] {
        let n = self.n_facilities();
        &self.service[c * n..(c + 1) * n]
    }

    /// All service rows in client order.
    #[inline]
    pub fn service_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.service.chunks_exact(self.n_facilities().max(1))
    }

    /// Total cost of a solution.
    pub fn cost(&self, sol: &UflSolution) -> f64 {
        let open_cost: f64 = sol.open.iter().map(|&i| self.facility_cost[i]).sum();
        let service_cost: f64 = self
            .service_rows()
            .zip(&sol.assign)
            .map(|(row, &i)| row[i])
            .sum();
        open_cost + service_cost
    }

    fn assert_valid(&self) {
        let n = self.n_facilities();
        assert!(n > 0, "UFL needs at least one facility");
        debug_assert_eq!(self.service.len(), n * self.n_clients);
        debug_assert!(self
            .facility_cost
            .iter()
            .all(|&f| f >= 0.0 && f.is_finite()));
        debug_assert!(self.service.iter().all(|&c| c >= 0.0 && c.is_finite()));
    }

    /// Greedy start + add/drop/swap local search (bitwise-identical
    /// result whatever the backend).
    ///
    /// Every solution opens at least one facility even with zero
    /// clients — the MIP's constraints (3)+(4) imply `Σ_i y_i^m ≥ 1`
    /// (each video must be stored somewhere).
    pub fn solve_local_search_with_kernel(
        &self,
        scratch: &mut UflScratch,
        kernel: Kernel,
    ) -> UflSolution {
        self.local_search(true, scratch, kernel)
    }

    /// Add/drop-only local search: O(|V|·|C|) per round instead of the
    /// O(|V|²·|C|) swap scan. Slightly weaker solutions, but the EPF
    /// pass loop only needs descent *directions* — it calls this
    /// thousands of times per video, while the rounding pass (which
    /// commits integer decisions) uses the full search.
    pub fn solve_local_search_fast_with_kernel(
        &self,
        scratch: &mut UflScratch,
        kernel: Kernel,
    ) -> UflSolution {
        self.local_search(false, scratch, kernel)
    }

    fn local_search(
        &self,
        with_swaps: bool,
        scratch: &mut UflScratch,
        kernel: Kernel,
    ) -> UflSolution {
        self.assert_valid();
        let n = self.n_facilities();
        let n_clients = self.n_clients();
        let UflScratch {
            open,
            assign,
            new_assign,
            used,
            v,
            budget,
            order,
            facc,
            cacc,
            cidx,
            calt,
            cbest,
            cb2i,
        } = scratch;

        // Start: the single facility minimizing open + total service.
        // Scalar: the reference facility-major scan. Lane backends:
        // stream client rows into per-facility column sums — element
        // `i` receives the same addends in the same client order, so
        // the totals (and the strict-< argmin) are bitwise-identical.
        let mut best_single = 0;
        let mut best_single_cost = f64::MAX;
        match kernel {
            Kernel::Scalar => {
                for i in 0..n {
                    let c: f64 =
                        self.facility_cost[i] + self.service_rows().map(|row| row[i]).sum::<f64>();
                    if c < best_single_cost {
                        best_single_cost = c;
                        best_single = i;
                    }
                }
            }
            _ => {
                let cols: &[f64] = if self.col_sums.len() == n {
                    &self.col_sums
                } else {
                    facc.clear();
                    facc.resize(n, 0.0);
                    for row in self.service_rows() {
                        kernel::accum(kernel, facc, row);
                    }
                    facc
                };
                for (i, &col) in cols.iter().enumerate() {
                    let c = self.facility_cost[i] + col;
                    if c < best_single_cost {
                        best_single_cost = c;
                        best_single = i;
                    }
                }
            }
        }
        open.clear();
        open.resize(n, false);
        open[best_single] = true;
        assign.clear();
        assign.resize(n_clients, best_single);

        // Local search: first-improvement add / drop / swap moves.
        let max_rounds = 4 * n + 16;
        let lane = !matches!(kernel, Kernel::Scalar);
        // Lane backends keep a per-client (best, second-best) view of
        // the open set — the lexicographic `(value, index)` top-2, i.e.
        // what the reference's ascending first-minimum scans would
        // find — and the open list itself (`order`, ascending) exact
        // across the whole call: seeded from the singleton start,
        // extended in O(C) per applied ADD, repaired per applied DROP
        // by rescanning only the clients whose best or second-best was
        // the dropped facility, and rescanned per applied SWAP.
        if lane {
            cbest.clear();
            cbest.resize(n_clients, 0.0);
            for (slot, row) in cbest.iter_mut().zip(self.service_rows()) {
                *slot = row[best_single];
            }
            cidx.clear();
            cidx.resize(n_clients, best_single);
            calt.clear();
            calt.resize(n_clients, f64::INFINITY);
            cb2i.clear();
            cb2i.resize(n_clients, usize::MAX);
            order.clear();
            order.reserve(n);
            order.push(best_single);
        }
        let mut add_screen_valid = false;
        // Fresh-screen exactness: right after the streaming precompute,
        // `facc[k] − f_k` is *bitwise* the reference gain (same addends
        // in the same client order), so survivors may apply without the
        // exact re-evaluation — until the first state change staples
        // the screen back to an upper bound.
        let mut add_screen_exact = false;
        // Clean-phase skips: a phase's move sequence is a pure function
        // of (costs, open, assign), and the lane arms are pinned
        // bitwise to the scalar reference. So if the last evaluation of
        // a phase applied nothing and no other phase has changed state
        // since, re-evaluating it must again apply nothing — the lane
        // backends skip it outright.
        let mut add_clean = false;
        let mut drop_clean = false;
        for _round in 0..max_rounds {
            let mut improved = false;

            // ADD moves: open k, reassign clients that benefit. Lane
            // backends pre-screen with one streaming pass: `facc[k]`
            // is the gain computed against the assignment *frozen at
            // screen-build time*, which upper-bounds the live gain —
            // applied ADDs only move clients to cheaper rows, every
            // screen term dominates its live term, and f64 addition is
            // monotone, so `facc[k] − f_k ≤ TOL` proves the scalar
            // loop would skip `k` too. The screen therefore stays
            // valid across rounds until a DROP or SWAP raises some
            // client's cost (which invalidates it below); survivors
            // are re-evaluated with the exact reference expression, so
            // the move sequence is bitwise-identical to the scalar
            // backend's.
            let mut added = false;
            if !(lane && add_clean) {
                if lane && !add_screen_valid {
                    cacc.clear();
                    cacc.resize(n_clients, 0.0);
                    for (slot, (row, &a)) in cacc.iter_mut().zip(self.service_rows().zip(&*assign))
                    {
                        *slot = row[a];
                    }
                    facc.clear();
                    facc.resize(n, 0.0);
                    for (row, &cur) in self.service_rows().zip(&*cacc) {
                        kernel::accum_relu_sub(kernel, facc, cur, row);
                    }
                    add_screen_valid = true;
                    add_screen_exact = true;
                }
                for k in 0..n {
                    if open[k] {
                        continue;
                    }
                    if lane && facc[k] - self.facility_cost[k] <= TOL {
                        continue;
                    }
                    if !(lane && add_screen_exact) {
                        let fl: f64 = self
                            .service_rows()
                            .zip(assign.iter())
                            .map(|(row, &cur)| (row[cur] - row[k]).max(0.0))
                            .sum::<f64>();
                        if lane {
                            // Memoize the exact re-sum: client costs
                            // only decrease as facilities open, so the
                            // live value stays a sound upper bound for
                            // every later screen of k, far tighter
                            // than the phase-start snapshot.
                            facc[k] = fl;
                        }
                        let gain = fl - self.facility_cost[k];
                        if gain <= TOL {
                            continue;
                        }
                    }
                    open[k] = true;
                    if lane {
                        if let Err(pos) = order.binary_search(&k) {
                            order.insert(pos, k);
                        }
                        // Same reassignments as the reference loop
                        // below, fused with the O(C) top-2 insert so
                        // `row[k]` is gathered once (all-zip iteration:
                        // no per-client bounds checks). The insert is a
                        // lexicographic (value, index) top-2 update:
                        // the reference breaks value ties by keeping
                        // the *earliest* facility in its ascending
                        // first-minimum scan, so the cached indices
                        // must do the same for the DROP direct-apply
                        // below to reroute onto the exact facility the
                        // reference would pick. (Service values are
                        // finite, nonnegative sums — never NaN or
                        // -0.0 — so `total_cmp` agrees with `<`.)
                        let cache = cbest
                            .iter_mut()
                            .zip(calt.iter_mut())
                            .zip(cidx.iter_mut().zip(cb2i.iter_mut()));
                        for ((row, a), ((cb, ca), (ci, c2))) in
                            self.service_rows().zip(assign.iter_mut()).zip(cache)
                        {
                            let s = row[k];
                            if s < row[*a] {
                                *a = k;
                            }
                            match s.total_cmp(cb) {
                                std::cmp::Ordering::Less => {
                                    *ca = *cb;
                                    *c2 = *ci;
                                    *cb = s;
                                    *ci = k;
                                }
                                std::cmp::Ordering::Equal if k < *ci => {
                                    *ca = *cb;
                                    *c2 = *ci;
                                    *cb = s;
                                    *ci = k;
                                }
                                _ => match s.total_cmp(ca) {
                                    std::cmp::Ordering::Less => {
                                        *ca = s;
                                        *c2 = k;
                                    }
                                    std::cmp::Ordering::Equal if k < *c2 => {
                                        *ca = s;
                                        *c2 = k;
                                    }
                                    _ => {}
                                },
                            }
                        }
                    } else {
                        for (row, a) in self.service_rows().zip(assign.iter_mut()) {
                            if row[k] < row[*a] {
                                *a = k;
                            }
                        }
                    }
                    improved = true;
                    added = true;
                    add_screen_exact = false;
                }
            }
            if lane {
                add_clean = !added;
                if added {
                    drop_clean = false;
                }
            }

            // DROP moves: close k if rerouting its clients to their
            // best other open facility saves the opening cost.
            let mut dropped = false;
            let open_count = open.iter().filter(|&&o| o).count();
            if open_count > 1 {
                match kernel {
                    Kernel::Scalar => {
                        for k in 0..n {
                            if !open[k] {
                                continue;
                            }
                            if open.iter().filter(|&&o| o).count() == 1 {
                                break;
                            }
                            let mut reroute_penalty = 0.0;
                            let mut feasible = true;
                            new_assign.clear();
                            new_assign.extend_from_slice(assign);
                            for (c, (row, &cur)) in
                                self.service_rows().zip(assign.iter()).enumerate()
                            {
                                if cur == k {
                                    let alt = (0..n)
                                        .filter(|&i| i != k && open[i])
                                        .min_by(|&a, &b| row[a].total_cmp(&row[b]));
                                    match alt {
                                        Some(alt) => {
                                            reroute_penalty += row[alt] - row[k];
                                            new_assign[c] = alt;
                                        }
                                        None => {
                                            feasible = false;
                                            break;
                                        }
                                    }
                                }
                            }
                            if feasible && self.facility_cost[k] - reroute_penalty > TOL {
                                open[k] = false;
                                std::mem::swap(assign, new_assign);
                                improved = true;
                            }
                        }
                    }
                    _ => {
                        // Lane backends: the per-facility reroute sums
                        // in `v` are not a screen but the *exact*
                        // reference penalties. For each k, the
                        // reference accumulates (alt − row[k]) over
                        // clients assigned to k in ascending client
                        // order, where alt is the first-minimum of the
                        // live open list excluding k. The `v` build
                        // below streams clients in that same ascending
                        // order, each contributing to exactly its own
                        // v[assign[c]] — identical addends in an
                        // identical order, starting from 0.0 — and the
                        // top-2 cache supplies the identical alt value
                        // (second-best when k holds the client's
                        // minimum, best otherwise; on value ties the
                        // cache stores the earliest index, matching
                        // the reference scan, so the rerouted-onto
                        // facility is also the exact one the reference
                        // picks). Passing `f_k − v[k] > TOL` therefore
                        // IS the reference apply decision: candidates
                        // apply directly with no re-evaluation, and
                        // after each apply the cache is repaired and
                        // `v` rebuilt from the live state so the
                        // remaining candidates stay exact. The move
                        // sequence is bitwise-identical by
                        // construction.
                        if drop_clean {
                            // Unchanged inputs since the last no-op
                            // DROP evaluation: nothing can apply.
                        } else {
                            // `v` (dual-ascent scratch, free here) hosts the
                            // per-facility frozen reroute penalties —
                            // `facc` must survive untouched: it still holds
                            // the cached ADD screen.
                            v.clear();
                            v.resize(n, 0.0);
                            for (((row, &cur), (&ci, &ca)), &cb) in self
                                .service_rows()
                                .zip(assign.iter())
                                .zip(cidx.iter().zip(calt.iter()))
                                .zip(cbest.iter())
                            {
                                let alt = if ci == cur { ca } else { cb };
                                v[cur] += alt - row[cur];
                            }
                            // `order` is the live open list (sorted
                            // ascending; drops remove in place), so the
                            // repairs' alt-min scans are O(|open|) instead
                            // of O(n) and match the reference iteration
                            // order exactly.
                            for k in 0..n {
                                if !open[k] {
                                    continue;
                                }
                                if order.len() == 1 {
                                    break;
                                }
                                if self.facility_cost[k] - v[k] <= TOL {
                                    continue;
                                }
                                // Exact screen passed ⇒ the reference would
                                // apply this drop with reroute penalty
                                // bitwise-equal to v[k]. Apply directly:
                                // clients on k move to their cached
                                // alternative (second-best index when k was
                                // their minimum, best index otherwise —
                                // exactly the reference's first-minimum
                                // over the live open list minus k).
                                let reroute_penalty = v[k];
                                open[k] = false;
                                for (a, (&ci, &c2)) in
                                    assign.iter_mut().zip(cidx.iter().zip(cb2i.iter()))
                                {
                                    if *a == k {
                                        *a = if ci == k { c2 } else { ci };
                                    }
                                }
                                improved = true;
                                dropped = true;
                                add_screen_exact = false;
                                // Rerouted clients got more expensive,
                                // but by at most `reroute_penalty` in
                                // total — so adding it (with a relative
                                // cushion that dominates the O(C·u)
                                // accumulated rounding slop of the
                                // re-summed gains) keeps every cached
                                // ADD gain a sound upper bound. Loose
                                // is safe: a false survivor is merely
                                // re-evaluated exactly; only a false
                                // skip could diverge from scalar.
                                for g in facc.iter_mut() {
                                    *g = (*g + reroute_penalty) * (1.0 + 1e-9);
                                }
                                if let Ok(pos) = order.binary_search(&k) {
                                    order.remove(pos);
                                }
                                // Repair the top-2 cache: only clients
                                // whose best or second-best was `k`
                                // rescan the (live) open list.
                                self.rescan_top2(order, Some(k), cbest, cidx, calt, cb2i);
                                // Rebuild the exact reroute sums against
                                // the new live state so the remaining
                                // candidates keep the direct-apply
                                // guarantee.
                                v.clear();
                                v.resize(n, 0.0);
                                for (((row, &cur), (&ci, &ca)), &cb) in self
                                    .service_rows()
                                    .zip(assign.iter())
                                    .zip(cidx.iter().zip(calt.iter()))
                                    .zip(cbest.iter())
                                {
                                    let alt = if ci == cur { ca } else { cb };
                                    v[cur] += alt - row[cur];
                                }
                            }
                        }
                    }
                }
            }
            if lane {
                drop_clean = !dropped;
                if dropped {
                    add_clean = false;
                }
            }

            // SWAP moves: replace open k by closed k2.
            if !with_swaps {
                if !improved {
                    break;
                }
                continue;
            }
            match kernel {
                Kernel::Scalar => {
                    for k in 0..n {
                        if !open[k] {
                            continue;
                        }
                        for k2 in 0..n {
                            if open[k2] {
                                continue;
                            }
                            // Cost after the swap: every client picks its
                            // best among (open \ {k}) ∪ {k2}.
                            let mut delta = self.facility_cost[k2] - self.facility_cost[k];
                            new_assign.clear();
                            new_assign.extend_from_slice(assign);
                            for (c, (row, &cur)) in
                                self.service_rows().zip(assign.iter()).enumerate()
                            {
                                let best = (0..n)
                                    .filter(|&i| (open[i] && i != k) || i == k2)
                                    .min_by(|&a, &b| row[a].total_cmp(&row[b]))
                                    .expect("k2 is always available"); // lint:allow(no-panic-hot-path): filter admits i == k2, set never empty
                                delta += row[best] - row[cur];
                                new_assign[c] = best;
                            }
                            if delta < -TOL {
                                open[k] = false;
                                open[k2] = true;
                                std::mem::swap(assign, new_assign);
                                improved = true;
                                break;
                            }
                        }
                    }
                }
                _ => {
                    // Lane backends evaluate every incoming k2 of a fixed
                    // outgoing k in one streaming pass. Client c's best
                    // over open ∖ {k} is already in the top-2 cache
                    // (second-best when k holds its minimum, best
                    // otherwise; +∞ when k is the only open facility),
                    // and the reference's `row[best]` over
                    // (open ∖ {k}) ∪ {k2} has the bits of
                    // `min(row[k2], alt)` — tied doubles are equal bits,
                    // and there is no NaN and no -0.0. Seeding
                    // `budget[k2]` with `f_k2 − f_k` and streaming the
                    // clients in ascending order therefore gives every
                    // k2 the reference's `delta`: the same addends in
                    // the same order. (`facc` and `v` are taken: the
                    // live ADD screen and the DROP sums.)
                    budget.clear();
                    budget.resize(n, 0.0);
                    for k in 0..n {
                        if !open[k] {
                            continue;
                        }
                        let fk = self.facility_cost[k];
                        for (slot, &f) in budget.iter_mut().zip(&self.facility_cost) {
                            *slot = f - fk;
                        }
                        for (((row, &cur), (&ci, &ca)), &cb) in self
                            .service_rows()
                            .zip(assign.iter())
                            .zip(cidx.iter().zip(calt.iter()))
                            .zip(cbest.iter())
                        {
                            let alt = if ci == k { ca } else { cb };
                            kernel::accum_min_sub(kernel, budget, row, alt, row[cur]);
                        }
                        // The reference takes the first improving k2 in
                        // ascending order and leaves only the k2 loop.
                        let Some(k2) = (0..n).find(|&k2| !open[k2] && budget[k2] < -TOL) else {
                            continue;
                        };
                        open[k] = false;
                        open[k2] = true;
                        // Every client moves to the reference's
                        // first-minimum over the new open set: the
                        // lexicographic smaller of (row[k2], k2) and its
                        // cached alternative.
                        let cache = cbest
                            .iter()
                            .zip(calt.iter())
                            .zip(cidx.iter().zip(cb2i.iter()));
                        for ((row, a), ((&cb, &ca), (&ci, &c2))) in
                            self.service_rows().zip(assign.iter_mut()).zip(cache)
                        {
                            let alt = if ci == k { (ca, c2) } else { (cb, ci) };
                            *a = if (row[k2], k2) < alt { k2 } else { alt.1 };
                        }
                        if let Ok(pos) = order.binary_search(&k) {
                            order.remove(pos);
                        }
                        if let Err(pos) = order.binary_search(&k2) {
                            order.insert(pos, k2);
                        }
                        self.rescan_top2(order, None, cbest, cidx, calt, cb2i);
                        improved = true;
                        // A swap may move clients to costlier rows and
                        // replaces an open facility wholesale.
                        add_screen_valid = false;
                        add_screen_exact = false;
                        add_clean = false;
                        drop_clean = false;
                    }
                }
            }

            if !improved {
                break;
            }
        }

        // Drop opened-but-unused facilities (keep at least one).
        used.clear();
        used.resize(n, false);
        for &a in assign.iter() {
            used[a] = true;
        }
        let mut open_list: Vec<usize> = (0..n).filter(|&i| open[i] && used[i]).collect();
        if open_list.is_empty() {
            // No clients: keep the cheapest open facility.
            let keep = (0..n)
                .filter(|&i| open[i])
                .min_by(|&a, &b| self.facility_cost[a].total_cmp(&self.facility_cost[b]))
                .expect("at least one facility is open"); // lint:allow(no-panic-hot-path): UFL keeps >= 1 facility open
            open_list.push(keep);
        }
        UflSolution {
            open: open_list,
            assign: assign.clone(),
        }
    }

    /// Rescan the open list `order` (ascending) for the lexicographic
    /// `(value, index)` top-2 of each client — of every client, or with
    /// `touching = Some(k)` only of those whose cached best or
    /// second-best is `k`. The ascending strict-`<` scan keeps the
    /// earliest index on value ties, as the reference's first-minimum
    /// scans do; fewer than two open facilities leave `(+∞, MAX)`.
    fn rescan_top2(
        &self,
        order: &[usize],
        touching: Option<usize>,
        cbest: &mut [f64],
        cidx: &mut [usize],
        calt: &mut [f64],
        cb2i: &mut [usize],
    ) {
        for (c, row) in self.service_rows().enumerate() {
            if touching.is_some_and(|k| cidx[c] != k && cb2i[c] != k) {
                continue;
            }
            let mut b1 = f64::INFINITY;
            let mut b1i = usize::MAX;
            let mut b2 = f64::INFINITY;
            let mut b2i = usize::MAX;
            for &i in order {
                let s = row[i];
                if s < b1 {
                    b2 = b1;
                    b2i = b1i;
                    b1 = s;
                    b1i = i;
                } else if s < b2 {
                    b2 = s;
                    b2i = i;
                }
            }
            cbest[c] = b1;
            cidx[c] = b1i;
            calt[c] = b2;
            cb2i[c] = b2i;
        }
    }

    /// Erlenkotter-style dual ascent: returns a valid lower bound on
    /// the *fractional* UFL optimum (and hence on the integral one).
    ///
    /// Maintains dual feasibility `Σ_c (v_c − s_ci)⁺ ≤ f_i` throughout;
    /// the bound is `Σ_c v_c`. With zero clients the bound is the
    /// cheapest opening cost (one copy is always required). The bound
    /// is bitwise-identical whatever the backend: the min reductions
    /// are exactly reorderable — no NaN, no `-0.0` — and every sum
    /// keeps its per-element scalar order.
    pub fn dual_ascent_bound_with_kernel(&self, scratch: &mut UflScratch, kernel: Kernel) -> f64 {
        self.assert_valid();
        let n = self.n_facilities();
        if self.n_clients == 0 {
            return self.facility_cost.iter().cloned().fold(f64::MAX, f64::min);
        }
        let UflScratch {
            v,
            budget,
            order,
            facc,
            cidx,
            ..
        } = scratch;
        // v_c starts at the client's cheapest service cost (feasible:
        // every (v_c - s_ci)+ is 0 at the argmin and negative terms
        // don't count... they are zero for all i with s_ci >= v_c).
        v.clear();
        match kernel {
            Kernel::Scalar => v.extend(
                self.service_rows()
                    .map(|row| row.iter().cloned().fold(f64::MAX, f64::min)),
            ),
            _ => {
                if self.row_mins.len() == self.n_clients {
                    v.extend_from_slice(&self.row_mins);
                } else {
                    v.extend(self.service_rows().map(|row| kernel::row_min(kernel, row)));
                }
            }
        }
        // Remaining budget of each facility. Scalar: the reference
        // facility-major scan; lane backends: stream client rows into
        // per-facility consumption (same per-element addend order).
        budget.clear();
        match kernel {
            Kernel::Scalar => budget.extend((0..n).map(|i| {
                let used: f64 = v
                    .iter()
                    .zip(self.service_rows())
                    .map(|(&vc, row)| (vc - row[i]).max(0.0))
                    .sum();
                self.facility_cost[i] - used
            })),
            _ => {
                facc.clear();
                facc.resize(n, 0.0);
                for (row, &vc) in self.service_rows().zip(&*v) {
                    kernel::accum_relu_sub(kernel, facc, vc, row);
                }
                budget.extend(
                    self.facility_cost
                        .iter()
                        .zip(&*facc)
                        .map(|(&f, &used)| f - used),
                );
            }
        }
        debug_assert!(budget.iter().all(|&b| b >= -1e-9));

        // Ascend until no client can be raised (DUALOC-style); process
        // clients in ascending-v order each pass, which empirically
        // tightens the bound substantially. `order` is (re)initialized
        // once — the total-order comparator makes each pass's sort
        // independent of the incoming permutation.
        order.clear();
        order.extend(0..v.len());
        match kernel {
            Kernel::Scalar => {
                for _pass in 0..30 {
                    order.sort_by(|&a, &b| v[a].total_cmp(&v[b]).then(a.cmp(&b)));
                    let mut raised = 0.0;
                    for &c in order.iter() {
                        let row = self.service_row(c);
                        // Max uniform raise of v_c keeping all facilities
                        // within budget: for facility i the raise may
                        // consume budget only beyond max(s_ci, v_c).
                        let mut delta = f64::MAX;
                        for i in 0..n {
                            let headroom = (row[i] - v[c]).max(0.0) + budget[i].max(0.0);
                            delta = delta.min(headroom);
                        }
                        if delta > 1e-12 && delta < f64::MAX {
                            for i in 0..n {
                                let inc = (v[c] + delta - row[i].max(v[c])).max(0.0);
                                budget[i] -= inc;
                            }
                            v[c] += delta;
                            raised += delta;
                        }
                    }
                    if raised < 1e-12 {
                        break;
                    }
                }
            }
            _ => {
                // Lane backends retire quiescent clients: once a client
                // fails `delta > 1e-12`, its v_c is frozen while every
                // budget only drains and its row is fixed, so its
                // headroom (hence delta) is non-increasing — it can
                // never raise again. Skipping it is bitwise-invisible
                // (a no-raise iteration reads state without writing:
                // raising would add `+0.0` to nothing), the surviving
                // clients keep their exact relative sort order, and the
                // pass count is unchanged (a pass of retirees yields
                // `raised = 0.0` for scalar too). Each pass compacts
                // `order` in place to the still-active clients.
                // `cidx` (free local-search scratch) lists the dead
                // facilities — drained budgets. A client whose row
                // meets a dead facility at or below its v_c has
                // headroom `(row_i − v_c)⁺ + budget_i⁺ ≤ 1e-12` there,
                // so its delta cannot clear the raise threshold: it
                // retires without the O(n) headroom scan. The skip is
                // exactly the decision scalar reaches the long way.
                let dead = cidx;
                for _pass in 0..30 {
                    order.sort_by(|&a, &b| v[a].total_cmp(&v[b]).then(a.cmp(&b)));
                    dead.clear();
                    // lint:allow(alloc-in-hot-loop): refills within capacity retained across calls (≤ n slots)
                    dead.extend((0..n).filter(|&i| budget[i] <= 1e-12));
                    let mut raised = 0.0;
                    let mut kept = 0;
                    for idx in 0..order.len() {
                        let c = order[idx];
                        let row = self.service_row(c);
                        if dead.iter().any(|&i| row[i] <= v[c]) {
                            continue;
                        }
                        let delta = kernel::headroom_min(kernel, row, v[c], budget);
                        if delta > 1e-12 && delta < f64::MAX {
                            kernel::drain_budget(kernel, budget, row, v[c], delta);
                            v[c] += delta;
                            raised += delta;
                            order[kept] = c;
                            kept += 1;
                        }
                    }
                    order.truncate(kept);
                    if raised < 1e-12 {
                        break;
                    }
                }
            }
        }
        v.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full local search and dual-ascent bound of `p` on every backend.
    fn solve_on_all(p: &UflProblem) -> Vec<(Kernel, UflSolution, f64)> {
        let mut scratch = UflScratch::default();
        Kernel::all()
            .iter()
            .map(|&k| {
                let sol = p.solve_local_search_with_kernel(&mut scratch, k);
                let lb = p.dual_ascent_bound_with_kernel(&mut scratch, k);
                (k, sol, lb)
            })
            .collect()
    }

    /// Bound sandwich and solution invariants, on every backend.
    fn check_bound_sandwich(p: &UflProblem) {
        for (k, sol, lb) in solve_on_all(p) {
            let ub = p.cost(&sol);
            assert!(
                lb <= ub + 1e-9,
                "dual bound {lb} must not exceed heuristic cost {ub} ({})",
                k.name()
            );
            // Solution invariants.
            assert!(!sol.open.is_empty());
            for &a in &sol.assign {
                assert!(sol.open.contains(&a), "client assigned to closed facility");
            }
        }
    }

    #[test]
    fn single_facility_trivial() {
        let p = UflProblem::from_rows(vec![3.0], vec![vec![1.0], vec![2.0]]);
        for (_, sol, lb) in solve_on_all(&p) {
            assert_eq!(sol.open, vec![0]);
            assert_eq!(p.cost(&sol), 6.0);
            assert!(lb <= 6.0 + 1e-9);
        }
    }

    #[test]
    fn opens_second_facility_when_worth_it() {
        // Facility 0 cheap to open but far from client 1; facility 1
        // expensive but essential.
        let p = UflProblem::from_rows(vec![1.0, 2.0], vec![vec![0.0, 10.0], vec![10.0, 0.0]]);
        for (_, sol, _) in solve_on_all(&p) {
            assert_eq!(sol.open, vec![0, 1]);
            assert_eq!(p.cost(&sol), 3.0);
        }
        check_bound_sandwich(&p);
    }

    #[test]
    fn consolidates_when_opening_costly() {
        let p = UflProblem::from_rows(vec![100.0, 100.0], vec![vec![1.0, 2.0], vec![2.0, 1.0]]);
        for (_, sol, _) in solve_on_all(&p) {
            assert_eq!(sol.open.len(), 1);
            assert_eq!(p.cost(&sol), 103.0);
        }
        check_bound_sandwich(&p);
    }

    #[test]
    fn swap_escapes_local_trap() {
        // Start greedy would pick facility 0 (cheap overall), but the
        // true optimum is facility 2 alone.
        let p = UflProblem::from_rows(
            vec![0.0, 50.0, 1.0],
            vec![
                vec![5.0, 0.0, 0.5],
                vec![5.0, 0.0, 0.5],
                vec![5.0, 0.0, 0.5],
            ],
        );
        for (k, sol, _) in solve_on_all(&p) {
            assert_eq!(sol.open, vec![2], "{}", k.name());
            assert!((p.cost(&sol) - 2.5).abs() < 1e-9);
        }
    }

    /// The full search gives `open` / `assign` on every backend.
    fn assert_full_search(p: &UflProblem, open: &[usize], assign: &[usize]) {
        for (k, sol, _) in solve_on_all(p) {
            assert_eq!(sol.open, open, "{}", k.name());
            assert_eq!(sol.assign, assign, "{}", k.name());
        }
    }

    #[test]
    fn swap_out_of_the_only_open_facility() {
        // The two column totals round to the same double (ulp 2 at
        // 1e16), so the strict-< start keeps facility 0; ADD and DROP
        // cannot move, and the SWAP delta — summed client by client —
        // sees the 0.75 the totals lost. Every client's alternative
        // among the facilities staying open is +∞ here.
        let p = UflProblem::from_rows(vec![10.0, 9.5], vec![vec![1e16, 1e16], vec![1.0, 0.75]]);
        assert_full_search(&p, &[1], &[1, 1]);
    }

    #[test]
    fn swap_phase_carries_on_after_an_applied_swap() {
        // Start {1}, ADD 0, then three swaps in one SWAP phase: 0 → 4,
        // 1 → 0 (reopening what the first closed) and 4 → 2, each on
        // the state the previous one left. Leaving the phase after the
        // first swap instead ends on {2, 4}.
        let p = UflProblem::from_rows(
            vec![3.0, 4.0, 0.5, 3.0, 1.5],
            vec![
                vec![1.0, 1.0, 2.0, 8.0, 8.0],
                vec![0.5, 4.0, 8.0, 0.5, 1.0],
                vec![8.0, 0.5, 0.0, 8.0, 0.5],
            ],
        );
        assert_full_search(&p, &[0, 2], &[0, 0, 2]);
    }

    #[test]
    fn swap_ties_go_to_the_earliest_facility() {
        // Start {2}, ADD 0, then swaps 0 → 1 and 2 → 3 in one round
        // (neither 1 nor 3 pays as an ADD). Two clients' incoming
        // facility ties their incumbent on value: client 5 ties
        // incoming 1 with incumbent 2 and moves (lower index), client 6
        // ties incoming 3 with incumbent 1 and stays (higher index) —
        // the reference's first minimum. Client 4 ties 0 and 2 and is
        // rerouted by the first swap.
        let p = UflProblem::from_rows(
            vec![3.0, 4.0, 3.5, 5.25],
            vec![
                vec![1.0, 0.0, 10.0, 10.0],
                vec![1.0, 0.0, 10.0, 10.0],
                vec![10.0, 10.0, 1.0, 0.0],
                vec![10.0, 10.0, 1.0, 0.0],
                vec![0.0, 5.0, 0.0, 0.0],
                vec![0.5, 0.25, 0.25, 1.0],
                vec![1.0, 0.25, 0.5, 0.25],
            ],
        );
        assert_full_search(&p, &[1, 3], &[1, 1, 3, 3, 3, 1, 1]);
    }

    #[test]
    fn zero_clients_opens_cheapest() {
        let p = UflProblem::from_rows(vec![5.0, 2.0, 7.0], vec![]);
        for (k, sol, lb) in solve_on_all(&p) {
            assert_eq!(sol.open, vec![1], "{}", k.name());
            assert_eq!(lb, 2.0);
        }
    }

    #[test]
    fn free_facilities_serve_everyone_locally() {
        // Zero facility costs: open everything useful, serve at min.
        let p = UflProblem::from_rows(vec![0.0; 3], vec![vec![4.0, 1.0, 9.0], vec![0.5, 3.0, 9.0]]);
        for (k, sol, lb) in solve_on_all(&p) {
            assert!((p.cost(&sol) - 1.5).abs() < 1e-9, "{}", k.name());
            // Dual bound equals optimum here (LP tight).
            assert!((lb - 1.5).abs() < 1e-9, "{}", k.name());
        }
    }

    #[test]
    fn dual_bound_reasonably_tight_random() {
        use rand::Rng;
        let mut rng = vod_model::rng::rng_from_seed(99);
        for _case in 0..50 {
            let n = rng.gen_range(2..8);
            let c = rng.gen_range(1..10);
            let p = UflProblem::from_rows(
                (0..n).map(|_| rng.gen_range(0.0..5.0)).collect(),
                (0..c)
                    .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect())
                    .collect(),
            );
            check_bound_sandwich(&p);
            // On small instances the gap should typically be modest.
            for (_, sol, lb) in solve_on_all(&p) {
                let ub = p.cost(&sol);
                assert!(ub <= 3.0 * lb.max(0.5), "loose: lb={lb} ub={ub}");
            }
        }
    }

    #[test]
    fn local_search_beats_naive_baselines() {
        use rand::Rng;
        let mut rng = vod_model::rng::rng_from_seed(7);
        for _ in 0..20 {
            let n = rng.gen_range(3..10);
            let c = rng.gen_range(1..12);
            let p = UflProblem::from_rows(
                (0..n).map(|_| rng.gen_range(0.0..8.0)).collect(),
                (0..c)
                    .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect())
                    .collect(),
            );
            // Baseline 1: everything open.
            let all = UflSolution {
                open: (0..n).collect(),
                assign: p
                    .service_rows()
                    .map(|row| (0..n).min_by(|&a, &b| row[a].total_cmp(&row[b])).unwrap())
                    .collect(),
            };
            // Baseline 2: best single facility.
            let best_single = (0..n)
                .map(|i| p.facility_cost[i] + p.service_rows().map(|r| r[i]).sum::<f64>())
                .fold(f64::MAX, f64::min);
            for (_, sol, _) in solve_on_all(&p) {
                let got = p.cost(&sol);
                assert!(got <= p.cost(&all) + 1e-9);
                assert!(got <= best_single + 1e-9);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_pure() {
        // Re-solving different problems through one scratch must give
        // exactly the fresh-scratch answers (workers reuse scratch
        // across thousands of blocks).
        use rand::Rng;
        let mut rng = vod_model::rng::rng_from_seed(31);
        let mut scratch = UflScratch::default();
        for _ in 0..30 {
            let n = rng.gen_range(1..9);
            let c = rng.gen_range(0..10);
            let p = UflProblem::from_rows(
                (0..n).map(|_| rng.gen_range(0.0..8.0)).collect(),
                (0..c)
                    .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect())
                    .collect(),
            );
            for &k in Kernel::all() {
                assert_eq!(
                    p.solve_local_search_fast_with_kernel(&mut scratch, k),
                    p.solve_local_search_fast_with_kernel(&mut UflScratch::default(), k)
                );
                assert_eq!(
                    p.solve_local_search_with_kernel(&mut scratch, k),
                    p.solve_local_search_with_kernel(&mut UflScratch::default(), k)
                );
                assert_eq!(
                    p.dual_ascent_bound_with_kernel(&mut scratch, k).to_bits(),
                    p.dual_ascent_bound_with_kernel(&mut UflScratch::default(), k)
                        .to_bits()
                );
            }
        }
    }

    #[test]
    fn approx_bytes_tracks_the_real_field_list() {
        // What a scratch really holds after every solver ran on both
        // backends, against the shape-only estimate `EpfStats` reports.
        use rand::Rng;
        let mut rng = vod_model::rng::rng_from_seed(5);
        for (n, c) in [(12usize, 30usize), (40, 9)] {
            let p = UflProblem::from_rows(
                (0..n).map(|_| rng.gen_range(1.0..3.0)).collect(),
                (0..c)
                    .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect())
                    .collect(),
            );
            let mut s = UflScratch::default();
            for &k in Kernel::all() {
                p.solve_local_search_with_kernel(&mut s, k);
                p.dual_ascent_bound_with_kernel(&mut s, k);
            }
            let words: usize = [
                s.assign.capacity(),
                s.new_assign.capacity(),
                s.order.capacity(),
                s.cidx.capacity(),
                s.cb2i.capacity(),
                s.v.capacity(),
                s.budget.capacity(),
                s.facc.capacity(),
                s.cacc.capacity(),
                s.calt.capacity(),
                s.cbest.capacity(),
            ]
            .iter()
            .sum();
            let held = s.open.capacity() + s.used.capacity() + 8 * words;
            let estimate = UflScratch::approx_bytes(n, c);
            assert!(
                held * 4 >= estimate * 3 && held * 3 <= estimate * 4,
                "{n}x{c}: holds {held} B, estimate {estimate} B"
            );
        }
    }

    #[test]
    fn flat_and_rows_constructors_agree() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]];
        let a = UflProblem::from_rows(vec![0.5, 0.25], rows);
        let b = UflProblem::from_flat(vec![0.5, 0.25], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.n_clients(), 3);
        assert_eq!(a.service_row(1), b.service_row(1));
        assert_eq!(
            a.service_rows().collect::<Vec<_>>(),
            b.service_rows().collect::<Vec<_>>()
        );
    }

    #[test]
    fn in_place_rebuild_reuses_buffers() {
        let mut p = UflProblem::from_rows(vec![1.0, 2.0], vec![vec![1.0, 2.0]]);
        let cap_f = p.facility_cost.capacity();
        p.reset();
        assert_eq!(p.n_clients(), 0);
        p.facility_cost.extend([3.0, 4.0]);
        p.push_service_row([5.0, 6.0]);
        assert_eq!(p.n_clients(), 1);
        assert_eq!(p.service_row(0), &[5.0, 6.0]);
        assert!(p.facility_cost.capacity() >= cap_f);
    }
}
