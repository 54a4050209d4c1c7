//! The exponential potential function over the coupling constraints.
//!
//! Appendix A: the disk rows (5) and link rows (6) — plus the objective
//! target row `cz ≤ B` of `FEAS(B)` — are penalized through
//! `Φ(z) = Σ_i exp(α(δ)·r_i(z))` with `r_i(z) = a_i z / b_i − 1` and
//! `α(δ) = γ·ln(m+1)/δ`. This module owns the row layout, the running
//! usage totals, the potential/dual computations
//! (`π_i = exp(α r_i)/b_i`), and the exact 1-D convex line search used
//! for every block step.

use std::sync::atomic::{AtomicU64, Ordering};
use vod_model::{LinkId, VhoId};

/// Process-global dual-snapshot version counter (see [`Duals::version`]).
static DUAL_VERSION: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh, process-unique dual-snapshot version. Versions
/// never influence numerics — they only let consumers such as
/// [`crate::penalty::PenaltyArena`] recognize "same snapshot passed
/// again" and short-circuit recomputation — so the global counter does
/// not threaten run-to-run determinism of placements.
fn next_dual_version() -> u64 {
    DUAL_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// Maps (disk, link×window) coupling constraints onto a flat row index.
#[derive(Debug, Clone, Copy)]
pub struct RowLayout {
    pub n_vhos: usize,
    pub n_links: usize,
    pub n_windows: usize,
}

impl RowLayout {
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_vhos + self.n_links * self.n_windows
    }

    #[inline]
    pub fn disk_row(&self, i: VhoId) -> usize {
        i.index()
    }

    #[inline]
    pub fn link_row(&self, l: LinkId, window: usize) -> usize {
        debug_assert!(window < self.n_windows);
        self.n_vhos + window * self.n_links + l.index()
    }

    /// Whether `row` is a disk row (else it is a link row).
    #[inline]
    pub fn is_disk(&self, row: usize) -> bool {
        row < self.n_vhos
    }
}

/// Exponents are clamped here before `exp()`: at the operating point
/// `α·r ≤ γ·ln(m+1)` (since `δ ≥ max_i r_i`), but a trial step in the
/// line search may transiently exceed it; clamping preserves the sign
/// and monotonicity of the derivative without risking overflow.
const EXP_CLAMP: f64 = 60.0;

#[inline]
fn cexp(x: f64) -> f64 {
    x.min(EXP_CLAMP).exp()
}

/// State of the potential function: capacities, running usage, the
/// objective row, and the current exponent scale.
#[derive(Debug, Clone)]
pub struct Coupling {
    pub layout: RowLayout,
    /// `b_i` per row: disk rows in GB, link rows in Mb/s.
    caps: Vec<f64>,
    /// `a_i z` per row, maintained incrementally.
    usage: Vec<f64>,
    /// Current objective value `cz`.
    obj: f64,
    /// Objective target `B` of `FEAS(B)`; `None` in pure feasibility
    /// mode (the objective row then simply does not exist).
    target: Option<f64>,
    /// Current exponent multiplier `α(δ)`.
    alpha: f64,
    /// `γ·ln(m+1)` — numerator of `α(δ)`.
    gamma_log: f64,
    /// Current scale `δ`.
    delta: f64,
}

/// Snapshot of the Lagrange multipliers `π^δ(z)`.
#[derive(Debug, Clone)]
pub struct Duals {
    /// `π_i = exp(α r_i)/b_i` per coupling row.
    pub rows: Vec<f64>,
    /// `π_0 = exp(α r_0)/B`; zero in feasibility mode.
    pub obj: f64,
    /// Process-unique snapshot id: two `Duals` share a version iff one
    /// is a clone of the other, so `version` equality certifies "values
    /// identical" without comparing rows. Kept private so every
    /// construction/mutation path restamps it ([`Duals::new`],
    /// [`Duals::bump_version`]).
    version: u64,
}

impl Duals {
    /// A fresh snapshot with a new process-unique version.
    pub fn new(rows: Vec<f64>, obj: f64) -> Self {
        Self {
            rows,
            obj,
            version: next_dual_version(),
        }
    }

    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Restamp after mutating `rows`/`obj` in place (e.g. the EPF dual
    /// smoothing step) so the snapshot no longer aliases its ancestor.
    pub fn bump_version(&mut self) {
        self.version = next_dual_version();
    }

    /// Copy `src` into `self` (version included), reusing the row
    /// buffer instead of allocating like `clone` would.
    pub fn copy_from(&mut self, src: &Duals) {
        self.rows.clone_from(&src.rows);
        self.obj = src.obj;
        self.version = src.version;
    }
}

impl Coupling {
    pub fn new(layout: RowLayout, caps: Vec<f64>, gamma: f64, target: Option<f64>) -> Self {
        assert_eq!(caps.len(), layout.n_rows());
        assert!(caps.iter().all(|&b| b > 0.0), "capacities must be positive");
        if let Some(b) = target {
            assert!(b > 0.0, "objective target must be positive");
        }
        let m = layout.n_rows() + usize::from(target.is_some());
        Self {
            layout,
            usage: vec![0.0; caps.len()],
            caps,
            obj: 0.0,
            target,
            alpha: 0.0,
            gamma_log: gamma * ((m + 1) as f64).ln(),
            delta: f64::MAX,
        }
    }

    #[inline]
    pub fn usage(&self, row: usize) -> f64 {
        self.usage[row]
    }

    #[inline]
    pub fn cap(&self, row: usize) -> f64 {
        self.caps[row]
    }

    #[inline]
    pub fn objective(&self) -> f64 {
        self.obj
    }

    #[inline]
    pub fn target(&self) -> Option<f64> {
        self.target
    }

    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    #[inline]
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// All usage totals, in row order (for checkpointing).
    #[inline]
    pub fn usage_all(&self) -> &[f64] {
        &self.usage
    }

    /// Restore a checkpointed scale `δ` exactly, recomputing `α(δ)` the
    /// same way [`Coupling::update_scale`] does. This bypasses the
    /// monotone never-grow update — `δ`'s history dependence is the
    /// reason it is checkpointed rather than recomputed.
    pub fn restore_scale(&mut self, delta: f64) {
        assert!(delta > 0.0, "scale must be positive");
        self.delta = delta;
        self.alpha = self.gamma_log / self.delta;
    }

    /// Overwrite usage totals (used when (re)computing aggregates from
    /// scratch to wash out incremental drift).
    pub fn set_state(&mut self, usage: Vec<f64>, obj: f64) {
        assert_eq!(usage.len(), self.caps.len());
        self.usage = usage;
        self.obj = obj;
    }

    /// Update the objective target `B` (raised to each new lower
    /// bound, Algorithm 1 step 15).
    pub fn set_target(&mut self, b: f64) {
        assert!(b > 0.0);
        self.target = Some(b);
    }

    /// Relative infeasibility `r_i(z)` of a coupling row.
    #[inline]
    pub fn rel_infeas(&self, row: usize) -> f64 {
        self.usage[row] / self.caps[row] - 1.0
    }

    /// Relative infeasibility of the objective row, `cz/B − 1`.
    #[inline]
    pub fn r0(&self) -> f64 {
        match self.target {
            Some(b) => self.obj / b - 1.0,
            None => f64::NEG_INFINITY,
        }
    }

    /// `δ_c(z)`: max relative infeasibility over coupling rows.
    pub fn delta_c(&self) -> f64 {
        (0..self.caps.len())
            .map(|r| self.rel_infeas(r))
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// `δ(z) = max(δ_c(z), r_0(z))`.
    pub fn delta_z(&self) -> f64 {
        self.delta_c().max(self.r0())
    }

    /// Algorithm 1 step 11: shrink the scale to the current max
    /// infeasibility (never grow it) and refresh `α(δ)`.
    ///
    /// `floor` keeps δ at or above the solver's tolerance: we only
    /// need ε-feasibility, and sharpening the potential beyond ε makes
    /// the exponentials so steep that line-searched steps collapse.
    pub fn update_scale(&mut self, floor: f64) {
        let dz = self.delta_z().max(floor.max(1e-6));
        self.delta = self.delta.min(dz);
        self.alpha = self.gamma_log / self.delta;
    }

    /// Initialize `δ` from the starting solution.
    pub fn init_scale(&mut self, floor: f64) {
        self.delta = self.delta_z().max(floor.max(1e-6));
        self.alpha = self.gamma_log / self.delta;
    }

    /// The Lagrange multipliers `π^δ(z)` at the current point.
    pub fn duals(&self) -> Duals {
        let rows = (0..self.caps.len())
            .map(|r| cexp(self.alpha * self.rel_infeas(r)) / self.caps[r])
            .collect();
        let obj = match self.target {
            Some(b) => cexp(self.alpha * self.r0()) / b,
            None => 0.0,
        };
        Duals::new(rows, obj)
    }

    /// Total potential `Φ^δ(z)` (for diagnostics/tests).
    pub fn potential(&self) -> f64 {
        let mut phi: f64 = (0..self.caps.len())
            .map(|r| cexp(self.alpha * self.rel_infeas(r)))
            .sum();
        if self.target.is_some() {
            phi += cexp(self.alpha * self.r0());
        }
        phi
    }

    /// Exact line search: minimize `τ ↦ Φ(z + τ·d)` over `[0, 1]`,
    /// where `d` changes coupling-row usages by `deltas` and the
    /// objective by `dobj` (both at `τ = 1`).
    ///
    /// `Φ(τ)` is a sum of exponentials of affine functions, hence
    /// strictly convex in `τ`; rows not touched by `d` are constants
    /// and are skipped. Solved by bisection on the derivative. `terms`
    /// is caller-owned scratch (overwritten), so a loop of searches
    /// allocates nothing.
    pub fn line_search(
        &self,
        deltas: &[(usize, f64)],
        dobj: f64,
        terms: &mut Vec<(f64, f64)>,
    ) -> f64 {
        // Build (u, s) pairs: term = exp(u + τ·s), derivative s·exp(·).
        terms.clear();
        terms.extend(deltas.iter().filter(|&&(_, d)| d != 0.0).map(|&(row, d)| {
            (
                self.alpha * self.rel_infeas(row),
                self.alpha * d / self.caps[row],
            )
        }));
        if let Some(b) = self.target {
            if dobj != 0.0 {
                terms.push((self.alpha * self.r0(), self.alpha * dobj / b));
            }
        }
        if terms.is_empty() {
            return 0.0;
        }
        let dphi = |tau: f64| -> f64 {
            terms
                .iter()
                .map(|&(u, s)| s * cexp(u + tau * s))
                .sum::<f64>()
        };
        if dphi(0.0) >= 0.0 {
            return 0.0;
        }
        if dphi(1.0) <= 0.0 {
            return 1.0;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if dphi(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    /// Apply a step of size `tau` along `d`.
    pub fn apply(&mut self, deltas: &[(usize, f64)], dobj: f64, tau: f64) {
        debug_assert!((0.0..=1.0).contains(&tau));
        for &(row, d) in deltas {
            self.usage[row] += tau * d;
            // Clamp tiny negative drift.
            if self.usage[row] < 0.0 {
                debug_assert!(self.usage[row] > -1e-6, "usage went negative");
                self.usage[row] = 0.0;
            }
        }
        self.obj += tau * dobj;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Coupling {
        let layout = RowLayout {
            n_vhos: 2,
            n_links: 1,
            n_windows: 1,
        };
        let mut c = Coupling::new(layout, vec![10.0, 10.0, 100.0], 1.0, Some(50.0));
        c.set_state(vec![5.0, 20.0, 100.0], 25.0);
        c.init_scale(0.01);
        c
    }

    #[test]
    fn row_layout_indexing() {
        let l = RowLayout {
            n_vhos: 3,
            n_links: 4,
            n_windows: 2,
        };
        assert_eq!(l.n_rows(), 11);
        assert_eq!(l.disk_row(VhoId::new(2)), 2);
        assert_eq!(l.link_row(LinkId::new(0), 0), 3);
        assert_eq!(l.link_row(LinkId::new(3), 1), 10);
        assert!(l.is_disk(2));
        assert!(!l.is_disk(3));
    }

    #[test]
    fn infeasibility_measures() {
        let c = simple();
        assert_eq!(c.rel_infeas(0), -0.5);
        assert_eq!(c.rel_infeas(1), 1.0);
        assert_eq!(c.rel_infeas(2), 0.0);
        assert_eq!(c.r0(), -0.5);
        assert_eq!(c.delta_c(), 1.0);
        assert_eq!(c.delta_z(), 1.0);
    }

    #[test]
    fn scale_never_grows() {
        let mut c = simple();
        let d0 = c.delta();
        assert_eq!(d0, 1.0);
        // Make things worse; δ must not grow.
        c.set_state(vec![5.0, 40.0, 100.0], 25.0);
        c.update_scale(0.01);
        assert_eq!(c.delta(), 1.0);
        // Make things better; δ shrinks.
        c.set_state(vec![5.0, 11.0, 100.0], 25.0);
        c.update_scale(0.01);
        assert!((c.delta() - 0.1).abs() < 1e-12);
        assert!(c.alpha() > 0.0);
    }

    #[test]
    fn duals_positive_and_ordered() {
        let c = simple();
        let d = c.duals();
        assert_eq!(d.rows.len(), 3);
        assert!(d.rows.iter().all(|&p| p > 0.0));
        assert!(d.obj > 0.0);
        // The violated row (1) must carry a much larger dual than the
        // slack row (0) — same capacity, higher relative usage.
        assert!(d.rows[1] > d.rows[0] * 2.0);
    }

    #[test]
    fn line_search_moves_toward_feasibility() {
        let c = simple();
        // Direction that unloads the violated row 1 fully.
        let deltas = [(1usize, -15.0)];
        let tau = c.line_search(&deltas, 0.0, &mut Vec::new());
        assert!(tau > 0.9, "should take (nearly) the full step, got {tau}");
        // Direction that overloads row 0 severely: refuse.
        let bad = [(0usize, 1e9)];
        assert_eq!(c.line_search(&bad, 0.0, &mut Vec::new()), 0.0);
    }

    #[test]
    fn line_search_finds_interior_optimum() {
        let c = simple();
        // Trade-off: relieve row 1 but overload row 0 at full step.
        let deltas = [(1usize, -15.0), (0usize, 40.0)];
        let tau = c.line_search(&deltas, 0.0, &mut Vec::new());
        assert!(
            tau > 0.05 && tau < 0.95,
            "interior step expected, got {tau}"
        );
        // Verify it is a minimum of the potential along the segment.
        let phi_at = |t: f64| {
            let mut cc = c.clone();
            cc.apply(&deltas, 0.0, t);
            cc.potential()
        };
        let p = phi_at(tau);
        assert!(p <= phi_at((tau - 0.05).max(0.0)) + 1e-9);
        assert!(p <= phi_at((tau + 0.05).min(1.0)) + 1e-9);
    }

    #[test]
    fn apply_updates_state() {
        let mut c = simple();
        c.apply(&[(0, 10.0)], 5.0, 0.5);
        assert_eq!(c.usage(0), 10.0);
        assert_eq!(c.objective(), 27.5);
    }

    #[test]
    fn feasibility_mode_has_no_objective_row() {
        let layout = RowLayout {
            n_vhos: 1,
            n_links: 1,
            n_windows: 1,
        };
        let mut c = Coupling::new(layout, vec![10.0, 10.0], 1.0, None);
        c.set_state(vec![5.0, 5.0], 42.0);
        c.init_scale(0.01);
        assert_eq!(c.duals().obj, 0.0);
        assert_eq!(c.r0(), f64::NEG_INFINITY);
        // Objective changes don't affect the line search.
        assert_eq!(c.line_search(&[], 100.0, &mut Vec::new()), 0.0);
    }

    #[test]
    fn clamped_exponent_no_overflow() {
        let layout = RowLayout {
            n_vhos: 1,
            n_links: 0,
            n_windows: 0,
        };
        let mut c = Coupling::new(layout, vec![1e-3], 1.0, None);
        c.set_state(vec![1e9], 0.0);
        c.init_scale(0.01);
        assert!(c.potential().is_finite());
        assert!(c.duals().rows[0].is_finite());
    }
}
