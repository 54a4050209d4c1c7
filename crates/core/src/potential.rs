//! The exponential potential function over the coupling constraints.
//!
//! Appendix A: the disk rows (5) and link rows (6) — plus the objective
//! target row `cz ≤ B` of `FEAS(B)` — are penalized through
//! `Φ(z) = Σ_i exp(α(δ)·r_i(z))` with `r_i(z) = a_i z / b_i − 1` and
//! `α(δ) = γ·ln(m+1)/δ`. This module owns the row layout, the running
//! usage totals, the potential/dual computations
//! (`π_i = exp(α r_i)/b_i`), and the exact 1-D convex line search used
//! for every block step.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

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
    /// and are skipped. `terms` is caller-owned scratch (overwritten),
    /// so a loop of searches allocates nothing.
    ///
    /// Exactness premise: the result is, bit for bit, that of 60
    /// bisection steps over `[0, 1]` on the computed derivative
    /// `D̃(τ) = Σ s·exp(min(u + τ·s, 60))`, summed in term order, after
    /// the exits at `D̃(0) ≥ 0` and `D̃(1) ≤ 0`. Only the steps near the
    /// root evaluate `D̃`; the others are decided by a certified bracket
    /// whose soundness needs IEEE round-to-nearest arithmetic and an
    /// `exp` within a few ulps — see `bisect` below.
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
        bisect(terms)
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

/// Most probes [`bracket`] spends before it stops: past the first few,
/// a probe costs as much as the bisection evaluations it could save.
const MAX_PROBES: usize = 6;

/// Root of the line search's derivative on `[0, 1]`, decided exactly as
/// 60 bisection steps on `dphi` (the `D̃` below) decide it.
///
/// The bisection's result depends only on the sign of `D̃(mid)` at each
/// of its mids. Every mid at or below a point `a` certified negative by
/// [`bracket`] is known to take the `lo = mid` branch, and every mid at
/// or above a point `b` certified positive the `hi = mid` branch, so
/// only mids inside `(a, b)` are evaluated. Once `mid` equals `lo` or
/// `hi`, `lo` and `hi` are adjacent floats (or equal): every later step
/// leaves the final `0.5·(lo + hi)` at `mid`, whichever way it goes, so
/// the search stops there.
///
/// **Why a certificate is exact.** Write `xᵢ(τ) = min(fl(uᵢ + fl(τ·sᵢ)),
/// 60)` for the exponent `dphi` computes; rounding is monotone, so
/// `xᵢ` is monotone in `τ` and the real number `Tᵢ(τ) = sᵢ·exp(xᵢ(τ))`
/// is non-decreasing in `τ` whatever the sign of `sᵢ`: the positive
/// part `P(τ)` of `ΣTᵢ` grows and the magnitude `Q(τ)` of its negative
/// part shrinks. The computed term `sᵢ·exp(xᵢ)` differs from `Tᵢ` by
/// `exp`'s error (a few ulps) and one rounding, and summing `n` terms
/// in order adds at most about `(n − 1)·ε/2 · Σ|Tᵢ|`; so
/// `D̃(τ) = P − Q + E` with `|E| ≤ c·(P + Q) + η`, `c ≈ (n/2 + 5)·ε`, and
/// `η` an absolute allowance for terms whose exponential underflows.
/// If `D̃(p) < −(k·M̃(p) + 2η)` with `M̃ ≈ P + Q` and `k = (2n + 16)·ε ≥
/// 2c`, then `(1 + c)·P(p) < (1 − c)·Q(p) − η`, and for every `τ ≤ p`
/// the monotone bound gives
/// `D̃(τ) ≤ (1 + c)·P(τ) − (1 − c)·Q(τ) + η ≤ (1 + c)·P(p) − (1 − c)·Q(p) + η < 0`:
/// every mid at or below `p` goes to `lo`. The positive side is the
/// mirror image. The argument needs every value finite; a non-finite
/// probe drops the bracket and every mid is evaluated.
fn bisect(terms: &[(f64, f64)]) -> f64 {
    if terms.is_empty() {
        return 0.0;
    }
    let dphi = |tau: f64| -> f64 {
        terms
            .iter()
            .map(|&(u, s)| s * cexp(u + tau * s))
            .sum::<f64>()
    };
    // The endpoint probes sum the same terms in the same order as
    // `dphi`; only the sign of a zero sum can differ, which no
    // comparison with 0 sees.
    let at0 = probe(terms, 0.0);
    if at0.d >= 0.0 {
        return 0.0;
    }
    let at1 = probe(terms, 1.0);
    if at1.d <= 0.0 {
        return 1.0;
    }
    let (a, b) = bracket(terms, at0, at1);
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mid.to_bits() == lo.to_bits() || mid.to_bits() == hi.to_bits() {
            return mid;
        }
        if mid <= a || (mid < b && dphi(mid) < 0.0) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `D̃(τ)` and what a Newton step on `g(τ) = ln P − ln Q` and the
/// certificate of [`bisect`] need, from one exponential per term.
#[derive(Debug, Clone, Copy)]
struct Probe {
    /// The terms `s·e` summed in order: the sum `dphi` forms.
    d: f64,
    /// `P` and `Q`: the positive terms, and the magnitudes of the
    /// negative ones, summed.
    pos: f64,
    neg: f64,
    /// `Σ s²·e` over the positive and over the negative terms, so that
    /// `g′ = pos2 / pos + neg2 / neg`.
    pos2: f64,
    neg2: f64,
}

impl Probe {
    fn finite(&self) -> bool {
        [self.d, self.pos, self.neg, self.pos2, self.neg2]
            .iter()
            .all(|v| v.is_finite())
    }
}

fn probe(terms: &[(f64, f64)], tau: f64) -> Probe {
    let mut p = Probe {
        d: 0.0,
        pos: 0.0,
        neg: 0.0,
        pos2: 0.0,
        neg2: 0.0,
    };
    for &(u, s) in terms {
        let t = s * cexp(u + tau * s);
        p.d += t;
        if s > 0.0 {
            p.pos += t;
            p.pos2 += s * t;
        } else {
            p.neg -= t;
            p.neg2 += s * t;
        }
    }
    p
}

/// A bracket `(a, b)` around the root of `D̃` for [`bisect`]: every
/// `τ ≤ a` has `D̃(τ) < 0` and every `τ ≥ b` has `D̃(τ) > 0`, certified
/// as [`bisect`] explains. Found by safeguarded Newton steps on `g(τ) =
/// ln P − ln Q`, which is linear in `τ` when one row dominates each
/// side, starting from `at0` / `at1` (the probes at `τ = 0` and `1`),
/// each aimed just past the root so that consecutive probes land on
/// alternate sides; `(0, 1)`, which decides nothing, when a probe is
/// not finite.
fn bracket(terms: &[(f64, f64)], at0: Probe, at1: Probe) -> (f64, f64) {
    let n = terms.len() as f64;
    let k = (2.0 * n + 16.0) * f64::EPSILON;
    // Underflow allowance: a term whose exponential or product lands
    // below the normal range is off by at most (4·|s| + 1) units of
    // the smallest subnormal; this is four times their sum.
    let floor = 16.0 * (terms.iter().map(|&(_, s)| s.abs()).sum::<f64>() + n) * f64::from_bits(1);
    let margin = |p: &Probe| k * (p.pos + p.neg) + floor;
    if !(at0.finite() && at1.finite()) {
        return (0.0, 1.0);
    }
    let (mut a, mut b) = (0.0f64, 1.0f64);
    // Start from the end whose `g` is nearer 0.
    let g = |p: &Probe| (p.pos / p.neg).ln();
    let (mut tau, mut p) = if g(&at0).abs() <= g(&at1).abs() {
        (0.0, at0)
    } else {
        (1.0, at1)
    };
    let mut widen = 2.0;
    for _ in 0..MAX_PROBES {
        let m = margin(&p);
        let dg = p.pos2 / p.pos + p.neg2 / p.neg;
        // First-order half-width, in τ, of the band `|D̃| ≤ margin`.
        let band = 2.0 * m / (p.pos + p.neg) / dg;
        let newton = tau - g(&p) / dg;
        let aim = if p.d < -m {
            newton + widen * band
        } else if p.d > m {
            newton - widen * band
        } else {
            // Inside the band: step out on the looser side, further
            // each time.
            widen *= 2.0;
            if b - tau > tau - a {
                tau + widen * band
            } else {
                tau - widen * band
            }
        };
        tau = if a < aim && aim < b {
            aim
        } else {
            0.5 * (a + b)
        };
        p = probe(terms, tau);
        if !p.finite() {
            return (0.0, 1.0);
        }
        let m = margin(&p);
        if p.d < -m {
            a = tau;
        } else if p.d > m {
            b = tau;
        }
        if b - a <= 8.0 * widen * band {
            break;
        }
    }
    (a, b)
}

/// The 60-step bisection [`bisect`] replays, kept as its oracle.
#[cfg(test)]
fn bisect_reference(terms: &[(f64, f64)]) -> f64 {
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

    /// A seeded line-search case: `n` terms balanced so that the exact
    /// derivative vanishes at a chosen root — uniform in `[0, 1]`, near
    /// 0, near 1, on a dyadic mid, or outside `[0, 1]` — then knocked off
    /// it, pushed past the exponent clamp, or buried under pairs of huge
    /// near-flat terms that cancel.
    fn oracle_case(rng: &mut rand::rngs::StdRng) -> Vec<(f64, f64)> {
        use rand::Rng;
        let log_uniform =
            |rng: &mut rand::rngs::StdRng, lo: f64, hi: f64| 10f64.powf(rng.gen_range(lo..hi));
        let n = (300f64.powf(rng.gen::<f64>()) as usize).clamp(1, 300);
        let root = match rng.gen_range(0..6u32) {
            0 => log_uniform(rng, -15.0, -1.0),
            1 => 1.0 - log_uniform(rng, -15.0, -1.0),
            2 => {
                let k = rng.gen_range(1..=52u32);
                let j = rng.gen_range(0..(1u64 << (k - 1)));
                (2 * j + 1) as f64 / (1u64 << k) as f64
            }
            3 => rng.gen_range(-0.5..1.5),
            _ => rng.gen::<f64>(),
        };
        let mut sw: Vec<(f64, f64)> = (0..n)
            .map(|i| {
                let sign = if i % 2 == 0 || rng.gen_range(0..4u32) == 0 {
                    1.0
                } else {
                    -1.0
                };
                (
                    sign * log_uniform(rng, -9.0, 3.0),
                    log_uniform(rng, -8.0, 8.0),
                )
            })
            .collect();
        let pos: f64 = sw.iter().filter(|e| e.0 > 0.0).map(|e| e.0 * e.1).sum();
        let neg: f64 = sw.iter().filter(|e| e.0 < 0.0).map(|e| -e.0 * e.1).sum();
        if pos > 0.0 && neg > 0.0 {
            for e in sw.iter_mut().filter(|e| e.0 > 0.0) {
                e.1 *= neg / pos;
            }
        }
        let mut terms: Vec<(f64, f64)> = sw.iter().map(|&(s, w)| (w.ln() - root * s, s)).collect();
        match rng.gen_range(0..8u32) {
            // Past the clamp: a shift that sends many exponents over 60.
            0 => {
                let shift = rng.gen_range(20.0..80.0);
                terms.iter_mut().for_each(|t| t.0 += shift);
            }
            // Near-cancelling: huge near-flat pairs of both signs.
            1 | 2 => {
                for _ in 0..rng.gen_range(1..=n.min(150)) {
                    let s = log_uniform(rng, -9.0, -3.0);
                    let u = rng.gen_range(10.0..60.0);
                    terms.push((u, s));
                    terms.push((u, -s));
                }
            }
            // Off the balance point by a relative nudge to one term.
            3 => {
                let i = rng.gen_range(0..terms.len());
                terms[i].0 += log_uniform(rng, -15.0, -3.0);
            }
            _ => {}
        }
        terms
    }

    /// `D̃(τ)` as a platform whose `exp` errs by 4 ulps and which sums
    /// in reverse order might compute it, every term pushed toward
    /// `+∞` (`up`) or `−∞`: the worst case the certificate of [`bisect`]
    /// must survive.
    fn skewed(terms: &[(f64, f64)], tau: f64, up: bool) -> f64 {
        let nudge = 4.0 * f64::EPSILON;
        terms
            .iter()
            .rev()
            .map(|&(u, s)| {
                let t = s * cexp(u + tau * s);
                t * if (t > 0.0) == up {
                    1.0 + nudge
                } else {
                    1.0 - nudge
                }
            })
            .sum()
    }

    #[test]
    fn bisect_replays_the_reference_bit_for_bit() {
        let mut rng = vod_model::rng::rng_from_seed(0x15EA);
        let mut interior = 0usize;
        for case in 0..100_000 {
            let terms = oracle_case(&mut rng);
            let want = bisect_reference(&terms);
            let got = bisect(&terms);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: {got:e} vs reference {want:e}, terms {terms:?}"
            );
            interior += usize::from(want > 0.0 && want < 1.0);
            // The bracket must hold beyond this platform's rounding:
            // its ends are the points the argument is about (0 and 1
            // are placeholders no mid reaches).
            let (at0, at1) = (probe(&terms, 0.0), probe(&terms, 1.0));
            if at0.d < 0.0 && at1.d > 0.0 {
                let (a, b) = bracket(&terms, at0, at1);
                assert!(
                    a <= 0.0 || skewed(&terms, a, true) < 0.0,
                    "case {case}: certified a = {a:e} is not negative under a 4-ulp exp"
                );
                assert!(
                    b >= 1.0 || skewed(&terms, b, false) > 0.0,
                    "case {case}: certified b = {b:e} is not positive under a 4-ulp exp"
                );
            }
        }
        // Most cases must exercise the replay, not the endpoint exits.
        assert!(interior > 50_000, "{interior} interior roots");
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
