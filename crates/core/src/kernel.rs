//! Lane backends for the EPF inner loops — the UFL row build and
//! evaluation.
//!
//! Two backends compute **bitwise-identical** results per element:
//!
//! - [`Kernel::Scalar`] — the original loop shapes, kept verbatim at
//!   the call sites as the reference implementation (and the baseline
//!   the bench's `speedup_vs_scalar` is measured against).
//! - [`Kernel::Chunked`] — `[f64; 8]` lane accumulators over
//!   `chunks_exact`, written so stable rustc autovectorizes the lane
//!   loops (no `unsafe`, no intrinsics).
//!
//! **Determinism contract.** Identity across backends holds because
//! every operation here is either (a) purely elementwise (`axpy`,
//! `drain_budget`) — the lanes never interact, so lane width is
//! invisible; (b) a *striped accumulation* (`accum`,
//! `accum_relu_sub`, `accum_min_sub`) where element `i` of the
//! accumulator receives its
//! addends in exactly the source order — per-element addition order is
//! the scalar order, only the interleaving across independent elements
//! changes; or (c) a `min` reduction (`row_min`, `headroom_min`),
//! which is exactly reorderable for the value sets the solver feeds
//! it: no NaNs (inputs are finite by `UflProblem::assert_valid`) and
//! no `-0.0` (every candidate is a sum/product of nonnegative terms,
//! or an `x - y` with `x >= y` under round-to-nearest, both of which
//! yield `+0.0` at zero) — so `min` is associative and commutative
//! *bitwise*, not just numerically. Sum reductions are **never**
//! reordered (the penalty arena of [`crate::penalty`] sums every path
//! in path order on both backends), and neither backend uses `mul_add`
//! (FMA changes rounding).
//!
//! The kernel proptests (`tests/kernel_props.rs`) pin all of this:
//! scalar == chunked bitwise on random nonnegative inputs, and the
//! penalty arena is history- and backend-independent.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

/// Lane width of the chunked backend. Eight `f64` lanes = one AVX-512
/// register or two AVX2 ops — wide enough to saturate stable
/// autovectorization, narrow enough that the remainder loop stays
/// cheap on the solver's `V ≈ 50` rows.
pub const LANES: usize = 8;

/// Backend selector for the EPF inner-loop kernels. Carried in
/// [`crate::EpfConfig`] and recorded in checkpoint fingerprints:
/// resuming under a different backend is refused (the trajectories are
/// bitwise-identical by contract, but a fingerprint that over-rejects
/// is safer than one that under-describes the config).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Kernel {
    /// Reference backend: the original scalar loop shapes.
    Scalar,
    /// `[f64; 8]` lane accumulators on stable — the default.
    #[default]
    Chunked,
}

impl Kernel {
    /// Parse a backend name (the bench's `--kernel` flag).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "scalar" => Some(Self::Scalar),
            "chunked" => Some(Self::Chunked),
            _ => None,
        }
    }

    /// Stable display / JSON name.
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
            Self::Chunked => "chunked",
        }
    }

    /// Fingerprint tag (stable across builds).
    pub fn tag(self) -> u64 {
        match self {
            Self::Scalar => 0,
            Self::Chunked => 1,
        }
    }

    /// Every backend compiled into this build.
    pub fn all() -> &'static [Kernel] {
        &[Self::Scalar, Self::Chunked]
    }
}

// ---------------------------------------------------------------------------
// Elementwise ops (lane width invisible by construction).
// ---------------------------------------------------------------------------

/// `acc[i] += w · src[i]` — the penalty-row accumulation of
/// `build_ufl_into` (one call per nonzero demand window, streaming the
/// arena's contiguous client row).
#[inline]
pub fn axpy(kernel: Kernel, acc: &mut [f64], w: f64, src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    match kernel {
        Kernel::Scalar => {
            for (a, &s) in acc.iter_mut().zip(src) {
                *a += w * s;
            }
        }
        Kernel::Chunked => {
            let mut ac = acc.chunks_exact_mut(LANES);
            let mut sc = src.chunks_exact(LANES);
            for (a, s) in (&mut ac).zip(&mut sc) {
                for l in 0..LANES {
                    a[l] += w * s[l];
                }
            }
            for (a, &s) in ac.into_remainder().iter_mut().zip(sc.remainder()) {
                *a += w * s;
            }
        }
    }
}

/// `budget[i] -= (vc + delta − max(row[i], vc))⁺` — the dual-ascent
/// budget drain. Elementwise; `vc + delta` is computed once (the same
/// rounding the scalar loop performs every iteration).
#[inline]
pub fn drain_budget(kernel: Kernel, budget: &mut [f64], row: &[f64], vc: f64, delta: f64) {
    debug_assert_eq!(budget.len(), row.len());
    let s = vc + delta;
    match kernel {
        Kernel::Scalar => {
            for (b, &r) in budget.iter_mut().zip(row) {
                *b -= (s - r.max(vc)).max(0.0);
            }
        }
        Kernel::Chunked => {
            let mut bc = budget.chunks_exact_mut(LANES);
            let mut rc = row.chunks_exact(LANES);
            for (b, r) in (&mut bc).zip(&mut rc) {
                for l in 0..LANES {
                    b[l] -= (s - r[l].max(vc)).max(0.0);
                }
            }
            for (b, &r) in bc.into_remainder().iter_mut().zip(rc.remainder()) {
                *b -= (s - r.max(vc)).max(0.0);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Striped accumulations (per-element addend order = scalar order).
// ---------------------------------------------------------------------------

/// `acc[i] += row[i]` — one client row folded into per-facility
/// totals. Streaming this over all rows computes the same per-facility
/// sums as the scalar strided pass, in the same per-element order.
#[inline]
pub fn accum(kernel: Kernel, acc: &mut [f64], row: &[f64]) {
    debug_assert_eq!(acc.len(), row.len());
    match kernel {
        Kernel::Scalar => {
            for (a, &r) in acc.iter_mut().zip(row) {
                *a += r;
            }
        }
        Kernel::Chunked => {
            let mut ac = acc.chunks_exact_mut(LANES);
            let mut rc = row.chunks_exact(LANES);
            for (a, r) in (&mut ac).zip(&mut rc) {
                for l in 0..LANES {
                    a[l] += r[l];
                }
            }
            for (a, &r) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
                *a += r;
            }
        }
    }
}

/// `acc[i] += (s − row[i])⁺` — the ADD-move gain screen and the
/// dual-ascent budget initialization, streamed one client row at a
/// time against that client's scalar `s` (current cost, or `v_c`).
#[inline]
pub fn accum_relu_sub(kernel: Kernel, acc: &mut [f64], s: f64, row: &[f64]) {
    debug_assert_eq!(acc.len(), row.len());
    match kernel {
        Kernel::Scalar => {
            for (a, &r) in acc.iter_mut().zip(row) {
                *a += (s - r).max(0.0);
            }
        }
        Kernel::Chunked => {
            let mut ac = acc.chunks_exact_mut(LANES);
            let mut rc = row.chunks_exact(LANES);
            for (a, r) in (&mut ac).zip(&mut rc) {
                for l in 0..LANES {
                    a[l] += (s - r[l]).max(0.0);
                }
            }
            for (a, &r) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
                *a += (s - r).max(0.0);
            }
        }
    }
}

/// `acc[i] += min(row[i], alt) − cur` — the SWAP-move evaluation:
/// one client's cost change for every incoming facility `i` at once,
/// where `alt` is the client's best service among the facilities that
/// stay open (`+∞` when none does) and `cur` its current cost.
#[inline]
pub fn accum_min_sub(kernel: Kernel, acc: &mut [f64], row: &[f64], alt: f64, cur: f64) {
    debug_assert_eq!(acc.len(), row.len());
    match kernel {
        Kernel::Scalar => {
            for (a, &r) in acc.iter_mut().zip(row) {
                *a += r.min(alt) - cur;
            }
        }
        Kernel::Chunked => {
            let mut ac = acc.chunks_exact_mut(LANES);
            let mut rc = row.chunks_exact(LANES);
            for (a, r) in (&mut ac).zip(&mut rc) {
                for l in 0..LANES {
                    a[l] += r[l].min(alt) - cur;
                }
            }
            for (a, &r) in ac.into_remainder().iter_mut().zip(rc.remainder()) {
                *a += r.min(alt) - cur;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Min reductions (exactly reorderable: no NaN, no -0.0 — see module doc).
// ---------------------------------------------------------------------------

/// `min_i row[i]` (`f64::MAX` on an empty row) — the dual-ascent `v_c`
/// initialization.
#[inline]
pub fn row_min(kernel: Kernel, row: &[f64]) -> f64 {
    match kernel {
        Kernel::Scalar => row.iter().cloned().fold(f64::MAX, f64::min),
        Kernel::Chunked => {
            let mut lanes = [f64::MAX; LANES];
            let mut rc = row.chunks_exact(LANES);
            for r in &mut rc {
                for l in 0..LANES {
                    lanes[l] = lanes[l].min(r[l]);
                }
            }
            let mut m = f64::MAX;
            for &lane in &lanes {
                m = m.min(lane);
            }
            for &r in rc.remainder() {
                m = m.min(r);
            }
            m
        }
    }
}

/// `min_i ((row[i] − vc)⁺ + budget[i]⁺)` — the dual-ascent raise
/// headroom of one client over all facilities.
#[inline]
pub fn headroom_min(kernel: Kernel, row: &[f64], vc: f64, budget: &[f64]) -> f64 {
    debug_assert_eq!(budget.len(), row.len());
    match kernel {
        Kernel::Scalar => {
            let mut delta = f64::MAX;
            for (&r, &b) in row.iter().zip(budget) {
                delta = delta.min((r - vc).max(0.0) + b.max(0.0));
            }
            delta
        }
        Kernel::Chunked => {
            let mut lanes = [f64::MAX; LANES];
            let mut rc = row.chunks_exact(LANES);
            let mut bc = budget.chunks_exact(LANES);
            for (r, b) in (&mut rc).zip(&mut bc) {
                for l in 0..LANES {
                    lanes[l] = lanes[l].min((r[l] - vc).max(0.0) + b[l].max(0.0));
                }
            }
            let mut m = f64::MAX;
            for &lane in &lanes {
                m = m.min(lane);
            }
            for (&r, &b) in rc.remainder().iter().zip(bc.remainder()) {
                m = m.min((r - vc).max(0.0) + b.max(0.0));
            }
            m
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic nonnegative values with a few exact zeros and
        // ties (the contract's edge cases), no -0.0, no NaN.
        (0..n)
            .map(|k| {
                let h = (seed ^ k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                match h % 7 {
                    0 => 0.0,
                    1 => 1.5,
                    _ => (h % 1000) as f64 / 64.0,
                }
            })
            .collect()
    }

    fn for_all_lens(f: impl Fn(usize)) {
        // Cover sub-lane, exact-lane and lane+remainder lengths.
        for n in [0, 1, 3, 7, 8, 9, 16, 17, 50, 64, 100] {
            f(n);
        }
    }

    #[test]
    fn backends_agree_axpy() {
        for_all_lens(|n| {
            let src = vals(n, 11);
            for k in Kernel::all() {
                let mut acc = vals(n, 22);
                axpy(*k, &mut acc, 0.375, &src);
                let mut want = vals(n, 22);
                axpy(Kernel::Scalar, &mut want, 0.375, &src);
                assert_eq!(
                    acc.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{} axpy n={n}",
                    k.name()
                );
            }
        });
    }

    #[test]
    fn backends_agree_accum_and_relu() {
        for_all_lens(|n| {
            let row = vals(n, 33);
            for k in Kernel::all() {
                let (mut a, mut b) = (vals(n, 44), vals(n, 44));
                accum(*k, &mut a, &row);
                accum(Kernel::Scalar, &mut b, &row);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
                let (mut a, mut b) = (vals(n, 55), vals(n, 55));
                accum_relu_sub(*k, &mut a, 4.5, &row);
                accum_relu_sub(Kernel::Scalar, &mut b, 4.5, &row);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
                for alt in [2.75, f64::INFINITY] {
                    let (mut a, mut b) = (vals(n, 56), vals(n, 56));
                    accum_min_sub(*k, &mut a, &row, alt, 1.5);
                    accum_min_sub(Kernel::Scalar, &mut b, &row, alt, 1.5);
                    assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
                }
            }
        });
    }

    #[test]
    fn backends_agree_mins() {
        for_all_lens(|n| {
            let row = vals(n, 66);
            let budget = vals(n, 77);
            for k in Kernel::all() {
                assert_eq!(
                    row_min(*k, &row).to_bits(),
                    row_min(Kernel::Scalar, &row).to_bits(),
                    "{} row_min n={n}",
                    k.name()
                );
                assert_eq!(
                    headroom_min(*k, &row, 2.25, &budget).to_bits(),
                    headroom_min(Kernel::Scalar, &row, 2.25, &budget).to_bits(),
                    "{} headroom n={n}",
                    k.name()
                );
            }
        });
    }

    #[test]
    fn backends_agree_drain() {
        for_all_lens(|n| {
            let row = vals(n, 88);
            for k in Kernel::all() {
                let (mut a, mut b) = (vals(n, 99), vals(n, 99));
                drain_budget(*k, &mut a, &row, 1.25, 0.5);
                drain_budget(Kernel::Scalar, &mut b, &row, 1.25, 0.5);
                assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        });
    }

    #[test]
    fn names_round_trip() {
        for k in Kernel::all() {
            assert_eq!(Kernel::from_name(k.name()), Some(*k));
        }
        assert_eq!(Kernel::from_name("gpu"), None);
        assert_eq!(Kernel::default(), Kernel::Chunked);
        assert_eq!(Kernel::Scalar.tag(), 0);
        assert_eq!(Kernel::Chunked.tag(), 1);
    }
}
