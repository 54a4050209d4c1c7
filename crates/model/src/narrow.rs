//! Checked and clamped narrowing conversions.
//!
//! The workspace lint wall denies `clippy::cast_possible_truncation`,
//! so narrowing conversions go through these helpers instead of bare
//! `as` casts. The `*_from` functions panic loudly when a value
//! genuinely does not fit (instead of wrapping silently); the
//! `count_*` functions turn nonnegative float counts into integers
//! with explicit clamping semantics (NaN maps to zero, the top end
//! saturates).

/// Integer → `usize` index/count. Lossless on 64-bit targets for
/// `u64` inputs; panics if the value does not fit.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "loud-failure narrowing is this helper's contract; wrapping silently would corrupt indices"
)]
pub fn usize_from<T: TryInto<usize>>(x: T) -> usize
where
    T::Error: core::fmt::Debug,
{
    x.try_into().expect("value exceeds usize::MAX")
}

/// Integer → `u32` index/count, panicking on overflow.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "loud-failure narrowing is this helper's contract; wrapping silently would corrupt indices"
)]
pub fn u32_from<T: TryInto<u32>>(x: T) -> u32
where
    T::Error: core::fmt::Debug,
{
    x.try_into().expect("value exceeds u32::MAX")
}

/// Integer → `u16` index/count, panicking on overflow.
#[inline]
pub fn u16_from<T: TryInto<u16>>(x: T) -> u16
where
    T::Error: core::fmt::Debug,
{
    x.try_into().expect("value exceeds u16::MAX")
}

/// Nonnegative float → `u64` count. NaN maps to 0; the cast saturates
/// at `u64::MAX` (Rust float-to-int casts have been saturating since
/// 1.45 — this helper just spells that contract out once).
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating float-to-count cast is this helper's contract"
)]
pub fn count_u64(x: f64) -> u64 {
    x.max(0.0) as u64
}

/// Nonnegative float → `usize` count, with the same semantics as
/// [`count_u64`].
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "a saturating float-to-count cast is this helper's contract"
)]
pub fn count_usize(x: f64) -> usize {
    x.max(0.0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_conversions_roundtrip() {
        assert_eq!(usize_from(42u64), 42);
        assert_eq!(u32_from(70_000usize), 70_000);
        assert_eq!(u16_from(65_535usize), 65_535);
    }

    #[test]
    #[should_panic(expected = "exceeds u16::MAX")]
    fn overflow_panics_instead_of_wrapping() {
        u16_from(65_536usize);
    }

    #[test]
    fn float_counts_clamp() {
        assert_eq!(count_u64(3.7), 3);
        assert_eq!(count_u64(-1.0), 0);
        assert_eq!(count_u64(f64::NAN), 0);
        assert_eq!(count_usize(1e300), usize::MAX);
    }
}
