//! Strongly-typed identifiers for the three index sets of the model.
//!
//! The paper's MIP (Table I) is indexed by videos `m ∈ M`, VHOs
//! `i, j ∈ V` and links `l ∈ L`. Using newtypes instead of bare
//! integers prevents an entire class of index-mixup bugs in the solver
//! and simulator, at zero runtime cost.
//!
//! The raw field is private and there is no `From<raw>`, so every id
//! is built through `new` or `from_index` — the two names the
//! workspace's `disallowed-methods` lists can ban for `VhoId`:
//!
//! ```compile_fail
//! let _ = vod_model::VhoId(3);
//! ```
//!
//! ```compile_fail
//! let _: vod_model::VhoId = 3u16.into();
//! ```
//!
//! ```compile_fail
//! let _ = vod_model::VideoId::new(3).0;
//! ```

use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $inner:ty, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name($inner);

        impl $name {
            /// Construct from a raw index.
            #[inline]
            pub const fn new(raw: $inner) -> Self {
                Self(raw)
            }

            /// The raw index, for use as a `Vec` offset.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a `usize` index, panicking on overflow.
            #[inline]
            #[allow(
                clippy::expect_used,
                reason = "id spaces are sized at model construction; an overflowing \
                          index is a caller bug, not a condition to degrade through \
                          (an allow: clippy does not lint macro-expanded code)"
            )]
            pub fn from_index(idx: usize) -> Self {
                Self(<$inner>::try_from(idx).expect(concat!(stringify!($name), " overflow")))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// A video in the catalog — an element of the set `M` ("mnemonic: movies").
    VideoId,
    u32,
    "m"
);

id_newtype!(
    /// A video hub office — an element of the set `V` of vertices.
    VhoId,
    u16,
    "v"
);

id_newtype!(
    /// A directed backbone link — an element of the set `L`.
    ///
    /// Links are directed: a bidirectional physical link is modeled as
    /// two `LinkId`s, one per direction, each with its own capacity,
    /// exactly as constraint (6) of the paper requires.
    LinkId,
    u32,
    "l"
);

/// Iterate over all `VhoId`s in `0..n`.
pub fn all_vhos(n: usize) -> impl Iterator<Item = VhoId> + Clone {
    (0..n).map(VhoId::from_index)
}

/// Iterate over all `VideoId`s in `0..n`.
pub fn all_videos(n: usize) -> impl Iterator<Item = VideoId> + Clone {
    (0..n).map(VideoId::from_index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let v = VhoId::from_index(54);
        assert_eq!(v.index(), 54);
        assert_eq!(v, VhoId::new(54));
    }

    #[test]
    fn display_uses_prefix() {
        assert_eq!(VideoId::new(7).to_string(), "m7");
        assert_eq!(VhoId::new(3).to_string(), "v3");
        assert_eq!(LinkId::new(12).to_string(), "l12");
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(VideoId::new(1) < VideoId::new(2));
        let mut ids = vec![LinkId::new(5), LinkId::new(1), LinkId::new(3)];
        ids.sort();
        assert_eq!(ids, vec![LinkId::new(1), LinkId::new(3), LinkId::new(5)]);
    }

    #[test]
    fn iterators_cover_range() {
        let vhos: Vec<_> = all_vhos(3).collect();
        assert_eq!(vhos, vec![VhoId::new(0), VhoId::new(1), VhoId::new(2)]);
        assert_eq!(all_videos(5).count(), 5);
    }

    #[test]
    #[should_panic(expected = "VhoId overflow")]
    fn from_index_overflow_panics() {
        let _ = VhoId::from_index(usize::from(u16::MAX) + 1);
    }
}
