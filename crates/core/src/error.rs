//! Typed failure modes of the placement pipeline.
//!
//! [`crate::solver::solve`] (and every wrapper over it, the
//! [`crate::feasibility`] scenario builders included) returns these
//! instead of panicking: an operational system re-solving placements
//! after a fault cannot afford an abort, and a typed error distinguishes
//! "your inputs are wrong" from "the instance genuinely has no feasible
//! placement". Two outcomes are *not* errors: a solve that runs out of
//! budget returns the best incumbent with `converged = false` and its
//! gaps in the stats, and a checkpoint that does not fit the solve is
//! discarded and reported as [`crate::solver::ResumeKind::Rejected`].

use std::fmt;

/// Why a placement solve could not even start (or provably cannot
/// succeed). Degraded-but-usable outcomes are reported through
/// `EpfStats`/`RoundingStats`, never through this enum.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The instance has no videos — nothing to place.
    EmptyInstance,
    /// A solver parameter is out of its documented domain.
    InvalidConfig { what: String },
    /// The instance fails a necessary feasibility condition (e.g.
    /// aggregate disk below library size): no placement can exist.
    Infeasible { reason: String },
    /// A scenario capacity override is malformed (NaN/negative scale,
    /// unknown link or VHO).
    InvalidOverride { what: String },
    /// A warm-start placement covers more videos than the instance.
    MismatchedWarmStart {
        prev_videos: usize,
        instance_videos: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyInstance => write!(f, "instance has no videos"),
            Self::InvalidConfig { what } => write!(f, "invalid solver config: {what}"),
            Self::Infeasible { reason } => write!(f, "instance is infeasible: {reason}"),
            Self::InvalidOverride { what } => write!(f, "invalid capacity override: {what}"),
            Self::MismatchedWarmStart {
                prev_videos,
                instance_videos,
            } => write!(
                f,
                "warm-start placement covers {prev_videos} videos but the instance has {instance_videos}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_specific() {
        let cases: Vec<(SolveError, &str)> = vec![
            (SolveError::EmptyInstance, "no videos"),
            (
                SolveError::InvalidConfig {
                    what: "epsilon must be > 0 (got -1)".into(),
                },
                "epsilon",
            ),
            (
                SolveError::Infeasible {
                    reason: "aggregate disk below library size".into(),
                },
                "infeasible",
            ),
            (
                SolveError::InvalidOverride {
                    what: "link 3 scale is NaN".into(),
                },
                "override",
            ),
            (
                SolveError::MismatchedWarmStart {
                    prev_videos: 10,
                    instance_videos: 20,
                },
                "10",
            ),
        ];
        for (err, needle) in cases {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
