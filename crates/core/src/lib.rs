//! `vod-core` — the paper's primary contribution: optimal content
//! placement for a large-scale VoD system.
//!
//! Implements the mixed-integer-program formulation of Section V
//! (objective (2), constraints (3)–(8), optional update-cost objective
//! (11)) and the scalable solution pipeline:
//!
//! 1. **EPF decomposition** ([`epf`]) — the exponential potential
//!    function / Lagrangian relaxation method of the Appendix
//!    (Algorithm 1), decomposing the LP relaxation into one
//!    facility-location block per video ([`block`]), with shuffled
//!    passes, chunked parallel block optimization, exact line searches
//!    ([`potential`]), dual smoothing, and per-pass Lagrangian lower
//!    bounds,
//! 2. **rounding** ([`rounding`]) — the sequential integer
//!    facility-location re-solve of Section V-D, and
//! 3. **feasibility searches** ([`feasibility`]) — the binary-search
//!    wrappers behind the disk/bandwidth trade-off experiments.
//!
//! Every solve goes through [`solve`]: cold, warm or resumed
//! ([`Start`]), observed through [`Hooks`].
//!
//! A *direct* (non-decomposed) formulation ([`direct`]) feeds the
//! generic simplex baseline of `vod-lp`, standing in for CPLEX in the
//! Table III comparison and for exact-optimum validation.

#![cfg_attr(
    test,
    expect(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::disallowed_methods,
        reason = "test code unwraps its own fixtures, pins exact float bits, narrows small fixture sizes and builds raw VhoIds"
    )
)]

pub mod audit;
pub mod block;
pub mod checkpoint;
pub mod direct;
pub mod epf;
pub mod error;
pub mod feasibility;
pub mod instance;
pub mod kernel;
pub mod penalty;
pub mod pool;
pub mod potential;
pub mod repair;
pub mod rounding;
pub mod shard;
pub mod solution;
pub mod solver;

pub use audit::{AuditReport, Violation};
pub use checkpoint::{CheckpointError, SolverCheckpoint};
pub use epf::{CheckpointSpec, EpfConfig, EpfStats, Hooks, RunOutcome, SolveEvent, Start};
pub use error::SolveError;
pub use feasibility::{CapacityOverrides, Scenario};
pub use instance::{DiskConfig, MipInstance, PlacementCost};
pub use kernel::Kernel;
pub use penalty::{PenaltyArena, PenaltyUpdate};
pub use pool::map_ordered;
pub use repair::{repair_placement, RepairMove, RepairPlan};
pub use rounding::RoundingStats;
pub use solution::{BlockSolution, Dists, FractionalSolution, Placement, VideoRouting};
pub use solver::{
    solve, solve_fractional, solve_fractional_checkpointed, solve_placement, PlacementOutput,
    ResumeKind, Solved,
};
