//! A from-scratch generic linear-programming solver.
//!
//! This crate is the workspace's stand-in for the commercial solver
//! (CPLEX) the paper benchmarks against in Table III and Section V-C:
//! a correct, general-purpose, *non-decomposed* LP code. It
//! deliberately implements the classical dense two-phase tableau
//! simplex — robust and exact on small instances — so that:
//!
//! 1. the EPF decomposition solver in `vod-core` can be validated
//!    against exact optima on small placement instances, and
//! 2. the Table III scalability comparison can demonstrate the same
//!    *shape* the paper reports: superlinear time and a dense-matrix
//!    memory footprint for the generic code versus near-linear
//!    behaviour for the decomposition.
//!
//! A simple depth-first branch-and-bound wrapper
//! ([`branch_bound::solve_mip`]) provides exact mixed-integer optima
//! on tiny instances, used to validate the rounding heuristic.

#![cfg_attr(
    test,
    expect(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        reason = "test code unwraps its own fixtures, pins exact float bits and narrows small fixture sizes"
    )
)]

pub mod branch_bound;
pub mod problem;
pub mod simplex;

pub use branch_bound::{solve_mip, MipOutcome};
pub use problem::{Cmp, LinearProgram, LpError, LpSolution};
pub use simplex::solve_lp;
