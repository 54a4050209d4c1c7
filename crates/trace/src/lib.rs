//! Synthetic VoD workload generation and trace analytics.
//!
//! The paper's evaluation (Section VII-A) drives everything from one
//! month of request traces of a nationally deployed VoD service, plus
//! synthetic traces following the YouTube popularity distribution of
//! Cha et al. for the scalability study. The operational traces are
//! proprietary, so this crate synthesizes traces with the statistical
//! properties the paper reports and measures (see DESIGN.md §1):
//!
//! - long-tailed video popularity (Zipf with exponential cutoff),
//! - four video length classes (Section VII-A),
//! - population-weighted per-VHO demand with per-(video, VHO)
//!   perturbation — different locations see different request mixes,
//! - diurnal and weekly intensity modulation with Friday/Saturday
//!   peaks (Section VI-B),
//! - a weekly new-release process with TV-series episodes (Fig. 4),
//!   blockbusters, and unpredictable "other" releases (Section VI-A).
//!
//! It also implements the analytics the paper runs over traces: peak
//! working-set sizes (Fig. 2), cosine similarity of request mixes
//! (Fig. 3), per-episode daily request counts (Fig. 4), demand
//! aggregation `a_j^m`, concurrent-stream profiles `f_j^m(t)`, and
//! peak-window selection (Section VI-B, Table V).
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]
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

pub mod analysis;
pub mod demand;
pub mod generator;
pub mod popularity;
pub mod stats;
pub mod synth;
pub mod trace;

pub use demand::{synthetic_demand, DemandInput, DemandMatrix};
pub use generator::{generate_trace, TraceConfig};
pub use popularity::PopularityModel;
pub use synth::{synthesize_library, LibraryConfig};
pub use trace::{Request, Trace};
