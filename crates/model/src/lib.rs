//! Core domain types shared by every crate in the `vodplace` workspace.
//!
//! This crate defines the vocabulary of the paper's system model
//! (Section III and Table I): videos (the set `M`), video hub offices
//! (VHOs, the set `V`), directed backbone links (the set `L`), time
//! slices (the set `T`), and the physical units the model is expressed
//! in (gigabytes of disk, megabits per second of link capacity and
//! stream bitrate, seconds of simulated time).
//!
//! Everything downstream — the network model, trace generation, the MIP
//! formulation, the EPF solver and the streaming simulator — speaks in
//! these types, so they are deliberately small, `Copy` where possible,
//! and serializable.

#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "test code pins exact float bits")
)]

pub mod fcmp;
pub mod ids;
pub mod narrow;
pub mod rng;
pub mod slab;
pub mod time;
pub mod units;
pub mod video;

pub use fcmp::{fcmp, fcmp_by, fcmp_desc};
pub use ids::{LinkId, VhoId, VideoId};
pub use time::{SimTime, TimeWindow};
pub use units::{Gigabytes, Mbps};
pub use video::{chunked_catalog, Catalog, Video, VideoClass, VideoKind};
