//! Backbone network model for the VoD placement system.
//!
//! Implements the system environment of Section III: a set of video hub
//! offices (VHOs) in metropolitan areas, interconnected by a
//! high-bandwidth backbone of directed links, with a *fixed* routing
//! path `P_ij` between every ordered pair of VHOs (the paper assumes
//! predetermined shortest-path routing rather than arbitrary routing).
//!
//! The crate provides:
//! - [`Network`]: the graph of VHOs and directed capacitated links,
//! - [`PathSet`]: precomputed deterministic shortest (hop-count) paths
//!   for every ordered pair,
//! - [`topologies`]: generators for every topology the evaluation uses
//!   (the 55-node backbone, its spanning tree, the full mesh, and
//!   Rocketfuel-like Tiscali / Sprint / Ebone graphs), plus simple
//!   shapes for tests.

#![cfg_attr(
    test,
    expect(clippy::float_cmp, reason = "test code pins exact float bits")
)]

pub mod delta;
pub mod graph;
pub mod routing;
pub mod topologies;

pub use delta::{DeltaOp, WorldDelta, CAPACITY_EPSILON};
pub use graph::{Link, Network, Node};
pub use routing::PathSet;
