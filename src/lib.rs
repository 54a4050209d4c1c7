//! # vodplace — optimal content placement for a large-scale VoD system
//!
//! A from-scratch Rust reproduction of *"Optimal Content Placement for
//! a Large-Scale VoD System"* (Applegate, Archer, Gopalakrishnan, Lee,
//! Ramakrishnan — ACM CoNEXT 2010 / IEEE/ACM ToN 2016): a mixed
//! integer program that places videos across the video hub offices
//! (VHOs) of an IPTV backbone so that every request can be served
//! within disk and link-bandwidth limits at minimum network cost, and
//! the exponential-potential-function (EPF) Lagrangian decomposition
//! that solves it at scales where generic LP solvers collapse.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `vod-model` | ids, units, time, the video catalog |
//! | [`net`] | `vod-net` | backbone graphs, routing, topology generators |
//! | [`trace`] | `vod-trace` | workload synthesis, demand aggregation, trace analytics |
//! | [`lp`] | `vod-lp` | generic dense simplex + branch-and-bound (the "CPLEX" baseline) |
//! | [`core`] | `vod-core` | the MIP, the EPF solver, rounding, feasibility searches |
//! | [`sim`] | `vod-sim` | discrete-event streaming simulator, LRU/LFU caches, strategy setups |
//! | [`estimate`] | `vod-estimate` | history / series / blockbuster demand estimators |
//!
//! ## Quickstart
//!
//! ```
//! use vodplace::prelude::*;
//!
//! // A small backbone, a synthetic library and a week of requests.
//! let mut network = vodplace::net::topologies::mesh_backbone(8, 12, 7);
//! network.set_uniform_capacity(Mbps::from_gbps(1.0));
//! let library = synthesize_library(&LibraryConfig::default_for(200, 7, 7));
//! let trace = generate_trace(&library, &network, &TraceConfig::default_for(1500.0, 7, 7));
//!
//! // Demand input: aggregate requests + the two peak-hour windows.
//! let windows = vodplace::trace::analysis::select_peak_windows(&trace, &library, 3600, 2);
//! let demand = DemandInput::from_trace(&trace, &library, network.num_nodes(), windows);
//!
//! // Solve the placement MIP (EPF decomposition + rounding).
//! let instance = MipInstance::new(
//!     network, library, demand,
//!     &DiskConfig::UniformRatio { ratio: 2.0 },
//!     1.0, 0.0, None,
//! );
//! let out = solve_placement(&instance, &EpfConfig { max_passes: 40, ..Default::default() })
//!     .expect("well-formed instance");
//! assert_eq!(out.placement.n_videos(), instance.n_videos());
//! ```
//!
//! `solve_placement` is a cold [`core::solve`] plus rounding. Call
//! `solve` itself to warm-start from a previous placement, resume a
//! checkpoint, or observe the solve's per-pass events.

pub use vod_core as core;
pub use vod_estimate as estimate;
pub use vod_lp as lp;
pub use vod_model as model;
pub use vod_net as net;
pub use vod_sim as sim;
pub use vod_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use vod_core::{
        solve_placement, DiskConfig, EpfConfig, MipInstance, Placement, PlacementCost,
    };
    pub use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind};
    pub use vod_model::{Catalog, Gigabytes, Mbps, SimTime, TimeWindow, VhoId, VideoId};
    pub use vod_net::{Network, PathSet};
    pub use vod_sim::{simulate, CacheKind, PolicyKind, SimConfig, VhoConfig};
    pub use vod_trace::{
        generate_trace, synthesize_library, DemandInput, LibraryConfig, Trace, TraceConfig,
    };
}
