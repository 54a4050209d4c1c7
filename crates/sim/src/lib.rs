//! Discrete-event VoD streaming simulator.
//!
//! Replays a request trace against a placement/caching configuration
//! and measures exactly what the paper's evaluation measures
//! (Section VII): peak link bandwidth per 5-minute interval (Fig. 5),
//! aggregate transfer across all links (Fig. 6), cache behaviour
//! (Fig. 9), hit rates and locally-served fractions (Tables II, VI).
//!
//! Mechanics: each request opens a stream of the video's bitrate along
//! the fixed path from its serving VHO for the video's full duration;
//! per-link loads are updated at stream start/end events and integrated
//! between events, so bucket peaks and transferred volumes are exact.
//! Each VHO owns a *pinned* store (the placement's copies) plus an
//! optional LRU/LFU cache; cached copies are pinned for the duration of
//! any stream using them (a video being viewed "occupies the cache for
//! a long period", Section I) — a cache full of active videos rejects
//! insertions, which the paper counts as "uncachable" requests
//! (Fig. 9).
//!
//! Serving decision, in order: local pinned copy → local cached copy →
//! the MIP's serving distribution `x_{ij}^m` (weighted random server
//! choice, Section V-B) when available → the *Oracle* nearest replica
//! (the paper grants the caching baselines a perfect replica locator).

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

pub mod batch;
pub mod cache;
pub mod engine;
pub mod faults;
pub mod setups;

pub use batch::{default_threads, simulate_batch, SimJob};
pub use cache::{Cache, CacheImpl, CacheKind, CacheStats, LfuCache, LrfuCache, LruCache};
pub use engine::{
    simulate, simulate_with_final, PolicyKind, SimConfig, SimFinalState, SimReport, VhoConfig,
};
pub use faults::{FaultConfigError, FaultEvent, FaultKind, FaultSchedule};
pub use setups::{
    mip_vho_configs, origin_vho_configs, random_single_vho_configs, top_k_vho_configs,
};
