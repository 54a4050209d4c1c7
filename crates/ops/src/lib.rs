//! `vod-ops` — the supervised placement service.
//!
//! The paper's placement is not solved once: operationally it is
//! re-solved on a schedule as demand shifts (Section VII-H, Table VI).
//! This crate runs that schedule through one crash-safe stage machine,
//! [`Service`]:
//!
//! - each cycle runs **estimate → solve → round → validate →
//!   simulate**, with the durable [`ServiceState`] written atomically
//!   (checksummed `vod-json` snapshots) after every stage transition,
//! - demand streams from the live trace window, and each cycle
//!   re-solves incrementally under a deterministic per-cycle budget;
//!   the solve stage emits resumable solver checkpoints, so a process
//!   killed mid-solve continues from the last surviving checkpoint and
//!   deploys the bitwise-identical placement,
//! - deployments are migration-cost-aware diffs under a churn cap
//!   (excess moves become typed [`DeferredMigration`]s that drain in
//!   later cycles), and scheduled [`WorldDelta`]s reconfigure the world
//!   at cycle boundaries with the serving placement repaired under the
//!   same cap,
//! - every stage has a bounded retry budget with *recorded* (never
//!   slept) deterministic backoff, a [`Watchdog`] bounds each cycle,
//!   and trouble walks a degradation ladder — warm-resume → cold
//!   re-solve → **last-good** placement → stale-serve with denial
//!   accounting — with a typed [`DegradeReason`] in the cycle's
//!   [`ServiceRecord`]. A cycle can degrade; the service never aborts.
//!
//! The service never reads a clock: interrupted and uninterrupted runs
//! are bit-for-bit comparable, which is what the `service_drill` and
//! `reconfig_drill` bench harnesses assert over a seeded
//! kill/corruption/I/O-fault matrix.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation
    )
)]

pub mod diff;
pub mod service;
pub mod state;
pub mod supervise;

pub use diff::{apply_churn_cap, ChurnPlan, DeferredMigration};
pub use service::{
    placement_fingerprint, OpsConfig, OpsWorld, Service, ServiceConfig, ServicePlan, ServiceRecord,
    ServiceState, StepOutcome, SERVICE_KIND, SERVICE_VERSION,
};
pub use state::{DegradeReason, OpsError, SimSummary, StageId, FRACTIONAL_KIND};
pub use supervise::{deployment_sleep, recorded_backoff, RecoveryAction, Watchdog};
// Re-exported so service callers can build [`ServiceConfig::cycle_deltas`]
// without importing vod-net directly.
pub use vod_net::{DeltaOp, WorldDelta};
