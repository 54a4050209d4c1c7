//! The vocabulary of the durable service state: stage ids, typed
//! degradation reasons, the per-cycle sim summary, and their wire forms.
//!
//! The state itself is one [`crate::ServiceState`] value, persisted
//! after every stage transition as a checksummed `vod_json::snapshot`
//! container ([`crate::SERVICE_KIND`]). Large intermediate artifacts
//! (the fractional solution between the solve and round stages, the
//! in-flight solver checkpoint) live in their own snapshot files next
//! to it — the state records only where the service *is*, and the
//! artifacts are re-validated on load, so a corrupt or missing file
//! degrades to recomputing a stage, never to a wrong answer.

use std::fmt;
use vod_json::{wire_names, wire_record, wire_tagged};

/// Snapshot-container kind tag for the persisted fractional solution
/// (the solve→round stage boundary).
pub const FRACTIONAL_KIND: &str = "ops-fractional";
/// Fractional payload version.
pub const FRACTIONAL_VERSION: u32 = 1;

/// The five supervised stages of one re-optimization cycle, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StageId {
    /// Build the demand estimate for the upcoming period.
    Estimate,
    /// EPF fractional solve (checkpointed every N passes).
    Solve,
    /// Sequential integer rounding of the persisted fractional.
    Round,
    /// Serviceability checks on the rounded placement.
    Validate,
    /// Replay the period's trace against the validated placement.
    Simulate,
}

impl StageId {
    pub const ALL: [StageId; 5] = [
        StageId::Estimate,
        StageId::Solve,
        StageId::Round,
        StageId::Validate,
        StageId::Simulate,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StageId::Estimate => "estimate",
            StageId::Solve => "solve",
            StageId::Round => "round",
            StageId::Validate => "validate",
            StageId::Simulate => "simulate",
        }
    }

    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|st| st.name() == s)
    }
}

impl fmt::Display for StageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

wire_names!(StageId);

/// Why a cycle fell back to the previous validated placement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// A stage failed (or was injected to fail) on every allowed
    /// attempt.
    StageFailed {
        stage: StageId,
        attempts: u32,
        last_error: String,
    },
    /// The rounded placement failed the serviceability checks.
    ValidationFailed { what: String },
    /// The service watchdog tripped: the cycle burned its whole
    /// deterministic supervision-tick budget without closing.
    Stalled {
        stage: StageId,
        ticks: u64,
        budget: u64,
    },
    /// The cycle closed while its durable snapshots could not be
    /// written (disk full, I/O errors). The service kept serving from
    /// memory and keeps retrying with recorded backoff, but crash
    /// safety was degraded for this cycle and the ledger says so.
    SnapshotUnavailable { failures: u64, what: String },
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::StageFailed {
                stage,
                attempts,
                last_error,
            } => write!(
                f,
                "stage {stage} failed after {attempts} attempts: {last_error}"
            ),
            Self::ValidationFailed { what } => write!(f, "placement validation failed: {what}"),
            Self::Stalled {
                stage,
                ticks,
                budget,
            } => write!(
                f,
                "watchdog: cycle stalled at stage {stage} after {ticks} ticks (budget {budget})"
            ),
            Self::SnapshotUnavailable { failures, what } => write!(
                f,
                "state snapshots unavailable ({failures} failed writes, serving from memory): {what}"
            ),
        }
    }
}

wire_tagged!(DegradeReason {
    "stage-failed" => StageFailed { stage, attempts, last_error },
    "validation-failed" => ValidationFailed { what },
    "stalled" => Stalled { stage, ticks, budget },
    "snapshot-unavailable" => SnapshotUnavailable { failures, what },
});

/// Why the service refused to start. Once running it never aborts:
/// cycle-level trouble degrades, storage trouble is served from memory.
#[derive(Debug)]
pub enum OpsError {
    /// The inputs are rejected up front (bad config, foreign state
    /// file, invalid fault or delta schedule). Retrying cannot help.
    Invalid { what: String },
    /// The state directory cannot be created.
    Io { what: String },
}

impl fmt::Display for OpsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Invalid { what } => write!(f, "invalid service input: {what}"),
            Self::Io { what } => write!(f, "service state dir unusable: {what}"),
        }
    }
}

impl std::error::Error for OpsError {}

/// Simulation metrics of one cycle's serviceable placement.
#[derive(Debug, Clone)]
pub struct SimSummary {
    pub max_gbps: f64,
    pub local_frac: f64,
    pub total_requests: u64,
}

wire_record!(SimSummary {
    max_gbps,
    local_frac,
    total_requests
});

#[cfg(test)]
mod tests {
    use super::*;
    use vod_json::wire::Wire;

    #[test]
    fn every_degrade_reason_round_trips() {
        for r in [
            DegradeReason::StageFailed {
                stage: StageId::Round,
                attempts: 2,
                last_error: "boom".into(),
            },
            DegradeReason::ValidationFailed {
                what: "unsorted holders".into(),
            },
            DegradeReason::Stalled {
                stage: StageId::Solve,
                ticks: 9,
                budget: 8,
            },
            DegradeReason::SnapshotUnavailable {
                failures: 4,
                what: "persist service state: snapshot io error".into(),
            },
        ] {
            assert_eq!(DegradeReason::dec(&r.enc()).unwrap(), r);
        }
    }

    #[test]
    fn stage_names_round_trip() {
        for s in StageId::ALL {
            assert_eq!(StageId::from_name(s.name()), Some(s));
        }
        assert_eq!(StageId::from_name("bogus"), None);
    }
}
