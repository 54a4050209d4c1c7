//! The vocabulary of the durable service state: stage ids, typed
//! degradation reasons, the per-cycle sim summary, and their codecs.
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
use vod_json::snapshot::{
    f64_bits_value, f64_from_bits_value, u64_bits_value, u64_from_bits_value,
};
use vod_json::Value;

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

/// Serialize a degradation reason.
pub(crate) fn reason_to_value(r: &DegradeReason) -> Value {
    match r {
        DegradeReason::StageFailed {
            stage,
            attempts,
            last_error,
        } => Value::Obj(vec![
            ("kind".into(), Value::Str("stage-failed".into())),
            ("stage".into(), Value::Str(stage.name().into())),
            ("attempts".into(), Value::Num(f64::from(*attempts))),
            ("last_error".into(), Value::Str(last_error.clone())),
        ]),
        DegradeReason::ValidationFailed { what } => Value::Obj(vec![
            ("kind".into(), Value::Str("validation-failed".into())),
            ("what".into(), Value::Str(what.clone())),
        ]),
        DegradeReason::Stalled {
            stage,
            ticks,
            budget,
        } => Value::Obj(vec![
            ("kind".into(), Value::Str("stalled".into())),
            ("stage".into(), Value::Str(stage.name().into())),
            ("ticks".into(), u64_bits_value(*ticks)),
            ("budget".into(), u64_bits_value(*budget)),
        ]),
        DegradeReason::SnapshotUnavailable { failures, what } => Value::Obj(vec![
            ("kind".into(), Value::Str("snapshot-unavailable".into())),
            ("failures".into(), u64_bits_value(*failures)),
            ("what".into(), Value::Str(what.clone())),
        ]),
    }
}

/// Decode a degradation reason; unknown kinds are typed errors.
pub(crate) fn reason_from_value(x: &Value) -> Result<DegradeReason, String> {
    let kind = x
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("degraded.kind: expected a string")?;
    let stage_of = || {
        x.get("stage")
            .and_then(Value::as_str)
            .and_then(StageId::from_name)
            .ok_or("degraded.stage: unknown stage")
    };
    match kind {
        "stage-failed" => Ok(DegradeReason::StageFailed {
            stage: stage_of()?,
            attempts: x
                .get("attempts")
                .and_then(Value::as_usize)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or("degraded.attempts: expected a u32")?,
            last_error: x
                .get("last_error")
                .and_then(Value::as_str)
                .ok_or("degraded.last_error: expected a string")?
                .to_string(),
        }),
        "validation-failed" => Ok(DegradeReason::ValidationFailed {
            what: x
                .get("what")
                .and_then(Value::as_str)
                .ok_or("degraded.what: expected a string")?
                .to_string(),
        }),
        "stalled" => Ok(DegradeReason::Stalled {
            stage: stage_of()?,
            ticks: u64_from_bits_value(x.get("ticks").ok_or("degraded.ticks: missing")?, "ticks")
                .map_err(|e| e.to_string())?,
            budget: u64_from_bits_value(
                x.get("budget").ok_or("degraded.budget: missing")?,
                "budget",
            )
            .map_err(|e| e.to_string())?,
        }),
        "snapshot-unavailable" => Ok(DegradeReason::SnapshotUnavailable {
            failures: u64_from_bits_value(
                x.get("failures").ok_or("degraded.failures: missing")?,
                "failures",
            )
            .map_err(|e| e.to_string())?,
            what: x
                .get("what")
                .and_then(Value::as_str)
                .ok_or("degraded.what: expected a string")?
                .to_string(),
        }),
        other => Err(format!("degraded.kind: unknown kind {other:?}")),
    }
}

/// Serialize a cycle's simulation summary.
pub(crate) fn sim_to_value(s: &SimSummary) -> Value {
    Value::Obj(vec![
        ("max_gbps".into(), f64_bits_value(s.max_gbps)),
        ("local_frac".into(), f64_bits_value(s.local_frac)),
        ("total_requests".into(), u64_bits_value(s.total_requests)),
    ])
}

/// Decode a simulation summary.
pub(crate) fn sim_from_value(x: &Value, what: &str) -> Result<SimSummary, String> {
    let f = |key: &str| -> Result<f64, String> {
        f64_from_bits_value(
            x.get(key).ok_or_else(|| format!("{what}.{key}: missing"))?,
            key,
        )
        .map_err(|e| e.to_string())
    };
    Ok(SimSummary {
        max_gbps: f("max_gbps")?,
        local_frac: f("local_frac")?,
        total_requests: u64_from_bits_value(
            x.get("total_requests")
                .ok_or_else(|| format!("{what}.total_requests: missing"))?,
            "total_requests",
        )
        .map_err(|e| e.to_string())?,
    })
}

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

#[cfg(test)]
mod tests {
    use super::*;

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
            assert_eq!(reason_from_value(&reason_to_value(&r)).unwrap(), r);
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
