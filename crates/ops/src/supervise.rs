//! Supervision primitives of the service loop: the recorded-backoff
//! formula, the deterministic cycle watchdog, and the
//! graceful-degradation ladder's typed recovery actions.
//!
//! Determinism contract: the supervisor never reads a clock and never
//! sleeps. Backoff is *computed* from seeded jitter and recorded in the
//! cycle ledger; the cycle watchdog counts supervision ticks, not
//! seconds. The only sanctioned real sleep in the workspace is
//! [`deployment_sleep`] below — the `sleep-timer` lint pins every
//! other `thread::sleep`/timer read as a finding.

use crate::state::StageId;
use vod_model::rng::derive_seed;

/// Recorded exponential backoff with deterministic seeded jitter: a
/// pure function of the `(seed, cycle, stage, attempt)` coordinate, so
/// twin runs record byte-identical retry delays. Never slept in tests or
/// benches — a deployment passes the returned amount to
/// [`deployment_sleep`].
#[must_use]
pub fn recorded_backoff(
    seed: u64,
    cycle: usize,
    stage: StageId,
    attempt: u32,
    base_ms: u64,
) -> u64 {
    let base = base_ms.max(1);
    let exp = base.saturating_mul(1u64 << attempt.min(16));
    let mix = ((cycle as u64) << 16) ^ ((stage as u64) << 8) ^ u64::from(attempt) ^ 0xBAC0_FF00;
    exp + derive_seed(seed, mix) % base
}

/// Which rung of the graceful-degradation ladder a cycle landed on.
/// Ordered from least to most degraded; a cycle may record several
/// (e.g. a warm resume that still ends in a last-good fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A mid-solve checkpoint was validated and resumed.
    WarmResume,
    /// Warm state survived a world delta: the solver state was remapped
    /// onto the reconfigured instance instead of cold-solving
    /// ([`vod_core::remap`]). Capacity-only deltas land here.
    WarmRemap,
    /// A stale/foreign checkpoint was discarded; the solve restarted
    /// cold, seeded from the deployed placement.
    ColdSolve,
    /// The cycle failed to produce a fresh placement; the previous
    /// deployment keeps serving.
    LastGood,
    /// No deployment exists at all: the window's demand is served
    /// stale (denied and accounted), never dropped on the floor.
    StaleServe,
}

impl RecoveryAction {
    pub const ALL: [RecoveryAction; 5] = [
        RecoveryAction::WarmResume,
        RecoveryAction::WarmRemap,
        RecoveryAction::ColdSolve,
        RecoveryAction::LastGood,
        RecoveryAction::StaleServe,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RecoveryAction::WarmResume => "warm-resume",
            RecoveryAction::WarmRemap => "warm-remap",
            RecoveryAction::ColdSolve => "cold-solve",
            RecoveryAction::LastGood => "last-good",
            RecoveryAction::StaleServe => "stale-serve",
        }
    }

    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.name() == s)
    }
}

impl std::fmt::Display for RecoveryAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

vod_json::wire_names!(RecoveryAction);

/// Deterministic stall detector. A wall-clock watchdog would break the
/// bitwise resume-identity contract, so this one counts *supervision
/// ticks* — one per `step` call — against a per-cycle budget. A cycle
/// that cannot close within its budget (retry ping-pong, artifact
/// regeneration loops) is declared stalled and degraded with a typed
/// [`crate::DegradeReason::Stalled`], instead of spinning forever.
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    budget: u64,
    ticks: u64,
}

impl Watchdog {
    /// `budget` = supervision ticks one cycle may burn. A healthy
    /// cycle needs one per stage; size it at
    /// `stages * max_attempts + slack`.
    #[must_use]
    pub fn new(budget: u64) -> Self {
        Self {
            budget: budget.max(1),
            ticks: 0,
        }
    }

    /// Count one supervision tick; `true` means the budget is now
    /// exhausted and the cycle must degrade.
    pub fn tick(&mut self) -> bool {
        self.ticks = self.ticks.saturating_add(1);
        self.ticks >= self.budget
    }

    /// A new cycle starts with a fresh budget.
    pub fn reset(&mut self) {
        self.ticks = 0;
    }

    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    #[must_use]
    pub fn budget(&self) -> u64 {
        self.budget
    }
}

/// The one sanctioned real sleep: an operational deployment calls this
/// with the recorded backoff amounts from the cycle ledger. Kept here
/// so the `sleep-timer` lint has exactly one allowed home for
/// `thread::sleep` — everywhere else in the workspace a sleep or timer
/// read is a determinism finding.
pub fn deployment_sleep(ms: u64) {
    std::thread::sleep(std::time::Duration::from_millis(ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let a = recorded_backoff(42, 1, StageId::Solve, 0, 250);
        let b = recorded_backoff(42, 1, StageId::Solve, 0, 250);
        assert_eq!(a, b);
        // Exponential envelope: attempt k's floor doubles.
        for k in 0..5 {
            let lo = recorded_backoff(42, 1, StageId::Solve, k, 250);
            assert!(lo >= 250u64 << k, "attempt {k}: {lo}");
            assert!(lo < (250u64 << k) + 2 * 250, "attempt {k}: {lo}");
        }
        // Different coordinates jitter differently (not a constant).
        let across: Vec<u64> = (0..8)
            .map(|c| recorded_backoff(42, c, StageId::Round, 0, 250))
            .collect();
        assert!(across.windows(2).any(|w| w[0] != w[1]), "{across:?}");
    }

    #[test]
    fn extreme_attempts_cap_the_exponent() {
        // attempt is clamped at 2^16 so huge retry counts cannot
        // overflow the envelope.
        let v = recorded_backoff(7, 1_000_000, StageId::Simulate, u32::MAX, 1_000);
        assert!(v >= 1_000u64 << 16);
        assert!(v < (1_000u64 << 16) + 2_000);
    }

    #[test]
    fn watchdog_trips_exactly_at_budget() {
        let mut w = Watchdog::new(3);
        assert!(!w.tick());
        assert!(!w.tick());
        assert!(w.tick());
        assert_eq!(w.ticks(), 3);
        w.reset();
        assert_eq!(w.ticks(), 0);
        assert!(!w.tick());
        // Zero budgets clamp to 1: every first tick trips.
        let mut z = Watchdog::new(0);
        assert!(z.tick());
    }

    #[test]
    fn recovery_action_names_round_trip() {
        for a in RecoveryAction::ALL {
            assert_eq!(RecoveryAction::from_name(a.name()), Some(a));
        }
        assert_eq!(RecoveryAction::from_name("bogus"), None);
    }
}
