//! The one solve entry point: the EPF decomposition (Section V-C), run
//! cold, warm from the last placement (Section VII-H, eq. (11)) or
//! resumed from a checkpoint — [`solve`] — and its rounding into a
//! placement (Section V-D), [`Solved::rounded`]. Bad input is a typed
//! [`SolveError`]; a budget-limited solve is `Ok` with
//! `converged == false` and honest gaps — a re-solve loop never aborts.
//! [`solve_placement`], [`solve_fractional`] and
//! [`solve_fractional_checkpointed`] are one-expression wrappers the
//! benchmark harness calls (until ROADMAP 6-A (v)).
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::epf::{layout_of, solve_with_pool, CheckpointSpec, EpfConfig, EpfStats, Hooks, Start};
use crate::error::SolveError;
use crate::instance::MipInstance;
use crate::penalty::PenaltyArena;
use crate::pool::WorkerPool;
use crate::rounding::{round_solution, RoundingStats};
use crate::solution::{FractionalSolution, Placement};
use std::sync::RwLock;

/// Result of a complete placement computation.
#[derive(Debug, Clone)]
pub struct PlacementOutput {
    pub placement: Placement,
    pub fractional: FractionalSolution,
    pub epf: EpfStats,
    pub rounding: RoundingStats,
}

impl PlacementOutput {
    /// Whether the ε-criteria were met within the budgets. A `false`
    /// here is a *degraded incumbent*, not a failure: the placement is
    /// usable and its gaps are reported.
    pub fn converged(&self) -> bool {
        self.epf.converged
    }

    /// Worst relative coupling-constraint violation of the integer
    /// placement (0 = fully feasible).
    pub fn feasibility_gap(&self) -> f64 {
        self.rounding.max_violation
    }

    /// Relative gap between the integer objective and the certified
    /// Lagrangian lower bound (`None` when the run produced no bound,
    /// e.g. a budget-truncated solve that never priced one).
    pub fn optimality_gap(&self) -> Option<f64> {
        self.rounding.optimality_gap
    }
}

/// How a solve actually started, so a supervising service loop can log
/// its recovery action instead of guessing from side effects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResumeKind {
    /// A validated mid-solve checkpoint was resumed.
    Checkpoint,
    /// Cold trajectory seeded from a previous placement (warm start).
    WarmStart,
    /// Cold trajectory with no prior information.
    Cold,
    /// A prior checkpoint was presented but failed validation and was
    /// discarded; the solve fell through to the warm/cold trajectory.
    /// `reason` is the validation message, so callers can record why
    /// instead of losing the evidence to a silent discard.
    Rejected { reason: String },
}

impl ResumeKind {
    pub fn name(&self) -> &'static str {
        match self {
            ResumeKind::Checkpoint => "checkpoint",
            ResumeKind::WarmStart => "warm-start",
            ResumeKind::Cold => "cold",
            ResumeKind::Rejected { .. } => "rejected",
        }
    }
}

/// What [`solve`] returns: the fractional solution, its statistics and
/// how the solve started.
#[derive(Debug, Clone)]
pub struct Solved {
    pub fractional: FractionalSolution,
    pub stats: EpfStats,
    pub kind: ResumeKind,
}

impl Solved {
    /// Round the fractional solution into a placement (Section V-D).
    pub fn rounded(self, inst: &MipInstance, cfg: &EpfConfig) -> PlacementOutput {
        let (placement, rounding) = round_solution(inst, &self.fractional, cfg.gamma, cfg.kernel);
        PlacementOutput {
            placement,
            fractional: self.fractional,
            epf: self.stats,
            rounding,
        }
    }
}

/// Reject out-of-domain input before any work happens.
fn validate(
    inst: &MipInstance,
    cfg: &EpfConfig,
    warm: Option<&Placement>,
) -> Result<(), SolveError> {
    if inst.n_videos() == 0 {
        return Err(SolveError::EmptyInstance);
    }
    if let Some(prev) = warm.filter(|p| p.n_videos() > inst.n_videos()) {
        return Err(SolveError::MismatchedWarmStart {
            prev_videos: prev.n_videos(),
            instance_videos: inst.n_videos(),
        });
    }
    let bad = |what: String| Err(SolveError::InvalidConfig { what });
    if !cfg.epsilon.is_finite() || cfg.epsilon <= 0.0 {
        return bad(format!(
            "epsilon must be finite and > 0 (got {})",
            cfg.epsilon
        ));
    }
    if !cfg.gamma.is_finite() || cfg.gamma <= 0.0 {
        return bad(format!("gamma must be finite and > 0 (got {})", cfg.gamma));
    }
    if let Some(g) = cfg.gap_limit.filter(|g| !g.is_finite() || *g < 0.0) {
        return bad(format!("gap_limit must be finite and >= 0 (got {g})"));
    }
    if cfg.max_passes == 0 {
        return bad("max_passes must be >= 1".to_string());
    }
    inst.quick_feasibility_check()
        .map_err(|reason| SolveError::Infeasible { reason })
}

/// Solve the LP relaxation with the EPF decomposition (Algorithm 1):
/// the ε-feasible, ε-optimal fractional solution and its statistics.
///
/// A `start.prior` that validates for `(inst, cfg)` resumes mid-solve
/// on the uninterrupted solve's bits; one that does not is discarded,
/// never an error, and reported as [`ResumeKind::Rejected`]. Otherwise
/// each video's block opens at its `start.warm` holders, or cold. The
/// catalog is append-only, so a shorter `warm` is accepted (tail videos
/// open cold) and a longer one is [`SolveError::MismatchedWarmStart`].
pub fn solve(
    inst: &MipInstance,
    cfg: &EpfConfig,
    start: Start<'_>,
    hooks: Hooks<'_>,
) -> Result<Solved, SolveError> {
    validate(inst, cfg, start.warm)?;
    let verdict = start.prior.map(|ck| (ck, ck.validate_for(inst, cfg)));
    let (prior, kind) = match (verdict, start.warm) {
        (Some((ck, Ok(()))), _) => (Some(ck), ResumeKind::Checkpoint),
        (Some((_, Err(reason))), _) => (None, ResumeKind::Rejected { reason }),
        (None, Some(_)) => (None, ResumeKind::WarmStart),
        (None, None) => (None, ResumeKind::Cold),
    };
    let layout = layout_of(inst);
    // The pool's workers borrow both arenas for the whole solve (see
    // `crate::pool`): one prices the chunk and polish dispatches, the
    // other every Lagrangian bound sweep. On resume they start fresh
    // and are rebuilt at their first dual snapshot, bitwise-equal to
    // the incremental updates they replace (`tests/penalty_props.rs`).
    let arena = RwLock::new(PenaltyArena::new(inst, &layout));
    let bound_arena = RwLock::new(PenaltyArena::new(inst, &layout));
    let (fractional, stats) = std::thread::scope(|scope| {
        let threads = cfg.effective_threads(inst.n_videos());
        let pool = WorkerPool::new(
            scope,
            threads,
            inst,
            layout,
            &arena,
            &bound_arena,
            cfg.kernel,
        );
        let start = Start { prior, ..start };
        solve_with_pool(inst, cfg, layout, &pool, start, hooks)
    });
    Ok(Solved {
        fractional,
        stats,
        kind,
    })
}

/// Cold [`solve`] plus rounding: the placement MIP end to end.
pub fn solve_placement(inst: &MipInstance, cfg: &EpfConfig) -> Result<PlacementOutput, SolveError> {
    solve(inst, cfg, Start::default(), Hooks::default()).map(|s| s.rounded(inst, cfg))
}

/// Cold [`solve`], fractional half only, as a tuple.
///
/// # Panics
///
/// On every [`SolveError`]. The benchmark harness calls this form
/// (until ROADMAP 6-A (v) moves it to [`solve`]); library code calls
/// [`solve`].
pub fn solve_fractional(inst: &MipInstance, cfg: &EpfConfig) -> (FractionalSolution, EpfStats) {
    match solve(inst, cfg, Start::default(), Hooks::default()) {
        Ok(s) => (s.fractional, s.stats),
        #[expect(
            clippy::panic,
            reason = "the documented contract of the harness's wrapper"
        )]
        Err(e) => panic!("solve_fractional: {e}"),
    }
}

/// A [`solve`] from `warm` that emits checkpoints: the benchmark
/// harness's checkpoint probe, until ROADMAP 6-A (v) moves it to [`solve`].
pub fn solve_fractional_checkpointed(
    inst: &MipInstance,
    cfg: &EpfConfig,
    warm: Option<&Placement>,
    spec: CheckpointSpec<'_>,
) -> Result<(FractionalSolution, EpfStats), SolveError> {
    solve(
        inst,
        cfg,
        Start { prior: None, warm },
        Hooks {
            checkpoint: Some(spec),
            observe: None,
        },
    )
    .map(|s| (s.fractional, s.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{DiskConfig, PlacementCost};
    use vod_model::{Mbps, VhoId};
    use vod_net::topologies;
    use vod_trace::{
        analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
    };

    fn pipeline(seed: u64, pc: Option<&PlacementCost>) -> (MipInstance, PlacementOutput) {
        let mut net = topologies::mesh_backbone(6, 9, seed);
        net.set_uniform_capacity(Mbps::from_gbps(1.0));
        let catalog = synthesize_library(&LibraryConfig::default_for(70, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(700.0, 7, seed));
        let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        let inst = MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            pc,
        );
        let out = solve_placement(
            &inst,
            &EpfConfig {
                max_passes: 100,
                seed,
                ..Default::default()
            },
        )
        .expect("pipeline instance is well-formed");
        (inst, out)
    }

    #[test]
    fn end_to_end_pipeline() {
        let (inst, out) = pipeline(41, None);
        assert_eq!(out.placement.n_videos(), inst.n_videos());
        // Disk usage respects capacities up to the reported violation.
        let usage = out.placement.disk_usage(&inst.catalog);
        for (u, d) in usage.iter().zip(&inst.disks) {
            assert!(
                u.value() <= d.value() * (1.0 + out.rounding.max_violation + 1e-6),
                "disk blown: {u} vs {d}"
            );
        }
        // The reported objective matches an independent recomputation.
        let recomputed = out.placement.objective_under(&inst);
        assert!(
            (recomputed - out.rounding.objective).abs() / recomputed.max(1.0) < 1e-6,
            "objective mismatch: {recomputed} vs {}",
            out.rounding.objective
        );
    }

    #[test]
    fn update_cost_term_discourages_migration() {
        // First solve without history.
        let (inst, base) = pipeline(42, None);
        let prev = base.placement.holder_lists().to_vec();
        // Re-solve with a strong stay-where-you-are incentive.
        let pc = PlacementCost {
            weight: 50.0,
            previous: Some(prev.clone()),
            origin: VhoId::new(0),
        };
        let demand = inst.demand.clone();
        let inst2 = MipInstance::new(
            inst.network.clone(),
            inst.catalog.clone(),
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            Some(&pc),
        );
        let out2 = solve_placement(
            &inst2,
            &EpfConfig {
                max_passes: 100,
                seed: 42,
                ..Default::default()
            },
        )
        .expect("update-cost instance is well-formed");
        // And with no incentive (weight 0 ≡ None) — same seed.
        let out_free = solve_placement(
            &inst2_without_cost(&inst),
            &EpfConfig {
                max_passes: 100,
                seed: 43,
                ..Default::default()
            },
        )
        .expect("cost-free instance is well-formed");
        let prev_p = crate::solution::Placement::from_stores(inst.n_vhos(), prev);
        let moved_with = out2.placement.migration_copies_from(&prev_p);
        let moved_free = out_free.placement.migration_copies_from(&prev_p);
        assert!(
            moved_with <= moved_free,
            "update-cost term should reduce migration: {moved_with} vs {moved_free}"
        );
    }

    fn inst2_without_cost(inst: &MipInstance) -> MipInstance {
        MipInstance::new(
            inst.network.clone(),
            inst.catalog.clone(),
            inst.demand.clone(),
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        )
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let (inst, _) = pipeline(44, None);
        let cases = [
            EpfConfig {
                epsilon: 0.0,
                ..Default::default()
            },
            EpfConfig {
                epsilon: f64::NAN,
                ..Default::default()
            },
            EpfConfig {
                gamma: -1.0,
                ..Default::default()
            },
            EpfConfig {
                gap_limit: Some(f64::NAN),
                ..Default::default()
            },
            EpfConfig {
                gap_limit: Some(-0.01),
                ..Default::default()
            },
            EpfConfig {
                max_passes: 0,
                ..Default::default()
            },
        ];
        for cfg in cases {
            let err = solve_placement(&inst, &cfg).expect_err("must reject");
            assert!(
                matches!(err, crate::error::SolveError::InvalidConfig { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn infeasible_instance_is_a_typed_error() {
        let (inst, _) = pipeline(45, None);
        // Shrink disks below one library copy: provably no placement.
        let starved = MipInstance::new(
            inst.network.clone(),
            inst.catalog.clone(),
            inst.demand.clone(),
            &DiskConfig::UniformRatio { ratio: 0.5 },
            1.0,
            0.0,
            None,
        );
        let err = solve_placement(&starved, &EpfConfig::default()).expect_err("must reject");
        assert!(
            matches!(err, crate::error::SolveError::Infeasible { .. }),
            "{err}"
        );
    }

    #[test]
    fn a_warm_solve_repairs_a_previous_placement() {
        let (inst, base) = pipeline(46, None);
        let cfg = EpfConfig {
            max_passes: 100,
            seed: 46,
            ..Default::default()
        };
        // Warm re-solve of the *same* instance: must succeed and stay
        // close to the previous placement (the warm blocks start
        // there), with quality no worse than a fresh solve's tolerance.
        let warm = Start {
            prior: None,
            warm: Some(&base.placement),
        };
        let solved = solve(&inst, &cfg, warm, Hooks::default()).expect("warm re-solve");
        assert_eq!(solved.kind, ResumeKind::WarmStart);
        let out = solved.rounded(&inst, &cfg);
        assert_eq!(out.placement.n_videos(), inst.n_videos());
        assert!(out.feasibility_gap() <= base.feasibility_gap() + 0.05);
        let moved = out.placement.migration_copies_from(&base.placement);
        let total: usize = (0..inst.n_videos())
            .map(|m| {
                out.placement
                    .stores(vod_model::VideoId::new(m as u32))
                    .len()
            })
            .sum();
        assert!(
            moved <= total,
            "warm start should not churn more copies than exist ({moved} vs {total})"
        );
    }

    /// One warm-start rule: the catalog is append-only, so a warm
    /// placement shorter than the instance seeds its head and the tail
    /// opens cold; a longer one is a typed error.
    #[test]
    fn a_shorter_warm_start_is_accepted_and_a_longer_one_is_an_error() {
        let (inst, _) = pipeline(47, None);
        let n = inst.n_videos();
        let solve_from = |videos: usize| {
            let warm = Placement::from_stores(inst.n_vhos(), vec![vec![VhoId::new(0)]; videos]);
            let start = Start {
                prior: None,
                warm: Some(&warm),
            };
            let cfg = EpfConfig {
                max_passes: 5,
                ..Default::default()
            };
            solve(&inst, &cfg, start, Hooks::default()).map(|s| s.kind)
        };
        assert_eq!(solve_from(3), Ok(ResumeKind::WarmStart));
        assert_eq!(
            solve_from(n + 1),
            Err(SolveError::MismatchedWarmStart {
                prev_videos: n + 1,
                instance_videos: n,
            })
        );
    }

    #[test]
    fn step_budget_returns_degraded_incumbent() {
        let (inst, _) = pipeline(48, None);
        // A one-pass budget stops the solver at the first pass
        // boundary: the result must still be a complete, usable
        // placement with honest gap statistics — never an abort.
        let out = solve_placement(
            &inst,
            &EpfConfig {
                step_limit: Some(1),
                seed: 48,
                ..Default::default()
            },
        )
        .expect("budget exhaustion is not an error");
        assert!(!out.converged());
        assert_eq!(out.placement.n_videos(), inst.n_videos());
        assert!(out.feasibility_gap().is_finite());
        if let Some(gap) = out.optimality_gap() {
            assert!(gap.is_finite());
        }
    }
}
