//! The supervised placement service: the crate's one stage machine.
//!
//! `Service` is the daemon form the paper operates (§VI: demand
//! re-estimated and the placement re-solved on an update cadence,
//! Table VI). Each cycle runs the staged sequence **estimate → solve →
//! round → validate → simulate**; every stage transition is persisted
//! atomically to `service.state`, and the solve stage emits resumable
//! [`SolverCheckpoint`]s. Around that sequence it is a deterministic
//! multi-cycle loop that
//!
//! 1. estimates demand from the cycle's history and period windows of
//!    the live trace ([`vod_trace::Trace::restricted`]: a window is a
//!    view of the one trace in memory — nothing is copied or
//!    re-sorted) and builds the cycle's [`MipInstance`] from it once,
//!    for all four stages that read it,
//! 2. incrementally re-solves each cycle with one [`vod_core::solve`]
//!    — resumed from the cycle's checkpoint, else warm from the
//!    deployed placement — under a per-cycle deterministic pass budget
//!    ([`EpfConfig::budgeted`]),
//! 3. deploys migration-cost-aware diffs under a churn cap
//!    ([`crate::diff::apply_churn_cap`]) — excess copies become typed
//!    [`DeferredMigration`]s that drain oldest-first in later cycles,
//! 4. runs under a supervision layer: per-stage retry budgets with
//!    recorded (never-slept) seeded backoff, a deterministic
//!    [`Watchdog`] that degrades stalled cycles, and a
//!    graceful-degradation ladder — warm-resume → cold re-solve →
//!    last-good placement → stale-serve with denial accounting. A
//!    cycle can *degrade*; the service never aborts.
//!
//! Determinism contract (pinned by the `drill service` bench): the
//! service never reads a clock and never sleeps — retry backoff is
//! computed from seeded jitter and *recorded* in the cycle ledger (a
//! deployment would sleep those amounts; tests and benches must not) —
//! and every cycle's deployed placement is a pure function of
//! (world, config, seed, cycle). An interrupted run — killed at any
//! stage boundary, killed mid-solve, state file torn at any byte,
//! checkpoint swapped for a foreign one — re-converges to deployed
//! placements byte-identical to the uninterrupted twin's.

use std::path::PathBuf;
use std::sync::Arc;
use vod_core::checkpoint::{
    config_fingerprint, validate_fractional, CHECKPOINT_KIND, CHECKPOINT_VERSION,
};
use vod_core::rounding::round_solution;
use vod_core::{
    repair_placement, solve, CheckpointSpec, DiskConfig, EpfConfig, FractionalSolution, Hooks,
    MipInstance, Placement, PlacementCost, ResumeKind, Solved, SolverCheckpoint, Start,
};
use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind};
use vod_json::faults::FaultHandle;
use vod_json::reader::{Next, Reader};
use vod_json::snapshot::{fnv1a64, SnapshotError};
use vod_json::wire::{Sink, Wire, WireError};
use vod_json::{wire_fields, wire_record, Value};
use vod_model::rng::derive_seed;
use vod_model::time::DAY;
use vod_model::{
    Catalog, Gigabytes, SimTime, TimeWindow, VhoId, Video, VideoClass, VideoId, VideoKind,
};
use vod_net::{DeltaOp, Network, PathSet, WorldDelta};
use vod_sim::{mip_vho_configs, simulate, CacheKind, FaultSchedule, PolicyKind, SimConfig};
use vod_trace::Trace;

use crate::diff::{apply_churn_cap, DeferredMigration};
use crate::state::{
    DegradeReason, OpsError, SimSummary, StageId, FRACTIONAL_KIND, FRACTIONAL_VERSION,
};
use crate::supervise::{recorded_backoff, RecoveryAction, Watchdog};

/// Snapshot-container kind tag for the service state file.
pub const SERVICE_KIND: &str = "ops-service";
/// Service state payload version. v2 added live-reconfiguration state
/// (applied-delta counter, repair/rejection ledgers, snapshot-failure
/// accounting); v1 files cold-restart via the version gate.
pub const SERVICE_VERSION: u32 = 2;

/// MIP disk budget assigned to a storage-dark (decommissioned) VHO.
/// Must stay positive ([`MipInstance`] rejects zero capacities) but
/// below the smallest video size, so the solver can never place a
/// copy there while the node keeps existing on every axis.
const DARK_DISK_GB: f64 = 1e-6;

/// Cycle seed salt: every cycle solves under its own derived seed, so
/// a solver checkpoint from one cycle can never validate against
/// another's.
const SERVICE_CYCLE_SALT: u64 = 0x5EBF;

/// The world the service re-optimizes against: topology (with link
/// capacities already set), routing, library, the full request trace,
/// and the physical disk inventory. The service clones it — the trace
/// is a view, so the clone shares the requests — and evolves its copy
/// through [`vod_net::WorldDelta`]s between cycles.
#[derive(Debug, Clone)]
pub struct OpsWorld {
    pub net: Network,
    pub paths: PathSet,
    pub catalog: Catalog,
    pub trace: Trace,
    /// Physical per-VHO disks handed to the simulator.
    pub disks: Vec<Gigabytes>,
    /// Disk budget the MIP solves against (typically the physical disk
    /// minus the complementary-cache share).
    pub mip_disk: DiskConfig,
    pub est: EstimateConfig,
}

/// Schedule, solver, retry and state-dir parameters.
#[derive(Debug, Clone)]
pub struct OpsConfig {
    /// Re-optimization cycles to run (clamped to the trace horizon).
    pub cycles: usize,
    /// Days covered by each cycle's placement (Table VI's schedule).
    pub period_days: u64,
    /// First day a placement takes effect; must be ≥ 7 so a full week
    /// of history exists for the estimator.
    pub start_day: u64,
    pub estimator: EstimatorKind,
    /// Solver configuration. `epf.seed` doubles as the service master
    /// seed; its `step_limit` (and the service's `cycle_step_budget`)
    /// bound each solve in passes, the same on every machine.
    pub epf: EpfConfig,
    /// Attempts per stage before the cycle degrades to last-good.
    pub max_attempts: u32,
    /// Solver checkpoint cadence in global passes (0 = no mid-solve
    /// checkpoints; crash recovery then restarts the solve stage).
    pub checkpoint_every: u64,
    /// Base of the recorded exponential retry backoff.
    pub backoff_base_ms: u64,
    /// Relative disk overrun tolerated by the validate stage.
    pub validate_tol: f64,
    /// Replay each cycle's period through the simulator.
    pub simulate: bool,
    /// Directory holding `service.state`, `solver.ckpt` and
    /// `fractional.snap`.
    pub state_dir: PathBuf,
}

/// What one [`Service::step`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// The current stage completed and the service advanced.
    StageDone { cycle: usize, stage: StageId },
    /// The stage failed; the retry was scheduled with this much
    /// recorded backoff.
    AttemptFailed {
        cycle: usize,
        stage: StageId,
        attempt: u32,
        backoff_ms: u64,
    },
    /// A persisted inter-stage artifact was missing, corrupt or stale.
    /// `stage` is the stage that found it so, not the one the service
    /// stepped back to, which regenerates it.
    Retreated { cycle: usize, stage: StageId },
    /// The cycle exhausted a stage's retries (or failed validation)
    /// and fell back to the last-good placement.
    CycleDegraded { cycle: usize },
    /// The [`ServicePlan`] kill `kill` fired. The durable state is that
    /// of a killed process; stepping again (or constructing a fresh
    /// service over the same state dir) resumes from it — mid-solve
    /// from the last surviving checkpoint.
    SimulatedCrash { cycle: usize, kill: Kill },
    /// A scheduled [`vod_net::WorldDelta`] was applied: the world
    /// mutated, the deployed placement was repaired under the churn
    /// cap, and the delta counter advanced — one durable transition.
    /// `index` is the delta's position in the schedule.
    DeltaApplied { cycle: usize, index: usize },
    /// All cycles are closed.
    Finished,
}

/// Which [`ServicePlan`] kill a [`StepOutcome::SimulatedCrash`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kill {
    /// A `kill_at_stage` entry: the process died before this stage ran.
    AtStage(StageId),
    /// A `kill_mid_solve` entry: the process died after `keep`
    /// checkpoint emissions of the solve.
    MidSolve { keep: u64 },
}

/// Service parameters: the schedule plus the deployment knobs (churn
/// cap, per-cycle budget, watchdog, fault and delta feeds).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    pub ops: OpsConfig,
    /// Copies the service may move per cycle; `None` = unbounded.
    pub churn_cap: Option<usize>,
    /// Deterministic per-cycle solver budget in global passes, applied
    /// on top of `ops.epf` via [`EpfConfig::budgeted`]. `None` = the
    /// solver config as-is.
    pub cycle_step_budget: Option<u64>,
    /// Supervision ticks one cycle may burn before the watchdog
    /// degrades it ([`Watchdog`]).
    pub watchdog_budget: u64,
    /// Fault schedules injected into specific cycles' replay stage
    /// (validated against the world up front).
    pub cycle_faults: Vec<(usize, FaultSchedule)>,
    /// World deltas applied between cycles, sorted by cycle
    /// (non-decreasing; several per cycle are applied in order). Each
    /// is validated against the initial topology up front, applied as
    /// its own durable transition at the start of its cycle, and the
    /// deployed placement is repaired under the churn cap
    /// ([`vod_core::repair`]).
    pub cycle_deltas: Vec<WorldDelta>,
}

/// Deterministic chaos injection for drills: forced stage failures,
/// process kills at stage boundaries, mid-solve kills, and snapshot I/O
/// faults. The default injects nothing.
#[derive(Debug, Clone, Default)]
pub struct ServicePlan {
    /// `(cycle, stage, attempt)` triples that fail with an injected
    /// error instead of running.
    pub fail: Vec<(usize, StageId, u32)>,
    /// `(cycle, stage)` pairs: the "process" dies immediately before
    /// executing that stage — nothing is run or persisted. Fires once
    /// per pair per `Service` value; stepping again (or rebuilding the
    /// service over the same state dir) models the restart.
    pub kill_at_stage: Vec<(usize, StageId)>,
    /// `(cycle, keep_checkpoints)`: during that cycle's solve, stop
    /// persisting after `keep_checkpoints` checkpoint emissions and
    /// report a [`StepOutcome::SimulatedCrash`] — the durable state is
    /// then exactly what a process killed at that instant leaves
    /// behind. Fires at most once per cycle per `Service` value.
    pub kill_mid_solve: Vec<(usize, u64)>,
    /// The fault schedule of every snapshot read and write in the state
    /// dir. Clones share its counters: a drill that hands one clone to
    /// each rebuilt service counts I/O across all of them.
    pub io: FaultHandle,
}

impl ServicePlan {
    /// Drop the kill that fired in `cycle`, so a service rebuilt from
    /// this plan runs past it, as a restarted process would.
    pub fn retire(&mut self, cycle: usize, kill: Kill) {
        match kill {
            Kill::AtStage(stage) => self.kill_at_stage.retain(|&k| k != (cycle, stage)),
            Kill::MidSolve { .. } => self.kill_mid_solve.retain(|&(c, _)| c != cycle),
        }
    }
}

/// One closed service cycle: the ledger row `BENCH_service.json`
/// aggregates.
#[derive(Debug, Clone)]
pub struct ServiceRecord {
    pub cycle: usize,
    /// `None` = a fresh placement was deployed this cycle.
    pub degraded: Option<DegradeReason>,
    /// Degradation-ladder rungs recorded during the cycle, in order.
    pub recoveries: Vec<RecoveryAction>,
    pub attempts: u32,
    /// Recorded (never slept) retry backoff.
    pub backoff_ms: u64,
    pub solver_resumes: u32,
    /// Fingerprint of the placement *serving* at cycle close (the
    /// post-churn-cap deployment) — the identity anchor of both chaos
    /// drills, `drill service` and `drill reconfig`.
    pub placement_fnv: u64,
    /// Rounded objective of the cycle's full target (pre-churn-cap).
    pub objective: Option<f64>,
    /// Certified fractional lower bound (per-cycle optimality gap =
    /// `objective / lower_bound - 1`).
    pub lower_bound: Option<f64>,
    /// Copies actually moved this cycle (`<= churn_cap` always).
    pub moved: usize,
    /// Deferred-migration queue length after this cycle.
    pub deferred: usize,
    /// Requests denied during the window (stale-served demand counts
    /// in full).
    pub denied: u64,
    pub denial_rate: Option<f64>,
    /// True when the window was served with *no* deployment at all.
    pub stale: bool,
    pub sim: Option<SimSummary>,
    /// Fingerprints of the feasibility-repair plans executed this cycle
    /// (one per applied world delta that required repair) — the
    /// identity anchor of `drill reconfig` for repair behaviour.
    pub repairs: Vec<u64>,
    /// Solver-checkpoint rejections surfaced this cycle, each the
    /// reason the solver gave ([`ResumeKind::Rejected`]).
    pub rejections: Vec<String>,
}

wire_record!(ServiceRecord {
    cycle,
    degraded,
    recoveries,
    attempts,
    backoff_ms,
    solver_resumes,
    placement_fnv,
    objective,
    lower_bound,
    moved,
    deferred,
    denied,
    denial_rate,
    stale,
    sim,
    repairs,
    rejections,
});

/// Complete durable service state (persisted after every transition).
#[derive(Debug, Clone)]
pub struct ServiceState {
    pub seed: u64,
    pub cycle: usize,
    pub stage: StageId,
    pub attempts_done: u32,
    pub cycle_attempts: u32,
    pub cycle_backoff_ms: u64,
    pub cycle_solver_resumes: u32,
    pub cycle_recoveries: Vec<RecoveryAction>,
    /// The placement currently serving, and the cycle that deployed it.
    pub deployed: Option<(usize, Placement)>,
    /// The current cycle's rounded full-target placement.
    pub target: Option<Placement>,
    pub target_objective: Option<f64>,
    pub target_lower_bound: Option<f64>,
    pub pending_moved: usize,
    pub pending_sim: Option<SimSummary>,
    pub pending_denied: u64,
    pub pending_denial: Option<f64>,
    /// Migrations postponed by the churn cap, oldest first.
    pub deferred: Vec<DeferredMigration>,
    pub records: Vec<ServiceRecord>,
    pub resumes: u64,
    pub cold_restarts: u64,
    pub stale_serves: u64,
    /// Prefix of [`ServiceConfig::cycle_deltas`] already applied. The
    /// counter is durable and advances atomically with the delta's
    /// world mutation + repair, so a crash can never re-apply (or
    /// skip) a delta; construction replays this prefix to rebuild the
    /// evolved world.
    pub deltas_applied: usize,
    /// Lifetime count of failed snapshot writes (the service keeps
    /// serving from memory and retries; see
    /// [`DegradeReason::SnapshotUnavailable`]).
    pub snapshot_failures: u64,
    /// Repair-plan fingerprints accumulated in the current cycle.
    pub cycle_repairs: Vec<u64>,
    /// Checkpoint rejections accumulated in the current cycle.
    pub cycle_rejections: Vec<String>,
}

impl ServiceState {
    #[must_use]
    pub fn fresh(seed: u64) -> Self {
        Self {
            seed,
            cycle: 0,
            stage: StageId::Estimate,
            attempts_done: 0,
            cycle_attempts: 0,
            cycle_backoff_ms: 0,
            cycle_solver_resumes: 0,
            cycle_recoveries: Vec::new(),
            deployed: None,
            target: None,
            target_objective: None,
            target_lower_bound: None,
            pending_moved: 0,
            pending_sim: None,
            pending_denied: 0,
            pending_denial: None,
            deferred: Vec::new(),
            records: Vec::new(),
            resumes: 0,
            cold_restarts: 0,
            stale_serves: 0,
            deltas_applied: 0,
            snapshot_failures: 0,
            cycle_repairs: Vec::new(),
            cycle_rejections: Vec::new(),
        }
    }

    /// The `service.state` payload: the field list below, as an object.
    pub fn to_value(&self) -> Value {
        self.enc()
    }

    /// Decode a state held as a document; any malformed field is a
    /// typed error string naming its path. The service itself reads
    /// `service.state` straight from its text ([`Wire::from_text`]).
    pub fn from_value(v: &Value) -> Result<Self, String> {
        Self::dec(v).map_err(|e| e.to_string())
    }
}

wire_record!(ServiceState {
    seed,
    cycle,
    stage,
    attempts_done,
    cycle_attempts,
    cycle_backoff_ms,
    cycle_solver_resumes,
    cycle_recoveries,
    deployed: with(deployed_enc, deployed_dec),
    target,
    target_objective,
    target_lower_bound,
    pending_moved,
    pending_sim,
    pending_denied,
    pending_denial,
    deferred,
    records,
    resumes,
    cold_restarts,
    stale_serves,
    deltas_applied,
    snapshot_failures,
    cycle_repairs,
    cycle_rejections,
});

/// `deployed` is a pair in memory and `{cycle, placement}` on the wire.
fn deployed_enc<S: Sink>(d: &Option<(usize, Placement)>, out: &mut S) {
    let Some((cycle, placement)) = d else {
        return out.null();
    };
    out.begin_obj();
    out.key("cycle");
    cycle.emit(out);
    out.key("placement");
    placement.emit(out);
    out.end_obj();
}

fn deployed_dec(r: &mut Reader<'_>) -> Result<Option<(usize, Placement)>, WireError> {
    if r.peek()? == Next::Null {
        r.null()?;
        return Ok(None);
    }
    wire_fields!(r, cycle: Wire::read, placement: Wire::read => Ok(Some((cycle, placement))))
}

/// The solve→round artifact (`fractional.snap`): the fractional
/// solution with the cycle it was solved for and the
/// [`config_fingerprint`] of its config and instance, so the round
/// stage never rounds a stale one.
struct FractionalArtifact {
    cycle: usize,
    config: u64,
    lower_bound: f64,
    fractional: FractionalSolution,
}

wire_record!(FractionalArtifact {
    cycle,
    config,
    lower_bound,
    fractional
});

/// One snapshot file of a state dir: file name, container kind and
/// payload version.
#[derive(Debug, Clone, Copy)]
struct Snap(&'static str, &'static str, u32);

impl Snap {
    const STATE: Snap = Snap("service.state", SERVICE_KIND, SERVICE_VERSION);
    const CHECKPOINT: Snap = Snap("solver.ckpt", CHECKPOINT_KIND, CHECKPOINT_VERSION);
    const FRACTIONAL: Snap = Snap("fractional.snap", FRACTIONAL_KIND, FRACTIONAL_VERSION);
}

/// The service's state dir: every snapshot read, write and removal of
/// the service goes through here, the reads and writes under the
/// plan's fault handle.
struct StateDir {
    root: PathBuf,
    io: FaultHandle,
}

impl StateDir {
    fn read(&self, Snap(name, kind, version): Snap) -> Result<Vec<u8>, SnapshotError> {
        self.io.read_snapshot(&self.root.join(name), kind, version)
    }

    /// Stream `payload`'s compact text into the snapshot: the text is
    /// never whole in memory.
    fn write(
        &self,
        Snap(name, kind, version): Snap,
        payload: &impl Wire,
    ) -> Result<(), SnapshotError> {
        self.io
            .write_wire_snapshot(&self.root.join(name), kind, version, payload)
    }

    /// Best-effort: a file that is already gone is what was asked for.
    fn remove(&self, Snap(name, ..): Snap) {
        let _ = std::fs::remove_file(self.root.join(name));
    }
}

/// The supervised service loop. Construct with
/// [`Service::resume_or_start`], drive with [`Service::step`] or
/// [`Service::run`].
pub struct Service {
    /// The *current* world: the configured base world with the durable
    /// prefix of [`ServiceConfig::cycle_deltas`] replayed onto it.
    cur: OpsWorld,
    /// Storage-dark mask: `dark[i]` = VHO `i` is decommissioned. The
    /// node stays on every axis (ids never renumber); its MIP disk
    /// collapses to [`DARK_DISK_GB`] and repair drains its copies
    /// under the churn cap.
    dark: Vec<bool>,
    cfg: ServiceConfig,
    /// What is left to inject: a kill is retired once it fires, and the
    /// I/O faults moved to `dir`.
    plan: ServicePlan,
    dir: StateDir,
    state: ServiceState,
    watchdog: Watchdog,
    /// The MIP instance of the cycle it is tagged with, built by the
    /// first stage that asks ([`Service::instance_for`]). It is a pure
    /// function of the cycle, the evolved world (applied deltas, dark
    /// mask) and the deployed placement (the migration anchor), so it
    /// is dropped wherever one of those changes. Not durable: a resumed
    /// process rebuilds the identical instance.
    instance: Option<(usize, Arc<MipInstance>)>,
    /// True while the durable snapshots lag the in-memory state (disk
    /// faults). The service keeps serving and every later transition
    /// retries the full write; a crash while dirty loses only replayable
    /// work, never determinism.
    dirty: bool,
    last_snapshot_error: Option<String>,
    /// Fractional payload kept in memory when its snapshot write
    /// failed, so the round stage can proceed without the disk. Not
    /// durable on purpose: a crash falls back to the retreat-to-solve
    /// recompute, which is deterministic.
    mem_fractional: Option<FractionalArtifact>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("cfg", &self.cfg)
            .field("state", &self.state)
            .finish_non_exhaustive()
    }
}

impl Service {
    /// Load `service.state` from the state dir and continue, or start
    /// fresh. Corrupt/truncated state = cold restart (counted, then
    /// the whole schedule deterministically replays — which is why a
    /// torn state file still re-converges to identical deployments);
    /// a state file from a different seed is refused.
    pub fn resume_or_start(
        world: &OpsWorld,
        cfg: ServiceConfig,
        mut plan: ServicePlan,
    ) -> Result<Self, OpsError> {
        let invalid = |what: String| Err(OpsError::Invalid { what });
        if cfg.ops.start_day < 7 {
            return invalid(format!(
                "start_day must be >= 7 (one week of history); got {}",
                cfg.ops.start_day
            ));
        }
        if cfg.ops.period_days == 0 || cfg.ops.cycles == 0 {
            return invalid("period_days and cycles must be >= 1".into());
        }
        if cfg.ops.max_attempts == 0 {
            return invalid("max_attempts must be >= 1".into());
        }
        if world.disks.len() != world.net.num_nodes() {
            return invalid(format!(
                "disk inventory has {} entries for {} VHOs",
                world.disks.len(),
                world.net.num_nodes()
            ));
        }
        if effective_cycles(world, &cfg.ops) == 0 {
            return invalid(format!(
                "trace horizon ends before start_day {}: no cycle fits",
                cfg.ops.start_day
            ));
        }
        for (cycle, schedule) in &cfg.cycle_faults {
            if let Err(e) = schedule.validate(world.net.num_nodes(), world.net.num_links()) {
                return invalid(format!("fault schedule for cycle {cycle}: {e}"));
            }
        }
        // World deltas: structurally valid against the base topology
        // (node/link axes never shrink, so initial-id validation covers
        // every later application point) and sorted by cycle.
        let mut last_delta_cycle = 0usize;
        for (i, delta) in cfg.cycle_deltas.iter().enumerate() {
            if let Err(e) = delta.validate(&world.net) {
                return invalid(format!("world delta {i}: {e}"));
            }
            if delta.cycle < last_delta_cycle {
                return invalid(format!(
                    "world delta {i} (cycle {}) is out of order: deltas must be \
                     sorted by cycle",
                    delta.cycle
                ));
            }
            last_delta_cycle = delta.cycle;
        }
        std::fs::create_dir_all(&cfg.ops.state_dir).map_err(|e| OpsError::Io {
            what: format!("create {}: {e}", cfg.ops.state_dir.display()),
        })?;
        let dir = StateDir {
            root: cfg.ops.state_dir.clone(),
            io: std::mem::take(&mut plan.io),
        };
        let seed = cfg.ops.epf.seed;
        let cold = || {
            let mut st = ServiceState::fresh(seed);
            st.cold_restarts = 1;
            st
        };
        let state = match dir.read(Snap::STATE) {
            Ok(text) => match ServiceState::from_text(&text) {
                Ok(mut st) if st.seed == seed => {
                    st.resumes += 1;
                    st
                }
                Ok(st) => {
                    return invalid(format!(
                        "state file {} belongs to seed {:#x}, config has {:#x}",
                        dir.root.join(Snap::STATE.0).display(),
                        st.seed,
                        seed
                    ))
                }
                Err(_) => cold(),
            },
            Err(SnapshotError::Io { ref source, .. })
                if source.kind() == std::io::ErrorKind::NotFound =>
            {
                ServiceState::fresh(seed)
            }
            Err(_) => cold(),
        };
        if state.deltas_applied > cfg.cycle_deltas.len() {
            return invalid(format!(
                "state file records {} applied deltas but the schedule has {}: \
                 foreign delta schedule",
                state.deltas_applied,
                cfg.cycle_deltas.len()
            ));
        }
        // Rebuild the evolved world by replaying the durable prefix of
        // the delta schedule onto a copy of the base world. The replay
        // is pure, so a resumed process sees the identical topology,
        // catalog and dark mask the crashed one had.
        let mut cur = world.clone();
        let mut dark = vec![false; world.net.num_nodes()];
        for delta in &cfg.cycle_deltas[..state.deltas_applied] {
            apply_world_delta(&mut cur, &mut dark, delta);
        }
        // The watchdog resumes mid-cycle with the durable tick count,
        // so a restart cannot grant a stalled cycle a fresh budget.
        let mut watchdog = Watchdog::new(cfg.watchdog_budget);
        for _ in 0..state.cycle_attempts {
            let _ = watchdog.tick();
        }
        let mut svc = Self {
            cur,
            dark,
            cfg,
            plan,
            dir,
            state,
            watchdog,
            instance: None,
            dirty: false,
            last_snapshot_error: None,
            mem_fractional: None,
        };
        svc.persist()?;
        Ok(svc)
    }

    #[must_use]
    pub fn state(&self) -> &ServiceState {
        &self.state
    }

    /// Cycles that actually fit in the trace horizon.
    #[must_use]
    pub fn effective_cycles(&self) -> usize {
        effective_cycles(&self.cur, &self.cfg.ops)
    }

    /// The current (delta-evolved) world the service optimizes against.
    #[must_use]
    pub fn world(&self) -> &OpsWorld {
        &self.cur
    }

    /// Storage-dark mask over the VHO axis (true = decommissioned).
    #[must_use]
    pub fn dark_mask(&self) -> &[bool] {
        &self.dark
    }

    /// True while the durable snapshots lag the in-memory state
    /// because of storage faults.
    #[must_use]
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Drive the service to completion. The only error exit is an
    /// invalid configuration (caught in the constructor) — cycle-level
    /// trouble degrades and storage trouble is served from memory with
    /// retries; the loop never aborts.
    pub fn run(&mut self) -> Result<&ServiceState, OpsError> {
        while self.step()? != StepOutcome::Finished {}
        Ok(&self.state)
    }

    /// Execute one attempt of the current stage. Exactly one durable
    /// transition per call (none on simulated kills).
    pub fn step(&mut self) -> Result<StepOutcome, OpsError> {
        if self.state.cycle >= self.effective_cycles() {
            return Ok(StepOutcome::Finished);
        }
        let cycle = self.state.cycle;
        let stage = self.state.stage;
        if self.plan.kill_at_stage.contains(&(cycle, stage)) {
            // The process dies before the stage runs: nothing executes,
            // nothing mutates, nothing persists. The next step (or a
            // rebuilt service over the same state dir) re-runs the
            // stage from the identical durable state.
            let kill = Kill::AtStage(stage);
            self.plan.retire(cycle, kill);
            return Ok(StepOutcome::SimulatedCrash { cycle, kill });
        }
        // World deltas land at cycle boundaries, before the first stage
        // runs. One delta per step (its own durable transition); the
        // application is deterministic and does not consume watchdog
        // budget or stage attempts, so killed and unkilled twins count
        // identically.
        if stage == StageId::Estimate {
            if let Some(index) = self.pending_delta() {
                return self.apply_next_delta(cycle, index);
            }
        }
        if self.watchdog.tick() {
            return self.degrade(DegradeReason::Stalled {
                stage,
                ticks: self.watchdog.ticks(),
                budget: self.watchdog.budget(),
            });
        }
        self.state.cycle_attempts += 1;
        if self
            .plan
            .fail
            .contains(&(cycle, stage, self.state.attempts_done))
        {
            return self.fail_attempt(stage, "injected failure".into());
        }
        match stage {
            StageId::Estimate => self.step_estimate(cycle),
            StageId::Solve => self.step_solve(cycle),
            StageId::Round => self.step_round(cycle),
            StageId::Validate => self.step_validate(cycle),
            StageId::Simulate => self.step_simulate(cycle),
        }
    }

    // ---- live reconfiguration --------------------------------------

    /// Index of the next unapplied delta, if it is due at (or before)
    /// the current cycle.
    fn pending_delta(&self) -> Option<usize> {
        let next = self.state.deltas_applied;
        let delta = self.cfg.cycle_deltas.get(next)?;
        (delta.cycle <= self.state.cycle).then_some(next)
    }

    /// Apply one world delta as a single durable transition: mutate the
    /// evolved world, repair the serving placement under the churn cap,
    /// and only then advance the durable `deltas_applied` counter — so
    /// a crash at any point either replays the whole delta or none of
    /// it. A solver checkpoint on disk is left as it is: the solve
    /// stage resumes it only if it validates against the post-delta
    /// instance and config.
    fn apply_next_delta(&mut self, cycle: usize, index: usize) -> Result<StepOutcome, OpsError> {
        let Some(delta) = self.cfg.cycle_deltas.get(index).cloned() else {
            return Ok(StepOutcome::Finished); // unreachable: index came from pending_delta
        };
        // The world changes under any instance built so far.
        self.instance = None;
        apply_world_delta(&mut self.cur, &mut self.dark, &delta);
        // Feasibility repair of the placement that is *serving right
        // now*, fed through the same churn-capped diff as a regular
        // deploy: repair migrations spend the cycle's migration budget,
        // never exceed it.
        if let Some((deployed_cycle, deployed)) = self.state.deployed.clone() {
            let caps = self.mip_caps();
            let plan = repair_placement(&deployed, &self.cur.catalog, &self.dark, &caps);
            if !plan.is_noop() {
                self.state.cycle_repairs.push(plan.fingerprint());
                let budget = self
                    .cfg
                    .churn_cap
                    .map(|c| c.saturating_sub(self.state.pending_moved));
                match apply_churn_cap(
                    &deployed,
                    &plan.placement,
                    budget,
                    &self.state.deferred,
                    cycle,
                ) {
                    Ok(churned) => {
                        self.state.pending_moved += churned.moved;
                        self.state.deferred = churned.deferred;
                        self.set_deployed(deployed_cycle, churned.placement);
                    }
                    // Repair preserves the video axis by construction,
                    // so the diff cannot reject shapes; degrade rather
                    // than abort if that invariant ever breaks.
                    Err(what) => return self.degrade(DegradeReason::ValidationFailed { what }),
                }
            }
            if delta.is_capacity_only() {
                // The deployed placement survived the reconfiguration
                // and warm-starts the next solve: record it so drills
                // can assert a capacity tweak never forces a cold one.
                self.push_recovery(RecoveryAction::WarmRemap);
            }
        }
        self.state.deltas_applied = index + 1;
        self.persist()?;
        Ok(StepOutcome::DeltaApplied { cycle, index })
    }

    // ---- stages -----------------------------------------------------

    fn step_estimate(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        // The demand estimate is a pure function of the world and the
        // cycle, so nothing is persisted here: the solve stage
        // re-derives it identically. This stage exists as a supervision
        // point (budget, injection) and the cheap feasibility gate.
        let inst = self.instance_for(cycle);
        if inst.n_videos() == 0 {
            return self.fail_attempt(
                StageId::Estimate,
                "estimate produced an empty instance".into(),
            );
        }
        self.advance(StageId::Solve)?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Estimate,
        })
    }

    fn step_solve(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        let inst = self.instance_for(cycle);
        let epf = self.epf_for_cycle(cycle);
        let kill_at = self
            .plan
            .kill_mid_solve
            .iter()
            .find(|(c, _)| *c == cycle)
            .map(|&(_, keep)| keep);
        let prior = match self.dir.read(Snap::CHECKPOINT) {
            Ok(bytes) => SolverCheckpoint::from_bytes(&bytes).ok(),
            // Missing, truncated or checksum-corrupt checkpoint: the
            // solve restarts cold. Durability lost, not correctness.
            Err(_) => None,
        };
        let mut emitted: u64 = 0;
        let mut killed = false;
        let every = self.cfg.ops.checkpoint_every;
        let dir = &self.dir;
        let mut sink = |ck: SolverCheckpoint| {
            if killed {
                return;
            }
            if kill_at.is_some_and(|keep| emitted >= keep) {
                // From here on the "process" is dead: no further
                // durable writes survive.
                killed = true;
                return;
            }
            emitted += 1;
            // A failed checkpoint write degrades crash recovery (the
            // resume point stays older) but never correctness, so it
            // is deliberately not a solve failure.
            let _ = dir.write(Snap::CHECKPOINT, &ck);
        };
        let start = Start {
            prior: prior.as_ref(),
            warm: self.state.deployed.as_ref().map(|(_, p)| p),
        };
        let hooks = Hooks {
            checkpoint: Some(CheckpointSpec {
                every,
                sink: &mut sink,
            }),
            observe: None,
        };
        match solve(&inst, &epf, start, hooks) {
            Ok(Solved {
                fractional: frac,
                stats,
                kind,
            }) => {
                if let Some(keep) = kill_at.filter(|_| killed) {
                    // Nothing after the last surviving checkpoint is
                    // persisted — including this (discarded) result.
                    let kill = Kill::MidSolve { keep };
                    self.plan.retire(cycle, kill);
                    return Ok(StepOutcome::SimulatedCrash { cycle, kill });
                }
                match kind {
                    ResumeKind::Checkpoint => {
                        self.state.cycle_solver_resumes += 1;
                        self.push_recovery(RecoveryAction::WarmResume);
                    }
                    // A checkpoint existed but did not validate for
                    // this (instance, config): it was discarded and
                    // the solve fell through to the trajectory it
                    // would have taken without it. The ledger keeps
                    // the solver's reason.
                    ResumeKind::Rejected { reason } => {
                        self.state.cycle_rejections.push(reason);
                        self.dir.remove(Snap::CHECKPOINT);
                        self.push_recovery(RecoveryAction::ColdSolve);
                    }
                    ResumeKind::WarmStart | ResumeKind::Cold => {}
                }
                let artifact = FractionalArtifact {
                    cycle,
                    config: config_fingerprint(&epf, &inst),
                    lower_bound: stats.lower_bound,
                    fractional: frac,
                };
                // Disk trouble must not fail the stage: on a write
                // error the round stage consumes the artifact from
                // memory, and a crash before the retry lands falls
                // back to the deterministic retreat-to-solve
                // recompute.
                match self.dir.write(Snap::FRACTIONAL, &artifact) {
                    Ok(()) => self.mem_fractional = None,
                    Err(e) => {
                        self.note_snapshot_failure(format!("persist fractional: {e}"));
                        self.mem_fractional = Some(artifact);
                    }
                }
                self.dir.remove(Snap::CHECKPOINT);
                self.state.target_lower_bound = Some(stats.lower_bound);
                self.advance(StageId::Round)?;
                Ok(StepOutcome::StageDone {
                    cycle,
                    stage: StageId::Solve,
                })
            }
            Err(e) => self.fail_attempt(StageId::Solve, e.to_string()),
        }
    }

    fn step_round(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        let inst = self.instance_for(cycle);
        let epf = self.epf_for_cycle(cycle);
        let token = config_fingerprint(&epf, &inst);
        let fresh = |a: &&FractionalArtifact| {
            a.cycle == cycle
                && a.config == token
                && validate_fractional(&a.fractional, &inst).is_ok()
        };
        // Durable snapshot first; the in-memory copy is the fallback a
        // faulted disk leaves behind (same cycle/config gate applies).
        let durable = self
            .dir
            .read(Snap::FRACTIONAL)
            .ok()
            .and_then(|text| FractionalArtifact::from_text(&text).ok());
        let artifact = durable
            .as_ref()
            .filter(fresh)
            .or_else(|| self.mem_fractional.as_ref().filter(fresh));
        let Some(artifact) = artifact else {
            self.dir.remove(Snap::FRACTIONAL);
            return self.retreat(StageId::Solve, StageId::Round, cycle);
        };
        let (placement, stats) = round_solution(&inst, &artifact.fractional, epf.gamma, epf.kernel);
        self.state.target = Some(placement);
        self.state.target_objective = Some(stats.objective);
        self.advance(StageId::Validate)?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Round,
        })
    }

    fn step_validate(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        let inst = self.instance_for(cycle);
        let Some(target) = self.state.target.as_ref() else {
            return self.retreat(StageId::Round, StageId::Validate, cycle);
        };
        // The strict serviceability gate applies to the full target;
        // the churn-capped hybrid may transiently double-occupy disk
        // during the migration window (see `crate::diff`).
        if let Err(what) = serviceable(target, &inst, self.cfg.ops.validate_tol) {
            return self.degrade(DegradeReason::ValidationFailed { what });
        }
        let deploy = match &self.state.deployed {
            // Bootstrap deployment: there is nothing serving yet, so
            // the churn cap (an *update* bandwidth bound) does not
            // apply — the initial fill is an offline bulk load.
            None => target.clone(),
            Some((_, prev)) => {
                // Repair migrations executed at the cycle boundary
                // already consumed part of this cycle's budget.
                let budget = self
                    .cfg
                    .churn_cap
                    .map(|c| c.saturating_sub(self.state.pending_moved));
                let plan = match apply_churn_cap(prev, target, budget, &self.state.deferred, cycle)
                {
                    Ok(plan) => plan,
                    Err(what) => return self.degrade(DegradeReason::ValidationFailed { what }),
                };
                self.state.pending_moved += plan.moved;
                self.state.deferred = plan.deferred;
                plan.placement
            }
        };
        self.set_deployed(cycle, deploy);
        self.advance(StageId::Simulate)?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Validate,
        })
    }

    fn step_simulate(&mut self, cycle: usize) -> Result<StepOutcome, OpsError> {
        if self.cfg.ops.simulate {
            let Some((_, deployed)) = self.state.deployed.clone() else {
                return self.retreat(StageId::Validate, StageId::Simulate, cycle);
            };
            let (sim, denied, denial) = self.replay_window(cycle, deployed);
            self.state.pending_sim = Some(sim);
            self.state.pending_denied = denied;
            self.state.pending_denial = Some(denial);
        }
        // A cycle that closes while the durable snapshots lag the
        // in-memory state is visibly degraded — the deployment is
        // fresh, but a crash right now would replay work.
        let degraded = self.dirty.then(|| DegradeReason::SnapshotUnavailable {
            failures: self.state.snapshot_failures,
            what: self.last_snapshot_error.clone().unwrap_or_default(),
        });
        self.close_cycle(degraded)?;
        Ok(StepOutcome::StageDone {
            cycle,
            stage: StageId::Simulate,
        })
    }

    // ---- supervision ------------------------------------------------

    fn push_recovery(&mut self, action: RecoveryAction) {
        self.state.cycle_recoveries.push(action);
    }

    fn fail_attempt(&mut self, stage: StageId, err: String) -> Result<StepOutcome, OpsError> {
        let cycle = self.state.cycle;
        let attempt = self.state.attempts_done;
        self.state.attempts_done += 1;
        let backoff = recorded_backoff(
            self.state.seed,
            cycle,
            stage,
            attempt,
            self.cfg.ops.backoff_base_ms,
        );
        self.state.cycle_backoff_ms += backoff;
        if self.state.attempts_done >= self.cfg.ops.max_attempts {
            return self.degrade(DegradeReason::StageFailed {
                stage,
                attempts: self.state.attempts_done,
                last_error: err,
            });
        }
        self.persist()?;
        Ok(StepOutcome::AttemptFailed {
            cycle,
            stage,
            attempt,
            backoff_ms: backoff,
        })
    }

    /// The graceful-degradation ladder's terminal rungs. With a
    /// deployment: keep serving it (last-good), with real denial
    /// accounting for the window. Without one: stale-serve — every
    /// request in the window is denied and *counted*. Either way the
    /// cycle closes and the service keeps running; there is no abort
    /// path here.
    fn degrade(&mut self, reason: DegradeReason) -> Result<StepOutcome, OpsError> {
        let cycle = self.state.cycle;
        // The cycle's own target, if any, is not what serves.
        self.state.target_objective = None;
        self.state.target_lower_bound = None;
        match self.state.deployed.clone() {
            Some((_, deployed)) => {
                self.push_recovery(RecoveryAction::LastGood);
                if self.cfg.ops.simulate {
                    let (sim, denied, denial) = self.replay_window(cycle, deployed);
                    self.state.pending_sim = Some(sim);
                    self.state.pending_denied = denied;
                    self.state.pending_denial = Some(denial);
                }
            }
            None => {
                // Nothing has ever been deployed: the window's demand
                // is denied in full, visibly, instead of crashing out.
                self.push_recovery(RecoveryAction::StaleServe);
                self.state.stale_serves += 1;
                let (day, end) = self.window_of(cycle);
                let window = TimeWindow::new(SimTime::new(day * DAY), SimTime::new(end * DAY));
                self.state.pending_denied = self.cur.trace.slice(window).len() as u64;
                self.state.pending_denial = Some(1.0);
            }
        }
        self.close_cycle(Some(reason))?;
        Ok(StepOutcome::CycleDegraded { cycle })
    }

    fn retreat(
        &mut self,
        to: StageId,
        from: StageId,
        cycle: usize,
    ) -> Result<StepOutcome, OpsError> {
        self.state.stage = to;
        self.state.attempts_done = 0;
        self.persist()?;
        Ok(StepOutcome::Retreated { cycle, stage: from })
    }

    fn advance(&mut self, next: StageId) -> Result<(), OpsError> {
        self.state.stage = next;
        self.state.attempts_done = 0;
        self.persist()
    }

    /// Append the cycle's ledger row, from what the cycle accumulated,
    /// and start the next cycle. Boundary repairs count in `moved` even
    /// when the cycle itself degraded; a window served with nothing
    /// deployed is `stale`.
    fn close_cycle(&mut self, degraded: Option<DegradeReason>) -> Result<(), OpsError> {
        let record = ServiceRecord {
            cycle: self.state.cycle,
            degraded,
            recoveries: std::mem::take(&mut self.state.cycle_recoveries),
            attempts: self.state.cycle_attempts,
            backoff_ms: self.state.cycle_backoff_ms,
            solver_resumes: self.state.cycle_solver_resumes,
            placement_fnv: self.deployed_fingerprint(),
            objective: self.state.target_objective,
            lower_bound: self.state.target_lower_bound,
            moved: self.state.pending_moved,
            deferred: self.state.deferred.len(),
            denied: self.state.pending_denied,
            denial_rate: self.state.pending_denial,
            stale: self.state.deployed.is_none(),
            sim: self.state.pending_sim.take(),
            repairs: std::mem::take(&mut self.state.cycle_repairs),
            rejections: std::mem::take(&mut self.state.cycle_rejections),
        };
        self.state.records.push(record);
        self.state.target = None;
        self.state.target_objective = None;
        self.state.target_lower_bound = None;
        self.state.pending_moved = 0;
        self.state.pending_denied = 0;
        self.state.pending_denial = None;
        self.state.attempts_done = 0;
        self.state.cycle_attempts = 0;
        self.state.cycle_backoff_ms = 0;
        self.state.cycle_solver_resumes = 0;
        self.state.cycle += 1;
        self.state.stage = StageId::Estimate;
        self.watchdog.reset();
        self.instance = None;
        self.mem_fractional = None;
        self.dir.remove(Snap::CHECKPOINT);
        self.dir.remove(Snap::FRACTIONAL);
        self.persist()
    }

    /// Persist the durable state — *softly*. A failed snapshot write
    /// (full disk, torn rename, failed fsync) marks the service dirty,
    /// records a retry backoff, and returns `Ok`: the loop keeps
    /// serving from memory and every later transition retries the full
    /// write. Once the disk heals, one successful write makes the
    /// durable state current again — replaying from an older snapshot
    /// is deterministic, so nothing is lost but recomputation.
    fn persist(&mut self) -> Result<(), OpsError> {
        match self.dir.write(Snap::STATE, &self.state) {
            Ok(()) => {
                self.dirty = false;
                self.last_snapshot_error = None;
            }
            Err(e) => self.note_snapshot_failure(format!("persist service state: {e}")),
        }
        Ok(())
    }

    /// Account one failed snapshot write: dirty flag, lifetime counter,
    /// recorded (never slept) retry backoff at the current supervision
    /// coordinate, and the operator-facing reason.
    fn note_snapshot_failure(&mut self, what: String) {
        self.dirty = true;
        self.state.snapshot_failures += 1;
        let attempt = u32::try_from(self.state.snapshot_failures.min(16)).unwrap_or(16);
        self.state.cycle_backoff_ms += recorded_backoff(
            self.state.seed,
            self.state.cycle,
            self.state.stage,
            attempt,
            self.cfg.ops.backoff_base_ms,
        );
        self.last_snapshot_error = Some(what);
    }

    /// Put `placement` into service. It anchors the migration cost of
    /// every later instance, so the one built so far goes.
    fn set_deployed(&mut self, cycle: usize, placement: Placement) {
        self.state.deployed = Some((cycle, placement));
        self.instance = None;
    }

    fn deployed_fingerprint(&self) -> u64 {
        self.state
            .deployed
            .as_ref()
            .map_or(0, |(_, p)| placement_fingerprint(p))
    }

    // ---- deterministic inputs --------------------------------------

    fn window_of(&self, cycle: usize) -> (u64, u64) {
        let horizon = self.cur.trace.horizon().secs() / DAY;
        let day = self.cfg.ops.start_day + cycle as u64 * self.cfg.ops.period_days;
        (day, (day + self.cfg.ops.period_days).min(horizon))
    }

    /// Per-VHO MIP disk budgets for the current world: the configured
    /// disk policy materialized against the evolved catalog, with every
    /// storage-dark VHO collapsed to [`DARK_DISK_GB`] — present on the
    /// axis, unable to hold even the smallest video.
    fn mip_caps(&self) -> Vec<Gigabytes> {
        let mut caps = self
            .cur
            .mip_disk
            .capacities(&self.cur.net, self.cur.catalog.total_size());
        for (cap, &is_dark) in caps.iter_mut().zip(&self.dark) {
            if is_dark {
                *cap = Gigabytes::new(DARK_DISK_GB);
            }
        }
        caps
    }

    /// The cycle's MIP instance: built from the cycle's history and
    /// period windows by the first caller of a cycle, shared with the
    /// later ones. Pure function of the (delta-evolved) world, the dark
    /// mask, the cycle index and the deployed placement (the migration
    /// anchor), so every stage, every attempt and every resumed process
    /// sees the identical instance.
    fn instance_for(&mut self, cycle: usize) -> Arc<MipInstance> {
        if let Some((built_for, inst)) = &self.instance {
            if *built_for == cycle {
                return Arc::clone(inst);
            }
        }
        let (day, end) = self.window_of(cycle);
        let history = self.cur.trace.restricted(TimeWindow::new(
            SimTime::new((day - 7) * DAY),
            SimTime::new(day * DAY),
        ));
        let future = self.cur.trace.restricted(TimeWindow::new(
            SimTime::new(day * DAY),
            SimTime::new(end * DAY),
        ));
        let demand = estimate_demand(
            self.cfg.ops.estimator,
            &self.cur.catalog,
            self.cur.net.num_nodes(),
            &history,
            &future,
            day,
            end - day,
            &self.cur.est,
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "update transfers are anchored at VHO 0 by convention"
        )]
        let pc = self.state.deployed.as_ref().map(|(_, p)| PlacementCost {
            weight: 1.0,
            previous: Some(p.holder_lists().to_vec()),
            origin: VhoId::new(0),
        });
        let disks = DiskConfig::Explicit(self.mip_caps());
        let inst = Arc::new(MipInstance::new(
            self.cur.net.clone(),
            self.cur.catalog.clone(),
            demand,
            &disks,
            1.0,
            0.0,
            pc.as_ref(),
        ));
        self.instance = Some((cycle, Arc::clone(&inst)));
        inst
    }

    /// Per-cycle solver config: derived seed (service-distinct salt)
    /// plus the per-cycle pass budget.
    fn epf_for_cycle(&self, cycle: usize) -> EpfConfig {
        let base = EpfConfig {
            seed: derive_seed(self.cfg.ops.epf.seed, SERVICE_CYCLE_SALT ^ cycle as u64),
            ..self.cfg.ops.epf.clone()
        };
        match self.cfg.cycle_step_budget {
            Some(steps) => base.budgeted(steps),
            None => base,
        }
    }

    /// Replay the cycle's period window against `placement`, injecting
    /// the cycle's fault schedule (if any). The placement moves into
    /// the replay's routing policy. Returns the sim summary plus denial
    /// accounting.
    fn replay_window(&self, cycle: usize, placement: Placement) -> (SimSummary, u64, f64) {
        let (day, end) = self.window_of(cycle);
        let future = self.cur.trace.restricted(TimeWindow::new(
            SimTime::new(day * DAY),
            SimTime::new(end * DAY),
        ));
        let faults = self
            .cfg
            .cycle_faults
            .iter()
            .find(|(c, _)| *c == cycle)
            .map_or_else(FaultSchedule::empty, |(_, s)| s.clone());
        // A dark VHO replays with its zeroed sim disk but keeps serving
        // whatever leftover copies the churn-capped repair has not yet
        // drained — graceful decommission, not a cliff.
        let vhos = mip_vho_configs(&placement, &self.cur.disks, 0.0, CacheKind::Lru);
        let policy = PolicyKind::MipRouting(placement);
        let rep = simulate(
            &self.cur.net,
            &self.cur.paths,
            &self.cur.catalog,
            &future,
            &vhos,
            &policy,
            &SimConfig {
                seed: derive_seed(self.state.seed, 0x51A1 ^ cycle as u64),
                insert_on_miss: false,
                faults,
                ..SimConfig::default()
            },
        );
        let local = rep.served_local_pinned + rep.served_local_cached;
        let sim = SimSummary {
            max_gbps: rep.max_link_mbps / 1000.0,
            local_frac: local as f64 / rep.total_requests.max(1) as f64,
            total_requests: rep.total_requests,
        };
        (sim, rep.denied(), rep.denial_rate())
    }
}

/// Apply one validated [`WorldDelta`] to the evolved world, in place.
/// Pure and total: link ops rescale capacities (edges are never
/// removed, so the hop-count [`vod_net::PathSet`] stays valid and is
/// deliberately *not* recomputed), VHO ops flip the dark mask and the
/// sim-side disk inventory, and appends grow the catalog tail with
/// seeded metadata. Both the live loop and the resume replay call this
/// with the same deltas in the same order, which is what makes the
/// evolved world a pure function of `(base world, applied prefix)`.
fn apply_world_delta(cur: &mut OpsWorld, dark: &mut [bool], delta: &WorldDelta) {
    delta.apply_links(&mut cur.net);
    for op in &delta.ops {
        match op {
            DeltaOp::DecommissionVho { vho } => {
                dark[vho.index()] = true;
                // Sim-side storage goes to zero outright: the replay
                // layer has no positivity constraint, and leftover
                // pinned copies keep serving until repair drains them.
                cur.disks[vho.index()] = Gigabytes::new(0.0);
            }
            DeltaOp::RecommissionVho { vho, disk } => {
                dark[vho.index()] = false;
                cur.disks[vho.index()] = *disk;
            }
            DeltaOp::AppendVideos { count } => {
                let start = cur.catalog.len();
                let mut videos: Vec<Video> = cur.catalog.iter().cloned().collect();
                for k in 0..*count {
                    let mix = derive_seed(delta.seed, (start + k) as u64);
                    #[expect(
                        clippy::expect_used,
                        reason = "mix % 4 < 4 always converts, and indexes in ALL's bounds"
                    )]
                    let class =
                        VideoClass::ALL[usize::try_from(mix % 4).expect("mod 4 fits in usize")];
                    videos.push(Video {
                        id: VideoId::from_index(start + k),
                        class,
                        // New releases without history: only the
                        // complementary cache absorbs them until the
                        // next estimate window sees their demand.
                        kind: VideoKind::OtherNew,
                        release_day: 0,
                        weight: 0.1 + (mix % 100) as f64 / 100.0,
                    });
                }
                cur.catalog = Catalog::new(videos);
            }
            DeltaOp::ScaleLink { .. } | DeltaOp::CutLink { .. } => {} // apply_links handled these
        }
    }
}

/// Canonical placement fingerprint: FNV-64 of the placement's canonical
/// serialization — the identity every kill/resume twin check compares.
/// It hashes the pretty text, not the compact text the snapshots hold:
/// the drill files record these values, and a layout change of the
/// state files must not move them.
#[must_use]
pub fn placement_fingerprint(p: &Placement) -> u64 {
    fnv1a64(p.text().as_bytes())
}

/// Structural serviceability of a rounded placement: right shape,
/// every video has a holder, disks within tolerance. Deliberately
/// *not* the audit layer's link checks — an over-tight link budget
/// yields a degraded-but-serviceable placement, which the supervisor
/// must keep, not reject.
fn serviceable(p: &Placement, inst: &MipInstance, tol: f64) -> Result<(), String> {
    if p.n_vhos() != inst.n_vhos() {
        return Err(format!(
            "placement has {} VHOs, instance has {}",
            p.n_vhos(),
            inst.n_vhos()
        ));
    }
    let holders = p.holder_lists();
    if holders.len() != inst.n_videos() {
        return Err(format!(
            "placement covers {} videos, instance has {}",
            holders.len(),
            inst.n_videos()
        ));
    }
    if let Some(m) = holders.iter().position(Vec::is_empty) {
        return Err(format!("video {m} has no holder"));
    }
    let usage = p.disk_usage(&inst.catalog);
    for (i, (&have, used)) in inst.disks.iter().zip(usage).enumerate() {
        if used.value() > have.value() * (1.0 + tol) {
            return Err(format!(
                "VHO {i} stores {:.1} GB on a {:.1} GB budget (tol {tol})",
                used.value(),
                have.value()
            ));
        }
    }
    Ok(())
}

fn effective_cycles(world: &OpsWorld, cfg: &OpsConfig) -> usize {
    let horizon = world.trace.horizon().secs() / DAY;
    let mut n = 0usize;
    while n < cfg.cycles && cfg.start_day + n as u64 * cfg.period_days < horizon {
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_core::{Dists, VideoRouting};

    fn sample_state() -> ServiceState {
        let p = Placement::from_parts(
            4,
            vec![vec![VhoId::new(0), VhoId::new(2)], vec![VhoId::new(1)]],
            vec![
                VideoRouting {
                    clients: vec![VhoId::new(1)],
                    x: Dists::from_lists([[(VhoId::new(0), 1.0)]]),
                },
                VideoRouting::default(),
            ],
        )
        .unwrap();
        let sim = SimSummary {
            max_gbps: 0.75,
            local_frac: 0.5,
            total_requests: 1234,
        };
        ServiceState {
            seed: 0x1234_5678_9abc_def0,
            cycle: 2,
            stage: StageId::Round,
            attempts_done: 1,
            cycle_attempts: 3,
            cycle_backoff_ms: 750,
            cycle_solver_resumes: 1,
            cycle_recoveries: vec![RecoveryAction::WarmResume],
            deployed: Some((1, p.clone())),
            target: Some(p),
            target_objective: Some(17.25),
            target_lower_bound: Some(16.5),
            pending_moved: 5,
            pending_sim: Some(sim.clone()),
            pending_denied: 7,
            pending_denial: Some(0.125),
            deferred: vec![DeferredMigration {
                video: VideoId::from_index(1),
                copies: 2,
                since_cycle: 1,
            }],
            records: vec![ServiceRecord {
                cycle: 1,
                degraded: Some(DegradeReason::StageFailed {
                    stage: StageId::Solve,
                    attempts: 3,
                    last_error: "injected failure".into(),
                }),
                recoveries: vec![RecoveryAction::ColdSolve, RecoveryAction::LastGood],
                attempts: 4,
                backoff_ms: 1500,
                solver_resumes: 2,
                placement_fnv: 0xfeed_beef,
                objective: None,
                lower_bound: Some(40.0),
                moved: 7,
                deferred: 1,
                denied: 9,
                denial_rate: Some(0.25),
                stale: false,
                sim: Some(sim),
                repairs: vec![0xabcd],
                rejections: vec!["foreign: fingerprint".into()],
            }],
            resumes: 3,
            cold_restarts: 1,
            stale_serves: 2,
            deltas_applied: 1,
            snapshot_failures: 4,
            cycle_repairs: vec![0x1234],
            cycle_rejections: vec!["remap-eligible: capacities".into()],
        }
    }

    #[test]
    fn service_state_round_trips() {
        let st = sample_state();
        let v = st.to_value();
        let back = ServiceState::from_value(&v).unwrap();
        // The encoding is canonical, so equal re-encodings mean every
        // field survived.
        assert_eq!(back.to_value().to_string_pretty(), v.to_string_pretty());
        assert_eq!(back.seed, st.seed);
        assert_eq!(back.stage, StageId::Round);
        assert_eq!(back.records[0].degraded, st.records[0].degraded);
        assert_eq!(back.records[0].recoveries, st.records[0].recoveries);
        assert_eq!(back.deferred, st.deferred);
        assert_eq!(back.target_objective, Some(17.25));
        let (c, p) = back.deployed.unwrap();
        assert_eq!(c, 1);
        assert_eq!(
            placement_fingerprint(&p),
            placement_fingerprint(&st.deployed.unwrap().1)
        );
    }

    #[test]
    fn the_state_file_holds_the_text_of_to_value() {
        // `persist` streams the state to compact text; the goldens and
        // the benchmark's probes read the document `to_value` builds.
        for st in [sample_state(), ServiceState::fresh(7)] {
            assert_eq!(st.text(), st.to_value().to_string_pretty());
            assert_eq!(Value::parse(&st.compact()), Ok(st.to_value()));
        }
    }

    #[test]
    fn malformed_service_states_are_typed_errors() {
        assert!(ServiceState::from_value(&Value::Null).is_err());
        assert!(ServiceState::from_value(&Value::Obj(vec![])).is_err());
        let mut v = sample_state().to_value();
        if let Value::Obj(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "stage" {
                    *val = Value::Str("no-such-stage".into());
                }
            }
        }
        let err = ServiceState::from_value(&v).unwrap_err();
        assert!(err.contains("stage"), "{err}");
    }
}
