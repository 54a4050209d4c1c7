//! The five workloads and what they share: the run context, the
//! repeated set-up, and the time-boxed op loop.
//!
//! Every workload is a closed loop with one caller. The seed reaches
//! only the generators (`synthesize_library`, `generate_trace` /
//! `synthetic_demand`, `EpfConfig.seed`, `SimConfig.seed`); topologies
//! are the fixed named ones, so a seed never changes serviceability.

mod probes;
mod replay;
mod service;
mod solver;

use crate::metrics::Report;
use crate::spans::Tracer;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    run: fn(&mut Ctx),
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "ladder-5k",
        why: "Cold single-thread solve_placement, 5000 videos on tiscali (49 VHOs), 60 passes: the plain Table III row, EPF hot path ~86% of the wall; sim, json and ops do nothing.",
        run: solver::ladder_5k,
    },
    Workload {
        name: "mesh100-9k",
        why: "Same solver on ladder_mesh(100), 9000 videos (2 shards), 20 passes, worker pool on: 100-wide facility rows, 3.5x the memory; a lane-width or shard change and thread scaling show only here.",
        run: solver::mesh100_9k,
    },
    Workload {
        name: "certify-10x100",
        why: "Ten 100-video libraries on ebone to a certified bound: polish plus exact per-block LPs through vod-lp, which the two workloads above never enter; ten per op, as LP time varies by library.",
        run: solver::certify_10x100,
    },
    Workload {
        name: "replay-week",
        why: "Simulator only (solver in set-up): one week on backbone55 replayed with LRU, LFU, LRFU, no cache and a fault storm, serially and as one batch; a solver change must not move it.",
        run: replay::replay_week,
    },
    Workload {
        name: "service-week",
        why: "vod_ops::Service end to end, 6 weekly cycles on ebone: estimate, budgeted warm solve, round, validate, simulate, persist, one link delta, one kill and resume; every layer works.",
        run: service::service_week,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn run(&self, ctx: &mut Ctx) {
        (self.run)(ctx)
    }
}

/// Everything a workload run reads and writes.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    /// Length of the timed section.
    pub seconds: f64,
    /// Part of the timed section runs with spans recorded, and the
    /// layer probes run after it.
    pub trace: bool,
    /// Sizes cut down so the unit tests cover every code path quickly.
    pub smoke: bool,
    pub threads: usize,
    pub report: Report,
    pub tracer: Tracer,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Self {
        Self {
            seed,
            seconds,
            trace,
            smoke,
            threads: crate::env::worker_threads(),
            report: Report::default(),
            tracer: Tracer::new(),
        }
    }

    /// `full` at benchmark size, `smoke` under `--smoke`.
    pub fn size<T>(&self, full: T, smoke: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }

    /// Time `f` as a leaf span and keep its wall as a sample of the
    /// metric `name`: span names are metric names.
    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let (out, secs) = self.tracer.time_named(f, |_| name);
        self.report.sample(name, secs);
        out
    }

    /// Build the workload's inputs several times and report the median
    /// as `setup_s`: at least 3 builds, up to 9 while they stay cheap.
    /// Each build is dropped before the next starts, so peak memory is
    /// that of one.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Ctx) -> T) -> T {
        let began = Instant::now();
        let mut built = None;
        for i in 0..9 {
            if i >= 3 && began.elapsed().as_secs_f64() > 1.0 {
                break;
            }
            drop(built.take());
            let start = Instant::now();
            built = Some(build(self));
            self.report.sample("setup_s", start.elapsed().as_secs_f64());
        }
        built.expect("at least one build ran")
    }

    /// Keep the wall of one op: an `op_wall_s` sample, or a
    /// `traced_op_wall_s` one while spans are recorded.
    pub fn op_wall(&mut self, wall: f64) {
        let name = if self.tracer.recording() {
            "traced_op_wall_s"
        } else {
            "op_wall_s"
        };
        self.report.sample(name, wall);
    }

    /// The timed section: calls of `run(ctx, rep)` — which reports the
    /// wall of each op it performs through [`Ctx::op_wall`] — until
    /// `seconds` have passed and `min_reps` calls were made. On a
    /// traced run the first 40 % of that time goes to untraced calls
    /// and the rest to calls with spans recorded (at least one each),
    /// so a traced run costs no more wall than an untraced one.
    pub fn timed_section(&mut self, min_reps: usize, mut run: impl FnMut(&mut Ctx, usize)) {
        let began = Instant::now();
        let untraced_for = if self.trace {
            0.4 * self.seconds
        } else {
            self.seconds
        };
        let untraced_reps = if self.trace { 1 } else { min_reps.max(1) };
        let mut rep = 0;
        while rep < untraced_reps || began.elapsed().as_secs_f64() < untraced_for {
            run(self, rep);
            rep += 1;
        }
        if !self.trace {
            return;
        }
        while rep < min_reps.max(2) || began.elapsed().as_secs_f64() < self.seconds {
            self.tracer.set_recording(true, rep);
            run(self, rep);
            self.tracer.set_recording(false, rep);
            rep += 1;
        }
        let untraced = self.report.value("op_wall_s").expect("an untraced op ran");
        let traced = self
            .report
            .value("traced_op_wall_s")
            .expect("a traced op ran");
        self.report
            .sample("trace_overhead_pct", 100.0 * (traced / untraced - 1.0));
        // Per traced op: self seconds of each layer under the op's root
        // span. They partition the root, so their sum is the op's wall.
        // From out here a `Service::step` is all `ops`, whatever it
        // calls inside, until the crates carry spans of their own.
        for root in crate::spans::layer_self_seconds(self.tracer.spans(), OP_SPAN) {
            for (layer, secs) in root {
                self.report.sample(&format!("self.{layer}_s"), secs);
            }
        }
    }
}

/// Name of the root span of one op; the spans a workload records
/// outside one (a set-up inside the timed section) are not op time.
pub const OP_SPAN: &str = "harness.op";

/// A scratch directory under the harness's `out/`, keyed by pid and
/// tag, removed when dropped — also when a check panics.
#[derive(Debug)]
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> Self {
        let dir = crate::env::out_dir().join(format!("tmp-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    /// Every workload at smoke size, traced, so the tests walk the
    /// untraced ops, the traced ops and the probes of all five.
    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for w in WORKLOADS {
            let mut ctx = Ctx::new(3, 0.0, true, true);
            w.run(&mut ctx);
            ctx.report.finish();
            assert_eq!(
                ctx.report.failed, 0,
                "{}: {:?}",
                w.name, ctx.report.failures
            );
            assert!(ctx.report.attempted > 0);
            for m in END_TO_END {
                let v = ctx.report.value(m.name);
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{} on {}: {v:?}",
                    m.name,
                    w.name
                );
            }
            let entered = PER_LAYER
                .iter()
                .filter(|m| ctx.report.value(m.name).is_some())
                .count();
            assert!(entered >= 10, "{} sampled {entered} layer metrics", w.name);
            assert!(!ctx.tracer.spans().is_empty());
        }
        let left: Vec<_> = std::fs::read_dir(crate::env::out_dir())
            .map(|d| d.flatten().map(|e| e.file_name()).collect())
            .unwrap_or_default();
        let pid = format!("tmp-{}-", std::process::id());
        assert!(
            !left.iter().any(|n| n.to_string_lossy().starts_with(&pid)),
            "scratch dirs left behind: {left:?}"
        );
    }

    #[test]
    fn workload_table_obeys_the_benchmark_json_rules() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(crate::stats::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
    }
}
