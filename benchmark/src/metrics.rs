//! The metric tables `BENCHMARK.json` mirrors, and the per-run report
//! that collects raw samples and correctness checks.

use crate::stats::median;
use vod_json::{obj, ToJson, Value};

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression (0 for per-layer
    /// metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Lower, 0.0)
}

const fn hi(name: &'static str, unit: &'static str) -> MetricDef {
    e2e(name, unit, Better::Higher, 0.0)
}

/// What a user of the system sees, reported by every workload from
/// its untraced ops.
pub const END_TO_END: &[MetricDef] = &[
    // Median over the set-ups of one run: generators, paths, instance
    // or world build — everything before the timed section.
    e2e("setup_s", "s", Better::Lower, 0.25),
    // Median wall of one op: a `solve_placement` call (ten of them on
    // `certify-10x100`), a replay pass (five serial replays and the
    // batch), or a service cycle.
    e2e("op_wall_s", "s", Better::Lower, 0.25),
    // `VmHWM` at exit: Table III's memory column.
    e2e("peak_rss_mb", "MB", Better::Lower, 0.2),
];

/// Single-layer walls (the harness times the named public call from
/// outside) and counts read from return values. A workload that never
/// enters a layer reports 0 for that layer's metrics.
pub const PER_LAYER: &[MetricDef] = &[
    // vod-trace
    lo("trace.library_s", "s"),
    lo("trace.generate_s", "s"),
    hi("trace.requests", "count"),
    hi("trace.gen_reqs_per_s", "1/s"),
    lo("trace.demand_s", "s"),
    // vod-net
    lo("net.paths_s", "s"),
    lo("net.nodes", "count"),
    lo("net.links", "count"),
    // vod-estimate
    lo("estimate.demand_s", "s"),
    // vod-core: instance, EPF, rounding
    lo("core.instance_build_s", "s"),
    lo("core.epf_s", "s"),
    lo("core.epf_passes", "count"),
    lo("core.epf_block_steps", "count"),
    hi("core.epf_block_steps_per_s", "1/s"),
    lo("core.epf_approx_mb", "MB"),
    hi("core.epf_thread_speedup", "ratio"),
    lo("core.round_s", "s"),
    lo("core.round_videos", "count"),
    hi("core.round_videos_per_s", "1/s"),
    lo("core.frac_gap_pct", "%"),
    lo("core.int_gap_pct", "%"),
    lo("core.max_violation_pct", "%"),
    // vod-core kernel probes
    lo("core.block.local_search_us", "us"),
    lo("core.block.dual_ascent_us", "us"),
    lo("core.block.local_search_scalar_us", "us"),
    lo("core.block.dual_ascent_scalar_us", "us"),
    lo("core.penalty.rebuild_ms", "ms"),
    lo("core.penalty.update_ms", "ms"),
    lo("core.direct.exact_block_lp_ms", "ms"),
    lo("core.checkpoint.encode_ms", "ms"),
    lo("core.checkpoint.decode_ms", "ms"),
    lo("core.checkpoint.bytes", "count"),
    // vod-lp
    lo("lp.solve_lp_ms", "ms"),
    lo("lp.direct_lp_s", "s"),
    // vod-sim
    lo("sim.replay_lru_s", "s"),
    lo("sim.replay_lfu_s", "s"),
    lo("sim.replay_lrfu_s", "s"),
    lo("sim.replay_nocache_s", "s"),
    lo("sim.replay_faulted_s", "s"),
    hi("sim.replay_lru_reqs_per_s", "1/s"),
    hi("sim.replay_lfu_reqs_per_s", "1/s"),
    hi("sim.replay_lrfu_reqs_per_s", "1/s"),
    hi("sim.replay_nocache_reqs_per_s", "1/s"),
    hi("sim.replay_faulted_reqs_per_s", "1/s"),
    lo("sim.batch_s", "s"),
    hi("sim.batch_reqs_per_s", "1/s"),
    hi("sim.batch_speedup", "ratio"),
    hi("sim.requests", "count"),
    hi("sim.local_frac", "ratio"),
    lo("sim.denied_capacity", "count"),
    lo("sim.denied_no_replica", "count"),
    lo("sim.interrupted", "count"),
    // vod-json
    lo("json.state_bytes", "count"),
    lo("json.to_value_ms", "ms"),
    lo("json.encode_ms", "ms"),
    hi("json.encode_mb_per_s", "MB/s"),
    lo("json.parse_ms", "ms"),
    hi("json.parse_mb_per_s", "MB/s"),
    lo("json.snapshot_write_ms", "ms"),
    lo("json.snapshot_read_ms", "ms"),
    // vod-ops
    lo("ops.stage.estimate_s", "s"),
    lo("ops.stage.solve_s", "s"),
    lo("ops.stage.round_s", "s"),
    lo("ops.stage.validate_s", "s"),
    lo("ops.stage.simulate_s", "s"),
    lo("ops.delta_apply_s", "s"),
    lo("ops.resume_s", "s"),
    lo("ops.service_wall_s", "s"),
    lo("ops.steps", "count"),
    lo("ops.moved_copies", "count"),
    lo("ops.deferred_max", "count"),
    lo("ops.degraded_cycles", "count"),
    lo("ops.denied_pct", "%"),
    lo("ops.state_dir_bytes", "count"),
    // Traced ops: self seconds per layer (span minus children) summed
    // over one op; `self.harness_s` is what no layer accounts for.
    lo("self.core_s", "s"),
    lo("self.sim_s", "s"),
    lo("self.ops_s", "s"),
    lo("self.harness_s", "s"),
    lo("traced_op_wall_s", "s"),
    lo("trace_overhead_pct", "%"),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// Raw samples of every metric a run produced, plus the tally of
/// operations and identity checks that feeds `attempted` / `failed`.
#[derive(Debug, Default)]
pub struct Report {
    samples: Vec<(&'static MetricDef, Vec<f64>)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Report {
    /// Add one sample of a declared metric. An undeclared name is a
    /// harness bug, caught by the smoke tests.
    pub fn sample(&mut self, name: &str, value: f64) {
        let def = lookup(name).unwrap_or_else(|| panic!("metric {name} is not declared"));
        match self.samples.iter_mut().find(|(d, _)| d.name == name) {
            Some((_, values)) => values.push(value),
            None => self.samples.push((def, vec![value])),
        }
    }

    /// Count one operation or identity check; a failed one is recorded
    /// with its description.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// The sample of `name` taken last.
    pub fn last(&self, name: &str) -> Option<f64> {
        self.samples_of(name).last().copied()
    }

    pub fn samples_of(&self, name: &str) -> &[f64] {
        self.samples
            .iter()
            .find(|(d, _)| d.name == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// The reported value: the median over all samples kept.
    pub fn value(&self, name: &str) -> Option<f64> {
        let s = self.samples_of(name);
        (!s.is_empty()).then(|| median(s))
    }

    pub fn recorded(&self) -> impl Iterator<Item = (&'static MetricDef, &[f64])> {
        self.samples.iter().map(|(d, v)| (*d, v.as_slice()))
    }

    /// Close the run: take the process's peak memory, and fail it if
    /// any sample is not a finite number.
    pub fn finish(&mut self) {
        if let Some(mb) = crate::env::peak_rss_mb() {
            self.sample("peak_rss_mb", mb);
        }
        let bad: Vec<&str> = self
            .samples
            .iter()
            .filter(|(_, v)| v.iter().any(|x| !x.is_finite()))
            .map(|(d, _)| d.name)
            .collect();
        self.check(
            &format!("every metric sample is finite (non-finite: {bad:?})"),
            bad.is_empty(),
        );
    }

    /// The result object the driver reads: every metric of `table`,
    /// with 0 for the metrics of layers this workload never entered.
    pub fn result_value(&self, table: &[MetricDef]) -> Value {
        let metrics: Vec<(String, Value)> = table
            .iter()
            .map(|m| {
                let value = self.value(m.name).unwrap_or(0.0);
                (
                    m.name.to_string(),
                    obj(vec![
                        ("value", value.to_value()),
                        ("unit", m.unit.to_value()),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", (self.failed == 0).to_value()),
            ("attempted", self.attempted.to_value()),
            ("failed", self.failed.to_value()),
            ("metrics", Value::Obj(metrics)),
        ])
    }
}

/// One-line rendering of a JSON value: the pretty form with its line
/// breaks and indentation removed (strings never span lines there —
/// the writer escapes every control character).
pub fn one_line(v: &Value) -> String {
    v.to_string_pretty().lines().map(str::trim_start).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn tables_obey_the_benchmark_json_rules() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} declared twice", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?} of {}",
                m.unit,
                m.name
            );
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = lookup("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_parses_back_and_fills_unentered_layers_with_zero() {
        let mut r = Report::default();
        r.sample("op_wall_s", 2.0);
        r.sample("op_wall_s", 1.0);
        r.sample("op_wall_s", 4.0);
        r.check("fine", true);
        let line = one_line(&r.result_value(END_TO_END));
        assert!(!line.contains('\n'));
        let back = Value::parse(&line).expect("result line is JSON");
        assert_eq!(back.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(back.get("attempted").and_then(Value::as_usize), Some(1));
        let metrics = back.get("metrics").expect("metrics");
        let wall = metrics.get("op_wall_s").expect("op_wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(2.0));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        let rss = metrics.get("peak_rss_mb").expect("every metric is present");
        assert_eq!(rss.get("value").and_then(Value::as_f64), Some(0.0));

        r.check("broken", false);
        r.sample("setup_s", f64::NAN);
        r.finish();
        assert_eq!((r.attempted, r.failed), (3, 2));
        let back = Value::parse(&one_line(&r.result_value(END_TO_END))).expect("JSON");
        assert_eq!(back.get("correct").and_then(Value::as_bool), Some(false));
    }
}
