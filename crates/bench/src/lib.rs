//! Experiment harness shared by every table/figure reproduction.
//!
//! The `paper` bin regenerates the paper's tables and figures, one
//! function per experiment in [`paper::EXPERIMENTS`] (see DESIGN.md §3
//! for the index). They all build on the same *operational scenario* —
//! a backbone network, a month-long synthetic trace with the paper's
//! content mix, and the paper's default parameters — at one of three
//! scales selected on the command line:
//!
//! - `--quick`: minutes-long CI scale (small network, small library),
//! - default: the standard reproduction scale,
//! - `--full`: the paper's scale (55-VHO backbone, larger library) —
//!   slower, for final numbers.
//!
//! Results are printed as Markdown tables (mirroring the paper's rows
//! and series) and persisted as JSON under `results/`. The tracked
//! baselines and drills in `src/bin/` share the scenario and the
//! emitters.

pub mod comparison;
pub mod paper;
use std::path::PathBuf;
use vod_core::feasibility::Scenario as FeasScenario;
use vod_core::{solve_placement, DiskConfig, EpfConfig, MipInstance, Placement};
use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind};
use vod_json::{obj, ToJson, Value};
use vod_model::{Catalog, Gigabytes, SimTime, TimeWindow};
use vod_net::{Network, PathSet};
use vod_ops::OpsWorld;
use vod_sim::{
    default_threads, mip_vho_configs, simulate_batch, CacheKind, PolicyKind, SimConfig, SimJob,
    SimReport, VhoConfig,
};
use vod_trace::{
    generate_trace, synthesize_library, synthetic_demand, DemandInput, LibraryConfig, Trace,
    TraceConfig,
};

/// Experiment scale, parsed from argv.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Default,
    Full,
}

impl Scale {
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else if args.iter().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Default
        }
    }
}

/// One entry of a runner's table: the names that select it on the
/// command line, and what it runs.
pub type Named<T> = (&'static [&'static str], T);

/// Parse a runner's arguments `[--quick|--full] [name …]` (program
/// name excluded) against `table`: the scale, and the entries the
/// names select in table order — every entry when no name is given. An
/// unknown flag or name, or `--quick` with `--full`, is an error whose
/// text lists every name.
pub fn parse_args<T>(
    prog: &str,
    table: &'static [Named<T>],
    args: &[String],
) -> Result<(Scale, Vec<&'static Named<T>>), String> {
    let usage = |problem: &str| {
        let names: Vec<_> = table.iter().flat_map(|(n, _)| n.iter().copied()).collect();
        format!(
            "{problem}\nusage: {prog} [--quick|--full] [name …]\nnames: {}",
            names.join(" ")
        )
    };
    let mut scales = Vec::new();
    let mut names = Vec::new();
    for a in args.iter().map(String::as_str) {
        match a {
            "--quick" => scales.push(Scale::Quick),
            "--full" => scales.push(Scale::Full),
            _ if a.starts_with('-') => return Err(usage(&format!("unknown flag {a}"))),
            _ if table.iter().any(|(n, _)| n.contains(&a)) => names.push(a),
            _ => return Err(usage(&format!("unknown name {a}"))),
        }
    }
    scales.dedup();
    if scales.len() > 1 {
        return Err(usage("--quick and --full exclude each other"));
    }
    let selected = table
        .iter()
        .filter(|(n, _)| names.is_empty() || n.iter().any(|s| names.contains(s)))
        .collect();
    Ok((scales.pop().unwrap_or(Scale::Default), selected))
}

/// [`parse_args`] over the process's own arguments; bad arguments
/// print the error and exit 2.
pub fn args_or_exit<T>(prog: &str, table: &'static [Named<T>]) -> (Scale, Vec<&'static Named<T>>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(prog, table, &args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// The shared operational scenario.
#[derive(Debug)]
pub struct Scenario {
    pub net: Network,
    pub paths: PathSet,
    pub catalog: Catalog,
    pub trace: Trace,
    pub scale: Scale,
    pub seed: u64,
}

/// Paper-default knobs used across experiments.
#[derive(Debug)]
pub struct Defaults {
    /// Fraction of each disk reserved for the complementary LRU cache.
    pub cache_frac: f64,
    /// Aggregate disk as a multiple of the library size.
    pub disk_ratio: f64,
    /// Uniform link capacity in Gb/s.
    pub link_gbps: f64,
    /// Peak-window length (1 h) and count (|T| = 2).
    pub window_secs: u64,
    pub n_windows: usize,
}

impl Defaults {
    /// The paper's knobs, with the link capacity scaled to each
    /// scenario's load so that the MIP's bandwidth constraint actually
    /// binds at peak — the regime the paper evaluates (its 1 Gb/s
    /// constraint sat right at the MIP's 1.36 Gb/s peak). With slack
    /// links every placement looks alike.
    pub fn for_scale(scale: Scale) -> Self {
        Self {
            cache_frac: 0.05,
            disk_ratio: 2.0,
            link_gbps: match scale {
                Scale::Quick => 0.035,
                Scale::Default => 0.15,
                Scale::Full => 0.5,
            },
            window_secs: 3600,
            n_windows: 2,
        }
    }

    /// The estimators' peak windows.
    pub fn estimate_config(&self) -> EstimateConfig {
        EstimateConfig {
            window_secs: self.window_secs,
            n_windows: self.n_windows,
        }
    }
}

impl Scenario {
    /// Build the operational scenario at the given scale.
    ///
    /// Scales (VHOs / library / days / requests-per-day):
    /// quick 10/300/14/4 K, default 24/1200/28/20 K,
    /// full 55/3000/28/60 K (the paper's backbone with a library sized
    /// so the evaluation completes in minutes; Table III separately
    /// scales the *solver* to 100 K+ videos).
    pub fn operational(scale: Scale, seed: u64) -> Self {
        let (net, n_videos, days, rpd) = match scale {
            Scale::Quick => (
                vod_net::topologies::mesh_backbone(10, 16, seed),
                300usize,
                14u64,
                4_000.0,
            ),
            Scale::Default => (
                vod_net::topologies::mesh_backbone(24, 36, seed),
                1200,
                28,
                20_000.0,
            ),
            Scale::Full => (vod_net::topologies::backbone55(), 3000, 28, 60_000.0),
        };
        let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, days, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(rpd, days, seed));
        let paths = PathSet::shortest_paths(&net);
        Self {
            net,
            paths,
            catalog,
            trace,
            scale,
            seed,
        }
    }

    /// EPF configuration appropriate for this scale.
    ///
    /// The solve budget is the deterministic `step_limit`: a global
    /// pass count, identical on every machine and preserved across
    /// checkpoint resume, so two runs of the same experiment publish
    /// the same rows.
    pub fn epf_config(&self) -> EpfConfig {
        self.passes(match self.scale {
            Scale::Quick => 200,
            Scale::Default => 400,
            Scale::Full => 600,
        })
    }

    /// A faster EPF configuration for feasibility probes (binary
    /// searches run dozens of them). Same deterministic budgeting as
    /// [`Scenario::epf_config`].
    pub fn probe_config(&self) -> EpfConfig {
        self.passes(match self.scale {
            Scale::Quick => 80,
            Scale::Default => 120,
            Scale::Full => 150,
        })
    }

    fn passes(&self, passes: usize) -> EpfConfig {
        EpfConfig {
            max_passes: passes,
            step_limit: Some(passes as u64),
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Restrict the trace to week `w` (0-based).
    pub fn week(&self, w: u64) -> Trace {
        self.days(7 * w, 7 * (w + 1))
    }

    /// Restrict the trace to days `from..to` (0-based).
    pub fn days(&self, from: u64, to: u64) -> Trace {
        let day = vod_model::time::DAY;
        self.trace.restricted(TimeWindow::new(
            SimTime::new(from * day),
            SimTime::new(to * day),
        ))
    }

    /// The backbone with every link at the scale's capacity
    /// ([`Defaults::for_scale`]): the network the placements are
    /// solved and replayed on.
    pub fn scaled_net(&self, d: &Defaults) -> Network {
        let mut net = self.net.clone();
        net.set_uniform_capacity(vod_model::Mbps::from_gbps(d.link_gbps));
        net
    }

    /// Demand input built from week `w`'s requests with the default
    /// peak windows: the perfect estimate of that week.
    pub fn demand_of_week(&self, w: u64, d: &Defaults) -> DemandInput {
        self.estimate(EstimatorKind::Perfect, d, 7 * w, 7 * (w + 1))
    }

    /// Demand for days `from..to` as `kind` estimates it from the 7
    /// days before (fewer at the start of the trace; Section VI), with
    /// the default peak windows.
    pub fn estimate(&self, kind: EstimatorKind, d: &Defaults, from: u64, to: u64) -> DemandInput {
        estimate_demand(
            kind,
            &self.catalog,
            self.net.num_nodes(),
            &self.days(from.saturating_sub(7), from),
            &self.days(from, to),
            from,
            to - from,
            &d.estimate_config(),
        )
    }

    /// The service's world: the capacity-scaled backbone, the full
    /// disks with the MIP's share as its budget, and the default peak
    /// windows.
    pub fn ops_world(&self, d: &Defaults) -> OpsWorld {
        OpsWorld {
            net: self.scaled_net(d),
            paths: self.paths.clone(),
            catalog: self.catalog.clone(),
            trace: self.trace.clone(),
            disks: self.full_disks(d),
            mip_disk: self.mip_disk(d),
            est: d.estimate_config(),
        }
    }

    /// The replay settings measuring from day 7 on, once week 0 has
    /// warmed the caches.
    pub fn warmed_sim(&self) -> SimConfig {
        SimConfig {
            measure_from: SimTime::new(7 * vod_model::time::DAY),
            seed: self.seed,
            ..Default::default()
        }
    }

    /// Solve the placement MIP for this catalog on `net` with the
    /// paper's transfer cost (α = 1, β = 0) and [`Scenario::epf_config`];
    /// return the instance beside the rounded placement.
    pub fn place(
        &self,
        net: &Network,
        demand: DemandInput,
        disk: &DiskConfig,
    ) -> (MipInstance, Placement) {
        let catalog = self.catalog.clone();
        let inst = MipInstance::new(net.clone(), catalog, demand, disk, 1.0, 0.0, None);
        let out = solve_placement(&inst, &self.epf_config()).expect("instance is well-formed");
        (inst, out.placement)
    }

    /// The MIP disk config for the placement share of the disks.
    pub fn mip_disk(&self, d: &Defaults) -> DiskConfig {
        mip_disk(d.disk_ratio, d.cache_frac)
    }

    /// Full per-VHO disks (placement share + cache share).
    pub fn full_disks(&self, d: &Defaults) -> Vec<Gigabytes> {
        DiskConfig::UniformRatio {
            ratio: d.disk_ratio,
        }
        .capacities(&self.net, self.catalog.total_size())
    }
}

/// The MIP's share of a `ratio`x aggregate disk when `cache_frac` of
/// each disk is left to the complementary cache.
pub fn mip_disk(ratio: f64, cache_frac: f64) -> DiskConfig {
    DiskConfig::UniformRatio {
        ratio: ratio * (1.0 - cache_frac),
    }
}

/// The feasibility searches' view of `demand` on `net`, with the
/// paper's transfer cost (α = 1, β = 0).
pub fn feasibility<'a>(
    net: &'a Network,
    catalog: &'a Catalog,
    demand: &'a DemandInput,
) -> FeasScenario<'a> {
    FeasScenario {
        network: net,
        catalog,
        demand,
        alpha: 1.0,
        beta: 0.0,
    }
}

/// A synthetic one-week instance on `net` for the scaling experiments:
/// `n_videos` videos, `reqs_per_video · n_videos` requests a day (so
/// load grows with the library, Section VII-E) and 2x aggregate disk.
pub fn synthetic(n_videos: usize, reqs_per_video: f64, net: &Network, seed: u64) -> MipInstance {
    let days = 7;
    let lib = synthesize_library(&LibraryConfig::default_for(n_videos, days, seed));
    let tc = TraceConfig::default_for(n_videos as f64 * reqs_per_video, days, seed);
    let demand = synthetic_demand(&lib, net, &tc);
    MipInstance::new(
        net.clone(),
        lib,
        demand,
        &DiskConfig::UniformRatio { ratio: 2.0 },
        1.0,
        0.0,
        None,
    )
}

/// What a replay deploys: each VHO's pinned videos and cache, and the
/// request routing.
#[derive(Debug)]
pub struct Deployment {
    pub vhos: Vec<VhoConfig>,
    pub policy: PolicyKind,
}

impl Deployment {
    /// A MIP placement routed as solved, with `cache_frac` of each of
    /// `disks` left to a complementary LRU cache.
    pub fn mip(placement: Placement, disks: &[Gigabytes], cache_frac: f64) -> Self {
        Self {
            vhos: mip_vho_configs(&placement, disks, cache_frac, CacheKind::Lru),
            policy: PolicyKind::MipRouting(placement),
        }
    }

    /// Static VHO contents behind nearest-replica routing (the caching
    /// baselines).
    pub fn nearest(vhos: Vec<VhoConfig>) -> Self {
        Self {
            vhos,
            policy: PolicyKind::NearestReplica,
        }
    }
}

/// Replay every `(net, trace, deployment)` under `cfg` over the
/// scenario's paths and catalog, in one `simulate_batch` fan-out over
/// all cores. Reports come back in input order, so no byte depends on
/// the thread count.
pub fn replay<'a>(
    s: &Scenario,
    cfg: &SimConfig,
    runs: impl IntoIterator<Item = (&'a Network, &'a Trace, &'a Deployment)>,
) -> Vec<SimReport> {
    let jobs: Vec<SimJob> = runs
        .into_iter()
        .map(|(net, trace, dep)| SimJob {
            net,
            paths: &s.paths,
            catalog: &s.catalog,
            trace,
            vhos: &dep.vhos,
            policy: &dep.policy,
            cfg: cfg.clone(),
        })
        .collect();
    simulate_batch(&jobs, default_threads())
}

/// A Markdown/JSON result table.
#[derive(Debug)]
pub struct Table {
    pub title: String,
    pub headers: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Print as a Markdown table.
    pub fn print(&self) {
        println!("\n## {}\n", self.title);
        println!("| {} |", self.headers.join(" | "));
        println!(
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for r in &self.rows {
            println!("| {} |", r.join(" | "));
        }
    }
}

impl ToJson for Table {
    fn to_value(&self) -> Value {
        obj(vec![
            ("title", self.title.to_value()),
            ("headers", self.headers.to_value()),
            ("rows", self.rows.to_value()),
        ])
    }
}

/// Write an experiment's result tables (plus free-form metadata) to
/// `results/<name>.json`. The write is atomic (temp file + rename) so
/// an interrupted bench never leaves a half-written result behind.
pub fn save_results<T: ToJson + ?Sized>(name: &str, payload: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    vod_json::snapshot::write_atomic(&path, vod_json::to_string_pretty(payload).as_bytes())
        .expect("write results file");
    println!("\n[results written to {}]", path.display());
}

/// `results/` next to the workspace root (or under `CARGO_TARGET_DIR`'s
/// parent if running from elsewhere).
pub fn results_dir() -> PathBuf {
    // The bins run from the workspace root via `cargo run`.
    PathBuf::from(std::env::var("VODPLACE_RESULTS_DIR").unwrap_or_else(|_| "results".into()))
}

/// An empty state dir `vod_<name>_<pid>` under the temp dir.
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vod_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Format a float with sensible precision for tables.
pub fn fmt(x: f64) -> String {
    if x == 0.0 {
        "0".into()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_builds() {
        let s = Scenario::operational(Scale::Quick, 1);
        assert_eq!(s.net.num_nodes(), 10);
        assert_eq!(s.catalog.len(), 300);
        assert!(!s.trace.is_empty());
        let wk = s.week(1);
        assert!(wk.len() < s.trace.len());
        let d = Defaults::for_scale(Scale::Quick);
        let dem = s.demand_of_week(0, &d);
        assert_eq!(dem.windows.len(), 2);
        assert!(dem.aggregate.total() > 0.0);
    }

    #[test]
    fn table_formatting() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        assert_eq!(fmt(0.12345), "0.1235");
        assert_eq!(fmt(12.345), "12.35");
        assert_eq!(fmt(1235.6), "1236");
        assert_eq!(fmt(0.0), "0");
    }

    #[test]
    fn a_runner_selects_in_table_order_and_names_itself_in_errors() {
        const DRILLS: &[Named<()>] = &[(&["service"], ()), (&["reconfig"], ())];
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let (_, picked) =
            parse_args("drill", DRILLS, &args(&["reconfig", "service"])).expect("valid");
        let picked: Vec<_> = picked.iter().map(|(n, _)| n[0]).collect();
        assert_eq!(picked, ["service", "reconfig"]);
        let err =
            parse_args("drill", DRILLS, &args(&["--quick", "kill"])).expect_err("unknown name");
        assert!(err.contains("usage: drill [--quick|--full]"), "{err}");
        assert!(err.ends_with("names: service reconfig"), "{err}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("Demo", &["a", "b"]);
        t.row(vec!["1".into()]);
    }
}
