//! The four-strategy comparison behind Figs. 5, 6 and the headline
//! claims: MIP placement (weekly re-solves with history estimation and
//! a 5 % complementary LRU cache) versus Random+LRU, Random+LFU and
//! Top-K+LRU on identical disks, links and requests; and the update
//! chain behind it and Table VI.
//!
//! A chain's updates are the service's serial cycles (each anchors
//! migration cost on the placement deployed before it); its replays
//! then join one `simulate_batch` fan-out, and the callers aggregate
//! the periods in period order, so every outcome is byte-identical to
//! a serial loop.

use crate::{fresh_dir, replay, Defaults, Deployment, Scenario};
use std::sync::atomic::{AtomicUsize, Ordering};
use vod_estimate::EstimatorKind;
use vod_model::time::DAY;
use vod_ops::{OpsConfig, Service, ServiceConfig, ServicePlan, StageId, StepOutcome};
use vod_sim::{random_single_vho_configs, top_k_vho_configs, CacheKind, SimConfig, SimReport};

/// One strategy's measured outcome over the evaluation period.
#[derive(Debug)]
pub struct StrategyOutcome {
    pub name: String,
    /// Peak link bandwidth per 5-minute bucket (Fig. 5's series),
    /// starting at the evaluation period.
    pub peak_series_mbps: Vec<f64>,
    /// Aggregate transfer per 5-minute bucket in GB (Fig. 6's series).
    pub transfer_series_gb: Vec<f64>,
    pub max_link_mbps: f64,
    pub total_gb_hops: f64,
    pub local_fraction: f64,
    pub uncachable: u64,
}

impl vod_json::ToJson for StrategyOutcome {
    fn to_value(&self) -> vod_json::Value {
        vod_json::obj(vec![
            ("name", self.name.to_value()),
            ("peak_series_mbps", self.peak_series_mbps.to_value()),
            ("transfer_series_gb", self.transfer_series_gb.to_value()),
            ("max_link_mbps", self.max_link_mbps.to_value()),
            ("total_gb_hops", self.total_gb_hops.to_value()),
            ("local_fraction", self.local_fraction.to_value()),
            ("uncachable", self.uncachable.to_value()),
        ])
    }
}

/// A strategy's outcome from its replays: each `(lo, hi, report)`
/// contributes its buckets `lo..hi` (clamped to its series) to the
/// series and all of its totals.
pub fn outcome<'a>(
    name: &str,
    parts: impl IntoIterator<Item = (usize, usize, &'a SimReport)>,
) -> StrategyOutcome {
    let mut peak_series = Vec::new();
    let mut transfer_series = Vec::new();
    let mut gb_hops = 0.0;
    let mut local = 0u64;
    let mut total_reqs = 0u64;
    let mut uncachable = 0u64;
    for (lo, hi, rep) in parts {
        let span = |v: &[f64]| v[lo.min(v.len())..hi.min(v.len())].to_vec();
        peak_series.extend(span(&rep.peak_link_mbps));
        transfer_series.extend(span(&rep.transfer_gb));
        gb_hops += rep.total_gb_hops;
        local += rep.served_local_pinned + rep.served_local_cached;
        total_reqs += rep.total_requests;
        uncachable += rep.cache.rejections;
    }
    StrategyOutcome {
        name: name.to_string(),
        max_link_mbps: peak_series.iter().cloned().fold(0.0, f64::max),
        peak_series_mbps: peak_series,
        transfer_series_gb: transfer_series,
        total_gb_hops: gb_hops,
        local_fraction: local as f64 / total_reqs.max(1) as f64,
        uncachable,
    }
}

/// One period of an update chain: days `from_day..to_day`, the copies
/// its update migrated (Section VII-H), and its replay.
#[derive(Debug)]
pub struct Period {
    pub from_day: u64,
    pub to_day: u64,
    pub migrated: usize,
    pub report: SimReport,
}

/// Run the update pipeline the service ships, [`vod_ops::Service`],
/// updating the placement every `period_days` from day 7 to the end of
/// the trace: each period's demand estimated by `estimator` from the
/// previous 7 days, solved warm from the deployed placement on the
/// capacity-scaled backbone with the MIP's share of the disks, and
/// deployed whole. Each period's placement runs with `cache_frac` of
/// the full disks as LRU cache and replays only its own days under
/// `cfg`. A cycle that degrades panics: it would replay the last-good
/// placement as if it were the period's own.
pub fn update_chain(
    s: &Scenario,
    d: &Defaults,
    period_days: u64,
    estimator: EstimatorKind,
    cache_frac: f64,
    cfg: &SimConfig,
) -> Vec<Period> {
    static CHAINS: AtomicUsize = AtomicUsize::new(0);
    let chain = CHAINS.fetch_add(1, Ordering::Relaxed);
    let dir = fresh_dir(&format!("update_chain_{chain}"));
    let w = s.ops_world(d);
    let svc_cfg = ServiceConfig {
        ops: OpsConfig {
            cycles: usize::MAX, // clamped to the trace horizon
            period_days,
            start_day: 7, // the first week is history
            estimator,
            epf: s.epf_config(),
            max_attempts: 1,
            checkpoint_every: 0,
            backoff_base_ms: 0,
            validate_tol: 1e-6,
            simulate: false,
            state_dir: dir.clone(),
        },
        churn_cap: None,
        cycle_step_budget: None,
        watchdog_budget: 64, // a clean cycle ticks five times
        cycle_faults: Vec::new(),
        cycle_deltas: Vec::new(),
    };
    let mut svc = Service::resume_or_start(&w, svc_cfg, ServicePlan::default())
        .expect("update chain config is valid");
    let horizon_days = s.trace.horizon().secs() / DAY;
    let mut deployed = Vec::new();
    let mut day = 7u64;
    loop {
        match svc.step().expect("an update cycle never aborts") {
            StepOutcome::StageDone {
                stage: StageId::Validate,
                ..
            } => {
                let (_, p) = svc.state().deployed.clone().expect("validate deployed");
                let to_day = (day + period_days).min(horizon_days);
                let dep = Deployment::mip(p, &w.disks, cache_frac);
                deployed.push((day, to_day, s.days(day, to_day), dep));
                day = to_day;
            }
            StepOutcome::StageDone { .. } => {}
            StepOutcome::Finished => break,
            other => panic!("update chain at day {day}: {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let reports = replay(s, cfg, deployed.iter().map(|(.., t, dep)| (&w.net, t, dep)));
    deployed
        .iter()
        .zip(&svc.state().records)
        .zip(reports)
        .map(|((&(from_day, to_day, ..), r), report)| Period {
            from_day,
            to_day,
            migrated: r.moved,
            report,
        })
        .collect()
}

/// Run the full comparison. Week 0 warms the caches (and provides the
/// first demand history); measurements cover the remaining weeks, with
/// the MIP re-solved weekly from the previous week's history (Section
/// VII-B).
pub fn run_comparison(s: &Scenario, d: &Defaults, top_k: usize) -> Vec<StrategyOutcome> {
    assert!(
        s.trace.horizon().secs() >= 14 * DAY,
        "need at least two weeks of trace"
    );
    let full_disks = s.full_disks(d);

    // ---- MIP: weekly re-solves, each week replayed on its own.
    let mip_cfg = SimConfig {
        seed: s.seed,
        ..Default::default()
    };
    let weeks = update_chain(s, d, 7, EstimatorKind::History, d.cache_frac, &mip_cfg);

    // ---- Baselines: static assignment + cache, full-trace run with
    // week 0 as cache warm-up. ----
    let ranked = {
        let week0 = s.week(0);
        let demand =
            vod_trace::DemandInput::from_trace(&week0, &s.catalog, s.net.num_nodes(), vec![]);
        demand.aggregate.rank_videos()
    };
    let random = |kind| random_single_vho_configs(&s.catalog, &full_disks, kind, s.seed);
    let baselines = [
        ("Random+LRU".to_string(), random(CacheKind::Lru)),
        ("Random+LFU".to_string(), random(CacheKind::Lfu)),
        (
            format!("Top-{top_k}+LRU"),
            top_k_vho_configs(&s.catalog, &ranked, top_k, &full_disks, s.seed),
        ),
    ]
    .map(|(name, vhos)| (name, Deployment::nearest(vhos)));
    let net = s.scaled_net(d);
    let runs = baselines.iter().map(|(_, dep)| (&net, &s.trace, dep));
    let base_reps = replay(s, &s.warmed_sim(), runs);

    // Stitch the MIP weeks back together in week order; the baselines
    // count from day 7 on (week 0 is warm-up/history).
    let bucket = |day: u64| ((day * DAY) / 300) as usize;
    let spans = weeks
        .iter()
        .map(|p| (bucket(p.from_day), bucket(p.to_day), &p.report));
    let mut outcomes = vec![outcome("MIP", spans)];
    for ((name, _), rep) in baselines.iter().zip(&base_reps) {
        outcomes.push(outcome(name, [(bucket(7), usize::MAX, rep)]));
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// An 11-day world smaller than the quick scenario: 6 VHOs, 120
    /// videos.
    fn small_scenario() -> Scenario {
        let (seed, days) = (3, 11);
        let net = vod_net::topologies::mesh_backbone(6, 9, seed);
        let lib = vod_trace::LibraryConfig::default_for(120, days, seed);
        let catalog = vod_trace::synthesize_library(&lib);
        let tc = vod_trace::TraceConfig::default_for(1_500.0, days, seed);
        Scenario {
            paths: vod_net::PathSet::shortest_paths(&net),
            trace: vod_trace::generate_trace(&catalog, &net, &tc),
            net,
            catalog,
            scale: Scale::Quick,
            seed,
        }
    }

    #[test]
    fn concurrent_chains_agree_and_tile_the_trace() {
        let s = small_scenario();
        let d = Defaults::for_scale(Scale::Quick);
        let cfg = SimConfig::default();
        let chain = || update_chain(&s, &d, 2, EstimatorKind::History, 0.0, &cfg);
        let (a, b) = std::thread::scope(|sc| {
            let a = sc.spawn(chain);
            let b = sc.spawn(chain);
            (a.join().expect("chain a"), b.join().expect("chain b"))
        });
        let bits = |ps: &[Period]| -> Vec<_> {
            ps.iter()
                .map(|p| (p.migrated, p.report.total_gb_hops.to_bits()))
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert!(a.iter().any(|p| p.migrated > 0), "no update moved a copy");
        let mut day = 7;
        for p in &a {
            assert_eq!(p.from_day, day, "periods must tile the trace");
            day = p.to_day;
            let reqs = s.days(p.from_day, p.to_day).len() as u64;
            assert_eq!(p.report.total_requests, reqs, "days {}..{day}", p.from_day);
        }
        assert_eq!(day, s.trace.horizon().secs() / DAY);
    }

    #[test]
    fn comparison_runs_and_mip_wins_on_peak() {
        let s = Scenario::operational(Scale::Quick, 3);
        let d = Defaults {
            link_gbps: 1.0,
            ..Defaults::for_scale(Scale::Quick)
        };
        let outcomes = run_comparison(&s, &d, 10);
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[0].name, "MIP");
        for o in &outcomes {
            assert!(o.max_link_mbps > 0.0, "{} saw no load", o.name);
            assert!(!o.peak_series_mbps.is_empty());
        }
        // The headline claim: the MIP needs less peak bandwidth than
        // every caching baseline (allow a whisker of slack at the tiny
        // CI scale).
        let mip = outcomes[0].max_link_mbps;
        for o in &outcomes[1..] {
            assert!(
                mip <= o.max_link_mbps * 1.15,
                "MIP peak {mip} vs {} peak {}",
                o.name,
                o.max_link_mbps
            );
        }
    }
}
