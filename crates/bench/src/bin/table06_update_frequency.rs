//! Table VI — placement-update frequency and estimation accuracy: max
//! bandwidth, total transfer and locally-served fraction when the MIP
//! placement is refreshed every two weeks / weekly / daily, and with
//! perfect / no estimation of new-release demand. No complementary
//! cache (as in the paper). Also reports the migration cost (copies
//! moved per update, Section VII-H).
//!
//! Each schedule's solve chain is inherently serial (every re-solve
//! takes the previous placement as its migration anchor), but the
//! replays only consume the placements — they fan out over all cores
//! via `simulate_batch` once the chain is solved, and the aggregation
//! runs in period order so the row is byte-identical to a serial loop.
use vod_bench::{fmt, save_results, Defaults, Scale, Scenario, Table};
use vod_core::{solve_placement, MipInstance, Placement, PlacementCost};
use vod_estimate::{estimate_demand, EstimateConfig, EstimatorKind};
use vod_model::time::DAY;
use vod_model::{SimTime, TimeWindow, VhoId};
use vod_sim::{
    default_threads, mip_vho_configs, simulate_batch, CacheKind, PolicyKind, SimConfig, SimJob,
    VhoConfig,
};
use vod_trace::Trace;

struct RowOut {
    label: String,
    max_gbps: f64,
    total_gb_hops: f64,
    local: f64,
    migrated: usize,
}

fn run(
    s: &Scenario,
    d: &Defaults,
    period_days: u64,
    estimator: EstimatorKind,
    label: &str,
) -> RowOut {
    let mut net = s.net.clone();
    net.set_uniform_capacity(vod_model::Mbps::from_gbps(d.link_gbps));
    let est = EstimateConfig {
        window_secs: d.window_secs,
        n_windows: d.n_windows,
    };
    let epf = s.epf_config();
    let disks = s.full_disks(d);
    let horizon_days = s.trace.horizon().secs() / DAY;
    let mut migrated = 0usize;
    let mut prev: Option<Placement> = None;
    let mut day = 7u64; // first week is history
                        // Solve the whole update chain first (serial: each solve anchors
                        // its migration cost on the previous placement) ...
    let mut periods: Vec<(Trace, Vec<VhoConfig>, PolicyKind)> = Vec::new();
    while day < horizon_days {
        let period_end = (day + period_days).min(horizon_days);
        let history = s.trace.restricted(TimeWindow::new(
            SimTime::new((day - 7) * DAY),
            SimTime::new(day * DAY),
        ));
        let future = s.trace.restricted(TimeWindow::new(
            SimTime::new(day * DAY),
            SimTime::new(period_end * DAY),
        ));
        let demand = estimate_demand(
            estimator,
            &s.catalog,
            s.net.num_nodes(),
            &history,
            &future,
            day,
            period_end - day,
            &est,
        );
        let pc = prev.as_ref().map(|p| PlacementCost {
            weight: 1.0,
            previous: Some(p.holder_lists().to_vec()),
            // lint:allow(raw-index): update transfers are anchored at VHO 0 by convention
            origin: VhoId::new(0),
        });
        let inst = MipInstance::new(
            net.clone(),
            s.catalog.clone(),
            demand,
            &s.mip_disk(d),
            1.0,
            0.0,
            pc.as_ref(),
        );
        let out = solve_placement(&inst, &epf).expect("scenario instance is well-formed");
        if let Some(p) = &prev {
            migrated += out.placement.migration_copies_from(p);
        }
        // No complementary cache in this experiment (paper, Table VI).
        let vhos = mip_vho_configs(&out.placement, &disks, 0.0, CacheKind::Lru);
        periods.push((future, vhos, PolicyKind::MipRouting(out.placement.clone())));
        prev = Some(out.placement);
        day = period_end;
    }
    // ... then replay every period in parallel.
    let cfg = SimConfig {
        seed: s.seed,
        insert_on_miss: false,
        ..Default::default()
    };
    let jobs: Vec<SimJob> = periods
        .iter()
        .map(|(future, vhos, policy)| SimJob {
            net: &net,
            paths: &s.paths,
            catalog: &s.catalog,
            trace: future,
            vhos,
            policy,
            cfg: cfg.clone(),
        })
        .collect();
    let reps = simulate_batch(&jobs, default_threads());
    let mut max_mbps: f64 = 0.0;
    let mut gb_hops = 0.0;
    let mut local = 0u64;
    let mut total = 0u64;
    for rep in &reps {
        max_mbps = max_mbps.max(rep.max_link_mbps);
        gb_hops += rep.total_gb_hops;
        local += rep.served_local_pinned + rep.served_local_cached;
        total += rep.total_requests;
    }
    RowOut {
        label: label.into(),
        max_gbps: max_mbps / 1000.0,
        total_gb_hops: gb_hops,
        local: local as f64 / total.max(1) as f64,
        migrated,
    }
}

fn main() {
    let s = Scenario::operational(Scale::from_args(), 2010);
    let d = Defaults::for_scale(s.scale);
    let runs = [
        run(&s, &d, 14, EstimatorKind::History, "once in 2 weeks"),
        run(&s, &d, 7, EstimatorKind::History, "weekly"),
        run(&s, &d, 1, EstimatorKind::History, "daily"),
        run(
            &s,
            &d,
            7,
            EstimatorKind::Perfect,
            "perfect estimate (weekly)",
        ),
        run(&s, &d, 7, EstimatorKind::NoEstimate, "no estimate (weekly)"),
    ];
    let mut table = Table::new(
        "Table VI — update frequency & estimation accuracy (no cache)",
        &[
            "schedule",
            "max BW (Gb/s)",
            "total GB-hop",
            "locally served",
            "copies migrated",
        ],
    );
    let mut payload = Vec::new();
    for r in &runs {
        table.row(vec![
            r.label.clone(),
            fmt(r.max_gbps),
            fmt(r.total_gb_hops),
            fmt(r.local),
            r.migrated.to_string(),
        ]);
        payload.push((
            r.label.clone(),
            r.max_gbps,
            r.total_gb_hops,
            r.local,
            r.migrated,
        ));
    }
    table.print();
    println!(
        "\npaper's ordering: no-estimate >> 2-weekly > weekly ≥ daily > perfect \
         on max bandwidth; daily updates trim total transfer ~10 % vs weekly"
    );
    save_results("table06_update_frequency", &payload);
}
