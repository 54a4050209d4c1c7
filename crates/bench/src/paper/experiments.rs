//! The experiments, in the paper's order: each computes one entry of
//! [`super::EXPERIMENTS`], prints its tables and writes its `results/`
//! files.

use super::Ctx;
use crate::comparison::{outcome, run_comparison, update_chain};
use crate::{
    feasibility, fmt, mip_disk, replay, save_results, synthetic, Defaults, Deployment, Scale, Table,
};
use std::time::Instant;
use vod_core::direct::build_direct_lp;
use vod_core::feasibility::{min_disk_ratio, min_link_capacity};
use vod_core::{solve_fractional, solve_placement, DiskConfig, EpfConfig, MipInstance};
use vod_estimate::EstimatorKind;
use vod_model::time::{DAY, HOUR, MINUTE};
use vod_model::{Mbps, SimTime, VhoId, VideoKind};
use vod_net::topologies;
use vod_sim::{origin_vho_configs, random_single_vho_configs, CacheKind, SimConfig};
use vod_trace::{analysis, DemandInput, Request, Trace};

/// Fig. 2 — working-set size during peak hours: for each VHO, the
/// number of distinct videos (and their GB) requested during the peak
/// hour of the busiest Friday and Saturday, versus the library size.
pub fn fig02(ctx: &Ctx) {
    let s = ctx.scenario();
    // First full week's Friday (day 4) and Saturday (day 5).
    let lib_gb = s.catalog.total_size().value();
    let mut table = Table::new(
        "Fig. 2 — working set during peak hours (per VHO)",
        &[
            "VHO",
            "Fri videos",
            "Fri GB",
            "Sat videos",
            "Sat GB",
            "Sat % of library",
        ],
    );
    let fri = analysis::peak_hour_of_day(&s.trace, 4);
    let sat = analysis::peak_hour_of_day(&s.trace, 5);
    let ws_fri = analysis::working_sets(&s.trace, &s.catalog, s.net.num_nodes(), fri);
    let ws_sat = analysis::working_sets(&s.trace, &s.catalog, s.net.num_nodes(), sat);
    let mut max_frac: f64 = 0.0;
    for (f, t) in ws_fri.iter().zip(&ws_sat) {
        let frac = t.size.value() / lib_gb * 100.0;
        max_frac = max_frac.max(frac);
        table.row(vec![
            f.vho.to_string(),
            f.distinct_videos.to_string(),
            fmt(f.size.value()),
            t.distinct_videos.to_string(),
            fmt(t.size.value()),
            fmt(frac),
        ]);
    }
    table.print();
    println!(
        "\nmax working set = {:.1} % of the library (paper: up to ~25 %); \
         library = {:.0} GB",
        max_frac, lib_gb
    );
    save_results("fig02_working_set", &table);
}

/// Fig. 3 — cosine similarity of the per-VHO request mix between the
/// peak interval and the previous interval, for several window sizes.
/// Small windows ⇒ dissimilar mixes ⇒ caches cycle.
pub fn fig03(ctx: &Ctx) {
    let s = ctx.scenario();
    let windows: [(u64, &str); 4] = [
        (HOUR, "1 hour"),
        (4 * HOUR, "4 hours"),
        (12 * HOUR, "12 hours"),
        (DAY, "1 day"),
    ];
    let mut table = Table::new(
        "Fig. 3 — request-mix cosine similarity vs window size",
        &["window", "mean", "min", "max"],
    );
    let mut means = Vec::new();
    for (secs, label) in windows {
        let sims = analysis::peak_cosine_similarity(&s.trace, s.net.num_nodes(), secs);
        let mean = sims.iter().sum::<f64>() / sims.len() as f64;
        let min = sims.iter().cloned().fold(f64::MAX, f64::min);
        let max = sims.iter().cloned().fold(f64::MIN, f64::max);
        means.push(mean);
        table.row(vec![label.into(), fmt(mean), fmt(min), fmt(max)]);
    }
    table.print();
    println!(
        "\nsimilarity rises with window size ({} → {}), as in the paper: \
         day-scale mixes are alike, hour-scale mixes are not",
        fmt(means[0]),
        fmt(means[3])
    );
    save_results("fig03_cosine_similarity", &table);
}

/// Fig. 4 — daily request counts for consecutive episodes of one TV
/// series: each episode spikes on its release day with a volume similar
/// to the previous episode's, which is what the series demand estimator
/// (Section VI-A) exploits.
pub fn fig04(ctx: &Ctx) {
    let s = ctx.scenario();
    // Pick the series with the most total requests for a clear figure.
    let n_series = s
        .catalog
        .iter()
        .filter_map(|v| match v.kind {
            VideoKind::SeriesEpisode { series, .. } => Some(series),
            _ => None,
        })
        .max()
        .map(|m| m + 1)
        .unwrap_or(0);
    let best_series = (0..n_series)
        .max_by_key(|&sid| {
            analysis::episode_daily_counts(&s.trace, &s.catalog, sid)
                .iter()
                .map(|(_, days)| days.iter().sum::<u64>())
                .sum::<u64>()
        })
        .expect("library has series");
    let eps = analysis::episode_daily_counts(&s.trace, &s.catalog, best_series);
    let days = s.trace.horizon().secs() / DAY;
    let mut headers: Vec<String> = vec![
        "episode".into(),
        "release day".into(),
        "peak day reqs".into(),
    ];
    headers.extend((0..days).map(|d| format!("d{d}")));
    let hdr_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(
        &format!("Fig. 4 — daily requests for episodes of series {best_series}"),
        &hdr_refs,
    );
    let mut peaks = Vec::new();
    for (ep, daily) in &eps {
        let video = s
            .catalog
            .iter()
            .find(|v| {
                v.kind
                    == VideoKind::SeriesEpisode {
                        series: best_series,
                        episode: *ep,
                    }
            })
            .expect("episode exists in catalog");
        let peak = daily.iter().copied().max().unwrap_or(0);
        peaks.push(peak);
        let mut row = vec![
            ep.to_string(),
            video.release_day.to_string(),
            peak.to_string(),
        ];
        row.extend(daily.iter().map(|c| c.to_string()));
        table.row(row);
    }
    table.print();
    if peaks.len() >= 2 {
        let ratios: Vec<f64> = peaks
            .windows(2)
            .filter(|w| w[0] > 0)
            .map(|w| w[1] as f64 / w[0] as f64)
            .collect();
        println!(
            "\nrelease-day peak ratios between consecutive episodes: {:?} \
             (paper's example: 7000 vs 8700 ≈ 1.24)",
            ratios
                .iter()
                .map(|r| (r * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    save_results("fig04_series_episodes", &table);
}

/// Figs. 5 and 6 — the four-strategy comparison over the evaluation
/// weeks, MIP vs Random+LRU vs Random+LFU vs Top-K+LRU. Fig. 5: peak
/// link bandwidth (max over links, per 5-minute bucket); the paper's
/// headline is that the MIP serves everything with roughly half the
/// peak bandwidth of the caching schemes. Fig. 6: aggregate bandwidth
/// across all links (GB carried per 5-minute bucket) plus the total
/// size-weighted hop transfer; the MIP consistently moves fewer bytes.
pub fn fig05_06(ctx: &Ctx) {
    let s = ctx.scenario();
    let d = Defaults::for_scale(ctx.scale);
    let top_k = if s.catalog.len() >= 2000 { 100 } else { 20 };
    let outcomes = run_comparison(s, &d, top_k);
    let mut table = Table::new(
        "Fig. 5 — peak link bandwidth over the evaluation period",
        &[
            "strategy",
            "max (Mb/s)",
            "p99 bucket (Mb/s)",
            "median bucket (Mb/s)",
            "vs MIP",
        ],
    );
    let mip_max = outcomes[0].max_link_mbps;
    for o in &outcomes {
        let mut sorted = o.peak_series_mbps.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| sorted[vod_model::narrow::count_usize((sorted.len() - 1) as f64 * p)];
        table.row(vec![
            o.name.clone(),
            fmt(o.max_link_mbps),
            fmt(pct(0.99)),
            fmt(pct(0.5)),
            format!("{:.2}x", o.max_link_mbps / mip_max),
        ]);
    }
    table.print();
    println!(
        "\nMIP peak {} Mb/s vs worst baseline {} Mb/s (paper: 1364 vs 2938 Mb/s) — \
         the link-capacity input to the MIP was {} Mb/s; slight excess over it \
         comes from new-release estimation error absorbed by the 5 % LRU cache",
        fmt(mip_max),
        fmt(outcomes
            .iter()
            .skip(1)
            .map(|o| o.max_link_mbps)
            .fold(0.0, f64::max)),
        fmt(d.link_gbps * 1000.0)
    );
    save_results("fig05_peak_bandwidth", &outcomes);

    let mut table = Table::new(
        "Fig. 6 — aggregate transfer across all links",
        &[
            "strategy",
            "total GB-hop",
            "mean GB / 5 min",
            "peak GB / 5 min",
            "local %",
            "vs MIP",
        ],
    );
    let mip_total = outcomes[0].total_gb_hops;
    for o in &outcomes {
        let mean = o.transfer_series_gb.iter().sum::<f64>() / o.transfer_series_gb.len() as f64;
        let peak = o.transfer_series_gb.iter().cloned().fold(0.0, f64::max);
        table.row(vec![
            o.name.clone(),
            fmt(o.total_gb_hops),
            fmt(mean),
            fmt(peak),
            fmt(o.local_fraction * 100.0),
            format!("{:.2}x", o.total_gb_hops / mip_total),
        ]);
    }
    table.print();
    save_results("fig06_aggregate_transfer", &table);
}

/// Fig. 7 — disk usage by popularity class: how one MIP solution splits
/// each VHO's pinned storage between the top-100 videos, the next 20 %
/// ("medium popular") and the tail. The paper's point: medium-popular
/// videos, not the head, occupy the bulk of the disk.
pub fn fig07(ctx: &Ctx) {
    let (inst, placement) = ctx.week0();
    let ranked = inst.demand.aggregate.rank_videos();
    let split = placement.disk_usage_by_popularity(&inst.catalog, &ranked);
    let mut table = Table::new(
        "Fig. 7 — per-VHO pinned disk by popularity class (GB)",
        &["VHO", "top-100", "next 20 %", "tail", "total"],
    );
    let mut tot = [0.0f64; 3];
    for (i, classes) in split.iter().enumerate() {
        let t: f64 = classes.iter().map(|g| g.value()).sum();
        for (k, g) in classes.iter().enumerate() {
            tot[k] += g.value();
        }
        table.row(vec![
            format!("v{i}"),
            fmt(classes[0].value()),
            fmt(classes[1].value()),
            fmt(classes[2].value()),
            fmt(t),
        ]);
    }
    table.print();
    let total: f64 = tot.iter().sum();
    println!(
        "\nsystem-wide: top-100 {:.1} %, medium {:.1} %, tail {:.1} % of pinned disk \
         (paper: medium-popular videos occupy >30 %)",
        tot[0] / total * 100.0,
        tot[1] / total * 100.0,
        tot[2] / total * 100.0
    );
    save_results("fig07_disk_usage", &table);
}

/// Fig. 8 — number of copies of each video, ranked by demand: popular
/// videos get many (but not |V|) copies; over half the catalog has more
/// than one copy; the tail has exactly one.
pub fn fig08(ctx: &Ctx) {
    let (inst, placement) = ctx.week0();
    let ranked = inst.demand.aggregate.rank_videos();
    let counts = placement.copy_counts(&ranked);
    let mut table = Table::new(
        "Fig. 8 — copies per video by demand rank",
        &["rank", "copies"],
    );
    // Log-spaced ranks for a readable table; full series in the JSON.
    let mut r = 1usize;
    while r <= counts.len() {
        table.row(vec![r.to_string(), counts[r - 1].to_string()]);
        r = (r * 3).div_ceil(2);
    }
    table.print();
    let multi = counts.iter().filter(|&&c| c > 1).count();
    let v = placement.n_vhos();
    println!(
        "\n{} of {} videos have multiple copies; max copies {} (of {} VHOs); \
         10th most popular has {} (paper: <30 of 55 VHOs hold the 10th most popular)",
        multi,
        counts.len(),
        counts.iter().max().copied().unwrap_or(0),
        v,
        counts.get(9).copied().unwrap_or(0)
    );
    save_results("fig08_copy_counts", &counts);
}

/// Fig. 9 — behaviour of a pure LRU deployment (half of each disk is
/// cache): request breakdown into locally-pinned / cache hits / remote,
/// cache cycling (insertions and evictions), and the share of requests
/// that were *uncachable* because the cache was full of active streams.
pub fn fig09(ctx: &Ctx) {
    let s = ctx.scenario();
    let d = Defaults::for_scale(ctx.scale);
    let dep = Deployment::nearest(random_single_vho_configs(
        &s.catalog,
        &s.full_disks(&d),
        CacheKind::Lru,
        s.seed,
    ));
    let rep = &replay(s, &s.warmed_sim(), [(&s.scaled_net(&d), &s.trace, &dep)])[0];
    let mut table = Table::new(
        "Fig. 9 — LRU cache behaviour (aggregate disk = 2x library)",
        &["metric", "value"],
    );
    let total = rep.total_requests as f64;
    let pct = |n: u64| fmt(n as f64 / total * 100.0);
    let uncachable = rep.cache.rejections as f64 / rep.served_remote.max(1) as f64;
    for (metric, value) in [
        ("requests (measured)", rep.total_requests.to_string()),
        ("served from pinned copy %", pct(rep.served_local_pinned)),
        ("served from local cache %", pct(rep.served_local_cached)),
        ("served remotely %", pct(rep.served_remote)),
        ("cache insertions", rep.cache.insertions.to_string()),
        ("cache evictions (cycling)", rep.cache.evictions.to_string()),
        (
            "uncachable (all-pinned) requests",
            rep.cache.rejections.to_string(),
        ),
        ("uncachable % of remote fetches", fmt(uncachable * 100.0)),
    ] {
        table.row(vec![metric.into(), value]);
    }
    table.print();
    println!(
        "\npaper: ~60 % of requests served remotely, ~20 % uncachable, heavy cycling; \
         we observe {:.0} % remote and {:.0} % uncachable with eviction/insertion ratio {:.2}",
        rep.served_remote as f64 / total * 100.0,
        uncachable * 100.0,
        rep.cache.evictions as f64 / rep.cache.insertions.max(1) as f64
    );
    save_results("fig09_lru_behavior", &table);
}

/// Fig. 10 + Table II — MIP placement vs LRU caching with origin
/// servers: four region origins hold the full library (extra storage,
/// granted to the caching side), VHO disks are pure LRU caches of the
/// same total size the MIP uses. At 2x and 6x disk; the 2x placement is
/// the shared week-0 one.
pub fn fig10(ctx: &Ctx) {
    let s = ctx.scenario();
    let d = Defaults::for_scale(ctx.scale);
    let net = s.scaled_net(&d);
    // MIP placements solved on week-0 history, 5 % cache.
    let six = mip_disk(6.0, d.cache_frac);
    let placements = [
        (d.disk_ratio, ctx.week0().1.clone()),
        (6.0, s.place(&net, s.demand_of_week(0, &d), &six).1),
    ];
    let deployments = placements.map(|(ratio, placement)| {
        let disks = DiskConfig::UniformRatio { ratio }.capacities(&net, s.catalog.total_size());
        let mip = Deployment::mip(placement, &disks, d.cache_frac);
        let lru = origin_vho_configs(&s.catalog, &s.paths, &disks, 4, CacheKind::Lru);
        (ratio, [mip, Deployment::nearest(lru)])
    });
    let runs = deployments.iter().flat_map(|(_, deps)| deps);
    let reps = replay(s, &s.warmed_sim(), runs.map(|dep| (&net, &s.trace, dep)));
    let mut table = Table::new(
        "Table II — MIP vs LRU caching with origin servers",
        &[
            "disk",
            "scheme",
            "peak link (Mb/s)",
            "max aggregate (GB/5min)",
            "hit rate %",
        ],
    );
    let mut payload = Vec::new();
    for ((ratio, _), pair) in deployments.iter().zip(reps.chunks(2)) {
        let (mip, lru) = (&pair[0], &pair[1]);
        for (name, rep) in [("MIP", mip), ("LRU+origins", lru)] {
            table.row(vec![
                format!("{ratio}x"),
                name.into(),
                fmt(rep.max_link_mbps),
                fmt(rep.max_aggregate_gb()),
                fmt(rep.hit_rate() * 100.0),
            ]);
            payload.push((*ratio, name.to_string(), rep.max_link_mbps, rep.hit_rate()));
        }
        println!(
            "{ratio}x disk: LRU+origins peak / MIP peak = {:.2} (paper: ~3.5x)",
            lru.max_link_mbps / mip.max_link_mbps
        );
    }
    table.print();
    save_results("fig10_origin_comparison", &payload);
}

/// Fig. 11 — the disk/bandwidth feasibility region: minimum aggregate
/// disk (multiple of library size) that can serve all requests, vs
/// uniform link capacity, for uniform and population-tiered VHOs.
pub fn fig11(ctx: &Ctx) {
    let s = ctx.scenario();
    let demand = s.demand_of_week(0, &Defaults::for_scale(ctx.scale));
    let fs = feasibility(&s.net, &s.catalog, &demand);
    let cfg = s.probe_config();
    let n = s.net.num_nodes();
    let (n_large, n_medium) = (n * 12 / 55 + 1, n * 19 / 55 + 1);
    // Sweep capacities around the regime where links actually bind;
    // the interesting region scales with the scenario's request load.
    let caps_gbps: &[f64] = match s.scale {
        Scale::Quick => &[0.005, 0.01, 0.02, 0.05, 0.1],
        Scale::Default => &[0.02, 0.05, 0.1, 0.25, 0.5],
        Scale::Full => &[0.1, 0.25, 0.5, 1.0, 2.0],
    };
    let mut table = Table::new(
        "Fig. 11 — feasibility region: min aggregate disk (x library)",
        &[
            "link (Gb/s)",
            "uniform VHOs",
            "tiered VHOs",
            "library floor",
        ],
    );
    let mut payload = Vec::new();
    for &gbps in caps_gbps {
        let cap = Mbps::from_gbps(gbps);
        let min_ratio = |shape: &dyn Fn(f64) -> DiskConfig| {
            min_disk_ratio(&fs, cap, shape, 1.02, 12.0, 0.15, &cfg)
        };
        let uni = min_ratio(&|r| DiskConfig::UniformRatio { ratio: r });
        let tier = min_ratio(&|r| DiskConfig::Tiered {
            ratio: r,
            n_large,
            n_medium,
        });
        let f = |x: Option<f64>| x.map(|v| format!("{v:.2}")).unwrap_or("infeasible".into());
        table.row(vec![format!("{gbps}"), f(uni), f(tier), "1.00".into()]);
        payload.push((gbps, uni, tier));
    }
    table.print();
    println!(
        "\npaper's shape: at 0.5 Gb/s uniform needs ~5x vs tiered <3x; both \
         converge toward 1x (one copy of the library) as links grow"
    );
    save_results("fig11_feasibility_region", &payload);
}

/// Fig. 12 — importance of the complementary cache: peak and aggregate
/// bandwidth as the per-VHO LRU share sweeps 0 %..25 %. The big gain is
/// from 0 % to 5 %; beyond that, placement quality dominates.
///
/// The placements are solved serially (each share needs its own MIP),
/// then the five replays fan out together.
pub fn fig12(ctx: &Ctx) {
    let s = ctx.scenario();
    let d = Defaults::for_scale(ctx.scale);
    let net = s.scaled_net(&d);
    let full_disks = s.full_disks(&d);
    // Placement from week-0 history (with new-release estimation so the
    // cache's error-absorbing role is visible), replayed on week 1.
    let demand = s.estimate(EstimatorKind::History, &d, 7, 14);
    let future = s.week(1);
    let fracs = [0.0, 0.05, 0.10, 0.15, 0.25];
    let deployments = fracs.map(|frac| {
        let disk = mip_disk(d.disk_ratio, frac);
        let (_, placement) = s.place(&net, demand.clone(), &disk);
        Deployment::mip(placement, &full_disks, frac)
    });
    let runs = deployments.iter().map(|dep| (&net, &future, dep));
    let reps = replay(s, &s.warmed_sim(), runs);

    let mut table = Table::new(
        "Fig. 12 — complementary-cache share sweep",
        &["cache %", "peak link (Mb/s)", "total GB-hop", "local %"],
    );
    let mut payload = Vec::new();
    for (frac, rep) in fracs.iter().zip(&reps) {
        table.row(vec![
            format!("{:.0}", frac * 100.0),
            fmt(rep.max_link_mbps),
            fmt(rep.total_gb_hops),
            fmt(rep.local_fraction() * 100.0),
        ]);
        payload.push((*frac, rep.max_link_mbps, rep.total_gb_hops));
    }
    table.print();
    save_results("fig12_cache_sweep", &payload);
}

/// Fig. 13 — required link capacity vs library size on the
/// Rocketfuel-like Tiscali / Sprint / Ebone networks, with request
/// volume proportional to library size and 2x aggregate disk. The
/// paper's finding: capacity normalized by library size stays flat, and
/// Tiscali (more, smaller VHOs) needs the most.
pub fn fig13(ctx: &Ctx) {
    let sizes: Vec<usize> = match ctx.scale {
        Scale::Quick => vec![500, 1000],
        Scale::Default => vec![1000, 2000, 5000],
        Scale::Full => vec![5000, 10_000, 20_000, 50_000],
    };
    let nets = [
        ("Tiscali", topologies::tiscali()),
        ("Sprint", topologies::sprint()),
        ("Ebone", topologies::ebone()),
    ];
    let cfg = EpfConfig {
        max_passes: 100,
        seed: 13,
        ..Default::default()
    };
    let mut table = Table::new(
        "Fig. 13 — min link capacity (Mb/s per 1000 videos) vs library size",
        &["library", "Tiscali", "Sprint", "Ebone"],
    );
    let mut payload = Vec::new();
    for &n_videos in &sizes {
        let mut row = vec![n_videos.to_string()];
        for (name, net) in &nets {
            let inst = synthetic(n_videos, 2.5, net, 13);
            let cap = min_link_capacity(
                &feasibility(net, &inst.catalog, &inst.demand),
                &DiskConfig::UniformRatio { ratio: 2.0 },
                Mbps::new(0.2),
                Mbps::from_gbps(20.0),
                0.15,
                &cfg,
            );
            let norm = cap.map(|c| c.value() / (n_videos as f64 / 1000.0));
            row.push(
                norm.map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "infeasible".into()),
            );
            payload.push((n_videos, name.to_string(), norm));
        }
        table.row(row);
    }
    table.print();
    println!(
        "\npaper's shape: normalized capacity ~flat in library size; \
         Tiscali highest (most locations → least disk each)"
    );
    save_results("fig13_capacity_vs_library", &payload);
}

/// Table III — running time and memory: the EPF decomposition vs the
/// generic dense-simplex LP ("CPLEX" stand-in) as the library grows.
/// The generic solver's time explodes superlinearly and its dense
/// tableau exhausts memory at sizes the decomposition shrugs off.
pub fn table03(ctx: &Ctx) {
    let mut table = Table::new(
        "Table III — running time and memory vs library size",
        &[
            "library",
            "simplex time (s)",
            "simplex mem (MB)",
            "EPF time (s)",
            "EPF mem (MB)",
            "speedup",
        ],
    );
    // The generic simplex is only tractable on miniature libraries —
    // that is the point. Run it on a small net so it finishes at all.
    let small_net = topologies::mesh_backbone(6, 9, 3);
    let simplex_sizes: &[usize] = match ctx.scale {
        Scale::Quick => &[20, 40],
        _ => &[20, 40, 80, 160],
    };
    // EPF wall time (s) and memory estimate (MB) after `passes` passes.
    let epf = |inst: &MipInstance, passes: usize| {
        let cfg = EpfConfig {
            max_passes: passes,
            seed: 3,
            ..Default::default()
        };
        let t0 = Instant::now();
        let (_, stats) = solve_fractional(inst, &cfg);
        (t0.elapsed().as_secs_f64(), stats.approx_bytes as f64 / 1e6)
    };
    let mut payload = Vec::new();
    for &n in simplex_sizes {
        let inst = synthetic(n, 1.2, &small_net, 3);
        let direct = build_direct_lp(&inst);
        let mem_mb = direct.lp.tableau_bytes() as f64 / 1e6;
        let t0 = Instant::now();
        let res = vod_lp::solve_lp(&direct.lp);
        let simplex_t = t0.elapsed().as_secs_f64();
        assert!(res.is_ok(), "simplex failed on {n} videos");
        let (epf_t, epf_mb) = epf(&inst, 150);
        table.row(vec![
            format!("{n} (6-VHO net)"),
            fmt(simplex_t),
            fmt(mem_mb),
            fmt(epf_t),
            fmt(epf_mb),
            format!("{:.0}x", simplex_t / epf_t.max(1e-9)),
        ]);
        payload.push((n, simplex_t, mem_mb, epf_t, epf_mb));
    }
    // The decomposition alone, at scale, on the Rocketfuel nets
    // (geometric mean across the three networks, as in the paper).
    let epf_sizes: Vec<usize> = match ctx.scale {
        Scale::Quick => vec![1000, 2000],
        Scale::Default => vec![2000, 5000, 10_000, 20_000],
        Scale::Full => vec![5000, 20_000, 50_000, 100_000, 200_000],
    };
    let nets = [
        topologies::tiscali(),
        topologies::sprint(),
        topologies::ebone(),
    ];
    for &n in &epf_sizes {
        let (times, mems): (Vec<f64>, Vec<f64>) = nets
            .iter()
            .map(|net| epf(&synthetic(n, 1.2, net, 3), 60))
            .unzip();
        let geo = |xs: &[f64]| (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp();
        table.row(vec![
            format!("{n} (3 nets, geo-mean)"),
            "-".into(),
            "-".into(),
            fmt(geo(&times)),
            fmt(geo(&mems)),
            "-".into(),
        ]);
        payload.push((n, f64::NAN, f64::NAN, geo(&times), geo(&mems)));
    }
    table.print();
    println!(
        "\npaper's shape: simplex time superlinear with a dense-tableau memory \
         wall; EPF near-linear in library size (their 5K→20K: 894s→5420s CPLEX \
         vs 1.4s→2.6s EPF)"
    );
    save_results("table03_scalability", &payload);
}

/// Table IV — topology vs required link capacity: the backbone, a
/// spanning tree and a full mesh over the same VHOs, plus the
/// Rocketfuel-like maps (restricted to the top-n VHOs by request
/// volume), all at 3x aggregate disk. Fewer links ⇒ longer paths ⇒ more
/// capacity needed per link; the full mesh needs almost none.
pub fn table04(ctx: &Ctx) {
    let s = ctx.scenario();
    let d = Defaults::for_scale(ctx.scale);
    let demand_full = s.demand_of_week(0, &d);
    let disk = DiskConfig::UniformRatio { ratio: 3.0 };
    let cfg = s.probe_config();
    let mut table = Table::new(
        "Table IV — topology vs feasibility link capacity (3x disk)",
        &["topology", "nodes", "links", "min capacity (Gb/s)"],
    );
    // Same-node-set variants reuse the same demand.
    let (tree, mesh) = (
        topologies::spanning_tree_of(&s.net),
        topologies::full_mesh_of(&s.net),
    );
    let mut cases = vec![
        ("backbone", s.net.clone(), demand_full.clone()),
        ("tree", tree, demand_full.clone()),
        ("full mesh", mesh, demand_full),
    ];
    // Rocketfuel nets: keep the top-n VHOs by request count, re-derive
    // demand from the same trace restricted to those VHOs' requests.
    let week0 = s.week(0);
    let mut by_requests: Vec<(u64, VhoId)> = {
        let mut counts = vec![0u64; s.net.num_nodes()];
        for r in week0.requests() {
            counts[r.vho.index()] += 1;
        }
        counts.into_iter().zip(s.net.vho_ids()).collect()
    };
    by_requests.sort_by_key(|&(c, v)| (std::cmp::Reverse(c), v));
    for (name, net) in [
        ("Tiscali-like", topologies::tiscali()),
        ("Sprint-like", topologies::sprint()),
        ("Ebone-like", topologies::ebone()),
    ] {
        // Map the top-k busiest VHOs onto the first k nodes of this
        // network (k = min of the two sizes; any remaining Rocketfuel
        // nodes carry no demand but still contribute storage/links).
        let k = net.num_nodes().min(s.net.num_nodes());
        let keep: Vec<VhoId> = by_requests.iter().take(k).map(|&(_, v)| v).collect();
        let remap: std::collections::BTreeMap<VhoId, VhoId> =
            keep.iter().copied().zip(net.vho_ids()).collect();
        let reqs: Vec<Request> = week0
            .requests()
            .filter_map(|r| remap.get(&r.vho).map(|&nv| Request { vho: nv, ..r }))
            .collect();
        let sub_trace = Trace::new(week0.horizon(), reqs);
        let windows = vod_trace::analysis::select_peak_windows(
            &sub_trace,
            &s.catalog,
            d.window_secs,
            d.n_windows,
        );
        let demand = DemandInput::from_trace(&sub_trace, &s.catalog, net.num_nodes(), windows);
        cases.push((name, net, demand));
    }
    let mut payload = Vec::new();
    for (name, net, demand) in &cases {
        let cap = min_link_capacity(
            &feasibility(net, &s.catalog, demand),
            &disk,
            Mbps::new(0.5),
            Mbps::from_gbps(50.0),
            0.12,
            &cfg,
        );
        let val = cap.map(|c| c.gbps());
        table.row(vec![
            (*name).into(),
            net.num_nodes().to_string(),
            net.num_undirected_edges().to_string(),
            val.map(|v| format!("{v:.3}"))
                .unwrap_or("infeasible".into()),
        ]);
        payload.push((name.to_string(), net.num_nodes(), val));
    }
    table.print();
    println!(
        "\npaper's ordering: tree >> backbone >> full mesh (0.05 Gb/s); \
         Tiscali needs more than Sprint/Ebone"
    );
    save_results("table04_topology", &payload);
}

/// Table V — peak-window size vs bandwidth: solve the placement with
/// link constraints enforced on |T| = 2 windows of 1 s / 1 min / 1 h /
/// 1 day, then replay the week. Tiny windows under-constrain (load
/// outside the window exceeds the target); day-long windows
/// over-constrain (feasibility demands far more capacity than the
/// replay ever uses). One hour is the sweet spot.
///
/// Feasibility probes and solves run serially per window size (each
/// needs its own capacity search); the replays then fan out together.
pub fn table05(ctx: &Ctx) {
    let s = ctx.scenario();
    let d = Defaults::for_scale(ctx.scale);
    let week = s.week(0);
    let disks = s.full_disks(&d);
    let mut rows = Vec::new();
    for (secs, label) in [
        (1, "1 second"),
        (MINUTE, "1 minute"),
        (HOUR, "1 hour"),
        (DAY, "1 day"),
    ] {
        let windows =
            vod_trace::analysis::select_peak_windows(&week, &s.catalog, secs, d.n_windows);
        let demand = vod_trace::DemandInput::from_trace(
            &week,
            &s.catalog,
            s.net.num_nodes(),
            windows.clone(),
        );
        // Minimum capacity at which this window choice is feasible.
        let cap = min_link_capacity(
            &feasibility(&s.net, &s.catalog, &demand),
            &s.mip_disk(&d),
            Mbps::new(0.5),
            Mbps::from_gbps(40.0),
            0.12,
            &s.probe_config(),
        );
        // Solve at that capacity; the replay joins the batch below.
        let feasible = cap.map(|cap| {
            let mut net = s.net.clone();
            net.set_uniform_capacity(cap);
            let (_, placement) = s.place(&net, demand, &s.mip_disk(&d));
            (cap, windows, net, Deployment::mip(placement, &disks, 0.0))
        });
        rows.push((label, feasible));
    }
    let cfg = SimConfig {
        seed: s.seed,
        insert_on_miss: false,
        ..Default::default()
    };
    let feasible = rows.iter().filter_map(|(_, feasible)| feasible.as_ref());
    let runs = feasible.map(|(_, _, net, dep)| (net, &week, dep));
    let mut reps = replay(s, &cfg, runs).into_iter();

    let mut table = Table::new(
        "Table V — peak-window size vs bandwidth",
        &[
            "window",
            "feasibility capacity (Gb/s)",
            "max in-window (Gb/s)",
            "max whole week (Gb/s)",
        ],
    );
    let mut payload = Vec::new();
    for (label, feasible) in &rows {
        let Some((cap, windows, ..)) = feasible else {
            table.row(vec![
                (*label).into(),
                "infeasible".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        };
        let rep = reps.next().expect("one report per feasible row");
        // Max load inside the enforced windows vs over the whole week.
        let in_window = rep
            .peak_link_mbps
            .iter()
            .enumerate()
            .filter(|&(b, _)| {
                let t = b as u64 * rep.bucket_secs;
                windows
                    .iter()
                    .any(|w| w.overlaps(SimTime::new(t), SimTime::new(t + rep.bucket_secs)))
            })
            .map(|(_, &v)| v)
            .fold(0.0, f64::max);
        table.row(vec![
            (*label).into(),
            fmt(cap.gbps()),
            fmt(in_window / 1000.0),
            fmt(rep.max_link_mbps / 1000.0),
        ]);
        payload.push((
            (*label).to_string(),
            cap.gbps(),
            in_window / 1000.0,
            rep.max_link_mbps / 1000.0,
        ));
    }
    table.print();
    println!(
        "\npaper: 1 s/1 min windows let whole-week load overshoot the constraint; \
         1-day windows force 2x capacity that replay never uses; 1 h is balanced"
    );
    save_results("table05_window_size", &payload);
}

/// Table VI — placement-update frequency and estimation accuracy: max
/// bandwidth, total transfer and locally-served fraction when the MIP
/// placement is refreshed every two weeks / weekly / daily, and with
/// perfect / no estimation of new-release demand. No complementary
/// cache (as in the paper). Also reports the migration cost (copies
/// moved per update, Section VII-H).
pub fn table06(ctx: &Ctx) {
    let s = ctx.scenario();
    let d = Defaults::for_scale(ctx.scale);
    let cfg = SimConfig {
        seed: s.seed,
        insert_on_miss: false,
        ..Default::default()
    };
    let schedules = [
        (14, EstimatorKind::History, "once in 2 weeks"),
        (7, EstimatorKind::History, "weekly"),
        (1, EstimatorKind::History, "daily"),
        (7, EstimatorKind::Perfect, "perfect estimate (weekly)"),
        (7, EstimatorKind::NoEstimate, "no estimate (weekly)"),
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
    for (period_days, estimator, label) in schedules {
        // No complementary cache in this experiment (paper, Table VI).
        let periods = update_chain(s, &d, period_days, estimator, 0.0, &cfg);
        let o = outcome(label, periods.iter().map(|p| (0, usize::MAX, &p.report)));
        let max_gbps = o.max_link_mbps / 1000.0;
        let migrated: usize = periods.iter().map(|p| p.migrated).sum();
        table.row(vec![
            label.to_string(),
            fmt(max_gbps),
            fmt(o.total_gb_hops),
            fmt(o.local_fraction),
            migrated.to_string(),
        ]);
        payload.push((
            o.name,
            max_gbps,
            o.total_gb_hops,
            o.local_fraction,
            migrated,
        ));
    }
    table.print();
    println!(
        "\npaper's ordering: no-estimate >> 2-weekly > weekly ≥ daily > perfect \
         on max bandwidth; daily updates trim total transfer ~10 % vs weekly"
    );
    save_results("table06_update_frequency", &payload);
}

/// Section V-D — rounding quality vs library size: optimality gap
/// (certified, against the Lagrangian bound) and constraint violation
/// of the final integer solution, plus the rounding *degradation* over
/// the fractional solution. The paper reports the gap shrinking from
/// 4.1 % at 5 K videos to 1.0 % at 200 K, and violations under ~4 %.
pub fn rounding_quality(ctx: &Ctx) {
    let sizes: Vec<usize> = match ctx.scale {
        Scale::Quick => vec![300, 1000],
        Scale::Default => vec![1000, 3000, 10_000],
        Scale::Full => vec![5000, 20_000, 50_000],
    };
    let net = topologies::sprint();
    let mut table = Table::new(
        "Section V-D — rounding quality vs library size",
        &[
            "library",
            "videos re-solved",
            "certified gap %",
            "rounding degradation %",
            "violation %",
        ],
    );
    let mut payload = Vec::new();
    for &n in &sizes {
        let inst = synthetic(n, 1.5, &net, 17);
        let out = solve_placement(
            &inst,
            &EpfConfig {
                max_passes: 250,
                seed: 17,
                ..Default::default()
            },
        )
        .expect("instance is well-formed");
        let degradation =
            (out.rounding.objective - out.fractional.objective) / out.fractional.objective;
        table.row(vec![
            n.to_string(),
            out.rounding.videos_rounded.to_string(),
            fmt(out.rounding.optimality_gap.unwrap_or(f64::NAN) * 100.0),
            fmt(degradation * 100.0),
            fmt(out.rounding.max_violation * 100.0),
        ]);
        payload.push((
            n,
            out.rounding.videos_rounded,
            out.rounding.optimality_gap,
            degradation,
            out.rounding.max_violation,
        ));
    }
    table.print();
    println!(
        "\npaper: gap 4.1 % @5K → 1.0 % @200K; violation 4.4 % → 0.8 %. Our \
         certified gaps include Lagrangian-bound slack (see DESIGN.md §4); the \
         degradation column isolates what rounding itself costs."
    );
    save_results("rounding_quality", &payload);
}
