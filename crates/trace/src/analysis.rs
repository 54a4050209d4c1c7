//! Trace analytics reproducing the paper's measurement figures.
//!
//! - Working-set sizes during peak hours (Fig. 2, Section IV-A),
//! - cosine similarity of request mixes across time windows (Fig. 3,
//!   Section IV-B),
//! - per-episode daily request counts for TV series (Fig. 4),
//! - peak-window selection for the MIP's time slices `T`
//!   (Section VI-B), and
//! - concurrency timelines used by several experiments.

use crate::trace::Trace;
use vod_model::narrow;
use vod_model::time::{DAY, HOUR};
use vod_model::{Catalog, Gigabytes, SimTime, TimeWindow, VhoId, VideoId, VideoKind};

/// Per-VHO working set measured over one window.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    pub vho: VhoId,
    /// Number of distinct videos requested in the window.
    pub distinct_videos: usize,
    /// Their total size on disk.
    pub size: Gigabytes,
}

/// The hour-long window with the most requests within day `day`.
pub fn peak_hour_of_day(trace: &Trace, day: u64) -> TimeWindow {
    let day_start = day * DAY;
    let mut best = (0u64, 0u64); // (count, hour)
    for h in 0..24 {
        let w = TimeWindow::of_len(SimTime::new(day_start + h * HOUR), HOUR);
        let c = trace.slice(w).len() as u64;
        if c > best.0 {
            best = (c, h);
        }
    }
    TimeWindow::of_len(SimTime::new(day_start + best.1 * HOUR), HOUR)
}

/// Fig. 2: per-VHO working set (distinct videos and their disk size)
/// during the given window — typically the peak hour of a Friday or
/// Saturday, the two busiest days.
pub fn working_sets(
    trace: &Trace,
    catalog: &Catalog,
    n_vhos: usize,
    window: TimeWindow,
) -> Vec<WorkingSet> {
    let mut seen: Vec<std::collections::BTreeSet<VideoId>> =
        vec![std::collections::BTreeSet::new(); n_vhos];
    for r in trace.slice(window) {
        seen[r.vho.index()].insert(r.video);
    }
    seen.into_iter()
        .enumerate()
        .map(|(j, set)| {
            let size = set.iter().map(|&m| catalog.video(m).size()).sum();
            #[expect(
                clippy::disallowed_methods,
                reason = "per-VHO working sets are accumulated in a dense vector"
            )]
            let vho = VhoId::from_index(j);
            WorkingSet {
                vho,
                distinct_videos: set.len(),
                size,
            }
        })
        .collect()
}

/// Cosine similarity between two sparse request-count vectors.
pub fn cosine<K: Ord>(
    a: &std::collections::BTreeMap<K, f64>,
    b: &std::collections::BTreeMap<K, f64>,
) -> f64 {
    let dot: f64 = a
        .iter()
        .filter_map(|(k, &va)| b.get(k).map(|&vb| va * vb))
        .sum();
    let na: f64 = a.values().map(|v| v * v).sum::<f64>().sqrt();
    let nb: f64 = b.values().map(|v| v * v).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Fig. 3: for the interval (of `window_secs`) containing the global
/// peak-demand instant, the per-VHO cosine similarity between that
/// interval's request vector and the previous interval's.
///
/// Returns one similarity per VHO. Smaller windows ⇒ noisier vectors ⇒
/// lower similarity, which is the paper's point about cache cycling.
pub fn peak_cosine_similarity(trace: &Trace, n_vhos: usize, window_secs: u64) -> Vec<f64> {
    assert!(window_secs > 0);
    // Global peak instant = busiest hour of the trace.
    let hourly = trace.bucket_counts(HOUR);
    let peak_hour = hourly
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, usize::MAX - i))
        .map(|(i, _)| i as u64)
        .unwrap_or(0);
    let peak_instant = peak_hour * HOUR + HOUR / 2;
    let idx = peak_instant / window_secs;
    if idx == 0 {
        return vec![0.0; n_vhos];
    }
    let cur = TimeWindow::of_len(SimTime::new(idx * window_secs), window_secs);
    let prev = TimeWindow::of_len(SimTime::new((idx - 1) * window_secs), window_secs);

    let mut cur_vecs: Vec<std::collections::BTreeMap<VideoId, f64>> =
        vec![Default::default(); n_vhos];
    let mut prev_vecs: Vec<std::collections::BTreeMap<VideoId, f64>> =
        vec![Default::default(); n_vhos];
    for r in trace.slice(cur) {
        *cur_vecs[r.vho.index()].entry(r.video).or_insert(0.0) += 1.0;
    }
    for r in trace.slice(prev) {
        *prev_vecs[r.vho.index()].entry(r.video).or_insert(0.0) += 1.0;
    }
    (0..n_vhos)
        .map(|j| cosine(&cur_vecs[j], &prev_vecs[j]))
        .collect()
}

/// Fig. 4: daily request counts per episode of a series, over the whole
/// trace. Returns `(episode number, per-day counts)` sorted by episode.
pub fn episode_daily_counts(trace: &Trace, catalog: &Catalog, series: u32) -> Vec<(u32, Vec<u64>)> {
    let days = narrow::usize_from(trace.horizon().secs().div_ceil(DAY));
    let mut per_episode: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for r in trace.requests() {
        if let VideoKind::SeriesEpisode { series: s, episode } = catalog.video(r.video).kind {
            if s == series {
                per_episode.entry(episode).or_insert_with(|| vec![0; days])
                    [narrow::usize_from(r.time.secs() / DAY)] += 1;
            }
        }
    }
    per_episode.into_iter().collect()
}

/// Section VI-B: select `k` peak-demand windows of `window_secs`
/// seconds over which to enforce the link constraints, requiring the
/// chosen windows to fall on distinct days (the paper uses e.g. the
/// Friday and Saturday peaks).
///
/// A window's load is the number of streams *active* during it
/// (arrivals whose `[start, start+duration)` overlaps the window).
pub fn select_peak_windows(
    trace: &Trace,
    catalog: &Catalog,
    window_secs: u64,
    k: usize,
) -> Vec<TimeWindow> {
    assert!(window_secs > 0 && k > 0);
    let n_buckets = narrow::usize_from(trace.horizon().secs().div_ceil(window_secs));
    let mut load = vec![0u64; n_buckets];
    for r in trace.requests() {
        let start = r.time.secs();
        let end = start + catalog.video(r.video).duration_secs();
        let first = narrow::usize_from(start / window_secs);
        let last = narrow::usize_from((end - 1) / window_secs).min(n_buckets - 1);
        for b in &mut load[first..=last] {
            *b += 1;
        }
    }
    let mut order: Vec<usize> = (0..n_buckets).collect();
    order.sort_by_key(|&b| std::cmp::Reverse((load[b], n_buckets - b)));
    let mut chosen: Vec<usize> = Vec::new();
    let mut used_days: std::collections::BTreeSet<u64> = Default::default();
    for b in order {
        let day = (b as u64 * window_secs) / DAY;
        if used_days.insert(day) {
            chosen.push(b);
            if chosen.len() == k {
                break;
            }
        }
    }
    chosen.sort();
    chosen
        .into_iter()
        .map(|b| {
            let s = b as u64 * window_secs;
            TimeWindow::new(
                SimTime::new(s),
                SimTime::new((s + window_secs).min(trace.horizon().secs())),
            )
        })
        .collect()
}

/// Total concurrent streams sampled every `sample_secs` (exact sweep
/// over start/end events). Used by experiments that report bandwidth
/// or load over time.
pub fn concurrency_timeline(trace: &Trace, catalog: &Catalog, sample_secs: u64) -> Vec<u64> {
    assert!(sample_secs > 0);
    let horizon = trace.horizon().secs();
    let n_samples = narrow::usize_from(horizon / sample_secs) + 1;
    let mut events: Vec<(u64, i64)> = Vec::with_capacity(trace.len() * 2);
    for r in trace.requests() {
        let s = r.time.secs();
        events.push((s, 1));
        events.push((s + catalog.video(r.video).duration_secs(), -1));
    }
    events.sort_unstable();
    let mut out = Vec::with_capacity(n_samples);
    let mut active: i64 = 0;
    let mut e = 0;
    for i in 0..n_samples {
        let t = i as u64 * sample_secs;
        while e < events.len() && events[e].0 <= t {
            active += events[e].1;
            e += 1;
        }
        out.push(active as u64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_trace, TraceConfig};
    use crate::synth::{synthesize_library, LibraryConfig};
    use crate::trace::Request;
    use vod_model::{VhoId, VideoId};
    use vod_net::topologies;

    fn world() -> (Catalog, Trace, usize) {
        let catalog = synthesize_library(&LibraryConfig::default_for(400, 14, 3));
        let net = topologies::mesh_backbone(6, 9, 3);
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(4000.0, 14, 3));
        (catalog, trace, net.num_nodes())
    }

    fn single_video_catalog() -> Catalog {
        use vod_model::{Video, VideoClass};
        Catalog::new(vec![Video {
            id: VideoId::new(0),
            class: VideoClass::Show, // 1 h
            kind: VideoKind::Catalog,
            release_day: 0,
            weight: 1.0,
        }])
    }

    #[test]
    fn working_sets_count_distinct() {
        let catalog = single_video_catalog();
        let reqs = vec![
            Request {
                time: SimTime::new(10),
                vho: VhoId::new(0),
                video: VideoId::new(0),
            },
            Request {
                time: SimTime::new(20),
                vho: VhoId::new(0),
                video: VideoId::new(0),
            },
            Request {
                time: SimTime::new(30),
                vho: VhoId::new(1),
                video: VideoId::new(0),
            },
        ];
        let trace = Trace::new(SimTime::new(1000), reqs);
        let ws = working_sets(&trace, &catalog, 2, TimeWindow::of_len(SimTime::ZERO, 100));
        assert_eq!(ws[0].distinct_videos, 1);
        assert_eq!(ws[0].size, Gigabytes::new(1.0));
        assert_eq!(ws[1].distinct_videos, 1);
    }

    #[test]
    fn peak_hour_finds_busiest() {
        let (_, trace, _) = world();
        let w = peak_hour_of_day(&trace, 4); // first Friday
        assert_eq!(w.len_secs(), HOUR);
        assert_eq!(w.start.day(), 4);
        // Peak should be in the evening.
        assert!((17..=23).contains(&w.start.hour_of_day()));
    }

    #[test]
    fn cosine_identity_and_orthogonality() {
        let mut a = std::collections::BTreeMap::new();
        a.insert(1u32, 2.0);
        a.insert(2, 1.0);
        assert!((cosine(&a, &a) - 1.0).abs() < 1e-12);
        let mut b = std::collections::BTreeMap::new();
        b.insert(3u32, 5.0);
        assert_eq!(cosine(&a, &b), 0.0);
        assert_eq!(cosine(&a, &Default::default()), 0.0);
    }

    #[test]
    fn similarity_grows_with_window_size() {
        let (_, trace, n) = world();
        let avg = |xs: Vec<f64>| xs.iter().sum::<f64>() / xs.len() as f64;
        let small = avg(peak_cosine_similarity(&trace, n, HOUR));
        let large = avg(peak_cosine_similarity(&trace, n, DAY));
        assert!(
            large > small,
            "1-day similarity {large} should exceed 1-hour {small}"
        );
        assert!(large > 0.5, "daily mixes should be fairly similar: {large}");
    }

    #[test]
    fn episode_counts_shape() {
        let (catalog, trace, _) = world();
        let eps = episode_daily_counts(&trace, &catalog, 0);
        assert!(!eps.is_empty());
        for (ep, daily) in &eps {
            assert_eq!(daily.len(), 14);
            let video = catalog
                .iter()
                .find(|v| {
                    v.kind
                        == VideoKind::SeriesEpisode {
                            series: 0,
                            episode: *ep,
                        }
                })
                .unwrap();
            // No requests before release.
            for &c in daily.iter().take(narrow::usize_from(video.release_day)) {
                assert_eq!(c, 0);
            }
        }
        // Release-day demand of consecutive episodes is similar
        // (within a factor 3 — Fig. 4 shows e.g. 7000 vs 8700).
        if eps.len() >= 2 {
            let peak: Vec<u64> = eps
                .iter()
                .map(|(_, d)| d.iter().copied().max().unwrap())
                .collect();
            for pair in peak.windows(2) {
                if pair[0] > 0 && pair[1] > 0 {
                    let ratio = pair[1] as f64 / pair[0] as f64;
                    assert!(ratio > 1.0 / 3.0 && ratio < 3.0, "ratio {ratio}");
                }
            }
        }
    }

    #[test]
    fn peak_windows_distinct_days_and_loaded() {
        let (catalog, trace, _) = world();
        let ws = select_peak_windows(&trace, &catalog, HOUR, 2);
        assert_eq!(ws.len(), 2);
        assert_ne!(ws[0].start.day(), ws[1].start.day());
        // Peak windows should be on the busy weekend days and in the
        // evening.
        for w in &ws {
            assert!((16..=23).contains(&w.start.hour_of_day()), "window {w}");
        }
    }

    #[test]
    fn concurrency_timeline_counts_active_streams() {
        let catalog = single_video_catalog(); // 1-hour videos
        let reqs = vec![
            Request {
                time: SimTime::new(0),
                vho: VhoId::new(0),
                video: VideoId::new(0),
            },
            Request {
                time: SimTime::new(1800),
                vho: VhoId::new(0),
                video: VideoId::new(0),
            },
        ];
        let trace = Trace::new(SimTime::new(3 * HOUR), reqs);
        let tl = concurrency_timeline(&trace, &catalog, 1800);
        // t=0: 1 active; t=1800: 2; t=3600: first ended → 1; t=5400: 0.
        assert_eq!(tl[0], 1);
        assert_eq!(tl[1], 2);
        assert_eq!(tl[2], 1);
        assert_eq!(tl[3], 0);
    }

    #[test]
    fn empty_trace_analytics() {
        let catalog = single_video_catalog();
        let trace = Trace::new(SimTime::new(DAY), vec![]);
        assert_eq!(
            working_sets(&trace, &catalog, 2, TimeWindow::of_len(SimTime::ZERO, HOUR))[0]
                .distinct_videos,
            0
        );
        assert_eq!(peak_cosine_similarity(&trace, 2, HOUR), vec![0.0, 0.0]);
        let tl = concurrency_timeline(&trace, &catalog, HOUR);
        assert!(tl.iter().all(|&x| x == 0));
    }
}
