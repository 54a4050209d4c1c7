//! Demand estimation for placement updates (Section VI-A).
//!
//! The MIP needs each video's upcoming demand `a_j^m` and peak-window
//! stream counts `f_j^m(t)` as inputs, which are not known a priori.
//! This crate implements the paper's strategies:
//!
//! - **History**: the previous window's (e.g. 7-day) request history is
//!   used verbatim for existing videos. For *new* videos it applies the
//!   paper's two substitution rules: a new TV-series episode inherits
//!   the previous week's episode of the same series (Fig. 4 shows their
//!   demand is similar), and a new blockbuster inherits the most
//!   popular movie of the previous week. Remaining new releases get no
//!   estimate — the complementary LRU cache absorbs them.
//! - **Perfect**: oracle knowledge of the upcoming window (the "perfect
//!   estimate" row of Table VI).
//! - **NoEstimate**: history only, nothing for new videos (the "no
//!   estimate" row of Table VI).

#![cfg_attr(
    test,
    expect(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::disallowed_methods,
        reason = "test code unwraps its own fixtures, pins exact float bits and builds raw VhoIds"
    )
)]

use vod_model::{Catalog, VideoId, VideoKind};
use vod_trace::{analysis, DemandInput, Trace};

/// Which estimation strategy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    History,
    Perfect,
    NoEstimate,
}

/// Peak-window extraction parameters (Section VI-B: |T| windows of
/// `window_secs`, 1 hour / 2 windows by default).
#[derive(Debug, Clone, Copy)]
pub struct EstimateConfig {
    pub window_secs: u64,
    pub n_windows: usize,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        Self {
            window_secs: 3600,
            n_windows: 2,
        }
    }
}

/// Estimate the demand input for the placement period starting at day
/// `period_start_day` (inclusive) and ending `period_days` later.
///
/// `history` is the already-observed trace ending at the period start;
/// `future` is consulted only by [`EstimatorKind::Perfect`] (it is the
/// ground-truth trace of the upcoming period).
// The argument list mirrors the paper's estimator inputs one-to-one;
// bundling them into a struct would just rename the problem.
#[expect(
    clippy::too_many_arguments,
    reason = "the paper's estimator inputs, one argument each"
)]
pub fn estimate_demand(
    kind: EstimatorKind,
    catalog: &Catalog,
    n_vhos: usize,
    history: &Trace,
    future: &Trace,
    period_start_day: u64,
    period_days: u64,
    cfg: &EstimateConfig,
) -> DemandInput {
    match kind {
        EstimatorKind::Perfect => {
            let windows =
                analysis::select_peak_windows(future, catalog, cfg.window_secs, cfg.n_windows);
            DemandInput::from_trace(future, catalog, n_vhos, windows)
        }
        EstimatorKind::History | EstimatorKind::NoEstimate => {
            let windows =
                analysis::select_peak_windows(history, catalog, cfg.window_secs, cfg.n_windows);
            let mut demand = DemandInput::from_trace(history, catalog, n_vhos, windows);
            if kind == EstimatorKind::History {
                substitute_new_release_demand(catalog, &mut demand, period_start_day, period_days);
            }
            demand
        }
    }
}

/// The previous episode of a series episode, if present in the catalog.
pub fn previous_episode(catalog: &Catalog, m: VideoId) -> Option<VideoId> {
    let v = catalog.video(m);
    let VideoKind::SeriesEpisode { series, episode } = v.kind else {
        return None;
    };
    if episode <= 1 {
        return None;
    }
    catalog
        .iter()
        .find(|w| {
            w.kind
                == VideoKind::SeriesEpisode {
                    series,
                    episode: episode - 1,
                }
        })
        .map(|w| w.id)
}

/// The most-requested movie (2-hour class) in the demand matrix — the
/// donor for blockbuster estimates.
pub fn top_movie(catalog: &Catalog, demand: &DemandInput) -> Option<VideoId> {
    catalog
        .iter()
        .filter(|v| v.class == vod_model::VideoClass::Movie)
        .map(|v| (demand.aggregate.video_total(v.id), v.id))
        .filter(|&(total, _)| total > 0.0)
        .max_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)))
        .map(|(_, id)| id)
}

/// Apply the paper's new-release substitutions in place: for every
/// video released inside the upcoming period, copy the demand rows of
/// its donor (previous episode, or previous week's top movie for
/// blockbusters). `OtherNew` releases keep zero demand.
fn substitute_new_release_demand(
    catalog: &Catalog,
    demand: &mut DemandInput,
    period_start_day: u64,
    period_days: u64,
) {
    let donor_movie = top_movie(catalog, demand);
    // Collect substitutions first (borrow rules: the donor rows live in
    // the same matrices being patched).
    let mut subs: Vec<(VideoId, VideoId)> = Vec::new();
    for v in catalog.iter() {
        if v.release_day < period_start_day || v.release_day >= period_start_day + period_days {
            continue;
        }
        let donor = match v.kind {
            VideoKind::SeriesEpisode { .. } => previous_episode(catalog, v.id),
            VideoKind::Blockbuster => donor_movie,
            _ => None,
        };
        if let Some(d) = donor {
            if d != v.id {
                subs.push((v.id, d));
            }
        }
    }
    for (target, donor) in subs {
        let row = demand.aggregate.row(donor).to_vec();
        set_row(&mut demand.aggregate, target, row);
        for t in 0..demand.active.len() {
            let row = demand.active[t].row(donor).to_vec();
            set_row(&mut demand.active[t], target, row);
        }
    }
}

/// Replace one row of a demand matrix.
fn set_row(
    matrix: &mut vod_trace::DemandMatrix,
    target: VideoId,
    row: Vec<(vod_model::VhoId, f64)>,
) {
    matrix.set_row(target, row);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{SimTime, VhoId};
    use vod_net::topologies;
    use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

    fn world() -> (Catalog, Trace, usize) {
        let net = topologies::mesh_backbone(5, 8, 17);
        let catalog = synthesize_library(&LibraryConfig::default_for(300, 21, 17));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(2500.0, 21, 17));
        (catalog, trace, net.num_nodes())
    }

    fn split(trace: &Trace, day: u64) -> (Trace, Trace) {
        use vod_model::time::DAY;
        use vod_model::TimeWindow;
        let hist = trace.restricted(TimeWindow::new(SimTime::ZERO, SimTime::new(day * DAY)));
        let fut = trace.restricted(TimeWindow::new(SimTime::new(day * DAY), trace.horizon()));
        (hist, fut)
    }

    #[test]
    fn previous_episode_lookup() {
        let (catalog, _, _) = world();
        let ep2 = catalog
            .iter()
            .find(|v| {
                v.kind
                    == VideoKind::SeriesEpisode {
                        series: 0,
                        episode: 2,
                    }
            })
            .unwrap();
        let ep1 = catalog
            .iter()
            .find(|v| {
                v.kind
                    == VideoKind::SeriesEpisode {
                        series: 0,
                        episode: 1,
                    }
            })
            .unwrap();
        assert_eq!(previous_episode(&catalog, ep2.id), Some(ep1.id));
        assert_eq!(previous_episode(&catalog, ep1.id), None);
        let movie = catalog
            .iter()
            .find(|v| v.kind == VideoKind::Catalog)
            .unwrap();
        assert_eq!(previous_episode(&catalog, movie.id), None);
    }

    #[test]
    fn history_substitutes_series_demand() {
        let (catalog, trace, n_vhos) = world();
        let (hist, fut) = split(&trace, 14);
        let d = estimate_demand(
            EstimatorKind::History,
            &catalog,
            n_vhos,
            &hist,
            &fut,
            14,
            7,
            &EstimateConfig::default(),
        );
        // An episode released in week 3 must carry its predecessor's
        // (nonzero) history demand.
        let ep3 = catalog
            .iter()
            .find(|v| {
                matches!(v.kind, VideoKind::SeriesEpisode { episode: 3, .. }) && v.release_day >= 14
            })
            .expect("week-3 episode exists");
        let prev = previous_episode(&catalog, ep3.id).unwrap();
        assert!(d.aggregate.video_total(prev) > 0.0);
        assert_eq!(
            d.aggregate.video_total(ep3.id),
            d.aggregate.video_total(prev)
        );
    }

    #[test]
    fn no_estimate_leaves_new_videos_empty() {
        let (catalog, trace, n_vhos) = world();
        let (hist, fut) = split(&trace, 14);
        let d = estimate_demand(
            EstimatorKind::NoEstimate,
            &catalog,
            n_vhos,
            &hist,
            &fut,
            14,
            7,
            &EstimateConfig::default(),
        );
        for v in catalog.iter() {
            if v.release_day >= 14 {
                assert_eq!(
                    d.aggregate.video_total(v.id),
                    0.0,
                    "video {} released day {} should have no estimate",
                    v.id,
                    v.release_day
                );
            }
        }
    }

    #[test]
    fn perfect_matches_future() {
        let (catalog, trace, n_vhos) = world();
        let (hist, fut) = split(&trace, 14);
        let d = estimate_demand(
            EstimatorKind::Perfect,
            &catalog,
            n_vhos,
            &hist,
            &fut,
            14,
            7,
            &EstimateConfig::default(),
        );
        assert_eq!(d.aggregate.total(), fut.len() as f64);
    }

    #[test]
    fn history_estimate_correlates_with_reality() {
        // The headline claim of Section VII-H: the simple strategy is
        // close to perfect knowledge. Check rank correlation of
        // per-video totals between estimate and truth.
        let (catalog, trace, n_vhos) = world();
        let (hist, fut) = split(&trace, 14);
        let cfgd = EstimateConfig::default();
        let est = estimate_demand(
            EstimatorKind::History,
            &catalog,
            n_vhos,
            &hist,
            &fut,
            14,
            7,
            &cfgd,
        );
        let truth = estimate_demand(
            EstimatorKind::Perfect,
            &catalog,
            n_vhos,
            &hist,
            &fut,
            14,
            7,
            &cfgd,
        );
        // Pearson correlation over videos with any demand in either.
        let pairs: Vec<(f64, f64)> = catalog
            .ids()
            .map(|m| (est.aggregate.video_total(m), truth.aggregate.video_total(m)))
            .filter(|&(a, b)| a > 0.0 || b > 0.0)
            .collect();
        let n = pairs.len() as f64;
        let (ma, mb) = (
            pairs.iter().map(|p| p.0).sum::<f64>() / n,
            pairs.iter().map(|p| p.1).sum::<f64>() / n,
        );
        let cov: f64 = pairs.iter().map(|p| (p.0 - ma) * (p.1 - mb)).sum();
        let va: f64 = pairs.iter().map(|p| (p.0 - ma).powi(2)).sum();
        let vb: f64 = pairs.iter().map(|p| (p.1 - mb).powi(2)).sum();
        let corr = cov / (va.sqrt() * vb.sqrt());
        assert!(corr > 0.7, "estimate poorly correlated with truth: {corr}");
    }

    #[test]
    fn top_movie_is_a_movie() {
        let (catalog, trace, n_vhos) = world();
        let (hist, _) = split(&trace, 14);
        let d = DemandInput::from_trace(&hist, &catalog, n_vhos, vec![]);
        let m = top_movie(&catalog, &d).expect("some movie requested");
        assert_eq!(catalog.video(m).class, vod_model::VideoClass::Movie);
    }

    #[test]
    fn set_row_roundtrip() {
        let mut m = vod_trace::DemandMatrix::zeros(2, 3);
        set_row(&mut m, VideoId::new(1), vec![(VhoId::new(2), 5.0)]);
        assert_eq!(m.get(VideoId::new(1), VhoId::new(2)), 5.0);
        assert_eq!(m.video_total(VideoId::new(0)), 0.0);
    }
}
