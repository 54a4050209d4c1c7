//! Tier-1 smoke of demand estimation on one generated trace: the
//! `History` estimator's new-release substitutions (a new series
//! episode inherits its predecessor's demand rows, a new blockbuster
//! the previous week's top movie's), and a week cut out of an already
//! restricted fortnight estimating bit for bit what the week cut from
//! the whole trace estimates, over three sliding weeks.
use vodplace::estimate::{previous_episode, top_movie};
use vodplace::model::time::DAY;
use vodplace::model::VideoKind;
use vodplace::net::topologies;
use vodplace::prelude::*;
use vodplace::trace::DemandMatrix;

const SEED: u64 = 31;
const DAYS: u64 = 28;

fn world() -> (Catalog, Trace, usize) {
    let net = topologies::mesh_backbone(5, 8, SEED);
    let catalog = synthesize_library(&LibraryConfig::default_for(300, DAYS, SEED));
    let trace = generate_trace(
        &catalog,
        &net,
        &TraceConfig::default_for(1500.0, DAYS, SEED),
    );
    (catalog, trace, net.num_nodes())
}

fn days(from: u64, to: u64) -> TimeWindow {
    TimeWindow::new(SimTime::new(from * DAY), SimTime::new(to * DAY))
}

/// One video's row of a demand matrix as `(vho, value bits)` pairs.
fn row_bits(m: &DemandMatrix, v: VideoId) -> Vec<(usize, u64)> {
    m.row(v)
        .iter()
        .map(|&(j, x)| (j.index(), x.to_bits()))
        .collect()
}

/// One video's rows: the aggregate's, then each active window's.
type Rows = Vec<Vec<(usize, u64)>>;

fn rows(d: &DemandInput, v: VideoId) -> Rows {
    std::iter::once(&d.aggregate)
        .chain(&d.active)
        .map(|m| row_bits(m, v))
        .collect()
}

/// Everything a demand input holds, as bits: its peak windows, then
/// every video's rows.
fn fingerprint(d: &DemandInput, catalog: &Catalog) -> (Vec<(u64, u64)>, Vec<Rows>) {
    let windows = d.windows.iter().map(|w| (w.start.secs(), w.end.secs()));
    let rows = catalog.ids().map(|v| rows(d, v)).collect();
    (windows.collect(), rows)
}

#[test]
fn history_substitutes_new_episodes_and_blockbusters() {
    let (catalog, trace, n_vhos) = world();
    let (day, period) = (14, 7);
    let history = trace.restricted(days(day - 7, day));
    let future = trace.restricted(days(day, day + period));
    let cfg = EstimateConfig::default();
    let estimate =
        |kind| estimate_demand(kind, &catalog, n_vhos, &history, &future, day, period, &cfg);
    // `NoEstimate` is the same history without the substitutions.
    let (subbed, plain) = (
        estimate(EstimatorKind::History),
        estimate(EstimatorKind::NoEstimate),
    );
    let top = top_movie(&catalog, &plain).expect("a movie was watched last week");
    let (mut episodes, mut blockbusters) = (0, 0);
    for v in catalog.iter() {
        if !(day..day + period).contains(&v.release_day) {
            assert_eq!(rows(&subbed, v.id), rows(&plain, v.id), "{} changed", v.id);
            continue;
        }
        let donor = match v.kind {
            VideoKind::SeriesEpisode { .. } => previous_episode(&catalog, v.id),
            VideoKind::Blockbuster => Some(top),
            _ => None,
        };
        let Some(donor) = donor else {
            assert_eq!(
                rows(&subbed, v.id),
                rows(&plain, v.id),
                "{} has no donor",
                v.id
            );
            continue;
        };
        assert!(
            plain.aggregate.video_total(donor) > 0.0,
            "donor {donor} unwatched"
        );
        assert_eq!(
            rows(&subbed, v.id),
            rows(&plain, donor),
            "{} must carry {donor}'s rows",
            v.id
        );
        match v.kind {
            VideoKind::Blockbuster => blockbusters += 1,
            _ => episodes += 1,
        }
    }
    assert!(episodes > 0, "no episode was substituted");
    assert!(blockbusters > 0, "no blockbuster was substituted");
}

#[test]
fn streaming_windows_estimate_what_restricted_windows_do() {
    let (catalog, trace, n_vhos) = world();
    let cfg = EstimateConfig::default();
    // Three weekly slides. Each week is also cut out of the fortnight
    // around it, a window that starts past the trace's first request.
    for day in [7, 14, 21] {
        let (h, f) = (days(day - 7, day), days(day, day + 7));
        let fortnight = trace.restricted(days(day - 7, day + 7));
        let nested = (fortnight.restricted(h), fortnight.restricted(f));
        let batch = (trace.restricted(h), trace.restricted(f));
        assert!(
            nested.0.requests().eq(batch.0.requests()),
            "history at day {day}"
        );
        assert!(
            nested.1.requests().eq(batch.1.requests()),
            "period at day {day}"
        );
        for kind in [
            EstimatorKind::History,
            EstimatorKind::Perfect,
            EstimatorKind::NoEstimate,
        ] {
            let [s, b] = [&nested, &batch]
                .map(|(h, f)| estimate_demand(kind, &catalog, n_vhos, h, f, day, 7, &cfg));
            assert!(s.aggregate.total() > 0.0, "{kind:?} at day {day} is empty");
            assert_eq!(
                fingerprint(&s, &catalog),
                fingerprint(&b, &catalog),
                "{kind:?} at day {day}"
            );
        }
    }
}
