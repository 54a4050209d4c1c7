//! Demand aggregation: the MIP's demand inputs `a_j^m` and `f_j^m(t)`.
//!
//! Table I: `a_j^m` is the aggregate number of requests for video `m`
//! at VHO `j` over the modeling period (drives the objective), and
//! `f_j^m(t)` is the number of streams of `m` at `j` *active* during
//! time slice `t` — including streams that started before `t` — which
//! drives the link-bandwidth constraints (6).
//!
//! Both are produced either by exact aggregation over a request trace
//! ([`DemandInput::from_trace`]) or directly by the synthetic demand
//! sampler ([`synthetic_demand`]) used for the large-scale scalability
//! experiments (Table III, Fig. 13), which skips materializing billions
//! of request events.

use crate::generator::{age_factor, vho_perturbation, TraceConfig, DOW_FACTORS, HOD_FACTORS};
use crate::stats::{cumulative, poisson, sample_cumulative};
use crate::trace::Trace;
use rand::Rng;
use vod_model::narrow;
use vod_model::rng::derive_rng;
use vod_model::time::{DAY, HOUR};
use vod_model::{Catalog, SimTime, TimeWindow, VhoId, VideoId};
use vod_net::Network;

/// Sparse per-(video, VHO) nonnegative demand counts.
///
/// Row `m` lists `(j, count)` pairs sorted by VHO id; VHOs with zero
/// demand for `m` are omitted.
#[derive(Debug, Clone)]
pub struct DemandMatrix {
    n_vhos: usize,
    rows: Vec<Vec<(VhoId, f64)>>,
}

impl DemandMatrix {
    /// Build from dense per-video accumulation buffers.
    pub fn from_rows(n_vhos: usize, rows: Vec<Vec<(VhoId, f64)>>) -> Self {
        for row in &rows {
            debug_assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "rows must be sorted"
            );
            debug_assert!(row.iter().all(|&(j, c)| j.index() < n_vhos && c > 0.0));
        }
        Self { n_vhos, rows }
    }

    pub fn zeros(n_videos: usize, n_vhos: usize) -> Self {
        Self {
            n_vhos,
            rows: vec![Vec::new(); n_videos],
        }
    }

    #[inline]
    pub fn n_videos(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn n_vhos(&self) -> usize {
        self.n_vhos
    }

    /// Sparse demand row for video `m`.
    #[inline]
    pub fn row(&self, m: VideoId) -> &[(VhoId, f64)] {
        &self.rows[m.index()]
    }

    /// Demand at a specific (video, VHO) cell.
    pub fn get(&self, m: VideoId, j: VhoId) -> f64 {
        self.rows[m.index()]
            .binary_search_by_key(&j, |&(v, _)| v)
            .map(|k| self.rows[m.index()][k].1)
            .unwrap_or(0.0)
    }

    /// Total demand for video `m` across all VHOs.
    pub fn video_total(&self, m: VideoId) -> f64 {
        self.rows[m.index()].iter().map(|&(_, c)| c).sum()
    }

    /// Total demand over the whole matrix.
    pub fn total(&self) -> f64 {
        self.rows
            .iter()
            .map(|r| r.iter().map(|&(_, c)| c).sum::<f64>())
            .sum()
    }

    /// Replace one video's demand row (entries must be sorted by VHO
    /// with positive counts). Used by the demand estimators to graft a
    /// donor video's history onto a new release (Section VI-A).
    pub fn set_row(&mut self, m: VideoId, row: Vec<(VhoId, f64)>) {
        debug_assert!(row.windows(2).all(|w| w[0].0 < w[1].0));
        debug_assert!(row.iter().all(|&(j, c)| j.index() < self.n_vhos && c > 0.0));
        self.rows[m.index()] = row;
    }

    /// Videos ranked by total demand, most-requested first
    /// (deterministic tie-break by id). Used for Top-K placement and
    /// the copy-count analysis of Fig. 8.
    pub fn rank_videos(&self) -> Vec<VideoId> {
        let mut ids: Vec<(f64, VideoId)> = (0..self.rows.len())
            .map(|i| {
                let m = VideoId::from_index(i);
                (self.video_total(m), m)
            })
            .collect();
        ids.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        ids.into_iter().map(|(_, m)| m).collect()
    }
}

/// The complete demand-side input of one MIP instance: aggregate
/// demands, the enforced time slices, and the per-slice active-stream
/// profiles.
#[derive(Debug, Clone)]
pub struct DemandInput {
    /// `a_j^m` — aggregate requests over the modeling period.
    pub aggregate: DemandMatrix,
    /// The time slices `T` at which constraint (6) is enforced.
    pub windows: Vec<TimeWindow>,
    /// `f_j^m(t)` — one matrix per window, aligned with `windows`.
    pub active: Vec<DemandMatrix>,
}

impl DemandInput {
    /// Exact aggregation over a trace: `a_j^m` counts all requests in
    /// the trace; `f_j^m(t)` counts requests whose active interval
    /// `[time, time + duration)` overlaps window `t`.
    pub fn from_trace(
        trace: &Trace,
        catalog: &Catalog,
        n_vhos: usize,
        windows: Vec<TimeWindow>,
    ) -> Self {
        let n_videos = catalog.len();
        let mut agg = vec![std::collections::BTreeMap::<VhoId, f64>::new(); n_videos];
        let mut act =
            vec![vec![std::collections::BTreeMap::<VhoId, f64>::new(); n_videos]; windows.len()];
        for r in trace.requests() {
            *agg[r.video.index()].entry(r.vho).or_insert(0.0) += 1.0;
            let dur = catalog.video(r.video).duration_secs();
            let end = r.time + dur;
            for (t, w) in windows.iter().enumerate() {
                if w.overlaps(r.time, end) {
                    *act[t][r.video.index()].entry(r.vho).or_insert(0.0) += 1.0;
                }
            }
        }
        let to_matrix = |maps: Vec<std::collections::BTreeMap<VhoId, f64>>| {
            DemandMatrix::from_rows(
                n_vhos,
                maps.into_iter().map(|m| m.into_iter().collect()).collect(),
            )
        };
        Self {
            aggregate: to_matrix(agg),
            windows,
            active: act.into_iter().map(to_matrix).collect(),
        }
    }

    #[inline]
    pub fn n_videos(&self) -> usize {
        self.aggregate.n_videos()
    }

    #[inline]
    pub fn n_vhos(&self) -> usize {
        self.aggregate.n_vhos()
    }
}

/// Directly sample a demand input without materializing a trace.
///
/// Used for the scalability study (Table III, Fig. 13): per-video
/// request totals are Poisson with the same expectations the trace
/// generator uses, spread over VHOs by population × taste perturbation;
/// active-stream profiles for the two synthetic peak windows (Friday
/// and Saturday evening) are binomial thinnings of the aggregate with
/// the window's expected share of weekly activity, inflated by
/// `1 + duration/window` to account for streams that start before the
/// window (exactly the over-counting the paper discusses in Table V).
pub fn synthetic_demand(catalog: &Catalog, net: &Network, cfg: &TraceConfig) -> DemandInput {
    let n_vhos = net.num_nodes();
    let lambdas = crate::generator::expected_requests(catalog, cfg);
    let pops: Vec<f64> = net.nodes().iter().map(|n| n.population).collect();
    let hod_total: f64 = HOD_FACTORS.iter().sum();

    // Two peak windows: Friday (day 4) and Saturday (day 5) 20:00–21:00
    // of the first full week.
    let windows = vec![
        TimeWindow::of_len(SimTime::new(4 * DAY + 20 * HOUR), HOUR),
        TimeWindow::of_len(SimTime::new(5 * DAY + 20 * HOUR), HOUR),
    ];

    let mut rng = derive_rng(cfg.seed, 0x5D3_A4D);
    let mut agg_rows: Vec<Vec<(VhoId, f64)>> = Vec::with_capacity(catalog.len());
    let mut act_rows: Vec<Vec<Vec<(VhoId, f64)>>> =
        (0..2).map(|_| Vec::with_capacity(catalog.len())).collect();

    for (v, &lambda) in catalog.iter().zip(&lambdas) {
        let n = poisson(&mut rng, lambda);
        if n == 0 {
            agg_rows.push(Vec::new());
            act_rows[0].push(Vec::new());
            act_rows[1].push(Vec::new());
            continue;
        }
        // Spread across VHOs.
        let weights: Vec<f64> = pops
            .iter()
            .enumerate()
            .map(|(j, &p)| p * vho_perturbation(cfg.seed, v.id, narrow::u16_from(j), cfg.vho_sigma))
            .collect();
        let cum = cumulative(&weights);
        let mut counts = vec![0u32; n_vhos];
        for _ in 0..n {
            counts[sample_cumulative(&mut rng, &cum)] += 1;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "recovers the id from a dense 0..n_vhos vector index"
        )]
        let row: Vec<(VhoId, f64)> = counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(j, &c)| (VhoId::from_index(j), c as f64))
            .collect();

        // Expected share of this video's requests that *overlap* each
        // window: day share × hour share × (1 + duration/window).
        let day_weights: Vec<f64> = (0..cfg.horizon_days)
            .map(|d| DOW_FACTORS[(d % 7) as usize] * age_factor(v, d, cfg.new_release_decay))
            .collect();
        let day_total: f64 = day_weights.iter().sum();
        let dur = v.duration_secs() as f64;
        for (t, w) in windows.iter().enumerate() {
            let day = w.start.day();
            let share = if day_total > 0.0 && narrow::usize_from(day) < day_weights.len() {
                (day_weights[narrow::usize_from(day)] / day_total)
                    * (HOD_FACTORS[20] / hod_total)
                    * (1.0 + dur / w.len_secs() as f64)
            } else {
                0.0
            }
            .min(1.0);
            // Binomial thinning of each VHO's aggregate count.
            let thinned: Vec<(VhoId, f64)> = row
                .iter()
                .filter_map(|&(j, c)| {
                    let mut k = 0u32;
                    for _ in 0..narrow::count_u64(c) {
                        if rng.gen::<f64>() < share {
                            k += 1;
                        }
                    }
                    (k > 0).then_some((j, k as f64))
                })
                .collect();
            act_rows[t].push(thinned);
        }
        agg_rows.push(row);
    }

    let act = act_rows
        .into_iter()
        .map(|rows| DemandMatrix::from_rows(n_vhos, rows))
        .collect();
    DemandInput {
        aggregate: DemandMatrix::from_rows(n_vhos, agg_rows),
        windows,
        active: act,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_trace;
    use crate::synth::{synthesize_library, LibraryConfig};
    use vod_net::topologies;

    fn setup() -> (Catalog, Network, TraceConfig) {
        let catalog = synthesize_library(&LibraryConfig::default_for(300, 14, 11));
        let net = topologies::mesh_backbone(6, 9, 11);
        let cfg = TraceConfig::default_for(2000.0, 14, 11);
        (catalog, net, cfg)
    }

    #[test]
    fn matrix_lookup() {
        let m = DemandMatrix::from_rows(
            3,
            vec![vec![(VhoId::new(0), 2.0), (VhoId::new(2), 5.0)], vec![]],
        );
        assert_eq!(m.get(VideoId::new(0), VhoId::new(0)), 2.0);
        assert_eq!(m.get(VideoId::new(0), VhoId::new(1)), 0.0);
        assert_eq!(m.get(VideoId::new(0), VhoId::new(2)), 5.0);
        assert_eq!(m.video_total(VideoId::new(0)), 7.0);
        assert_eq!(m.video_total(VideoId::new(1)), 0.0);
        assert_eq!(m.total(), 7.0);
    }

    #[test]
    fn ranking_orders_by_demand() {
        let m = DemandMatrix::from_rows(
            1,
            vec![
                vec![(VhoId::new(0), 1.0)],
                vec![(VhoId::new(0), 9.0)],
                vec![(VhoId::new(0), 4.0)],
            ],
        );
        assert_eq!(
            m.rank_videos(),
            vec![VideoId::new(1), VideoId::new(2), VideoId::new(0)]
        );
    }

    #[test]
    fn from_trace_aggregate_matches_trace_volume() {
        let (catalog, net, cfg) = setup();
        let trace = generate_trace(&catalog, &net, &cfg);
        let d = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), vec![]);
        assert_eq!(d.aggregate.total(), trace.len() as f64);
        assert_eq!(d.n_videos(), catalog.len());
        assert_eq!(d.n_vhos(), 6);
    }

    #[test]
    fn active_counts_include_carryover_streams() {
        // A 1-hour video requested at t=0 is still active during a
        // window [1800, 5400); a request at t=5400 is not.
        use crate::trace::Request;
        let catalog = {
            use vod_model::{Video, VideoClass, VideoKind};
            Catalog::new(vec![Video {
                id: VideoId::new(0),
                class: VideoClass::Show,
                kind: VideoKind::Catalog,
                release_day: 0,
                weight: 1.0,
            }])
        };
        let trace = Trace::new(
            SimTime::new(10_000),
            vec![
                Request {
                    time: SimTime::new(0),
                    vho: VhoId::new(0),
                    video: VideoId::new(0),
                },
                Request {
                    time: SimTime::new(5400),
                    vho: VhoId::new(0),
                    video: VideoId::new(0),
                },
            ],
        );
        let w = TimeWindow::new(SimTime::new(1800), SimTime::new(5400));
        let d = DemandInput::from_trace(&trace, &catalog, 1, vec![w]);
        assert_eq!(d.active[0].get(VideoId::new(0), VhoId::new(0)), 1.0);
        assert_eq!(d.aggregate.get(VideoId::new(0), VhoId::new(0)), 2.0);
    }

    #[test]
    fn synthetic_demand_totals_plausible() {
        let (catalog, net, cfg) = setup();
        let d = synthetic_demand(&catalog, &net, &cfg);
        let expect = cfg.requests_per_day * cfg.horizon_days as f64;
        let got = d.aggregate.total();
        assert!(
            (got - expect).abs() / expect < 0.08,
            "total {got} vs {expect}"
        );
        assert_eq!(d.windows.len(), 2);
        // Active counts are a thinning of aggregates.
        for t in 0..2 {
            for m in catalog.ids() {
                for &(j, f) in d.active[t].row(m) {
                    assert!(f <= d.aggregate.get(m, j) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn synthetic_demand_deterministic() {
        let (catalog, net, cfg) = setup();
        let a = synthetic_demand(&catalog, &net, &cfg);
        let b = synthetic_demand(&catalog, &net, &cfg);
        assert_eq!(a.aggregate.total(), b.aggregate.total());
        assert_eq!(a.active[0].total(), b.active[0].total());
    }

    #[test]
    fn trace_and_synthetic_agree_in_expectation() {
        let (catalog, net, cfg) = setup();
        let trace = generate_trace(&catalog, &net, &cfg);
        let d_trace = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), vec![]);
        let d_synth = synthetic_demand(&catalog, &net, &cfg);
        let rel = (d_trace.aggregate.total() - d_synth.aggregate.total()).abs()
            / d_trace.aggregate.total();
        assert!(rel < 0.1, "relative difference {rel}");
    }
}
