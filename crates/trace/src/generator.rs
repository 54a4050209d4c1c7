//! Request-trace generation.
//!
//! Produces a time-sorted request trace with the temporal and spatial
//! structure the paper reports: weekly modulation with Friday/Saturday
//! the two busiest days (Section VII, Fig. 2), an evening-peaked
//! diurnal cycle, per-VHO request volumes proportional to metro
//! population but with per-(video, VHO) taste perturbation (different
//! offices see different request mixes — Fig. 3), and new-release
//! demand that spikes on the release day and decays geometrically
//! (Fig. 4).

use crate::stats::{cumulative, poisson, sample_cumulative, standard_normal};
use crate::trace::{pack, Request, Trace, TIME_LIMIT, VHO_LIMIT, VIDEO_LIMIT};
use rand::Rng;
use vod_model::narrow;
use vod_model::rng::{derive_rng, derive_seed};
use vod_model::time::{DAY, HOUR};
use vod_model::{Catalog, SimTime, VhoId, Video, VideoId, VideoKind};
use vod_net::Network;

/// Relative request intensity by day-of-week (trace starts on the
/// Monday-like day 0): Friday (4) and Saturday (5) are the two busiest
/// days, as the paper observes.
pub const DOW_FACTORS: [f64; 7] = [1.00, 0.95, 0.95, 1.00, 1.35, 1.45, 1.10];

/// Relative request intensity by hour-of-day: quiet overnight, evening
/// peak around 20:00–22:00.
pub const HOD_FACTORS: [f64; 24] = [
    0.20, 0.14, 0.10, 0.08, 0.08, 0.10, 0.15, 0.22, 0.30, 0.38, 0.45, 0.52, //
    0.58, 0.60, 0.58, 0.58, 0.62, 0.72, 0.88, 1.00, 1.00, 0.92, 0.65, 0.38,
];

/// Trace-generation parameters.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Mean requests per day across the whole footprint.
    pub requests_per_day: f64,
    /// Horizon in days (the paper uses a one-month trace).
    pub horizon_days: u64,
    /// Log-std-dev of the per-(video, VHO) lognormal taste
    /// perturbation; 0 makes every VHO's mix identical.
    pub vho_sigma: f64,
    /// Per-day geometric decay of new-release demand after release.
    pub new_release_decay: f64,
    pub seed: u64,
}

impl TraceConfig {
    /// Paper-like defaults: a month-long trace.
    pub fn default_for(requests_per_day: f64, horizon_days: u64, seed: u64) -> Self {
        Self {
            requests_per_day,
            horizon_days,
            vho_sigma: 0.45,
            new_release_decay: 0.72,
            seed,
        }
    }
}

/// Demand multiplier for `video` on `day` (0 before release; decaying
/// from the release day for new content; flat for back catalog).
pub fn age_factor(video: &Video, day: u64, decay: f64) -> f64 {
    if day < video.release_day {
        return 0.0;
    }
    match video.kind {
        VideoKind::Catalog => 1.0,
        _ => {
            let age = i32::try_from(day - video.release_day).unwrap_or(i32::MAX);
            // New releases spike then decay toward a floor; the spike
            // makes them the dominant share of new-release traffic
            // (Section VI-A) and the floor keeps a long tail of
            // residual demand.
            decay.powi(age).max(0.12)
        }
    }
}

/// Deterministic per-(video, VHO) taste multiplier: lognormal with
/// log-σ `sigma`, derived purely from `(seed, video, vho)` so the trace
/// generator and the direct demand synthesizer agree exactly.
pub fn vho_perturbation(seed: u64, video: VideoId, vho: u16, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    let sub = derive_seed(
        seed,
        0x7A57E ^ ((video.index() as u64) << 16) ^ u64::from(vho),
    );
    let mut rng = vod_model::rng::rng_from_seed(sub);
    (sigma * standard_normal(&mut rng)).exp()
}

/// Per-video expected total request count over the horizon, for the
/// given total budget. Shared by trace generation and direct demand
/// synthesis. Returns `(per-video expectation, per-video per-day
/// weights flattened)` — day weights are recomputed cheaply on demand
/// for sampling instead of being returned for every video.
pub fn expected_requests(catalog: &Catalog, cfg: &TraceConfig) -> Vec<f64> {
    let days = cfg.horizon_days;
    let mut day_sums: Vec<f64> = Vec::with_capacity(catalog.len());
    for v in catalog.iter() {
        let s: f64 = (0..days)
            .map(|d| DOW_FACTORS[(d % 7) as usize] * age_factor(v, d, cfg.new_release_decay))
            .sum();
        day_sums.push(v.weight * s);
    }
    let z: f64 = day_sums.iter().sum();
    assert!(z > 0.0, "catalog has no requestable mass over the horizon");
    let total = cfg.requests_per_day * days as f64;
    day_sums.iter().map(|&x| x / z * total).collect()
}

/// Words to reserve for a trace of `lambda` expected requests. The
/// drawn total is Poisson(`lambda`), whose standard deviation is
/// `sqrt(lambda)`, some 1 200 at 1.4 M requests: `lambda + 1024` was
/// passed by 4 of seeds 1–12, and the vector then doubled to twice the
/// trace. Six deviations cover the tail (a draw past them has odds of
/// about 1e-9) for 0.5 % of the trace at that size.
fn reservation(lambda: f64) -> usize {
    narrow::count_usize(lambda + 6.0 * lambda.sqrt()) + 1024
}

/// Generate a full request trace. Panics when the horizon, the
/// catalog or the network is past a limit of the packed trace
/// ([`TIME_LIMIT`], [`VIDEO_LIMIT`], [`VHO_LIMIT`]).
pub fn generate_trace(catalog: &Catalog, net: &Network, cfg: &TraceConfig) -> Trace {
    assert!(cfg.horizon_days > 0, "horizon must be positive");
    assert!(!catalog.is_empty(), "catalog must not be empty");
    let n_vhos = net.num_nodes();
    let horizon = SimTime::new(cfg.horizon_days * DAY);
    assert!(
        horizon.secs() <= TIME_LIMIT,
        "a {}-day horizon is past the 32-bit time limit",
        cfg.horizon_days
    );
    assert!(
        catalog.len() <= VIDEO_LIMIT,
        "{} videos are past the 22-bit video limit",
        catalog.len()
    );
    assert!(
        n_vhos <= VHO_LIMIT,
        "{n_vhos} VHOs are past the 10-bit VHO limit"
    );
    let lambdas = expected_requests(catalog, cfg);
    let hod_cum = cumulative(&HOD_FACTORS);
    let pops: Vec<f64> = net.nodes().iter().map(|n| n.population).collect();

    let mut rng = derive_rng(cfg.seed, 0x6E47_11CE);
    // Packed as they are drawn: set-up never holds a `Request` per
    // request, only the word the trace keeps.
    let mut words = Vec::with_capacity(reservation(lambdas.iter().sum()));

    for (v, &lambda) in catalog.iter().zip(&lambdas) {
        let n = poisson(&mut rng, lambda);
        if n == 0 {
            continue;
        }
        // Per-day weight table for this video.
        let day_weights: Vec<f64> = (0..cfg.horizon_days)
            .map(|d| DOW_FACTORS[(d % 7) as usize] * age_factor(v, d, cfg.new_release_decay))
            .collect();
        let day_cum = cumulative(&day_weights);
        // Per-VHO weight table for this video.
        let vho_weights: Vec<f64> = pops
            .iter()
            .enumerate()
            .map(|(j, &p)| p * vho_perturbation(cfg.seed, v.id, narrow::u16_from(j), cfg.vho_sigma))
            .collect();
        let vho_cum = cumulative(&vho_weights);

        for _ in 0..n {
            let day = sample_cumulative(&mut rng, &day_cum) as u64;
            let hour = sample_cumulative(&mut rng, &hod_cum) as u64;
            let sec = rng.gen_range(0..HOUR);
            let vho = sample_cumulative(&mut rng, &vho_cum);
            debug_assert!(vho < n_vhos);
            #[expect(
                clippy::disallowed_methods,
                reason = "recovers the id from a dense 0..n_vhos vector index"
            )]
            words.push(pack(Request {
                time: SimTime::new(day * DAY + hour * HOUR + sec),
                vho: VhoId::from_index(vho),
                video: v.id,
            }));
        }
    }
    Trace::from_packed(horizon, words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize_library, LibraryConfig};
    use vod_net::topologies;

    fn small_world() -> (Catalog, Network, TraceConfig) {
        let catalog = synthesize_library(&LibraryConfig::default_for(400, 14, 7));
        let net = topologies::mesh_backbone(8, 12, 7);
        let cfg = TraceConfig::default_for(3000.0, 14, 7);
        (catalog, net, cfg)
    }

    #[test]
    fn a_replay_week_sized_trace_keeps_its_first_reservation() {
        // `replay-week`'s world at seed 3, whose draw passed the
        // `lambda + 1024` reservation this one replaced.
        let catalog = synthesize_library(&LibraryConfig::default_for(500, 14, 3));
        let net = topologies::backbone55();
        let cfg = TraceConfig::default_for(100_000.0, 14, 3);
        let lambda: f64 = expected_requests(&catalog, &cfg).iter().sum();
        let t = generate_trace(&catalog, &net, &cfg);
        assert!(t.len() as f64 > lambda + 1024.0, "{} requests", t.len());
        assert_eq!(t.capacity(), reservation(lambda));
    }

    #[test]
    fn volume_close_to_budget() {
        let (catalog, net, cfg) = small_world();
        let t = generate_trace(&catalog, &net, &cfg);
        let expect = cfg.requests_per_day * cfg.horizon_days as f64;
        let got = t.len() as f64;
        assert!(
            (got - expect).abs() / expect < 0.05,
            "volume {got} vs budget {expect}"
        );
    }

    #[test]
    fn deterministic() {
        let (catalog, net, cfg) = small_world();
        let a = generate_trace(&catalog, &net, &cfg);
        let b = generate_trace(&catalog, &net, &cfg);
        assert!(a.requests().eq(b.requests()));
    }

    #[test]
    fn weekend_busier_than_midweek() {
        let (catalog, net, cfg) = small_world();
        let t = generate_trace(&catalog, &net, &cfg);
        let daily = t.bucket_counts(DAY);
        // Friday (4) and Saturday (5) of week 1 busier than Tuesday (1).
        assert!(daily[4] > daily[1]);
        assert!(daily[5] > daily[1]);
    }

    #[test]
    fn evening_peak() {
        let (catalog, net, cfg) = small_world();
        let t = generate_trace(&catalog, &net, &cfg);
        let hourly = t.bucket_counts(HOUR);
        // Aggregate by hour of day.
        let mut by_hod = [0u64; 24];
        for (h, &c) in hourly.iter().enumerate() {
            by_hod[h % 24] += c;
        }
        let peak = (0..24).max_by_key(|&h| by_hod[h]).unwrap();
        assert!((18..=22).contains(&peak), "peak hour {peak}");
        assert!(by_hod[3] < by_hod[20] / 3);
    }

    #[test]
    fn no_requests_before_release() {
        let (catalog, net, cfg) = small_world();
        let t = generate_trace(&catalog, &net, &cfg);
        for r in t.requests() {
            let v = catalog.video(r.video);
            assert!(
                r.time.day() >= v.release_day,
                "request for {} on day {} before release day {}",
                v.id,
                r.time.day(),
                v.release_day
            );
        }
    }

    #[test]
    fn populous_metros_get_more_requests() {
        let (catalog, net, cfg) = small_world();
        let t = generate_trace(&catalog, &net, &cfg);
        let mut counts = vec![0u64; net.num_nodes()];
        for r in t.requests() {
            counts[r.vho.index()] += 1;
        }
        let biggest = (0..net.num_nodes())
            .max_by(|&a, &b| {
                net.nodes()[a]
                    .population
                    .total_cmp(&net.nodes()[b].population)
            })
            .unwrap();
        let smallest = (0..net.num_nodes())
            .min_by(|&a, &b| {
                net.nodes()[a]
                    .population
                    .total_cmp(&net.nodes()[b].population)
            })
            .unwrap();
        assert!(counts[biggest] > counts[smallest]);
    }

    #[test]
    #[should_panic(expected = "past the 32-bit time limit")]
    fn a_horizon_one_day_past_the_time_limit_panics() {
        let (catalog, net, mut cfg) = small_world();
        cfg.horizon_days = TIME_LIMIT / DAY;
        assert!(cfg.horizon_days * DAY <= TIME_LIMIT);
        cfg.horizon_days += 1;
        let _ = generate_trace(&catalog, &net, &cfg);
    }

    #[test]
    #[should_panic(expected = "past the 22-bit video limit")]
    fn a_catalog_one_past_the_video_limit_panics() {
        let (catalog, net, cfg) = small_world();
        let first = catalog.iter().next().unwrap().clone();
        let huge = Catalog::new(
            (0..=VIDEO_LIMIT)
                .map(|m| Video {
                    id: VideoId::from_index(m),
                    ..first.clone()
                })
                .collect(),
        );
        let _ = generate_trace(&huge, &net, &cfg);
    }

    #[test]
    #[should_panic(expected = "past the 10-bit VHO limit")]
    fn a_network_one_past_the_vho_limit_panics() {
        let (catalog, _, cfg) = small_world();
        let net = Network::from_directed_links(
            vod_net::graph::make_nodes(&vec![1.0; VHO_LIMIT + 1]),
            vec![],
        );
        let _ = generate_trace(&catalog, &net, &cfg);
    }

    #[test]
    fn age_factor_shape() {
        let v = Video {
            id: vod_model::VideoId::new(0),
            class: vod_model::VideoClass::Show,
            kind: VideoKind::Blockbuster,
            release_day: 7,
            weight: 1.0,
        };
        assert_eq!(age_factor(&v, 6, 0.7), 0.0);
        assert_eq!(age_factor(&v, 7, 0.7), 1.0);
        assert!((age_factor(&v, 8, 0.7) - 0.7).abs() < 1e-12);
        // Floor kicks in eventually.
        assert_eq!(age_factor(&v, 40, 0.7), 0.12);
        // Catalog videos are flat.
        let c = Video {
            kind: VideoKind::Catalog,
            release_day: 0,
            ..v
        };
        assert_eq!(age_factor(&c, 20, 0.7), 1.0);
    }

    #[test]
    fn perturbation_deterministic_and_positive() {
        let a = vho_perturbation(9, VideoId::new(5), 3, 0.5);
        let b = vho_perturbation(9, VideoId::new(5), 3, 0.5);
        assert_eq!(a, b);
        assert!(a > 0.0);
        assert_ne!(a, vho_perturbation(9, VideoId::new(5), 4, 0.5));
        assert_eq!(vho_perturbation(9, VideoId::new(5), 3, 0.0), 1.0);
    }
}
