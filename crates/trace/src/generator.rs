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
use crate::trace::{
    pack, sort_by_time, time_key, Request, Trace, TIME_LIMIT, VHO_LIMIT, VIDEO_LIMIT,
};
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

/// Relative intensity of `video` on `day`: its day-of-week factor times
/// its age factor.
fn day_weight(video: &Video, day: u64, decay: f64) -> f64 {
    DOW_FACTORS[(day % 7) as usize] * age_factor(video, day, decay)
}

/// Per-video expected total request count over the horizon, for the
/// given total budget. Shared by trace generation and direct demand
/// synthesis.
pub fn expected_requests(catalog: &Catalog, cfg: &TraceConfig) -> Vec<f64> {
    expectations(catalog, cfg).0
}

/// Expected request counts over the horizon, per video and per day,
/// from one pass over every video's day weights. Each sums to the
/// budget: by Poisson thinning, day `d` expects
/// `sum_v lambda_v * w_v(d) / sum_d' w_v(d')`.
fn expectations(catalog: &Catalog, cfg: &TraceConfig) -> (Vec<f64>, Vec<f64>) {
    let days = cfg.horizon_days;
    let mut per_video: Vec<f64> = Vec::with_capacity(catalog.len());
    let mut per_day = vec![0.0; narrow::usize_from(days)];
    for v in catalog.iter() {
        let mut s = 0.0;
        for (d, day) in (0..days).zip(&mut per_day) {
            let w = day_weight(v, d, cfg.new_release_decay);
            s += w;
            *day += v.weight * w;
        }
        per_video.push(v.weight * s);
    }
    let z: f64 = per_video.iter().sum();
    assert!(z > 0.0, "catalog has no requestable mass over the horizon");
    let total = cfg.requests_per_day * days as f64;
    for x in per_video.iter_mut().chain(&mut per_day) {
        *x = *x / z * total;
    }
    (per_video, per_day)
}

/// Words a day's segment holds past six standard deviations of its
/// Poisson count, so that a day expecting next to nothing still has
/// room.
const SEGMENT_SLACK: usize = 16;

/// The trace while it is drawn: one reservation split into a segment
/// per day and a spill. Each segment holds its day's words in draw
/// order; a word whose segment is full goes to the spill, also in draw
/// order. [`Days::assemble`] turns this into the trace's storage.
struct Days {
    words: Vec<u64>,
    /// Segment `d` is `starts[d]..starts[d + 1]` of `words`.
    starts: Vec<usize>,
    /// Words drawn into each segment so far.
    filled: Vec<usize>,
    spill: Vec<u64>,
}

impl Days {
    fn with_capacities(caps: impl IntoIterator<Item = usize>) -> Self {
        let mut starts = vec![0];
        let mut end = 0;
        for cap in caps {
            end += cap;
            starts.push(end);
        }
        Self {
            words: vec![0; end],
            filled: vec![0; starts.len() - 1],
            starts,
            spill: Vec::new(),
        }
    }

    /// Segments for days expecting `lambdas` requests each. A day's
    /// count is Poisson, whose standard deviation is `sqrt(lambda)`;
    /// six of them cover the tail (a day past them has odds of about
    /// 1e-9), so the spill is all but always empty.
    fn for_expectations(lambdas: &[f64]) -> Self {
        Self::with_capacities(
            lambdas
                .iter()
                .map(|&l| narrow::count_usize(l + 6.0 * l.sqrt()) + SEGMENT_SLACK),
        )
    }

    /// Draw `word`, whose time lies in `day`.
    #[inline]
    fn push(&mut self, day: usize, word: u64) {
        debug_assert_eq!(time_key(word) / DAY, day as u64);
        let at = self.starts[day] + self.filled[day];
        if at < self.starts[day + 1] {
            self.words[at] = word;
            self.filled[day] += 1;
        } else {
            self.spill.push(word);
        }
    }

    /// The drawn words sorted stably on time: ordered by (time, draw
    /// index), which is what a stable sort of the draw order on time
    /// returns. Each segment is sorted on its 17-bit second of the day
    /// by two counting passes through one day-sized scratch, the second
    /// writing the day straight to its place behind the days before it;
    /// the cost is O(words + days x buckets). Only a spill falls back
    /// to a stable sort of the whole trace, which is still exact:
    /// within a day every segment word was drawn before every spilled
    /// one.
    fn assemble(self) -> Vec<u64> {
        let Days {
            mut words,
            starts,
            filled,
            spill,
        } = self;
        let mut scratch = vec![0; filled.iter().copied().max().unwrap_or(0)];
        let mut end = 0;
        for ((d, &n), &start) in filled.iter().enumerate().zip(&starts) {
            let base = d as u64 * DAY;
            let day = &mut scratch[..n];
            scatter::<512>(&words[start..start + n], day, base, 0);
            // `end <= start`, and the segment is in `day` by now, so
            // this may overwrite it but nothing of a later day.
            scatter::<256>(day, &mut words[end..end + n], base, 9);
            end += n;
        }
        words.truncate(end);
        if !spill.is_empty() {
            words.extend(spill);
            sort_by_time(&mut words);
        }
        words
    }
}

/// One stable counting pass of a radix sort on the second of the day
/// (a word's time less `base`): `from` into `to` on the `B`-bit digit
/// of it that starts at bit `shift`.
fn scatter<const B: usize>(from: &[u64], to: &mut [u64], base: u64, shift: u32) {
    let digit = |w: u64| narrow::usize_from((time_key(w) - base) >> shift) & (B - 1);
    let mut at = [0usize; B];
    for &w in from {
        at[digit(w)] += 1;
    }
    let mut sum = 0;
    for a in &mut at {
        (sum, *a) = (sum + *a, sum);
    }
    for &w in from {
        let k = digit(w);
        to[at[k]] = w;
        at[k] += 1;
    }
}

/// Generate a full request trace. Panics when the horizon, the
/// catalog or the network is past a limit of the packed trace
/// ([`TIME_LIMIT`], [`VIDEO_LIMIT`], [`VHO_LIMIT`]).
pub fn generate_trace(catalog: &Catalog, net: &Network, cfg: &TraceConfig) -> Trace {
    let days = draw(catalog, net, cfg);
    Trace::from_packed(SimTime::new(cfg.horizon_days * DAY), days.assemble())
}

/// Every request of the trace, packed as it is drawn into its day's
/// segment: set-up never holds a `Request` per request, only the word
/// the trace keeps.
fn draw(catalog: &Catalog, net: &Network, cfg: &TraceConfig) -> Days {
    assert!(cfg.horizon_days > 0, "horizon must be positive");
    assert!(!catalog.is_empty(), "catalog must not be empty");
    let n_vhos = net.num_nodes();
    assert!(
        cfg.horizon_days * DAY <= TIME_LIMIT,
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
    let (lambdas, per_day) = expectations(catalog, cfg);
    let hod_cum = cumulative(&HOD_FACTORS);
    let pops: Vec<f64> = net.nodes().iter().map(|n| n.population).collect();

    let mut rng = derive_rng(cfg.seed, 0x6E47_11CE);
    let mut days = Days::for_expectations(&per_day);

    for (v, &lambda) in catalog.iter().zip(&lambdas) {
        let n = poisson(&mut rng, lambda);
        if n == 0 {
            continue;
        }
        // Per-day weight table for this video.
        let day_weights: Vec<f64> = (0..cfg.horizon_days)
            .map(|d| day_weight(v, d, cfg.new_release_decay))
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
            let day = sample_cumulative(&mut rng, &day_cum);
            let hour = sample_cumulative(&mut rng, &hod_cum) as u64;
            let sec = rng.gen_range(0..HOUR);
            let vho = sample_cumulative(&mut rng, &vho_cum);
            debug_assert!(vho < n_vhos);
            #[expect(
                clippy::disallowed_methods,
                reason = "recovers the id from a dense 0..n_vhos vector index"
            )]
            let word = pack(Request {
                time: SimTime::new(day as u64 * DAY + hour * HOUR + sec),
                vho: VhoId::from_index(vho),
                video: v.id,
            });
            days.push(day, word);
        }
    }
    days
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{synthesize_library, LibraryConfig};
    use proptest::prelude::*;
    use vod_net::topologies;

    fn small_world() -> (Catalog, Network, TraceConfig) {
        let catalog = synthesize_library(&LibraryConfig::default_for(400, 14, 7));
        let net = topologies::mesh_backbone(8, 12, 7);
        let cfg = TraceConfig::default_for(3000.0, 14, 7);
        (catalog, net, cfg)
    }

    #[test]
    fn no_day_of_a_replay_week_sized_trace_spills() {
        // `replay-week`'s world at seed 3, whose draw lies 1.2
        // standard deviations above its expected 1.4 M requests.
        let catalog = synthesize_library(&LibraryConfig::default_for(500, 14, 3));
        let net = topologies::backbone55();
        let cfg = TraceConfig::default_for(100_000.0, 14, 3);
        let days = draw(&catalog, &net, &cfg);
        assert!(days.spill.is_empty(), "{} words spilled", days.spill.len());
        assert_eq!(days.filled.iter().sum::<usize>(), 1_401_469);
        let (_, per_day) = expectations(&catalog, &cfg);
        assert!((per_day.iter().sum::<f64>() - 1_400_000.0).abs() < 1e-3);
    }

    /// A stable sort on time of `draws`, in draw order, next to what
    /// [`Days`] with segments of `caps` words assembles from them.
    fn assembled(caps: &[usize], draws: &[Request]) -> (Vec<u64>, Vec<u64>, usize) {
        let mut days = Days::with_capacities(caps.iter().copied());
        for &r in draws {
            days.push(narrow::usize_from(r.time.day()), pack(r));
        }
        let spilled = days.spill.len();
        let mut expect = draws.to_vec();
        expect.sort_by_key(|r| r.time);
        (
            days.assemble(),
            expect.into_iter().map(pack).collect(),
            spilled,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn assembled_days_equal_a_stable_sort_of_the_draws(
            caps in prop::collection::vec(0usize..8, 1..7),
            draws in prop::collection::vec(
                (0u64..7, 0usize..7, 0u64..DAY, (0usize..VIDEO_LIMIT, 0usize..VHO_LIMIT)),
                0..80,
            ),
        ) {
            // Six of seven seconds come from five fixed ones, the first
            // and last second of the day among them, so seconds shared
            // by several draws are the rule. A day drawn more often
            // than its segment holds spills; a day drawn not at all
            // stays empty.
            let n_days = caps.len() as u64;
            let draws: Vec<Request> = draws
                .iter()
                .map(|&(day, edge, sec, (video, vho))| Request {
                    time: SimTime::new(
                        day % n_days * DAY
                            + [0, DAY - 1, 1, DAY - 2, DAY / 2].get(edge).copied().unwrap_or(sec),
                    ),
                    vho: VhoId::from_index(vho),
                    video: VideoId::from_index(video),
                })
                .collect();
            let (got, expect, _) = assembled(&caps, &draws);
            prop_assert_eq!(got, expect);
        }
    }

    #[test]
    fn a_day_past_its_segment_spills_behind_the_same_second() {
        // Day 1's segment takes two words; its other four spill. Three
        // of the six share second 0 of the day and two share its last
        // second, so the spill path must keep draw order inside both.
        let r = |t: u64, m: u32| Request {
            time: SimTime::new(t),
            vho: VhoId::new(0),
            video: VideoId::new(m),
        };
        let draws = [
            r(DAY + 5, 0),
            r(DAY, 1),
            r(2 * DAY - 1, 2),
            r(DAY, 3),
            r(2 * DAY - 1, 4),
            r(3, 5),
            r(DAY, 6),
            r(2 * DAY + 7, 7),
        ];
        let (got, expect, spilled) = assembled(&[3, 2, 0, 4], &draws);
        assert_eq!(spilled, 5);
        assert_eq!(got, expect);
        let t = Trace::from_packed(SimTime::new(4 * DAY), got);
        let videos: Vec<usize> = t.requests().map(|r| r.video.index()).collect();
        assert_eq!(videos, [5, 1, 3, 6, 0, 2, 4, 7]);
        // Nothing drawn: every day empty, no words.
        assert!(assembled(&[4, 0, 4], &[]).0.is_empty());
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
