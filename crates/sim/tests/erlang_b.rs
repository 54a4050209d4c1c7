//! Analytic oracle for stream ends and admission control: one link of
//! `c` streams fed by Poisson arrivals is an M/G/c/c loss system, and
//! the share of requests it refuses is Erlang's B formula.
//!
//! The world is `topologies::line(2)`: the only copy of the one video
//! is pinned at node 0, every request comes from node 1, so every
//! stream crosses the one link 0 → 1. There is no cache, and the fault
//! schedule has no events but admission control, which refuses a
//! stream that would push the link past its capacity of `c` streams of
//! 2 Mb/s. Arrivals are drawn here, not by `vod_trace`, as exponential
//! gaps. A stream holds the link for its class's fixed length, and
//! M/G/c/c's loss probability depends on the holding time only through
//! its mean (the Erlang-B insensitivity), so `denied_capacity /
//! total_requests` must match `B(λ·d, c)`. Nothing here shares code
//! with the engine's stream-end queues, load levels or admission test.
//!
//! Rounding arrivals down to whole seconds moves a holding time by
//! under one second in 3 600, far inside the band below.
use vod_model::narrow;
use vod_model::rng::derive_rng;
use vod_model::{Catalog, Mbps, SimTime, Video, VideoClass, VideoId, VideoKind};
use vod_net::{topologies, PathSet};
use vod_sim::{simulate, FaultSchedule, PolicyKind, SimConfig, VhoConfig};
use vod_trace::{Request, Trace};

use rand::Rng;

/// Link capacity, in streams.
const C: usize = 10;
/// Offered load `λ·d`, in Erlangs.
const A: f64 = 8.0;
const CLASS: VideoClass = VideoClass::Show;
/// Independent replays; the band comes from their spread.
const SEEDS: u64 = 24;
/// Requests per replay, and how many of them warm the link up before
/// the counters start.
const REQUESTS: usize = 24_000;
const WARM_UP: usize = 200;

/// Erlang's B formula by its stable recursion:
/// `B(A, 0) = 1`, `B(A, k) = A·B(A, k−1) / (k + A·B(A, k−1))`.
fn erlang_b(a: f64, c: usize) -> f64 {
    (1..=c).fold(1.0, |b, k| a * b / (k as f64 + a * b))
}

/// Share of measured requests one seeded replay refuses for capacity,
/// and its busiest link's peak, in Mb/s.
fn replay(seed: u64) -> (f64, f64) {
    let mut net = topologies::line(2);
    net.set_uniform_capacity(Mbps::new(2.0 * C as f64));
    let paths = PathSet::shortest_paths(&net);
    let client = net.vho_ids().nth(1).expect("line(2) has node 1");
    let video = VideoId::new(0);
    let catalog = Catalog::new(vec![Video {
        id: video,
        class: CLASS,
        kind: VideoKind::Catalog,
        release_day: 0,
        weight: 1.0,
    }]);
    let vhos = vec![
        VhoConfig {
            pinned: vec![video],
            cache: None,
        },
        VhoConfig {
            pinned: Vec::new(),
            cache: None,
        },
    ];

    let lambda = A / CLASS.duration_secs() as f64;
    let mut rng = derive_rng(seed, 0xE71AB);
    let mut t = 0.0f64;
    let mut requests = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        t += -(1.0 - rng.gen::<f64>()).ln() / lambda;
        requests.push(Request {
            time: SimTime::new(narrow::count_u64(t)),
            vho: client,
            video,
        });
    }
    let measure_from = requests[WARM_UP].time;
    let horizon = SimTime::new(narrow::count_u64(t) + 1);
    let cfg = SimConfig {
        bucket_secs: 86_400,
        measure_from,
        insert_on_miss: false,
        seed,
        faults: FaultSchedule {
            events: Vec::new(),
            admission: true,
        },
    };
    let trace = Trace::new(horizon, requests);
    let rep = simulate(
        &net,
        &paths,
        &catalog,
        &trace,
        &vhos,
        &PolicyKind::NearestReplica,
        &cfg,
    );
    assert_eq!(
        rep.denied_no_replica, 0,
        "seed {seed}: the copy is always reachable"
    );
    assert_eq!(
        rep.served_remote + rep.denied_capacity,
        rep.total_requests,
        "seed {seed}: every request is served over the link or refused"
    );
    (
        rep.denied_capacity as f64 / rep.total_requests as f64,
        rep.max_link_mbps,
    )
}

/// The mean refused share over the seeds lies within four standard
/// errors of `B(A, C)`. The standard error is the seeds' own spread:
/// refusals within one replay come in bursts (a full link stays full
/// for a while), so the binomial `√(B(1−B)/n)` of the pooled requests
/// would understate it, but the replays are independent of each other.
/// The band must also be narrow enough to tell a link of `C` streams
/// from one of `C ± 1`, or the check would prove nothing.
#[test]
fn capacity_denials_match_erlang_b() {
    let runs: Vec<(f64, f64)> = (0..SEEDS).map(replay).collect();
    for &(_, peak) in &runs {
        assert!(
            peak <= 2.0 * C as f64,
            "admission let the link carry {peak} Mb/s, above {C} streams"
        );
    }
    let n = SEEDS as f64;
    let mean = runs.iter().map(|&(p, _)| p).sum::<f64>() / n;
    let var = runs.iter().map(|&(p, _)| (p - mean).powi(2)).sum::<f64>() / (n - 1.0);
    let band = 4.0 * (var / n).sqrt();

    let expected = erlang_b(A, C);
    let resolution = (erlang_b(A, C - 1) - expected).min(expected - erlang_b(A, C + 1));
    assert!(
        band < resolution / 2.0,
        "band ±{band:.5} cannot tell {C} streams from {C} ± 1 (gap {resolution:.5})"
    );
    assert!(
        (mean - expected).abs() <= band,
        "refused share {mean:.5} over {SEEDS} seeds, Erlang-B({A}, {C}) = {expected:.5} ± {band:.5}"
    );
}

/// Textbook values of the formula the oracle relies on.
#[test]
fn erlang_b_matches_tabulated_values() {
    assert!((erlang_b(3.0, 0) - 1.0).abs() < 1e-15);
    assert!((erlang_b(1.0, 1) - 0.5).abs() < 1e-15);
    // B(2, 2) = (2²/2!) / (1 + 2 + 2²/2!) = 2/5.
    assert!((erlang_b(2.0, 2) - 0.4).abs() < 1e-15);
    // B(8, 10) ≈ 0.12166 in the standard tables.
    assert!((erlang_b(8.0, 10) - 0.121_661).abs() < 1e-5);
}
