//! Library synthesis: building a catalog with the content mix the
//! paper's traces contain.
//!
//! Section VII-A: "requests to various types of videos, including
//! music videos and trailers, TV shows, and full-length movies",
//! mapped to four length classes. Section VI-A: new videos are added
//! continually; TV-series episodes (released weekly, with demand
//! similar to the previous episode — Fig. 4) and blockbusters account
//! for the majority of new-release requests, with a residue of
//! unpredictable new content.

use crate::popularity::PopularityModel;
use rand::seq::SliceRandom;
use rand::Rng;
use vod_model::narrow;
use vod_model::rng::derive_rng;
use vod_model::{Catalog, Video, VideoClass, VideoId, VideoKind};

/// Configuration of the synthetic library.
#[derive(Debug, Clone)]
pub struct LibraryConfig {
    /// Total number of videos, back catalog plus all new releases.
    pub n_videos: usize,
    /// Fractions of the four classes [Clip, ShortShow, Show, Movie];
    /// normalized internally.
    pub class_mix: [f64; 4],
    /// Rank-popularity model for base weights.
    pub popularity: PopularityModel,
    /// Trace horizon in days; releases are scheduled inside it.
    pub horizon_days: u64,
    /// Number of concurrently running TV series, each releasing one
    /// episode per week (1-hour Show class).
    pub n_series: usize,
    /// Blockbuster movies released per week (Movie class).
    pub blockbusters_per_week: usize,
    /// Other unpredictable new releases per week (class-mixed).
    pub other_new_per_week: usize,
    pub seed: u64,
}

impl LibraryConfig {
    /// Paper-like defaults for a library of `n_videos` over
    /// `horizon_days` days.
    pub fn default_for(n_videos: usize, horizon_days: u64, seed: u64) -> Self {
        let weeks = narrow::usize_from(horizon_days.div_ceil(7));
        Self {
            n_videos,
            class_mix: [0.30, 0.25, 0.25, 0.20],
            popularity: PopularityModel::youtube_default(n_videos),
            horizon_days,
            // Series are a significant share of new-release traffic
            // (Section VI-A: episodes account for more than half of
            // new-release requests); scaled down for tiny libraries.
            n_series: (n_videos / 100).clamp(1, 40),
            blockbusters_per_week: if weeks > 0 { 2 } else { 0 },
            other_new_per_week: (n_videos / 500).clamp(1, 50),
            seed,
        }
    }

    fn weeks(&self) -> u64 {
        self.horizon_days.div_ceil(7)
    }

    fn n_new_releases(&self) -> usize {
        let weeks = narrow::usize_from(self.weeks());
        self.n_series * weeks + (self.blockbusters_per_week + self.other_new_per_week) * weeks
    }
}

/// Synthesize a catalog according to `cfg`.
///
/// Weight assignment: popularity ranks `1..=n` are shuffled over all
/// videos, then series episodes and blockbusters are re-ranked into the
/// top decile (new releases "receive a significant number of
/// requests", Section VI-A). Episodes of the same series share their
/// series' base weight up to ±10 % lognormal noise, reproducing the
/// episode-to-episode similarity of Fig. 4.
pub fn synthesize_library(cfg: &LibraryConfig) -> Catalog {
    let n = cfg.n_videos;
    let n_new = cfg.n_new_releases();
    assert!(
        n_new < n,
        "library too small: {n} videos but {n_new} scheduled new releases"
    );
    let mut rng = derive_rng(cfg.seed, 0x11B_5E7);

    // Global rank permutation -> base weights.
    let weights = cfg.popularity.normalized_weights(n);
    let mut ranks: Vec<usize> = (1..=n).collect();
    ranks.shuffle(&mut rng);

    // Class sampling table.
    let mix_total: f64 = cfg.class_mix.iter().sum();
    assert!(mix_total > 0.0, "class mix must have positive mass");
    let classes = VideoClass::ALL;
    let mut class_cum = [0.0f64; 4];
    let mut acc = 0.0;
    for (k, &w) in cfg.class_mix.iter().enumerate() {
        assert!(w >= 0.0, "negative class fraction");
        acc += w / mix_total;
        class_cum[k] = acc;
    }
    let sample_class = |rng: &mut rand::rngs::StdRng| {
        let x: f64 = rng.gen();
        let k = class_cum.iter().position(|&c| x <= c).unwrap_or(3);
        classes[k]
    };

    let weeks = cfg.weeks();
    let top_decile = (n / 10).max(1);

    let mut videos: Vec<Video> = Vec::with_capacity(n);
    // --- New releases occupy the first ids for reproducibility. ---
    // TV series: one episode per week; each series airs on a fixed
    // weekday (3 = Thursday-like), staggered across series.
    for s in 0..cfg.n_series {
        let air_dow = (3 + s % 3) as u64; // air Thu/Fri/Sat-like
        let series_rank = rng.gen_range(1..=top_decile);
        let series_weight = weights[series_rank - 1];
        for e in 0..weeks {
            let noise = crate::stats::lognormal(&mut rng, 0.10);
            videos.push(Video {
                id: VideoId::from_index(videos.len()),
                class: VideoClass::Show,
                kind: VideoKind::SeriesEpisode {
                    series: narrow::u32_from(s),
                    episode: narrow::u32_from(e) + 1,
                },
                release_day: (e * 7 + air_dow).min(cfg.horizon_days.saturating_sub(1)),
                weight: series_weight * noise,
            });
        }
    }
    // Blockbusters: released on the Friday-like day (4) of each week.
    for w in 0..weeks {
        for _ in 0..cfg.blockbusters_per_week {
            let rank = rng.gen_range(1..=top_decile);
            videos.push(Video {
                id: VideoId::from_index(videos.len()),
                class: VideoClass::Movie,
                kind: VideoKind::Blockbuster,
                release_day: (w * 7 + 4).min(cfg.horizon_days.saturating_sub(1)),
                weight: weights[rank - 1],
            });
        }
        // Other new releases: unpredictable, arbitrary day & rank.
        for _ in 0..cfg.other_new_per_week {
            let rank = rng.gen_range(1..=n);
            let day = w * 7 + rng.gen_range(0..7u64);
            videos.push(Video {
                id: VideoId::from_index(videos.len()),
                class: sample_class(&mut rng),
                kind: VideoKind::OtherNew,
                release_day: day.min(cfg.horizon_days.saturating_sub(1)),
                weight: weights[rank - 1],
            });
        }
    }
    // --- Back catalog fills the rest, consuming the shuffled ranks. ---
    let mut rank_iter = ranks.into_iter();
    // `ranks` holds one entry per requested video, so the iterator
    // outlasts the loop; a short table just yields a smaller catalog.
    while videos.len() < n {
        let Some(rank) = rank_iter.next() else {
            break;
        };
        videos.push(Video {
            id: VideoId::from_index(videos.len()),
            class: sample_class(&mut rng),
            kind: VideoKind::Catalog,
            release_day: 0,
            weight: weights[rank - 1],
        });
    }

    Catalog::new(videos)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> LibraryConfig {
        LibraryConfig::default_for(n, 28, 42)
    }

    #[test]
    fn synthesis_counts() {
        let c = synthesize_library(&cfg(2000));
        assert_eq!(c.len(), 2000);
        let series = c
            .iter()
            .filter(|v| matches!(v.kind, VideoKind::SeriesEpisode { .. }))
            .count();
        let cfg = cfg(2000);
        assert_eq!(series, cfg.n_series * 4);
        let blockbusters = c
            .iter()
            .filter(|v| v.kind == VideoKind::Blockbuster)
            .count();
        assert_eq!(blockbusters, cfg.blockbusters_per_week * 4);
    }

    #[test]
    fn synthesis_is_deterministic() {
        let a = synthesize_library(&cfg(500));
        let b = synthesize_library(&cfg(500));
        assert_eq!(
            a.iter().map(|v| v.weight).sum::<f64>(),
            b.iter().map(|v| v.weight).sum::<f64>()
        );
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
    }

    #[test]
    fn episodes_weekly_and_similar() {
        let c = synthesize_library(&cfg(2000));
        // Collect episodes of series 0 in episode order.
        let mut eps: Vec<&Video> = c
            .iter()
            .filter(|v| matches!(v.kind, VideoKind::SeriesEpisode { series: 0, .. }))
            .collect();
        eps.sort_by_key(|v| match v.kind {
            VideoKind::SeriesEpisode { episode, .. } => episode,
            #[expect(
                clippy::unreachable,
                reason = "test code: the filter above kept episodes only"
            )]
            _ => unreachable!(),
        });
        assert_eq!(eps.len(), 4);
        for pair in eps.windows(2) {
            assert_eq!(pair[1].release_day - pair[0].release_day, 7);
            let ratio = pair[1].weight / pair[0].weight;
            assert!(
                ratio > 0.5 && ratio < 2.0,
                "episode weights similar, got {ratio}"
            );
        }
        assert!(eps.iter().all(|v| v.class == VideoClass::Show));
    }

    #[test]
    fn new_releases_popular() {
        let c = synthesize_library(&cfg(5000));
        let mean_new: f64 = {
            let xs: Vec<f64> = c
                .iter()
                .filter(|v| {
                    matches!(
                        v.kind,
                        VideoKind::SeriesEpisode { .. } | VideoKind::Blockbuster
                    )
                })
                .map(|v| v.weight)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let mean_catalog: f64 = {
            let xs: Vec<f64> = c
                .iter()
                .filter(|v| v.kind == VideoKind::Catalog)
                .map(|v| v.weight)
                .collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        assert!(
            mean_new > 2.0 * mean_catalog,
            "new releases should be much more popular: {mean_new} vs {mean_catalog}"
        );
    }

    #[test]
    fn class_mix_respected() {
        let mut c = cfg(10_000);
        c.class_mix = [1.0, 0.0, 0.0, 0.0];
        let cat = synthesize_library(&c);
        // All catalog + other-new videos must be clips; series are
        // always Shows and blockbusters always Movies.
        assert!(cat
            .iter()
            .filter(|v| matches!(v.kind, VideoKind::Catalog | VideoKind::OtherNew))
            .all(|v| v.class == VideoClass::Clip));
    }

    #[test]
    #[should_panic(expected = "library too small")]
    fn too_small_library_rejected() {
        let mut c = cfg(10);
        c.n_series = 10;
        let _ = synthesize_library(&c);
    }
}
