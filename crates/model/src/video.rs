//! The video catalog: the set `M` of Table I.
//!
//! Section VII-A maps the operational trace's videos onto four length
//! classes (5 min, 30 min, 1 h, 2 h) with sizes 100 MB, 500 MB, 1 GB
//! and 2 GB, all streaming at 2 Mb/s standard definition. Videos may
//! additionally carry release metadata (release day, TV-series
//! membership, blockbuster flag) that drives the demand-estimation
//! experiments of Sections VI-A and VII-H.

use crate::ids::VideoId;
use crate::time::DAY;
use crate::units::{Gigabytes, Mbps};

/// The four video length classes of Section VII-A.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VideoClass {
    /// 5 minutes, 100 MB — music videos and trailers.
    Clip,
    /// 30 minutes, 500 MB — short TV shows.
    ShortShow,
    /// 1 hour, 1 GB — full TV episodes.
    Show,
    /// 2 hours, 2 GB — full-length movies.
    Movie,
}

impl VideoClass {
    pub const ALL: [VideoClass; 4] = [
        VideoClass::Clip,
        VideoClass::ShortShow,
        VideoClass::Show,
        VideoClass::Movie,
    ];

    /// Stream duration in seconds.
    pub const fn duration_secs(self) -> u64 {
        match self {
            VideoClass::Clip => 5 * 60,
            VideoClass::ShortShow => 30 * 60,
            VideoClass::Show => 60 * 60,
            VideoClass::Movie => 120 * 60,
        }
    }

    /// On-disk size.
    pub fn size(self) -> Gigabytes {
        match self {
            VideoClass::Clip => Gigabytes::from_mb(100.0),
            VideoClass::ShortShow => Gigabytes::from_mb(500.0),
            VideoClass::Show => Gigabytes::new(1.0),
            VideoClass::Movie => Gigabytes::new(2.0),
        }
    }
}

/// Release/content metadata used by the demand estimators (Section VI-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VideoKind {
    /// Back-catalog content present since the start of the trace.
    #[default]
    Catalog,
    /// Episode `episode` (1-based) of TV series `series`; consecutive
    /// episodes are released a week apart and show similar demand
    /// (Fig. 4), which the series estimator exploits.
    SeriesEpisode { series: u32, episode: u32 },
    /// A heavily promoted new movie; the blockbuster estimator predicts
    /// its demand from last week's most popular movie.
    Blockbuster,
    /// A new release with no usable history (music videos, unpopular
    /// movies) — only the complementary LRU cache absorbs these.
    OtherNew,
}

/// One video in the catalog: an element of `M` with its MIP parameters
/// `s^m` (size) and `r^m` (bitrate), plus workload metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Video {
    pub id: VideoId,
    pub class: VideoClass,
    pub kind: VideoKind,
    /// Day (0-based, relative to trace start) the video becomes
    /// requestable. Catalog videos have `release_day == 0`.
    pub release_day: u64,
    /// Base popularity weight (relative request intensity once
    /// released); the trace generator assigns these from the
    /// popularity distribution.
    pub weight: f64,
}

impl Video {
    /// On-disk size `s^m` in GB.
    #[inline]
    pub fn size(&self) -> Gigabytes {
        self.class.size()
    }

    /// Stream bitrate `r^m`; all videos are 2 Mb/s SD (Section VII-A).
    #[inline]
    pub fn bitrate(&self) -> Mbps {
        Mbps::new(2.0)
    }

    /// Stream duration in seconds.
    #[inline]
    pub fn duration_secs(&self) -> u64 {
        self.class.duration_secs()
    }

    /// First instant the video can be requested.
    #[inline]
    pub fn release_time_secs(&self) -> u64 {
        self.release_day * DAY
    }

    /// Whether this video is a new release (not back catalog).
    #[inline]
    pub fn is_new_release(&self) -> bool {
        !matches!(self.kind, VideoKind::Catalog)
    }
}

/// The full video library.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    videos: Vec<Video>,
}

impl Catalog {
    pub fn new(videos: Vec<Video>) -> Self {
        for (idx, v) in videos.iter().enumerate() {
            assert_eq!(
                v.id.index(),
                idx,
                "catalog videos must be stored in id order"
            );
        }
        Self { videos }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.videos.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.videos.is_empty()
    }

    #[inline]
    pub fn video(&self, id: VideoId) -> &Video {
        &self.videos[id.index()]
    }

    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &Video> {
        self.videos.iter()
    }

    pub fn ids(&self) -> impl Iterator<Item = VideoId> + '_ {
        (0..self.videos.len()).map(VideoId::from_index)
    }

    /// Total size of one copy of every video — the lower bound on
    /// aggregate disk in the feasibility region of Fig. 11.
    pub fn total_size(&self) -> Gigabytes {
        self.videos.iter().map(|v| v.size()).sum()
    }

    /// Videos released on `day` (used by weekly placement updates to
    /// discover new content).
    pub fn released_on(&self, day: u64) -> impl Iterator<Item = &Video> {
        self.videos.iter().filter(move |v| v.release_day == day)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u32, class: VideoClass) -> Video {
        Video {
            id: VideoId::new(id),
            class,
            kind: VideoKind::Catalog,
            release_day: 0,
            weight: 1.0,
        }
    }

    #[test]
    fn class_parameters_match_paper() {
        assert_eq!(VideoClass::Clip.size().value(), 0.1);
        assert_eq!(VideoClass::ShortShow.size().value(), 0.5);
        assert_eq!(VideoClass::Show.size().value(), 1.0);
        assert_eq!(VideoClass::Movie.size().value(), 2.0);
        assert_eq!(VideoClass::Movie.duration_secs(), 7200);
        assert_eq!(mk(0, VideoClass::Clip).bitrate(), Mbps::new(2.0));
    }

    /// `vod-sim` keeps one stream-end queue per class, indexed by
    /// `class as usize`: `ALL` must list the classes in discriminant
    /// order with no gaps.
    #[test]
    fn all_lists_classes_in_discriminant_order() {
        for (k, class) in VideoClass::ALL.into_iter().enumerate() {
            assert_eq!(class as usize, k);
        }
    }

    #[test]
    fn catalog_total_size() {
        let c = Catalog::new(vec![mk(0, VideoClass::Movie), mk(1, VideoClass::Show)]);
        assert_eq!(c.total_size().value(), 3.0);
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "id order")]
    fn catalog_rejects_misordered_ids() {
        let _ = Catalog::new(vec![mk(1, VideoClass::Clip)]);
    }

    #[test]
    fn release_metadata() {
        let mut v = mk(0, VideoClass::Show);
        v.kind = VideoKind::SeriesEpisode {
            series: 3,
            episode: 2,
        };
        v.release_day = 14;
        assert!(v.is_new_release());
        assert_eq!(v.release_time_secs(), 14 * 86_400);
        assert!(!mk(1, VideoClass::Clip).is_new_release());
    }

    #[test]
    fn released_on_filters() {
        let mut a = mk(0, VideoClass::Show);
        a.release_day = 7;
        let b = mk(1, VideoClass::Clip);
        let c = Catalog::new(vec![a, b]);
        assert_eq!(c.released_on(7).count(), 1);
        assert_eq!(c.released_on(0).count(), 1);
        assert_eq!(c.released_on(3).count(), 0);
    }
}

/// Chunked-library transform (Section V-B): "If we wanted to break up
/// videos into chunks and store their pieces in separate locations, we
/// could accomplish that by treating each chunk as a distinct element
/// of M." This helper materializes that: every video is split into
/// `ceil(size / chunk_gb)` chunks, each a catalog entry of its own with
/// the parent's popularity weight and release day; the mapping back to
/// parents is returned alongside.
pub fn chunked_catalog(catalog: &Catalog, chunk_gb: f64) -> (Catalog, Vec<VideoId>) {
    assert!(chunk_gb > 0.0, "chunk size must be positive");
    let mut videos = Vec::new();
    let mut parents = Vec::new();
    for v in catalog.iter() {
        // Chunk counts are tiny (a video is a handful of GB); clamp
        // explicitly rather than rely on the cast's saturating behavior.
        #[allow(clippy::cast_possible_truncation)]
        let n_chunks = (v.size().value() / chunk_gb)
            .ceil()
            .max(1.0)
            .min(u32::MAX as f64) as u32;
        // Preserve total duration and size across the chunks by
        // assigning each chunk the smallest class at least as large as
        // the chunk size (exact sizes are class-quantized in this
        // model, matching how the paper quantizes video lengths).
        let per_chunk_gb = v.size().value() / n_chunks as f64;
        let class = VideoClass::ALL
            .iter()
            .copied()
            .find(|c| c.size().value() >= per_chunk_gb - 1e-9)
            .unwrap_or(VideoClass::Movie);
        for _ in 0..n_chunks {
            videos.push(Video {
                id: VideoId::from_index(videos.len()),
                class,
                kind: v.kind,
                release_day: v.release_day,
                weight: v.weight / n_chunks as f64,
            });
            parents.push(v.id);
        }
    }
    (Catalog::new(videos), parents)
}

#[cfg(test)]
mod chunk_tests {
    use super::*;

    #[test]
    fn movies_split_clips_do_not() {
        let catalog = Catalog::new(vec![
            Video {
                id: VideoId::new(0),
                class: VideoClass::Movie, // 2 GB
                kind: VideoKind::Catalog,
                release_day: 3,
                weight: 1.0,
            },
            Video {
                id: VideoId::new(1),
                class: VideoClass::Clip, // 0.1 GB
                kind: VideoKind::Catalog,
                release_day: 0,
                weight: 0.5,
            },
        ]);
        let (chunked, parents) = chunked_catalog(&catalog, 0.5);
        // Movie → 4 chunks of 0.5 GB; clip → 1 chunk.
        assert_eq!(chunked.len(), 5);
        assert_eq!(parents[..4], [VideoId::new(0); 4]);
        assert_eq!(parents[4], VideoId::new(1));
        // Weight conserved per parent.
        let w0: f64 = chunked.iter().take(4).map(|v| v.weight).sum();
        assert!((w0 - 1.0).abs() < 1e-12);
        // Release metadata inherited.
        assert_eq!(chunked.video(VideoId::new(0)).release_day, 3);
    }

    #[test]
    fn chunking_at_video_size_is_identity_shaped() {
        let catalog = Catalog::new(vec![Video {
            id: VideoId::new(0),
            class: VideoClass::Show,
            kind: VideoKind::Catalog,
            release_day: 0,
            weight: 2.0,
        }]);
        let (chunked, parents) = chunked_catalog(&catalog, 10.0);
        assert_eq!(chunked.len(), 1);
        assert_eq!(parents, vec![VideoId::new(0)]);
        assert_eq!(chunked.video(VideoId::new(0)).weight, 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_chunk_rejected() {
        let catalog = Catalog::new(vec![]);
        let _ = chunked_catalog(&catalog, 0.0);
    }
}
