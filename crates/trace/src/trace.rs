//! Request traces: the raw input of every experiment.

use std::ops::Range;
use std::sync::Arc;
use vod_model::narrow;
use vod_model::{SimTime, TimeWindow, VhoId, VideoId};

/// One VoD request: user in metro `vho` asks for `video` at `time`.
/// The stream then stays active for the video's duration (the paper's
/// `f_j^m(t)` counts these still-active streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub time: SimTime,
    pub vho: VhoId,
    pub video: VideoId,
}

/// Bits of a packed request word below the time: the video, then the
/// VHO in the lowest bits.
const VIDEO_BITS: u32 = 22;
const VHO_BITS: u32 = 10;
const TIME_SHIFT: u32 = VIDEO_BITS + VHO_BITS;

/// Every request time, in seconds, is below this: a trace keeps 32
/// bits of it (136 years).
pub const TIME_LIMIT: u64 = 1 << TIME_SHIFT;
/// Every video index is below this: a trace keeps 22 bits of it.
pub const VIDEO_LIMIT: usize = 1 << VIDEO_BITS;
/// Every VHO index is below this: a trace keeps 10 bits of it.
pub const VHO_LIMIT: usize = 1 << VHO_BITS;

/// One word per request: time, video and VHO from the top bit down.
/// Panics, naming the limit, when a field does not fit.
pub(crate) fn pack(r: Request) -> u64 {
    let (time, video, vho) = (r.time.secs(), r.video.index(), r.vho.index());
    assert!(
        time < TIME_LIMIT,
        "request time {time} s is past the 32-bit time limit"
    );
    assert!(
        video < VIDEO_LIMIT,
        "video {video} is past the 22-bit video limit"
    );
    assert!(vho < VHO_LIMIT, "VHO {vho} is past the 10-bit VHO limit");
    time << TIME_SHIFT | (video as u64) << VHO_BITS | vho as u64
}

/// The time field of a packed word, in seconds: the key a trace is
/// sorted on.
#[inline]
pub(crate) fn time_key(word: u64) -> u64 {
    word >> TIME_SHIFT
}

#[inline]
fn time_of(word: u64) -> SimTime {
    SimTime::new(time_key(word))
}

/// Sort packed words stably on their time alone: a sort on the whole
/// word would also order same-second requests by video and VHO, and
/// every replay depends on their generation order.
pub(crate) fn sort_by_time(words: &mut [u64]) {
    words.sort_by_key(|&w| time_key(w));
}

#[inline]
#[expect(
    clippy::disallowed_methods,
    reason = "decodes an id that was a VhoId when it was packed"
)]
fn unpack(word: u64) -> Request {
    let low = |bits: u32, shift: u32| narrow::usize_from((word >> shift) & ((1 << bits) - 1));
    Request {
        time: time_of(word),
        vho: VhoId::from_index(low(VHO_BITS, 0)),
        video: VideoId::from_index(low(VIDEO_BITS, VHO_BITS)),
    }
}

/// A time-sorted sequence of requests over a fixed horizon.
///
/// A trace is a *view*: shared, immutable storage plus the index range
/// of it this trace covers. [`Trace::new`] sorts once and owns the whole
/// range; `clone` and [`Trace::restricted`] are O(1) and share the
/// storage, so a window of a 1.5 M-request trace costs three words, not
/// a copy of its requests. The storage holds each request packed into
/// one `u64` (see [`TIME_LIMIT`], [`VIDEO_LIMIT`], [`VHO_LIMIT`]), half
/// the bytes of a [`Request`]; reads decode.
#[derive(Debug, Clone)]
pub struct Trace {
    horizon: SimTime,
    // `Arc<Vec<_>>`, not `Arc<[_]>`: converting the freshly sorted
    // `Vec` into an `Arc<[_]>` would copy every request once more.
    storage: Arc<Vec<u64>>,
    range: Range<usize>,
}

impl Trace {
    /// Build a trace; requests are sorted by time (stably, so equal
    /// timestamps keep generation order for determinism). Panics when
    /// a request lies at or past `horizon` or past one of the packing
    /// limits.
    pub fn new(horizon: SimTime, requests: Vec<Request>) -> Self {
        let mut words: Vec<u64> = requests.into_iter().map(pack).collect();
        sort_by_time(&mut words);
        Self::from_packed(horizon, words)
    }

    /// A trace over words already packed by [`pack`] and in time order,
    /// as [`sort_by_time`] leaves them. Checks the order in one pass
    /// and panics when a word is out of it or at or past `horizon`.
    pub(crate) fn from_packed(horizon: SimTime, words: Vec<u64>) -> Self {
        assert!(
            words.windows(2).all(|p| time_key(p[0]) <= time_key(p[1])),
            "packed requests out of time order"
        );
        assert!(
            words.last().is_none_or(|&w| time_of(w) < horizon),
            "request beyond trace horizon"
        );
        Self {
            horizon,
            range: 0..words.len(),
            storage: Arc::new(words),
        }
    }

    #[inline]
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.range.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    #[inline]
    fn words(&self) -> &[u64] {
        &self.storage[self.range.clone()]
    }

    /// The requests in time order.
    #[inline]
    pub fn requests(&self) -> Requests<'_> {
        Requests(self.words().iter())
    }

    /// Request `i` of this view. Panics when `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> Request {
        unpack(self.words()[i])
    }

    /// Whether `other` views the same storage as this trace, so that
    /// neither holds a copy of the other's requests.
    pub fn shares_storage(&self, other: &Trace) -> bool {
        Arc::ptr_eq(&self.storage, &other.storage)
    }

    /// Requests with `start <= time < end` (binary search on the sorted
    /// requests).
    pub fn slice(&self, window: TimeWindow) -> Requests<'_> {
        Requests(self.words()[self.positions(window)].iter())
    }

    /// Positions, within [`Trace::requests`], of the requests inside
    /// `window`.
    fn positions(&self, window: TimeWindow) -> Range<usize> {
        let words = self.words();
        let lo = words.partition_point(|&w| time_of(w) < window.start);
        let hi = words.partition_point(|&w| time_of(w) < window.end);
        lo..hi
    }

    /// Requests per consecutive bucket of `bucket_secs` over the whole
    /// horizon (used to locate peak hours).
    pub fn bucket_counts(&self, bucket_secs: u64) -> Vec<u64> {
        assert!(bucket_secs > 0);
        let n = self.horizon.secs().div_ceil(bucket_secs);
        let mut counts = vec![0u64; narrow::usize_from(n)];
        for &w in self.words() {
            counts[narrow::usize_from(time_of(w).secs() / bucket_secs)] += 1;
        }
        counts
    }

    /// Restrict to a sub-range (e.g., the evaluation weeks after the
    /// warm-up period), keeping absolute timestamps. Two binary
    /// searches; the result shares this trace's storage.
    pub fn restricted(&self, window: TimeWindow) -> Trace {
        let positions = self.positions(window);
        Trace {
            horizon: self.horizon.min(window.end),
            storage: Arc::clone(&self.storage),
            range: self.range.start + positions.start..self.range.start + positions.end,
        }
    }
}

/// The requests of a trace or of a window of it, decoded in time order
/// from their packed words.
#[derive(Debug, Clone)]
pub struct Requests<'a>(std::slice::Iter<'a, u64>);

impl Iterator for Requests<'_> {
    type Item = Request;

    #[inline]
    fn next(&mut self) -> Option<Request> {
        self.0.next().map(|&w| unpack(w))
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl DoubleEndedIterator for Requests<'_> {
    #[inline]
    fn next_back(&mut self) -> Option<Request> {
        self.0.next_back().map(|&w| unpack(w))
    }
}

impl ExactSizeIterator for Requests<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn req(t: u64, v: u16, m: u32) -> Request {
        Request {
            time: SimTime::new(t),
            vho: VhoId::new(v),
            video: VideoId::new(m),
        }
    }

    fn all(reqs: Requests<'_>) -> Vec<Request> {
        reqs.collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        #[test]
        fn a_packed_request_unpacks_bit_for_bit(
            time in 0u64..TIME_LIMIT,
            video in 0usize..VIDEO_LIMIT,
            vho in 0usize..VHO_LIMIT,
            edges in 0u8..8,
        ) {
            // `edges` pins each field to its largest value in turn, so
            // every combination of extremes is covered too.
            let r = Request {
                time: SimTime::new(if edges & 1 == 0 { time } else { TIME_LIMIT - 1 }),
                vho: VhoId::from_index(if edges & 2 == 0 { vho } else { VHO_LIMIT - 1 }),
                video: VideoId::from_index(if edges & 4 == 0 { video } else { VIDEO_LIMIT - 1 }),
            };
            prop_assert_eq!(unpack(pack(r)), r);
            prop_assert_eq!(time_of(pack(r)), r.time);
        }
    }

    #[test]
    fn the_largest_fields_and_zero_round_trip() {
        let top = Request {
            time: SimTime::new(TIME_LIMIT - 1),
            vho: VhoId::from_index(VHO_LIMIT - 1),
            video: VideoId::from_index(VIDEO_LIMIT - 1),
        };
        assert_eq!(pack(top), u64::MAX);
        assert_eq!(unpack(u64::MAX), top);
        assert_eq!(pack(req(0, 0, 0)), 0);
        assert_eq!(unpack(0), req(0, 0, 0));
        let t = Trace::new(SimTime::new(TIME_LIMIT), vec![top, req(0, 0, 0)]);
        assert_eq!(all(t.requests()), [req(0, 0, 0), top]);
    }

    #[test]
    #[should_panic(expected = "past the 32-bit time limit")]
    fn a_time_one_past_the_limit_panics() {
        let _ = Trace::new(SimTime::new(TIME_LIMIT + 1), vec![req(TIME_LIMIT, 0, 0)]);
    }

    #[test]
    #[should_panic(expected = "past the 22-bit video limit")]
    fn a_video_one_past_the_limit_panics() {
        let over = VideoId::from_index(VIDEO_LIMIT);
        let _ = Trace::new(
            SimTime::new(10),
            vec![Request {
                video: over,
                ..req(0, 0, 0)
            }],
        );
    }

    #[test]
    #[should_panic(expected = "past the 10-bit VHO limit")]
    fn a_vho_one_past_the_limit_panics() {
        let _ = Trace::new(
            SimTime::new(10),
            vec![Request {
                vho: VhoId::from_index(VHO_LIMIT),
                ..req(0, 0, 0)
            }],
        );
    }

    #[test]
    fn constructor_sorts_stably() {
        let t = Trace::new(
            SimTime::new(100),
            vec![req(50, 0, 1), req(10, 1, 2), req(50, 2, 3)],
        );
        assert_eq!(t.get(0).time, SimTime::new(10));
        // Equal timestamps keep insertion order.
        assert_eq!(t.get(1).vho, VhoId::new(0));
        assert_eq!(t.get(2).vho, VhoId::new(2));
    }

    #[test]
    fn requests_sharing_a_second_keep_generation_order() {
        // Five seconds, forty requests each, generated with video and
        // VHO running *down*: a sort on the whole word would turn every
        // second's run around.
        let gen: Vec<Request> = (0..200u32)
            .map(|i| req(u64::from(i % 5) * 7, (199 - i as u16) % 9, 199 - i))
            .collect();
        let t = Trace::new(SimTime::new(100), gen.clone());
        let mut by_time = gen.clone();
        by_time.sort_by_key(|r| r.time);
        assert_eq!(all(t.requests()), by_time);
        let mut by_word = gen;
        by_word.sort_by_key(|&r| pack(r));
        assert_ne!(all(t.requests()), by_word);
        // Within each second, generation order is falling video ids.
        for w in all(t.requests()).windows(2) {
            assert!(w[0].time < w[1].time || w[0].video > w[1].video);
        }
    }

    #[test]
    fn slicing_is_half_open() {
        let t = Trace::new(
            SimTime::new(100),
            (0..10).map(|i| req(i * 10, 0, i as u32)).collect(),
        );
        let s = t.slice(TimeWindow::new(SimTime::new(20), SimTime::new(50)));
        assert_eq!(s.len(), 3);
        let s = all(s);
        assert_eq!(s[0].time, SimTime::new(20));
        assert_eq!(s[2].time, SimTime::new(40));
    }

    #[test]
    fn requests_iterate_both_ways_and_know_their_length() {
        let t = grid(100);
        let mut it = t.requests();
        assert_eq!(it.len(), 20);
        assert_eq!(it.next(), Some(req(0, 0, 0)));
        assert_eq!(it.next_back(), Some(req(90, 1, 9)));
        assert_eq!(it.len(), 18);
        let mut rest = it.clone();
        assert_eq!(it.nth(2), Some(req(10, 1, 1)));
        assert_eq!(rest.len(), 18);
        assert_eq!(rest.next_back(), Some(req(90, 0, 9)));
        let back: Vec<Request> = t.requests().rev().collect();
        let mut fwd = all(t.requests());
        fwd.reverse();
        assert_eq!(back, fwd);
        for (i, r) in t.requests().enumerate() {
            assert_eq!(t.get(i), r);
        }
    }

    #[test]
    fn bucket_counts_cover_horizon() {
        let t = Trace::new(
            SimTime::new(95),
            vec![req(0, 0, 0), req(5, 0, 1), req(90, 0, 2)],
        );
        let c = t.bucket_counts(10);
        assert_eq!(c.len(), 10);
        assert_eq!(c[0], 2);
        assert_eq!(c[9], 1);
        assert_eq!(c.iter().sum::<u64>(), 3);
    }

    #[test]
    fn restriction_preserves_timestamps() {
        let t = Trace::new(
            SimTime::new(100),
            (0..10).map(|i| req(i * 10, 0, 0)).collect(),
        );
        let r = t.restricted(TimeWindow::new(SimTime::new(30), SimTime::new(60)));
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(0).time, SimTime::new(30));
    }

    #[test]
    #[should_panic(expected = "out of time order")]
    fn packed_words_out_of_time_order_are_refused() {
        let _ = Trace::from_packed(
            SimTime::new(100),
            vec![pack(req(20, 0, 0)), pack(req(10, 0, 1))],
        );
    }

    #[test]
    #[should_panic(expected = "beyond trace horizon")]
    fn horizon_enforced() {
        let _ = Trace::new(SimTime::new(10), vec![req(10, 0, 0)]);
    }

    /// Ten-second grid, two requests per tick: `(t, vho 0)`, `(t, vho 1)`.
    fn grid(horizon: u64) -> Trace {
        let reqs = (0..horizon / 10)
            .flat_map(|i| [req(i * 10, 0, i as u32), req(i * 10, 1, i as u32)])
            .collect();
        Trace::new(SimTime::new(horizon), reqs)
    }

    fn win(s: u64, e: u64) -> TimeWindow {
        TimeWindow::new(SimTime::new(s), SimTime::new(e))
    }

    #[test]
    fn a_window_that_starts_past_index_zero_answers_like_its_own_trace() {
        let t = grid(200);
        let w = t.restricted(win(50, 120));
        // What a window is: the requests in [start, end), absolute
        // timestamps, horizon clipped to the window's end.
        let expect: Vec<Request> = t
            .requests()
            .filter(|r| (50..120).contains(&r.time.secs()))
            .collect();
        assert_eq!(expect.len(), 14);
        assert_eq!(all(w.requests()), expect);
        assert_eq!(w.len(), 14);
        assert_eq!(w.requests().len(), 14);
        assert!(!w.is_empty());
        assert_eq!(w.horizon(), SimTime::new(120));
        // `get` counts from the window's first request, not the
        // parent's.
        assert_eq!(w.get(0), req(50, 0, 5));
        assert_eq!(w.get(1), req(50, 1, 5));
        assert_eq!(w.get(13), req(110, 1, 11));
        // `slice` searches inside the window only.
        assert_eq!(all(w.slice(win(0, 200))), expect);
        assert_eq!(all(w.slice(win(60, 80))), expect[2..6]);
        assert_eq!(w.slice(win(0, 50)).len(), 0);
        assert_eq!(w.slice(win(120, 200)).len(), 0);
        // `bucket_counts` spans [0, horizon) in absolute time: the
        // buckets before the window's start exist and are empty.
        assert_eq!(w.bucket_counts(30), vec![0, 2, 6, 6]);
        assert_eq!(w.bucket_counts(50), vec![0, 10, 4]);
    }

    #[test]
    fn restricting_a_window_equals_restricting_the_parent_to_the_overlap() {
        let t = grid(300);
        let outer = t.restricted(win(40, 210));
        for (s, e) in [
            (40, 210),
            (0, 300),
            (100, 150),
            (0, 100),
            (150, 300),
            (45, 46),
            (205, 215),
        ] {
            let nested = outer.restricted(win(s, e));
            let direct = t.restricted(win(s.max(40), e.min(210)));
            assert!(nested.requests().eq(direct.requests()), "[{s}, {e})");
            assert_eq!(nested.horizon(), direct.horizon(), "[{s}, {e})");
            assert_eq!(nested.len(), direct.len());
        }
        // Three levels deep, each starting past its parent's index 0.
        let inner = outer.restricted(win(80, 180)).restricted(win(100, 130));
        assert!(inner.requests().eq(t.slice(win(100, 130))));
        assert_eq!(inner.get(0), req(100, 0, 10));
        assert_eq!(inner.horizon(), SimTime::new(130));
        assert_eq!(inner.bucket_counts(100), vec![0, 6]);
    }

    #[test]
    fn empty_and_out_of_range_windows() {
        let t = grid(100);
        // Empty by construction, inside the data.
        let e = t.restricted(win(30, 30));
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(e.requests().next(), None);
        assert_eq!(e.horizon(), SimTime::new(30));
        assert_eq!(e.bucket_counts(10), vec![0, 0, 0]);
        assert_eq!(e.slice(win(0, 100)).len(), 0);
        // Between two ticks: no request, non-empty span.
        let gap = t.restricted(win(31, 39));
        assert!(gap.is_empty());
        assert_eq!(gap.horizon(), SimTime::new(39));
        // Wholly past the data: the horizon stays the trace's own.
        let past = t.restricted(win(100, 500));
        assert!(past.is_empty());
        assert_eq!(past.horizon(), SimTime::new(100));
        // Overhanging the end: clipped to what exists.
        let over = t.restricted(win(80, 500));
        assert_eq!(over.len(), 4);
        assert_eq!(over.horizon(), SimTime::new(100));
        assert_eq!(over.get(0), req(80, 0, 8));
        // A window of an empty window, and of an empty trace.
        assert!(e.restricted(win(0, 100)).is_empty());
        assert_eq!(e.restricted(win(0, 100)).horizon(), SimTime::new(30));
        let none = Trace::new(SimTime::new(50), vec![]);
        let w = none.restricted(win(10, 20));
        assert!(w.is_empty());
        assert_eq!(w.horizon(), SimTime::new(20));
        assert_eq!(w.bucket_counts(10), vec![0, 0]);
    }

    #[test]
    #[should_panic]
    fn indexing_past_a_window_panics_even_when_the_parent_has_more() {
        let t = grid(100);
        let w = t.restricted(win(20, 40));
        assert_eq!(w.len(), 4);
        let _ = w.get(4);
    }

    #[test]
    fn clones_and_windows_share_the_requests_they_view() {
        let t = grid(200);
        assert!(t.clone().shares_storage(&t));
        assert!(!t.shares_storage(&grid(200)));
        // Ticks 0..50 hold ten requests, so the window starts at
        // position 10 of the same storage, and a window of it at 14.
        let w = t.restricted(win(50, 120));
        assert!(w.shares_storage(&t));
        assert_eq!(w.range, 10..24);
        let inner = w.restricted(win(70, 90));
        assert!(inner.shares_storage(&t) && inner.clone().shares_storage(&w));
        assert_eq!(inner.range, 14..18);
        assert_eq!(inner.clone().range, 14..18);
        // A view keeps the storage alive on its own.
        drop((t, w));
        assert_eq!(
            all(inner.requests()),
            [req(70, 0, 7), req(70, 1, 7), req(80, 0, 8), req(80, 1, 8)]
        );
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new(SimTime::new(100), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.bucket_counts(50), vec![0, 0]);
    }
}
