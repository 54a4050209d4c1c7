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

/// A time-sorted sequence of requests over a fixed horizon.
///
/// A trace is a *view*: shared, immutable storage plus the index range
/// of it this trace covers. [`Trace::new`] sorts once and owns the whole
/// range; `clone` and [`Trace::restricted`] are O(1) and share the
/// storage, so a window of a 1.5 M-request trace costs three words, not
/// a copy of its requests.
#[derive(Debug, Clone)]
pub struct Trace {
    horizon: SimTime,
    // `Arc<Vec<_>>`, not `Arc<[_]>`: converting the freshly sorted
    // `Vec` into an `Arc<[_]>` would copy every request once more.
    storage: Arc<Vec<Request>>,
    range: Range<usize>,
}

impl Trace {
    /// Build a trace; requests are sorted by time (stably, so equal
    /// timestamps keep generation order for determinism).
    pub fn new(horizon: SimTime, mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| r.time);
        assert!(
            requests.last().is_none_or(|r| r.time < horizon),
            "request beyond trace horizon"
        );
        Self {
            horizon,
            range: 0..requests.len(),
            storage: Arc::new(requests),
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
    pub fn requests(&self) -> &[Request] {
        &self.storage[self.range.clone()]
    }

    /// Requests with `start <= time < end` (binary search on the sorted
    /// requests).
    pub fn slice(&self, window: TimeWindow) -> &[Request] {
        &self.requests()[self.positions(window)]
    }

    /// Positions, within [`Trace::requests`], of the requests inside
    /// `window`.
    fn positions(&self, window: TimeWindow) -> Range<usize> {
        let reqs = self.requests();
        let lo = reqs.partition_point(|r| r.time < window.start);
        let hi = reqs.partition_point(|r| r.time < window.end);
        lo..hi
    }

    /// Requests per consecutive bucket of `bucket_secs` over the whole
    /// horizon (used to locate peak hours).
    pub fn bucket_counts(&self, bucket_secs: u64) -> Vec<u64> {
        assert!(bucket_secs > 0);
        let n = self.horizon.secs().div_ceil(bucket_secs);
        let mut counts = vec![0u64; narrow::usize_from(n)];
        for r in self.requests() {
            counts[narrow::usize_from(r.time.secs() / bucket_secs)] += 1;
        }
        counts
    }

    /// Restrict to a sub-range (e.g., the evaluation weeks after the
    /// warm-up period), keeping absolute timestamps. Two binary
    /// searches; the result shares this trace's storage.
    pub fn restricted(&self, window: TimeWindow) -> Trace {
        self.window_at(self.positions(window), window)
    }

    /// The view [`Trace::restricted`] returns for `window`, given the
    /// positions (within [`Trace::requests`]) of the requests inside it
    /// — for callers that track those positions themselves instead of
    /// searching for them. Panics when a request at `positions` lies
    /// outside `window`.
    pub fn window_at(&self, positions: Range<usize>, window: TimeWindow) -> Trace {
        let inside = &self.requests()[positions.clone()];
        assert!(
            inside.first().is_none_or(|r| r.time >= window.start)
                && inside.last().is_none_or(|r| r.time < window.end),
            "positions reach outside the window"
        );
        Trace {
            horizon: self.horizon.min(window.end),
            storage: Arc::clone(&self.storage),
            range: self.range.start + positions.start..self.range.start + positions.end,
        }
    }
}

impl std::ops::Index<usize> for Trace {
    type Output = Request;
    fn index(&self, i: usize) -> &Request {
        &self.requests()[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, v: u16, m: u32) -> Request {
        Request {
            time: SimTime::new(t),
            vho: VhoId::new(v),
            video: VideoId::new(m),
        }
    }

    #[test]
    fn constructor_sorts_stably() {
        let t = Trace::new(
            SimTime::new(100),
            vec![req(50, 0, 1), req(10, 1, 2), req(50, 2, 3)],
        );
        assert_eq!(t[0].time, SimTime::new(10));
        // Equal timestamps keep insertion order.
        assert_eq!(t[1].vho, VhoId::new(0));
        assert_eq!(t[2].vho, VhoId::new(2));
    }

    #[test]
    fn slicing_is_half_open() {
        let t = Trace::new(
            SimTime::new(100),
            (0..10).map(|i| req(i * 10, 0, i as u32)).collect(),
        );
        let s = t.slice(TimeWindow::new(SimTime::new(20), SimTime::new(50)));
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].time, SimTime::new(20));
        assert_eq!(s[2].time, SimTime::new(40));
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
        assert_eq!(r[0].time, SimTime::new(30));
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
            .iter()
            .copied()
            .filter(|r| (50..120).contains(&r.time.secs()))
            .collect();
        assert_eq!(expect.len(), 14);
        assert_eq!(w.requests(), &expect[..]);
        assert_eq!(w.len(), 14);
        assert!(!w.is_empty());
        assert_eq!(w.horizon(), SimTime::new(120));
        // `Index` counts from the window's first request, not the
        // parent's.
        assert_eq!(w[0], req(50, 0, 5));
        assert_eq!(w[1], req(50, 1, 5));
        assert_eq!(w[13], req(110, 1, 11));
        // `slice` searches inside the window only.
        assert_eq!(w.slice(win(0, 200)), &expect[..]);
        assert_eq!(w.slice(win(60, 80)), &expect[2..6]);
        assert_eq!(w.slice(win(0, 50)), &[]);
        assert_eq!(w.slice(win(120, 200)), &[]);
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
            assert_eq!(nested.requests(), direct.requests(), "[{s}, {e})");
            assert_eq!(nested.horizon(), direct.horizon(), "[{s}, {e})");
            assert_eq!(nested.len(), direct.len());
        }
        // Three levels deep, each starting past its parent's index 0.
        let inner = outer.restricted(win(80, 180)).restricted(win(100, 130));
        assert_eq!(inner.requests(), t.slice(win(100, 130)));
        assert_eq!(inner[0], req(100, 0, 10));
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
        assert_eq!(e.requests(), &[]);
        assert_eq!(e.horizon(), SimTime::new(30));
        assert_eq!(e.bucket_counts(10), vec![0, 0, 0]);
        assert_eq!(e.slice(win(0, 100)), &[]);
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
        assert_eq!(over[0], req(80, 0, 8));
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
        let _ = w[4];
    }

    #[test]
    fn clones_and_windows_share_the_requests_they_view() {
        let t = grid(200);
        let base = t.requests().as_ptr();
        assert_eq!(t.clone().requests().as_ptr(), base);
        // Ticks 0..50 hold ten requests, so the window starts at
        // position 10 of the same allocation, and a window of it at 14.
        let w = t.restricted(win(50, 120));
        assert_eq!(w.requests().as_ptr(), base.wrapping_add(10));
        let inner = w.restricted(win(70, 90));
        assert_eq!(inner.requests().as_ptr(), base.wrapping_add(14));
        assert_eq!(inner.clone().requests().as_ptr(), base.wrapping_add(14));
        // A view keeps the storage alive on its own.
        drop((t, w));
        assert_eq!(
            inner.requests(),
            &[req(70, 0, 7), req(70, 1, 7), req(80, 0, 8), req(80, 1, 8)]
        );
    }

    #[test]
    #[should_panic(expected = "outside the window")]
    fn a_window_cannot_be_given_requests_it_does_not_cover() {
        let t = grid(100);
        let _ = t.window_at(0..6, win(10, 30));
    }

    #[test]
    fn empty_trace_is_fine() {
        let t = Trace::new(SimTime::new(100), vec![]);
        assert!(t.is_empty());
        assert_eq!(t.bucket_counts(50), vec![0, 0]);
    }
}
