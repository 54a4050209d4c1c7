//! Streaming demand windows for the long-running placement service.
//!
//! A window of a trace is a view ([`Trace::restricted`]): it shares the
//! trace's storage, so nothing is copied or re-sorted whoever makes it.
//! What is left to save is the search. A one-shot pipeline finds a
//! window's ends with two binary searches; a *service* re-estimates
//! demand every cycle over windows that only ever slide forward, so
//! this module keeps monotone cursors into the live trace and advances
//! them incrementally: over a whole service run each cursor walks every
//! request at most once per direction (amortized O(1) per cycle for the
//! forward-sliding service pattern), and the produced window is the one
//! `Trace::restricted` returns — pinned by test, so the service and the
//! one-shot pipeline estimate from the same requests.

use vod_model::TimeWindow;
use vod_trace::Trace;

/// Monotone cursor pair over a time-sorted trace. Plain state, no
/// borrow: the service owns its world, so the trace is passed into
/// [`StreamingWindow::advance`] each cycle instead of being captured.
/// The trace must be append-only between calls (the already-scanned
/// prefix must not change) — re-sorting or replacing it invalidates
/// the cursors, in which case start from a fresh `StreamingWindow`.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingWindow {
    /// First index with `time >=` the last window's start.
    lo: usize,
    /// First index with `time >=` the last window's end.
    hi: usize,
}

impl StreamingWindow {
    pub fn new() -> Self {
        Self::default()
    }

    /// Slide the cursors to `window` and return the view of `trace`
    /// for it — the same requests, in the same storage, as
    /// `trace.restricted(window)`. Windows normally advance
    /// monotonically; a regression is still answered correctly (the
    /// cursors walk backwards), it just costs the amortization.
    pub fn advance(&mut self, trace: &Trace, window: TimeWindow) -> Trace {
        let n = trace.len();
        // Tolerate a shorter trace than last time (fresh world after a
        // restart): clamp, then re-seek.
        self.lo = self.lo.min(n);
        self.hi = self.hi.min(n);
        while self.lo > 0 && trace.time_at(self.lo - 1) >= window.start {
            self.lo -= 1;
        }
        while self.lo < n && trace.time_at(self.lo) < window.start {
            self.lo += 1;
        }
        while self.hi > 0 && trace.time_at(self.hi - 1) >= window.end {
            self.hi -= 1;
        }
        while self.hi < n && trace.time_at(self.hi) < window.end {
            self.hi += 1;
        }
        trace.window_at(self.lo..self.hi.max(self.lo), window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{SimTime, VhoId, VideoId};
    use vod_trace::Request;

    fn trace(n: u64) -> Trace {
        let reqs = (0..n)
            .map(|i| Request {
                time: SimTime::new(i * 7 % 600),
                vho: VhoId::new((i % 5) as u16),
                video: VideoId::new((i % 11) as u32),
            })
            .collect();
        Trace::new(SimTime::new(600), reqs)
    }

    fn assert_same(a: &Trace, b: &Trace) {
        assert_eq!(a.horizon(), b.horizon());
        assert_eq!(a.len(), b.len());
        assert!(a.requests().eq(b.requests()));
    }

    #[test]
    fn matches_restricted_on_sliding_windows() {
        let t = trace(200);
        let mut win = StreamingWindow::new();
        for day in 0..6u64 {
            let w = TimeWindow::new(SimTime::new(day * 100), SimTime::new((day + 1) * 100));
            assert_same(&win.advance(&t, w), &t.restricted(w));
        }
    }

    #[test]
    fn matches_restricted_on_overlapping_and_regressing_windows() {
        let t = trace(150);
        let mut win = StreamingWindow::new();
        let spans = [
            (0, 300),
            (100, 400),
            (50, 350), // regression: start moved backwards
            (350, 350),
            (0, 600),
            (599, 600),
        ];
        for (s, e) in spans {
            let w = TimeWindow::new(SimTime::new(s), SimTime::new(e));
            assert_same(&win.advance(&t, w), &t.restricted(w));
        }
    }

    #[test]
    fn matches_restricted_on_a_nested_window_in_every_direction() {
        // The trace handed to `advance` is itself a window that starts
        // past its parent's index 0, as the service's history window
        // is after the first cycle.
        let full = trace(400);
        let t = full.restricted(TimeWindow::new(SimTime::new(120), SimTime::new(520)));
        assert!(t.len() < full.len() && t.time_at(0) >= SimTime::new(120));
        let mut win = StreamingWindow::new();
        let spans = [
            (120, 220), // forward
            (220, 320),
            (320, 420),
            (320, 420), // repeated
            (320, 420),
            (200, 300), // backward
            (120, 200),
            (0, 130),   // overhangs the window's start
            (500, 600), // overhangs its end
            (520, 600), // wholly past it
            (0, 120),   // wholly before it
            (0, 600),   // everything
            (300, 300), // empty
        ];
        for (s, e) in spans {
            let w = TimeWindow::new(SimTime::new(s), SimTime::new(e));
            let got = win.advance(&t, w);
            assert_same(&got, &t.restricted(w));
            // And both equal the parent restricted to the overlap.
            let clip = TimeWindow::new(SimTime::new(s.max(120)), SimTime::new(e.clamp(120, 520)));
            assert!(
                got.requests().eq(full.restricted(clip).requests()),
                "[{s}, {e})"
            );
        }
    }

    #[test]
    fn an_advanced_window_can_be_advanced_and_restricted_again() {
        let t = trace(300);
        let mut outer = StreamingWindow::new();
        let mut inner = StreamingWindow::new();
        for day in 0..4u64 {
            let big = TimeWindow::new(SimTime::new(day * 100), SimTime::new(day * 100 + 300));
            let week = outer.advance(&t, big);
            for step in [0u64, 1, 2, 1, 1] {
                let small = TimeWindow::new(
                    SimTime::new(day * 100 + step * 100),
                    SimTime::new(day * 100 + step * 100 + 100),
                );
                let got = inner.advance(&week, small);
                assert_same(&got, &week.restricted(small));
                assert_same(&got, &t.restricted(small));
                assert!(got.slice(small).eq(got.requests()));
                assert_eq!(got.bucket_counts(50).iter().sum::<u64>(), got.len() as u64);
            }
        }
    }

    #[test]
    fn an_advanced_window_shares_the_trace_it_was_cut_from() {
        let t = trace(200);
        let mut win = StreamingWindow::new();
        for (s, e) in [(0, 100), (100, 300), (50, 250), (50, 250)] {
            let w = TimeWindow::new(SimTime::new(s), SimTime::new(e));
            let got = win.advance(&t, w);
            // Same storage, no copy, and the requests `restricted` finds.
            assert!(got.shares_storage(&t));
            assert!(got.shares_storage(&t.restricted(w)));
            assert!(got.requests().eq(t.slice(w)));
            assert_same(&got, &t.restricted(w));
        }
    }

    #[test]
    fn empty_trace_and_empty_windows() {
        let t = Trace::new(SimTime::new(10), vec![]);
        let mut win = StreamingWindow::new();
        let w = TimeWindow::new(SimTime::new(3), SimTime::new(7));
        assert_same(&win.advance(&t, w), &t.restricted(w));
        // Shrinking the trace under the cursors is clamped, not a panic.
        let full = trace(50);
        let mut win2 = StreamingWindow::new();
        let _ = win2.advance(&full, TimeWindow::new(SimTime::new(0), SimTime::new(600)));
        assert_same(&win2.advance(&t, w), &t.restricted(w));
    }
}
