//! Spans recorded by the harness around its calls into each layer.
//!
//! The crates under test carry no timers of their own: every span is
//! opened and closed here, outside them. Spans stay in memory until
//! the run ends. With recording off the same calls still return their
//! wall time (two clock reads), they just leave no span behind — so
//! the traced reps add only the span bookkeeping, whose cost
//! `trace_overhead_pct` reports.

use std::time::Instant;
use vod_json::{obj, ToJson, Value};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub rep: usize,
}

#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            recording: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Start (or stop) recording; `rep` tags the spans that follow.
    pub fn set_recording(&mut self, recording: bool, rep: usize) {
        self.recording = recording;
        self.rep = rep;
    }

    pub fn recording(&self) -> bool {
        self.recording
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as a leaf span under the innermost open span; returns
    /// its result and wall seconds. The span is named from the result,
    /// because a `Service::step` says which stage it ran only when it
    /// returns.
    pub fn time_named<R>(
        &mut self,
        f: impl FnOnce() -> R,
        name_of: impl FnOnce(&R) -> &'static str,
    ) -> (R, f64) {
        let start = Instant::now();
        let start_ns = self.now_ns();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        if self.recording {
            self.spans.push(Span {
                name: name_of(&out).to_string(),
                start_ns,
                end_ns: self.now_ns(),
                parent: self.open.last().copied(),
                rep: self.rep,
            });
        }
        (out, secs)
    }

    /// Open a span called `name` under the innermost open span; the
    /// spans that follow are its children until [`Tracer::close`].
    /// Returns `None` while not recording.
    pub fn open(&mut self, name: &str) -> Option<usize> {
        self.recording.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.last().copied(),
                rep: self.rep,
            });
            let id = self.spans.len() - 1;
            self.open.push(id);
            id
        })
    }

    /// Close the span [`Tracer::open`] returned (innermost first).
    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
            self.spans[id].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children never overlap: one caller, closed
/// loop).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
        }
    }
    own
}

/// For every root span called `root_name`, in order: self seconds of
/// its subtree summed per layer — the part of a span name before its
/// first `.` — in first-seen order. The sums of one root add up to its
/// duration.
pub fn layer_self_seconds(spans: &[Span], root_name: &str) -> Vec<Vec<(String, f64)>> {
    let own = self_times_ns(spans);
    // Spans are stored in start order, so a parent precedes its
    // children and its root is already resolved.
    let mut root_of: Vec<Option<usize>> = Vec::with_capacity(spans.len());
    let mut roots: Vec<Vec<(String, u64)>> = Vec::new();
    for (s, ns) in spans.iter().zip(own) {
        let root = match s.parent {
            Some(p) => root_of[p],
            None => (s.name == root_name).then(|| {
                roots.push(Vec::new());
                roots.len() - 1
            }),
        };
        root_of.push(root);
        let Some(root) = root else { continue };
        let layer = s.name.split('.').next().unwrap_or(&s.name);
        match roots[root].iter_mut().find(|(l, _)| l == layer) {
            Some((_, acc)) => *acc += ns,
            None => roots[root].push((layer.to_string(), ns)),
        }
    }
    roots
        .into_iter()
        .map(|layers| {
            layers
                .into_iter()
                .map(|(layer, ns)| (layer, ns as f64 / 1e9))
                .collect()
        })
        .collect()
}

pub fn spans_to_value(spans: &[Span], workload: &str) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("name", s.name.to_value()),
                    ("start_ns", s.start_ns.to_value()),
                    ("end_ns", s.end_ns.to_value()),
                    ("parent", s.parent.map_or(Value::Null, |p| p.to_value())),
                    ("workload", workload.to_value()),
                    ("rep", s.rep.to_value()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root 0..100 holds a (10..40) and b (50..90); a holds c (15..25).
        let spans = vec![
            span("harness.op", 0, 100, None),
            span("core.a", 10, 40, Some(0)),
            span("core.c", 15, 25, Some(1)),
            span("sim.b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        // A second root keeps its own sums.
        let mut two = spans.clone();
        two.push(span("harness.op", 200, 260, None));
        two.push(span("sim.b", 210, 250, Some(4)));
        // A root of another name (a set-up between ops) is left out.
        two.push(span("trace.library_s", 300, 340, None));
        let layers = layer_self_seconds(&two, "harness.op");
        let named = |l: &str, s: f64| (l.to_string(), s);
        assert_eq!(
            layers,
            vec![
                vec![
                    named("harness", 30e-9),
                    named("core", 30e-9),
                    named("sim", 40e-9)
                ],
                vec![named("harness", 20e-9), named("sim", 40e-9)],
            ]
        );
    }

    #[test]
    fn tracer_records_parents_only_while_recording() {
        let mut tr = Tracer::new();
        let (v, secs) = tr.time_named(|| 7, |_| "core.untraced");
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(tr.open("harness.op"), None);
        assert!(tr.spans().is_empty());

        tr.set_recording(true, 2);
        let root = tr.open("harness.op");
        tr.time_named(|| (), |()| "core.x");
        let step = tr.open("ops.step");
        tr.time_named(|| (), |()| "json.y");
        tr.close(step);
        tr.time_named(|| (), |()| "sim.z");
        tr.close(root);
        let parents: Vec<_> = tr.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), Some(0)]);
        assert!(tr
            .spans()
            .iter()
            .all(|s| s.rep == 2 && s.end_ns >= s.start_ns));
        let total: u64 = self_times_ns(tr.spans()).iter().sum();
        assert_eq!(total, tr.spans()[0].end_ns - tr.spans()[0].start_ns);
    }
}
