//! Deterministic fault schedules for the simulator.
//!
//! The journal version of the paper evaluates placements under
//! operational stress — VHO failures, link cuts, and flash-crowd
//! surges (Table VI). A [`FaultSchedule`] describes such stress as a
//! list of timed, seeded-in-advance [`FaultEvent`]s; the engine
//! advances the schedule inline with the event loop and degrades
//! gracefully (failover, denial accounting, stream interruption)
//! instead of panicking. An empty schedule is zero-cost by
//! construction: the engine's fault branches are all gated on
//! [`FaultSchedule::is_active`], so `SimReport` at a fixed seed stays
//! byte-identical to a fault-free build (pinned by
//! `crates/sim/tests/fault_props.rs`).
//!
//! Semantics (see DESIGN.md "Failure model & degradation semantics"):
//! - `VhoOutage` takes a VHO's *storage* (pinned store and cache)
//!   offline. Its subscribers stay attached and fail over to the
//!   next-cheapest surviving replica; remote streams it was serving
//!   are interrupted and counted.
//! - `LinkDegrade` scales one directed link's capacity; a scale of
//!   `0.0` is a cut. Cuts interrupt every stream crossing the link;
//!   degradations only matter to admission control.
//! - `FlashCrowd` multiplies request arrivals at one VHO (or all of
//!   them) for the duration of the window — each trace request in the
//!   window is replayed `multiplier` times, deterministically, with no
//!   extra RNG draws.
//!
//! Faults clear automatically at their window's end: no state lingers,
//! new requests immediately route through recovered VHOs/links.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use vod_model::{LinkId, SimTime, VhoId};
use vod_net::{Network, PathSet};

/// What a single fault does while its window is active.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The VHO's pinned store and cache go offline (its subscribers
    /// stay attached and are served remotely).
    VhoOutage { vho: VhoId },
    /// One directed link's capacity is multiplied by `capacity_scale`
    /// (`0.0` cuts the link entirely).
    LinkDegrade { link: LinkId, capacity_scale: f64 },
    /// Requests arriving at `vho` (or everywhere, when `None`) are
    /// replayed `multiplier` times each.
    FlashCrowd { vho: Option<VhoId>, multiplier: u32 },
}

/// One timed fault: active on `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    pub start: SimTime,
    pub end: SimTime,
    pub kind: FaultKind,
}

/// A full run's fault plan. The default (empty, no admission control)
/// leaves the engine on its exact fault-free code path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    pub events: Vec<FaultEvent>,
    /// When set, every remote stream start is admission-checked
    /// against the (possibly degraded) capacity of each link on its
    /// path; overloads become counted denials instead of capacity
    /// violations.
    pub admission: bool,
}

impl FaultSchedule {
    /// The zero-cost no-fault schedule.
    #[must_use]
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the engine needs any fault machinery at all.
    #[must_use]
    pub fn is_active(&self) -> bool {
        !self.events.is_empty() || self.admission
    }

    /// Check every event against the world it will be injected into.
    /// The engine asserts this at entry; callers that assemble
    /// schedules from untrusted input should check it first.
    pub fn validate(&self, n_vhos: usize, n_links: usize) -> Result<(), FaultConfigError> {
        for (idx, ev) in self.events.iter().enumerate() {
            if ev.start >= ev.end {
                return Err(FaultConfigError::EmptyWindow {
                    idx,
                    start: ev.start,
                    end: ev.end,
                });
            }
            match ev.kind {
                FaultKind::VhoOutage { vho } => {
                    if vho.index() >= n_vhos {
                        return Err(FaultConfigError::VhoOutOfRange { idx, vho, n_vhos });
                    }
                }
                FaultKind::LinkDegrade {
                    link,
                    capacity_scale,
                } => {
                    if link.index() >= n_links {
                        return Err(FaultConfigError::LinkOutOfRange { idx, link, n_links });
                    }
                    if !capacity_scale.is_finite() || capacity_scale < 0.0 {
                        return Err(FaultConfigError::InvalidScale {
                            idx,
                            value: capacity_scale,
                        });
                    }
                }
                FaultKind::FlashCrowd { vho, multiplier } => {
                    if let Some(v) = vho {
                        if v.index() >= n_vhos {
                            return Err(FaultConfigError::VhoOutOfRange {
                                idx,
                                vho: v,
                                n_vhos,
                            });
                        }
                    }
                    if multiplier == 0 {
                        return Err(FaultConfigError::ZeroMultiplier { idx });
                    }
                }
            }
        }
        Ok(())
    }
}

/// A malformed [`FaultSchedule`], rejected before the replay starts.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultConfigError {
    VhoOutOfRange {
        idx: usize,
        vho: VhoId,
        n_vhos: usize,
    },
    LinkOutOfRange {
        idx: usize,
        link: LinkId,
        n_links: usize,
    },
    /// Capacity scale was NaN, infinite, or negative.
    InvalidScale { idx: usize, value: f64 },
    /// `start >= end` — the fault would never be active.
    EmptyWindow {
        idx: usize,
        start: SimTime,
        end: SimTime,
    },
    /// A flash crowd that erases its requests makes conservation
    /// unverifiable; use an empty schedule instead.
    ZeroMultiplier { idx: usize },
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::VhoOutOfRange { idx, vho, n_vhos } => {
                write!(f, "fault {idx}: VHO {vho} out of range (n_vhos = {n_vhos})")
            }
            Self::LinkOutOfRange { idx, link, n_links } => {
                write!(
                    f,
                    "fault {idx}: link {link} out of range (n_links = {n_links})"
                )
            }
            Self::InvalidScale { idx, value } => {
                write!(
                    f,
                    "fault {idx}: capacity scale {value} must be finite and >= 0"
                )
            }
            Self::EmptyWindow { idx, start, end } => {
                write!(f, "fault {idx}: window [{start}, {end}) is empty")
            }
            Self::ZeroMultiplier { idx } => {
                write!(f, "fault {idx}: flash-crowd multiplier must be >= 1")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// One schedule transition: an event starting or ending.
#[derive(Debug, Clone, Copy)]
struct Transition {
    time: SimTime,
    event: usize,
    is_start: bool,
}

/// Live fault state, advanced inline with the engine's event loop.
/// Construction from an empty schedule is a handful of empty vectors;
/// the engine never consults it on the fault-free path.
pub(crate) struct FaultState<'a> {
    schedule: &'a FaultSchedule,
    /// All starts/ends sorted by (time, ends-before-starts, index) so
    /// a window ending exactly when another begins heals first.
    transitions: Vec<Transition>,
    cursor: usize,
    /// Per event: whether its window is currently active.
    active: Vec<bool>,
    /// Per VHO: number of active outages (up when zero).
    vho_down: Vec<u32>,
    /// Per link: effective capacity scale (min over active
    /// degradations, 1.0 when none).
    link_scale: Vec<f64>,
    /// Per link: raw capacity in Mb/s (admission basis).
    link_cap: Vec<f64>,
    /// Per VHO: active flash-crowd multiplier (max over active events
    /// naming the VHO; 1 when none).
    surge_vho: Vec<u32>,
    /// Multiplier from active network-wide flash crowds.
    surge_global: u32,
}

impl<'a> FaultState<'a> {
    pub(crate) fn new(schedule: &'a FaultSchedule, net: &Network) -> Self {
        let mut transitions = Vec::with_capacity(schedule.events.len() * 2);
        for (idx, ev) in schedule.events.iter().enumerate() {
            transitions.push(Transition {
                time: ev.start,
                event: idx,
                is_start: true,
            });
            transitions.push(Transition {
                time: ev.end,
                event: idx,
                is_start: false,
            });
        }
        transitions.sort_by_key(|t| (t.time, t.is_start, t.event));
        Self {
            schedule,
            transitions,
            cursor: 0,
            active: vec![false; schedule.events.len()],
            vho_down: vec![0; net.num_nodes()],
            link_scale: vec![1.0; net.num_links()],
            link_cap: net.links().iter().map(|l| l.capacity.value()).collect(),
            surge_vho: vec![1; net.num_nodes()],
            surge_global: 1,
        }
    }

    /// Time of the next pending transition, if any.
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.transitions.get(self.cursor).map(|t| t.time)
    }

    /// Apply the next transition. Returns `(time, disruptive)`;
    /// `disruptive` means active streams may now be dead (a VHO went
    /// down or a link was cut) and the engine must scan for
    /// interruptions.
    pub(crate) fn apply_next(&mut self) -> (SimTime, bool) {
        let tr = self.transitions[self.cursor];
        self.cursor += 1;
        self.active[tr.event] = tr.is_start;
        let disruptive = match self.schedule.events[tr.event].kind {
            FaultKind::VhoOutage { vho } => {
                if tr.is_start {
                    self.vho_down[vho.index()] += 1;
                } else {
                    self.vho_down[vho.index()] = self.vho_down[vho.index()].saturating_sub(1);
                }
                tr.is_start
            }
            FaultKind::LinkDegrade { link, .. } => {
                // Recompute the link's effective scale from all active
                // degradations (overlaps compose by min).
                let mut scale = 1.0f64;
                for (idx, ev) in self.schedule.events.iter().enumerate() {
                    if let FaultKind::LinkDegrade {
                        link: l,
                        capacity_scale,
                    } = ev.kind
                    {
                        if l == link && self.active[idx] {
                            scale = scale.min(capacity_scale);
                        }
                    }
                }
                self.link_scale[link.index()] = scale;
                tr.is_start && scale == 0.0
            }
            FaultKind::FlashCrowd { .. } => {
                // Recompute surge multipliers (overlaps compose by max).
                self.surge_global = 1;
                self.surge_vho.fill(1);
                for (idx, ev) in self.schedule.events.iter().enumerate() {
                    if !self.active[idx] {
                        continue;
                    }
                    if let FaultKind::FlashCrowd { vho, multiplier } = ev.kind {
                        match vho {
                            Some(v) => {
                                let s = &mut self.surge_vho[v.index()];
                                *s = (*s).max(multiplier);
                            }
                            None => self.surge_global = self.surge_global.max(multiplier),
                        }
                    }
                }
                false
            }
        };
        (tr.time, disruptive)
    }

    /// Whether the VHO's storage is serving.
    #[inline]
    pub(crate) fn vho_up(&self, v: VhoId) -> bool {
        self.vho_down[v.index()] == 0
    }

    /// Whether the link still carries traffic (not cut).
    #[inline]
    pub(crate) fn link_alive(&self, l: LinkId) -> bool {
        self.link_scale[l.index()] > 0.0
    }

    /// Whether every link on the path survives.
    pub(crate) fn path_alive(&self, path: &[LinkId]) -> bool {
        path.iter().all(|&l| self.link_alive(l))
    }

    /// Whether `server` can currently serve `client`: storage up and
    /// the route between them intact.
    pub(crate) fn server_usable(&self, server: VhoId, client: VhoId, paths: &PathSet) -> bool {
        self.vho_up(server) && self.path_alive(paths.path(server, client))
    }

    /// Effective capacity of a link under active degradations, Mb/s.
    #[inline]
    pub(crate) fn effective_capacity(&self, l: LinkId) -> f64 {
        self.link_cap[l.index()] * self.link_scale[l.index()]
    }

    /// Admission check: would adding `rate` overload any path link?
    /// `level` reports the link's current load in Mb/s.
    pub(crate) fn admits(&self, path: &[LinkId], rate: f64, level: impl Fn(LinkId) -> f64) -> bool {
        path.iter()
            .all(|&l| level(l) + rate <= self.effective_capacity(l) + 1e-9)
    }

    /// How many times a request arriving at `v` now is replayed.
    #[inline]
    pub(crate) fn surge_copies(&self, v: VhoId) -> u32 {
        self.surge_global.max(self.surge_vho[v.index()])
    }

    /// Raw link capacity accessor used to build schedules relative to
    /// the network (e.g. degrade to 50% of whatever the run set).
    #[cfg(test)]
    pub(crate) fn raw_capacity(&self, l: LinkId) -> f64 {
        self.link_cap[l.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_net::topologies;

    fn window(start: u64, end: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            start: SimTime::new(start),
            end: SimTime::new(end),
            kind,
        }
    }

    #[test]
    fn empty_schedule_is_inactive() {
        let s = FaultSchedule::empty();
        assert!(!s.is_active());
        assert!(s.validate(3, 4).is_ok());
        // Admission control alone still needs the machinery.
        let s = FaultSchedule {
            events: vec![],
            admission: true,
        };
        assert!(s.is_active());
    }

    #[test]
    fn validate_rejects_bad_events() {
        let cases = [
            (
                window(0, 10, FaultKind::VhoOutage { vho: VhoId::new(9) }),
                "out of range",
            ),
            (
                window(
                    0,
                    10,
                    FaultKind::LinkDegrade {
                        link: LinkId::new(99),
                        capacity_scale: 0.5,
                    },
                ),
                "out of range",
            ),
            (
                window(
                    0,
                    10,
                    FaultKind::LinkDegrade {
                        link: LinkId::new(0),
                        capacity_scale: f64::NAN,
                    },
                ),
                "finite",
            ),
            (
                window(
                    0,
                    10,
                    FaultKind::LinkDegrade {
                        link: LinkId::new(0),
                        capacity_scale: -0.5,
                    },
                ),
                "finite",
            ),
            (
                window(10, 10, FaultKind::VhoOutage { vho: VhoId::new(0) }),
                "empty",
            ),
            (
                window(
                    0,
                    10,
                    FaultKind::FlashCrowd {
                        vho: None,
                        multiplier: 0,
                    },
                ),
                "multiplier",
            ),
        ];
        for (ev, needle) in cases {
            let s = FaultSchedule {
                events: vec![ev],
                admission: false,
            };
            let err = s.validate(3, 6).expect_err("must reject");
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg} should mention {needle}");
        }
    }

    #[test]
    fn state_machine_tracks_windows() {
        let net = topologies::line(3);
        let schedule = FaultSchedule {
            events: vec![
                window(100, 200, FaultKind::VhoOutage { vho: VhoId::new(1) }),
                window(
                    150,
                    250,
                    FaultKind::LinkDegrade {
                        link: LinkId::new(0),
                        capacity_scale: 0.0,
                    },
                ),
                window(
                    120,
                    180,
                    FaultKind::FlashCrowd {
                        vho: Some(VhoId::new(2)),
                        multiplier: 3,
                    },
                ),
            ],
            admission: false,
        };
        assert!(schedule.validate(3, net.num_links()).is_ok());
        let mut st = FaultState::new(&schedule, &net);
        assert!(st.vho_up(VhoId::new(1)));
        assert_eq!(st.surge_copies(VhoId::new(2)), 1);

        // t=100: outage starts (disruptive).
        let (t, disruptive) = st.apply_next();
        assert_eq!(t, SimTime::new(100));
        assert!(disruptive);
        assert!(!st.vho_up(VhoId::new(1)));

        // t=120: flash crowd starts (not disruptive).
        let (_, disruptive) = st.apply_next();
        assert!(!disruptive);
        assert_eq!(st.surge_copies(VhoId::new(2)), 3);
        assert_eq!(st.surge_copies(VhoId::new(0)), 1);

        // t=150: link cut (disruptive).
        let (_, disruptive) = st.apply_next();
        assert!(disruptive);
        assert!(!st.link_alive(LinkId::new(0)));
        assert_eq!(st.effective_capacity(LinkId::new(0)), 0.0);

        // t=180, 200, 250: everything clears in order.
        let _ = st.apply_next();
        assert_eq!(st.surge_copies(VhoId::new(2)), 1);
        let (_, disruptive) = st.apply_next();
        assert!(!disruptive, "recovery is never disruptive");
        assert!(st.vho_up(VhoId::new(1)));
        let _ = st.apply_next();
        assert!(st.link_alive(LinkId::new(0)));
        assert!(st.peek_time().is_none());
    }

    #[test]
    fn overlapping_degradations_compose_by_min() {
        let net = topologies::line(2);
        let schedule = FaultSchedule {
            events: vec![
                window(
                    0,
                    100,
                    FaultKind::LinkDegrade {
                        link: LinkId::new(0),
                        capacity_scale: 0.5,
                    },
                ),
                window(
                    50,
                    150,
                    FaultKind::LinkDegrade {
                        link: LinkId::new(0),
                        capacity_scale: 0.2,
                    },
                ),
            ],
            admission: true,
        };
        let mut st = FaultState::new(&schedule, &net);
        let cap = st.raw_capacity(LinkId::new(0));
        let _ = st.apply_next(); // 0.5 active
        assert!((st.effective_capacity(LinkId::new(0)) - 0.5 * cap).abs() < 1e-12);
        let _ = st.apply_next(); // 0.2 joins: min wins
        assert!((st.effective_capacity(LinkId::new(0)) - 0.2 * cap).abs() < 1e-12);
        let _ = st.apply_next(); // 0.5 ends: 0.2 remains
        assert!((st.effective_capacity(LinkId::new(0)) - 0.2 * cap).abs() < 1e-12);
        let _ = st.apply_next(); // all clear
        assert!((st.effective_capacity(LinkId::new(0)) - cap).abs() < 1e-12);
    }

    #[test]
    fn admission_checks_every_path_link() {
        let net = topologies::line(3);
        let schedule = FaultSchedule {
            events: vec![],
            admission: true,
        };
        let st = FaultState::new(&schedule, &net);
        let cap = st.raw_capacity(LinkId::new(0));
        let path = [LinkId::new(0), LinkId::new(2)];
        assert!(st.admits(&path, 2.0, |_| 0.0));
        // Second link full: the whole path is refused.
        assert!(!st.admits(&path, 2.0, |l| if l == LinkId::new(2) { cap } else { 0.0 }));
    }
}
