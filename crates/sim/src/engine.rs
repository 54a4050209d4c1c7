//! The simulation engine: trace replay with exact link-load accounting.
//!
//! Hot-path structure (see DESIGN.md "Simulator performance
//! architecture"): an event costs O(1) in links and active streams.
//! Link loads are a flat vector plus the running peak of the open
//! bucket, rescanned once per bucket boundary ([`Loads`]); stream ends
//! wait in one FIFO per video length class ([`Ends`]); caches are
//! statically-dispatched dense slabs ([`CacheImpl`]); and evictions
//! reuse one scratch vector across the whole replay. All of it is
//! bit-for-bit compatible with the original O(L)-rescan,
//! `BTreeMap`-cache implementation — `SimReport` at a fixed seed is
//! byte-identical, which the determinism and property tests and
//! `tests/sim_smoke.rs` pin.
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo)]

use crate::cache::{Cache, CacheImpl, CacheKind, CacheStats, InsertOutcome};
use crate::faults::{FaultSchedule, FaultState};
use rand::Rng;
use std::collections::VecDeque;
use vod_core::Placement;
use vod_model::narrow;
use vod_model::rng::derive_rng;
use vod_model::{Catalog, LinkId, SimTime, VhoId, VideoClass, VideoId};
use vod_net::{Network, PathSet};
use vod_trace::Trace;

/// Per-VHO storage configuration.
#[derive(Debug, Clone)]
pub struct VhoConfig {
    /// Videos pinned at this VHO (the placement's copies).
    pub pinned: Vec<VideoId>,
    /// Optional cache: kind and capacity in GB.
    pub cache: Option<(CacheKind, f64)>,
}

/// How a locally-missing video's server is chosen.
#[derive(Debug, Clone)]
pub enum PolicyKind {
    /// Use the MIP's serving distribution `x_{ij}^m` (random weighted
    /// server selection, Section V-B); falls back to nearest replica
    /// for videos/clients the solve did not cover.
    MipRouting(Placement),
    /// Always fetch from the nearest replica, located by the Oracle
    /// (the best case the paper grants the caching baselines).
    NearestReplica,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Reporting bucket length (the paper samples every 5 minutes).
    pub bucket_secs: u64,
    /// Request counters only accumulate from this instant (the warm-up
    /// period before it still exercises the caches).
    pub measure_from: SimTime,
    /// Insert remotely-fetched videos into the local cache.
    pub insert_on_miss: bool,
    pub seed: u64,
    /// Timed faults injected into the replay. The default (empty)
    /// schedule leaves the engine on its exact fault-free code path,
    /// so reports stay byte-identical to a build without the fault
    /// layer.
    pub faults: FaultSchedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            bucket_secs: 300,
            measure_from: SimTime::ZERO,
            insert_on_miss: true,
            seed: 0,
            faults: FaultSchedule::default(),
        }
    }
}

/// Simulation results (the measurements of Section VII).
#[derive(Debug, Clone)]
pub struct SimReport {
    pub bucket_secs: u64,
    /// Per bucket: max instantaneous load over all links (Mb/s) —
    /// Fig. 5's series.
    pub peak_link_mbps: Vec<f64>,
    /// Per bucket: data carried by all links during the bucket (GB;
    /// each remote stream contributes on every hop) — Fig. 6's series.
    pub transfer_gb: Vec<f64>,
    pub total_requests: u64,
    pub served_local_pinned: u64,
    pub served_local_cached: u64,
    pub served_remote: u64,
    /// Total transfer weighted by video size and hop count (GB×hops),
    /// the objective the MIP minimizes.
    pub total_gb_hops: f64,
    /// Max over the whole run of the per-bucket peaks.
    pub max_link_mbps: f64,
    /// Requests with no reachable replica (every holder down or cut
    /// off — or, with a malformed placement, no holder at all).
    pub denied_no_replica: u64,
    /// Requests refused by admission control: some path link had no
    /// headroom under its (possibly degraded) capacity.
    pub denied_capacity: u64,
    /// Streams killed mid-flight by a VHO outage or link cut — the
    /// rebuffer events a real system would surface to subscribers.
    pub interrupted_streams: u64,
    /// Aggregated cache counters across VHOs.
    pub cache: CacheStats,
}

impl SimReport {
    /// Fraction of (measured) requests served from local disk (pinned
    /// or cached) — Table VI's "locally served".
    pub fn local_fraction(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        (self.served_local_pinned + self.served_local_cached) as f64 / self.total_requests as f64
    }

    /// Cache hit rate in the Table II sense: requests that did not
    /// need a remote transfer.
    pub fn hit_rate(&self) -> f64 {
        self.local_fraction()
    }

    /// Peak of the aggregate-transfer series, in GB per bucket.
    pub fn max_aggregate_gb(&self) -> f64 {
        self.transfer_gb.iter().cloned().fold(0.0, f64::max)
    }

    /// Total requests denied (no replica reachable, or no capacity).
    pub fn denied(&self) -> u64 {
        self.denied_no_replica + self.denied_capacity
    }

    /// Fraction of measured requests denied — Table VI-style quality
    /// loss under stress.
    pub fn denial_rate(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.denied() as f64 / self.total_requests as f64
    }

    /// Fraction of measured requests whose stream was interrupted
    /// mid-flight (a rebuffer/abort in subscriber terms).
    pub fn rebuffer_rate(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.interrupted_streams as f64 / self.total_requests as f64
    }
}

/// Final dynamic state of a run — what the caches ended up holding.
/// Separated from [`SimReport`] so the report stays byte-comparable
/// across implementations while tests/audits can still inspect state.
#[derive(Debug, Clone)]
pub struct SimFinalState {
    /// Per video: sorted ids of the VHOs whose *cache* (not pinned
    /// store) holds it when the replay ends.
    pub cached_holders: Vec<Vec<VhoId>>,
    /// Per VHO: sorted cache contents (empty for cacheless VHOs).
    pub cache_contents: Vec<Vec<VideoId>>,
}

/// A stream-end event, popped in ascending `(time, seq)` order; `seq`
/// is unique, so equal timestamps end in start order.
#[derive(Debug, PartialEq, Eq)]
struct EndEvent {
    time: SimTime,
    seq: u64,
    video: VideoId,
    /// Serving VHO; equals `client` for a stream served from the local
    /// cache, which loads no link.
    server: VhoId,
    client: VhoId,
    unpin_server_cache: bool,
    unpin_client_cache: bool,
    /// Whether the originating request counted toward the report (so
    /// interruptions are measured consistently with services).
    measured: bool,
}

/// Pending stream ends: one FIFO per video length class instead of a
/// priority queue. A stream ends `class.duration_secs()` after its
/// request, requests arrive in non-decreasing time order (every
/// `Trace` is in time order: `Trace::new` sorts, `Trace::from_packed`
/// checks) and `seq` only grows, so the ends of one class are generated
/// already sorted by `(time, seq)` and the next end overall is the
/// least of at most four fronts. That least front is cached: a push
/// can only change it when it fills an empty queue, and `pop` and
/// `retain` rescan the four fronts, so `peek` is one load.
#[derive(Default)]
struct Ends {
    queues: [VecDeque<EndEvent>; VideoClass::ALL.len()],
    /// `(time, seq, queue)` of the least front; `None` when all queues
    /// are empty.
    least: Option<(SimTime, u64, usize)>,
}

impl Ends {
    /// Queue a stream of `class`. A duration that stopped being a
    /// function of the class alone fails here instead of silently
    /// mis-ordering the replay.
    fn push(&mut self, class: VideoClass, ev: EndEvent) {
        let k = class as usize;
        let q = &mut self.queues[k];
        assert!(
            q.back().is_none_or(|b| (b.time, b.seq) < (ev.time, ev.seq)),
            "stream ends of class {class:?} must be queued in (time, seq) order"
        );
        if q.is_empty() {
            let front = (ev.time, ev.seq, k);
            if self.least.is_none_or(|least| front < least) {
                self.least = Some(front);
            }
        }
        q.push_back(ev);
    }

    /// Time of the earliest pending end and the queue holding it.
    #[inline]
    fn peek(&self) -> Option<(SimTime, usize)> {
        self.least.map(|(t, _, k)| (t, k))
    }

    /// The least `(time, seq, queue)` over the four fronts.
    fn scan(&self) -> Option<(SimTime, u64, usize)> {
        let fronts = self.queues.iter().enumerate();
        fronts
            .filter_map(|(k, q)| q.front().map(|e| (e.time, e.seq, k)))
            .min()
    }

    /// Take the front of queue `k`, as returned by [`Ends::peek`].
    #[inline]
    fn pop(&mut self, k: usize) -> Option<EndEvent> {
        let ev = self.queues[k].pop_front();
        self.least = self.scan();
        ev
    }

    /// Drop every pending end `keep` rejects, visiting them class by
    /// class in queue order; the survivors stay sorted.
    fn retain(&mut self, mut keep: impl FnMut(&EndEvent) -> bool) {
        for q in &mut self.queues {
            q.retain(&mut keep);
        }
        self.least = self.scan();
    }
}

/// Marks a table word that holds nothing: a (video, client) with no
/// serving distribution, or a video pinned nowhere.
const NONE: u32 = u32::MAX;
/// Routing word: the low 31 bits index [`Routing::rows`].
const MANY: u32 = 1 << 31;
/// Routing word of a one-server distribution: the server pins the video.
const PINNED: u32 = 1 << 30;
/// The low 16 bits of a one-server routing word or a [`near_key`]: a
/// VHO's index.
const ID: u32 = 0xFFFF;

/// The placement's serving distributions `x_ij^m` compiled for one
/// replay: one word per (video, client), at `m · n_vhos + j`. The word
/// is [`NONE`] for a client the solve gave no distribution; for a
/// one-server distribution it holds the server and whether it is in
/// the replay's pinned set; otherwise it is [`MANY`] plus the index of
/// a flat row of `(server, weight, pinned)` entries. Nearly every row
/// the solver emits has one server, so a draw is usually one load.
struct Routing {
    n_vhos: usize,
    vho_ids: Vec<VhoId>,
    cells: Vec<u32>,
    rows: Vec<Row>,
    entries: Vec<RowEntry>,
}

/// A distribution of two or more servers: `entries[start..end]` in the
/// placement's order, and their weight summed in that order.
struct Row {
    start: u32,
    end: u32,
    total: f64,
}

struct RowEntry {
    server: VhoId,
    weight: f64,
    pinned: bool,
}

/// The outcome of one routing draw.
#[derive(Debug, PartialEq)]
enum Pick {
    /// The placement has no distribution for this (video, client).
    Unrouted,
    /// The draw chose this server, which pins the video.
    Pinned(VhoId),
    /// The draw chose a server outside the video's pinned set.
    Unpinned,
}

impl Routing {
    /// Compile `placement`'s routing against the replay's pinned sets;
    /// `vho_ids` lists the network's VHOs in index order.
    fn compile(placement: &Placement, pinned_holders: &[Vec<VhoId>], vho_ids: &[VhoId]) -> Self {
        let n_vhos = vho_ids.len();
        // Every routed (video, client) in video, then client order: its
        // cell, its distribution and the video's pinned set.
        let routed = || {
            let videos = placement.routings().iter().zip(pinned_holders);
            videos.enumerate().flat_map(move |(m, (routing, pinned))| {
                let clients = routing.iter().filter(move |(j, _)| j.index() < n_vhos);
                clients.map(move |(j, dist)| (m * n_vhos + j.index(), dist, pinned))
            })
        };
        let many = || routed().filter(|(_, dist, _)| dist.len() > 1);
        let entries: Vec<RowEntry> = many()
            .flat_map(|(_, dist, pinned)| {
                dist.iter().map(|&(server, weight)| RowEntry {
                    server,
                    weight,
                    pinned: pinned.binary_search(&server).is_ok(),
                })
            })
            .collect();
        let rows: Vec<Row> = many()
            .scan(0, |end: &mut u32, (_, dist, _)| {
                let start = *end;
                *end += narrow::u32_from(dist.len());
                let total = dist.iter().map(|&(_, w)| w).sum();
                Some(Row {
                    start,
                    end: *end,
                    total,
                })
            })
            .collect();
        assert!(
            rows.len() < (MANY - 1) as usize,
            "routing rows overflow the word"
        );

        let mut cells = vec![NONE; pinned_holders.len() * n_vhos];
        let mut row = 0;
        for (cell, dist, pinned) in routed() {
            cells[cell] = match *dist {
                [] => NONE,
                [(i, _)] if pinned.binary_search(&i).is_ok() => {
                    narrow::u32_from(i.index()) | PINNED
                }
                [(i, _)] => narrow::u32_from(i.index()),
                _ => {
                    row += 1;
                    MANY | (row - 1)
                }
            };
        }
        Self {
            n_vhos,
            vho_ids: vho_ids.to_vec(),
            cells,
            rows,
            entries,
        }
    }

    /// Draw the server for a request of `m` at `j` (Section V-B): one
    /// uniform draw scaled by the row's total, then the first entry
    /// whose weight covers what is left. A one-server row still draws,
    /// and `r · w ≤ w` for every `r` in `[0, 1)`, so the walk would
    /// stop at its only entry.
    #[inline]
    fn draw(&self, m: VideoId, j: VhoId, rng: &mut impl Rng) -> Pick {
        let cell = self.cells[m.index() * self.n_vhos + j.index()];
        if cell == NONE {
            return Pick::Unrouted;
        }
        if cell & MANY == 0 {
            let _: f64 = rng.gen();
            return match cell & PINNED {
                0 => Pick::Unpinned,
                _ => Pick::Pinned(self.vho_ids[narrow::usize_from(cell & ID)]),
            };
        }
        let row = &self.rows[narrow::usize_from(cell & !MANY)];
        let dist = &self.entries[narrow::usize_from(row.start)..narrow::usize_from(row.end)];
        let mut pick = rng.gen::<f64>() * row.total;
        let mut chosen = &dist[0];
        for e in dist {
            if pick <= e.weight {
                chosen = e;
                break;
            }
            pick -= e.weight;
        }
        if chosen.pinned {
            Pick::Pinned(chosen.server)
        } else {
            Pick::Unpinned
        }
    }
}

/// `(hops, id)` of server `i` for client `j` as one word that orders
/// as the pair does (both fit 16 bits: `VhoId` is a `u16`).
#[inline]
fn near_key(paths: &PathSet, i: VhoId, j: VhoId) -> u32 {
    narrow::u32_from(paths.hops(i, j)) << 16 | narrow::u32_from(i.index())
}

/// Per (video, client), at `m · n_vhos + j`: the [`near_key`] of the
/// video's nearest pinned holder, [`NONE`] when it is pinned nowhere.
/// The pinned sets never change during a replay, so the nearest
/// replica is the lesser of this word and the keys of the video's
/// cached holders.
fn nearest_pinned(paths: &PathSet, pinned_holders: &[Vec<VhoId>], vho_ids: &[VhoId]) -> Vec<u32> {
    // Ids and hop counts then stay below 0xFFFF, so no key is `NONE`.
    assert!(
        vho_ids.len() <= usize::from(u16::MAX),
        "VHO ids overflow the key"
    );
    let n_vhos = vho_ids.len();
    let mut keys = vec![NONE; pinned_holders.len() * n_vhos];
    for (m, pinned) in pinned_holders.iter().enumerate() {
        for (k, &j) in vho_ids.iter().enumerate() {
            let key = pinned.iter().map(|&i| near_key(paths, i, j)).min();
            keys[m * n_vhos + k] = key.unwrap_or(NONE);
        }
    }
    keys
}

/// Per-link load levels and the two bucket series integrated from
/// them. Only the series need the max over links, so none is kept
/// between bucket boundaries: `cur_peak` is the peak of the open
/// bucket `cur_b`, written to `peaks` when the clock leaves it.
///
/// A bucket's peak is the max, over the events touching it, of the
/// global max before each event's change. Within a bucket only an
/// `add` can raise the global max, and only to a level it just wrote,
/// so that equals the max of the levels carried into the bucket (one
/// O(L) scan per boundary) and every level an `add` wrote during it
/// (one compare per link). `f64::max` is exact selection: the series
/// are bit-for-bit those of a linear rescan at every event.
struct Loads {
    level: Vec<f64>,
    current_total: f64,
    last_event: u64,
    bucket_secs: u64,
    /// Bucket containing `last_event`; may lie past `peaks` while the
    /// drain runs beyond the horizon.
    cur_b: usize,
    /// First second after bucket `cur_b`.
    cur_end: u64,
    cur_peak: f64,
    peaks: Vec<f64>,
    volumes_gb: Vec<f64>,
}

impl Loads {
    fn new(n_links: usize, horizon: SimTime, bucket_secs: u64) -> Self {
        let n_buckets = narrow::usize_from(horizon.secs().div_ceil(bucket_secs)).max(1);
        Self {
            level: vec![0.0; n_links],
            current_total: 0.0,
            last_event: 0,
            bucket_secs,
            cur_b: 0,
            cur_end: bucket_secs,
            cur_peak: 0.0,
            peaks: vec![0.0; n_buckets],
            volumes_gb: vec![0.0; n_buckets],
        }
    }

    /// Current max load over all links (a linear fold).
    fn max(&self) -> f64 {
        self.level.iter().copied().fold(0.0, f64::max)
    }

    /// Current load on one link (used by admission control).
    #[inline]
    fn level(&self, l: LinkId) -> f64 {
        self.level[l.index()]
    }

    /// Integrate the piecewise-constant load level from the previous
    /// event up to `now` into the bucket series. A `now` that is not
    /// later is ignored: closing at the horizon after a drain that ran
    /// past it must not move the clock backwards.
    #[inline]
    fn advance(&mut self, now: u64) {
        if now >= self.cur_end {
            self.roll(now);
        } else if now > self.last_event {
            if let Some(v) = self.volumes_gb.get_mut(self.cur_b) {
                *v += self.current_total * (now - self.last_event) as f64 / 8000.0;
            }
            self.last_event = now;
        }
    }

    /// `advance` across bucket boundaries: `cur_b` closes with its
    /// running peak; the event at `now` has not changed any level yet,
    /// so every later bucket up to the one containing `now` starts
    /// from `carried` — also when a stream ends exactly on a boundary.
    #[cold]
    fn roll(&mut self, now: u64) {
        let carried = self.max();
        let mut peak = self.cur_peak;
        let mut t = self.last_event;
        while t < now {
            let b = narrow::usize_from(t / self.bucket_secs);
            if b >= self.peaks.len() {
                break;
            }
            let seg_end = ((b as u64 + 1) * self.bucket_secs).min(now);
            self.peaks[b] = self.peaks[b].max(peak);
            // Mb/s × s = Mb; /8000 → GB.
            self.volumes_gb[b] += self.current_total * (seg_end - t) as f64 / 8000.0;
            t = seg_end;
            peak = carried;
        }
        self.last_event = now;
        self.cur_b = narrow::usize_from(now / self.bucket_secs);
        self.cur_end = (self.cur_b as u64 + 1) * self.bucket_secs;
        self.cur_peak = carried;
    }

    /// End the replay at `horizon`: integrate up to it (a no-op when
    /// the drain already ran past it) and fold the open bucket's peak.
    fn close(&mut self, horizon: u64) {
        self.advance(horizon);
        if let Some(p) = self.peaks.get_mut(self.cur_b) {
            *p = p.max(self.cur_peak);
        }
    }

    fn add(&mut self, links: &[LinkId], rate: f64) {
        for &l in links {
            let v = &mut self.level[l.index()];
            *v += rate;
            if *v > self.cur_peak {
                self.cur_peak = *v;
            }
        }
        self.current_total += rate * links.len() as f64;
    }

    fn remove(&mut self, links: &[LinkId], rate: f64) {
        for &l in links {
            let v = &mut self.level[l.index()];
            #[cfg(feature = "audit")]
            assert!(
                *v - rate >= -1e-6,
                "audit: link {} load would go negative ({} - {rate})",
                l.index(),
                *v,
            );
            *v = (*v - rate).max(0.0);
        }
        self.current_total = (self.current_total - rate * links.len() as f64).max(0.0);
    }
}

/// Audit check: `cached_holders[m]` must list exactly the VHOs whose
/// cache contains `m`.
#[cfg(feature = "audit")]
fn audit_video_holders(m: VideoId, cached_holders: &[Vec<VhoId>], caches: &[Option<CacheImpl>]) {
    for (jj, c) in caches.iter().enumerate() {
        #[expect(
            clippy::disallowed_methods,
            reason = "recovers the id from a dense 0..n_vhos vector index"
        )]
        let id = VhoId::from_index(jj);
        let in_cache = c.as_ref().is_some_and(|c| c.contains(m));
        let in_holders = cached_holders[m.index()].binary_search(&id).is_ok();
        assert_eq!(
            in_cache, in_holders,
            "audit: holder-set divergence for video {m} at VHO {jj}"
        );
    }
}

/// Release what a stream held when it ends or is killed: its link
/// load (none for a stream served from the local cache) and its cache
/// pins. The caller has advanced `loads` to the instant of release.
fn release(
    ev: &EndEvent,
    paths: &PathSet,
    catalog: &Catalog,
    loads: &mut Loads,
    caches: &mut [Option<CacheImpl>],
) {
    if ev.server != ev.client {
        loads.remove(
            paths.path(ev.server, ev.client),
            catalog.video(ev.video).bitrate().value(),
        );
    }
    if ev.unpin_server_cache {
        if let Some(c) = caches[ev.server.index()].as_mut() {
            c.unpin(ev.video);
        }
    }
    if ev.unpin_client_cache {
        if let Some(c) = caches[ev.client.index()].as_mut() {
            c.unpin(ev.video);
        }
    }
}

/// Kill every active remote stream whose server or route a
/// just-started fault took down: release its link load at `now`,
/// undo its cache pins, and drop it from the pending ends. Returns
/// the number of measured streams interrupted. Only called on
/// disruptive transitions, so the fault-free path never pays for it.
///
/// The dead streams are visited class by class, not in end-time
/// order, and no report can tell: the killed count is a sum, unpins
/// are reference-count decrements, and every link level and
/// `current_total` is a sum of multiples of the one 2 Mb/s bitrate all
/// videos stream at (`Video::bitrate`), exact in `f64` in any order.
fn interrupt_dead_streams(
    now: SimTime,
    ends: &mut Ends,
    fstate: &FaultState<'_>,
    paths: &PathSet,
    catalog: &Catalog,
    loads: &mut Loads,
    caches: &mut [Option<CacheImpl>],
) -> u64 {
    loads.advance(now.secs());
    let mut killed = 0u64;
    ends.retain(|ev| {
        let dead = ev.server != ev.client
            && (!fstate.vho_up(ev.server) || !fstate.path_alive(paths.path(ev.server, ev.client)));
        if dead {
            killed += u64::from(ev.measured);
            release(ev, paths, catalog, loads, caches);
        }
        !dead
    });
    killed
}

/// Run the simulation: replay `trace` over `net` with the given per-VHO
/// storage and serving policy.
///
/// A request for a video with no reachable copy — because the
/// placement is malformed, or because faults took every holder down —
/// is counted in [`SimReport::denied_no_replica`] rather than
/// aborting the replay; losing content degrades the metrics visibly
/// instead of silently corrupting them.
pub fn simulate(
    net: &Network,
    paths: &PathSet,
    catalog: &Catalog,
    trace: &Trace,
    vhos: &[VhoConfig],
    policy: &PolicyKind,
    cfg: &SimConfig,
) -> SimReport {
    simulate_with_final(net, paths, catalog, trace, vhos, policy, cfg).0
}

/// As [`simulate`], additionally returning the end-of-run cache state
/// (used by the property tests and the audit layer).
pub fn simulate_with_final(
    net: &Network,
    paths: &PathSet,
    catalog: &Catalog,
    trace: &Trace,
    vhos: &[VhoConfig],
    policy: &PolicyKind,
    cfg: &SimConfig,
) -> (SimReport, SimFinalState) {
    let n_vhos = net.num_nodes();
    let n_videos = catalog.len();
    assert_eq!(vhos.len(), n_vhos, "one VhoConfig per VHO");
    assert!(cfg.bucket_secs > 0);
    let schedule_ok = cfg.faults.validate(n_vhos, net.num_links());
    assert!(
        schedule_ok.is_ok(),
        "invalid fault schedule: {}",
        schedule_ok.err().map(|e| e.to_string()).unwrap_or_default()
    );

    // Fault machinery: constructing the state from an empty schedule
    // is a few empty vectors, and `faulted == false` keeps every fault
    // branch below off the replay's hot path.
    let faulted = cfg.faults.is_active();
    let mut fstate = FaultState::new(&cfg.faults, net);

    // Pinned holders per video, sorted.
    let vho_ids: Vec<VhoId> = net.vho_ids().collect();
    let mut pinned_holders: Vec<Vec<VhoId>> = vec![Vec::new(); n_videos];
    for (&j, vc) in vho_ids.iter().zip(vhos) {
        for &m in &vc.pinned {
            pinned_holders[m.index()].push(j);
        }
    }
    for h in &mut pinned_holders {
        h.sort();
        h.dedup();
    }
    // The lookup tables are built once, before the request loop. The
    // nearest-pinned one serves fault-free runs that send every remote
    // request to the nearest replica. Under faults a holder's
    // usability changes with the clock, and under MIP routing few
    // remote requests fall back to `nearest` (0.7 % in `replay-week`'s
    // LRU replay), so both scan every holder instead.
    let routing = match policy {
        PolicyKind::MipRouting(placement) => {
            Some(Routing::compile(placement, &pinned_holders, &vho_ids))
        }
        PolicyKind::NearestReplica => None,
    };
    let near_pinned =
        (!faulted && routing.is_none()).then(|| nearest_pinned(paths, &pinned_holders, &vho_ids));
    // Dynamic cache holders per video, kept sorted.
    let mut cached_holders: Vec<Vec<VhoId>> = vec![Vec::new(); n_videos];
    let mut caches: Vec<Option<CacheImpl>> = vhos
        .iter()
        .map(|vc| {
            vc.cache
                .map(|(kind, gb)| CacheImpl::with_video_hint(kind, gb, n_videos))
        })
        .collect();
    // Eviction scratch, reused across the whole replay.
    let mut evicted: Vec<VideoId> = Vec::new();

    let mut loads = Loads::new(net.num_links(), trace.horizon(), cfg.bucket_secs);
    let mut ends = Ends::default();
    let mut rng = derive_rng(cfg.seed, 0x517_EC0);
    let mut seq = 0u64;

    let mut total_requests = 0u64;
    let mut served_local_pinned = 0u64;
    let mut served_local_cached = 0u64;
    let mut served_remote = 0u64;
    let mut total_gb_hops = 0.0f64;
    let mut denied_no_replica = 0u64;
    let mut denied_capacity = 0u64;
    let mut interrupted_streams = 0u64;

    for r in trace.requests() {
        // Complete ended streams and apply due fault transitions in
        // time order. With an empty schedule `peek_time()` is always
        // `None` and this is exactly the plain drain-ends loop. At
        // equal timestamps stream ends run first, so a stream ending
        // the instant a fault begins is not interrupted.
        loop {
            let next_end = ends.peek();
            let transition_due = match (next_end, fstate.peek_time()) {
                (_, None) => false,
                (None, Some(tt)) => tt <= r.time,
                (Some((te, _)), Some(tt)) => tt <= r.time && tt < te,
            };
            if transition_due {
                let (t, disruptive) = fstate.apply_next();
                if disruptive {
                    interrupted_streams += interrupt_dead_streams(
                        t,
                        &mut ends,
                        &fstate,
                        paths,
                        catalog,
                        &mut loads,
                        &mut caches,
                    );
                }
                continue;
            }
            match next_end {
                Some((te, k)) if te <= r.time => {
                    let Some(ev) = ends.pop(k) else {
                        break;
                    };
                    loads.advance(ev.time.secs());
                    release(&ev, paths, catalog, &mut loads, &mut caches);
                }
                _ => break,
            }
        }
        loads.advance(r.time.secs());

        let measured = r.time >= cfg.measure_from;
        let j = r.vho;
        let m = r.video;
        let video = catalog.video(m);
        let dur = video.duration_secs();
        let end_time = r.time + dur;

        // An active flash crowd replays the request `copies` times;
        // the fault-free path is exactly one iteration with no extra
        // RNG draws or arithmetic.
        let copies = if faulted { fstate.surge_copies(j) } else { 1 };
        for _copy in 0..copies {
            if measured {
                total_requests += 1;
            }

            // 1) Local pinned copy (offline while the VHO is down).
            if (!faulted || fstate.vho_up(j)) && pinned_holders[m.index()].binary_search(&j).is_ok()
            {
                if measured {
                    served_local_pinned += 1;
                }
                continue;
            }
            // 2) Local cached copy.
            if !faulted || fstate.vho_up(j) {
                if let Some(c) = caches[j.index()].as_mut() {
                    if c.contains(m) {
                        c.touch(m);
                        c.pin(m);
                        if measured {
                            served_local_cached += 1;
                        }
                        seq += 1;
                        let end = EndEvent {
                            time: end_time,
                            seq,
                            video: m,
                            server: j,
                            client: j,
                            unpin_server_cache: false,
                            unpin_client_cache: true,
                            measured,
                        };
                        ends.push(video.class, end);
                        continue;
                    }
                }
            }

            // 3) Remote service: pick a surviving server (failover to
            // the next-cheapest reachable replica under faults).
            let cached = &cached_holders[m.index()];
            let nearest = || -> Option<VhoId> {
                let Some(near_pinned) = &near_pinned else {
                    let pinned = &pinned_holders[m.index()];
                    return pinned
                        .iter()
                        .chain(cached.iter())
                        .copied()
                        .filter(|&i| !faulted || fstate.server_usable(i, j, paths))
                        .min_by_key(|&i| (paths.hops(i, j), i));
                };
                // The least key over pinned ∪ cached is the lesser of
                // the two sets' least keys.
                let best = cached
                    .iter()
                    .map(|&i| near_key(paths, i, j))
                    .fold(near_pinned[m.index() * n_vhos + j.index()], u32::min);
                (best != NONE).then(|| vho_ids[narrow::usize_from(best & ID)])
            };
            // Weighted random server choice (Section V-B), guarded
            // against a drawn server that does not pin the video
            // (a placement that does not match the pinned sets) or is
            // currently down or cut off.
            let server = match &routing {
                Some(routing) => match routing.draw(m, j, &mut rng) {
                    Pick::Pinned(i) if !faulted || fstate.server_usable(i, j, paths) => Some(i),
                    _ => nearest(),
                },
                None => nearest(),
            };
            // No reachable replica anywhere: a counted denial, never
            // an abort — malformed placements and total outages both
            // land here.
            let Some(server) = server else {
                if measured {
                    denied_no_replica += 1;
                }
                continue;
            };
            debug_assert_ne!(server, j, "remote path reached with a local copy");

            let path = paths.path(server, j);
            let rate = video.bitrate().value();
            // Admission control: refuse a stream that would push any
            // path link past its (possibly degraded) capacity.
            if faulted && cfg.faults.admission && !fstate.admits(path, rate, |l| loads.level(l)) {
                if measured {
                    denied_capacity += 1;
                }
                continue;
            }

            // The serving copy may live in the server's cache: pin it.
            let server_cached = pinned_holders[m.index()].binary_search(&server).is_err();
            if server_cached {
                if let Some(c) = caches[server.index()].as_mut() {
                    c.touch(m);
                    c.pin(m);
                }
            }

            loads.add(path, rate);
            if measured {
                served_remote += 1;
                total_gb_hops += video.size().value() * path.len() as f64;
            }

            // 4) Cache the fetched video locally (not while the local
            // VHO's storage is down).
            let mut unpin_client = false;
            if cfg.insert_on_miss && (!faulted || fstate.vho_up(j)) {
                if let Some(c) = caches[j.index()].as_mut() {
                    match c.insert(m, video.size().value(), &mut evicted) {
                        InsertOutcome::Inserted => {
                            c.pin(m);
                            unpin_client = true;
                            let row = &mut cached_holders[m.index()];
                            if let Err(pos) = row.binary_search(&j) {
                                row.insert(pos, j);
                            }
                            for victim in &evicted {
                                let row = &mut cached_holders[victim.index()];
                                if let Ok(pos) = row.binary_search(&j) {
                                    row.remove(pos);
                                }
                            }
                        }
                        InsertOutcome::AlreadyPresent => {
                            c.pin(m);
                            unpin_client = true;
                        }
                        InsertOutcome::Rejected => {}
                    }
                }
            }

            // Holder-set/cache consistency for every video whose membership
            // this event may have changed.
            #[cfg(feature = "audit")]
            {
                audit_video_holders(m, &cached_holders, &caches);
                for &victim in &evicted {
                    audit_video_holders(victim, &cached_holders, &caches);
                }
            }

            seq += 1;
            let end = EndEvent {
                time: end_time,
                seq,
                video: m,
                server,
                client: j,
                unpin_server_cache: server_cached,
                unpin_client_cache: unpin_client,
                measured,
            };
            ends.push(video.class, end);
        }
    }

    // Drain remaining streams (clamped to the horizon for bucketing),
    // still interleaved with any fault transitions left on the clock.
    // Once no streams remain, pending transitions cannot affect the
    // report and are skipped.
    loop {
        let next_end = ends.peek();
        let transition_due = match (next_end, fstate.peek_time()) {
            (_, None) | (None, Some(_)) => false,
            (Some((te, _)), Some(tt)) => tt < te,
        };
        if transition_due {
            let (t, disruptive) = fstate.apply_next();
            if disruptive {
                interrupted_streams += interrupt_dead_streams(
                    t,
                    &mut ends,
                    &fstate,
                    paths,
                    catalog,
                    &mut loads,
                    &mut caches,
                );
            }
            continue;
        }
        let Some(ev) = next_end.and_then(|(_, k)| ends.pop(k)) else {
            break;
        };
        loads.advance(ev.time.secs());
        release(&ev, paths, catalog, &mut loads, &mut caches);
    }
    loads.close(trace.horizon().secs());

    #[cfg(feature = "audit")]
    {
        for i in 0..n_videos {
            audit_video_holders(VideoId::new(narrow::u32_from(i)), &cached_holders, &caches);
        }
        // Every stream was unloaded; only float residue may remain.
        assert!(
            loads.max() <= 1e-6,
            "audit: residual link load {} after drain",
            loads.max()
        );
        // Conservation: service classes and denials partition the
        // measured requests (interruptions overlap the served counts).
        assert_eq!(
            served_local_pinned
                + served_local_cached
                + served_remote
                + denied_no_replica
                + denied_capacity,
            total_requests,
            "audit: served + denied must equal issued"
        );
    }

    let mut cache_stats = CacheStats::default();
    for c in caches.iter().flatten() {
        let s = c.stats();
        cache_stats.hits += s.hits;
        cache_stats.insertions += s.insertions;
        cache_stats.evictions += s.evictions;
        cache_stats.rejections += s.rejections;
    }
    let max_link_mbps = loads.peaks.iter().cloned().fold(0.0, f64::max);
    let cache_contents = caches
        .iter()
        .map(|c| c.as_ref().map(Cache::contents_sorted).unwrap_or_default())
        .collect();
    (
        SimReport {
            bucket_secs: cfg.bucket_secs,
            peak_link_mbps: loads.peaks,
            transfer_gb: loads.volumes_gb,
            total_requests,
            served_local_pinned,
            served_local_cached,
            served_remote,
            total_gb_hops,
            max_link_mbps,
            denied_no_replica,
            denied_capacity,
            interrupted_streams,
            cache: cache_stats,
        },
        SimFinalState {
            cached_holders,
            cache_contents,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vod_model::{Video, VideoKind};
    use vod_net::topologies;
    use vod_trace::Request;

    fn catalog(n: u32) -> Catalog {
        Catalog::new(
            (0..n)
                .map(|i| Video {
                    id: VideoId::new(i),
                    class: VideoClass::Show, // 1 GB, 1 h, 2 Mb/s
                    kind: VideoKind::Catalog,
                    release_day: 0,
                    weight: 1.0,
                })
                .collect(),
        )
    }

    fn line3() -> (Network, PathSet) {
        let net = topologies::line(3);
        let paths = PathSet::shortest_paths(&net);
        (net, paths)
    }

    fn req(t: u64, j: u16, m: u32) -> Request {
        Request {
            time: SimTime::new(t),
            vho: VhoId::new(j),
            video: VideoId::new(m),
        }
    }

    fn no_cache_vhos(pinned: Vec<Vec<u32>>) -> Vec<VhoConfig> {
        pinned
            .into_iter()
            .map(|p| VhoConfig {
                pinned: p.into_iter().map(VideoId::new).collect(),
                cache: None,
            })
            .collect()
    }

    #[test]
    fn local_service_uses_no_links() {
        let (net, paths) = line3();
        let cat = catalog(1);
        let trace = Trace::new(SimTime::new(8000), vec![req(0, 0, 0)]);
        let vhos = no_cache_vhos(vec![vec![0], vec![], vec![]]);
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        assert_eq!(rep.served_local_pinned, 1);
        assert_eq!(rep.max_link_mbps, 0.0);
        assert_eq!(rep.total_gb_hops, 0.0);
    }

    #[test]
    fn remote_service_loads_path_for_duration() {
        let (net, paths) = line3();
        let cat = catalog(1);
        // Client at node 2, only copy at node 0 → 2 hops, 2 Mb/s for 1 h.
        let trace = Trace::new(SimTime::new(2 * 4600), vec![req(0, 2, 0)]);
        let vhos = no_cache_vhos(vec![vec![0], vec![], vec![]]);
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        assert_eq!(rep.served_remote, 1);
        assert_eq!(rep.max_link_mbps, 2.0);
        // GB×hops counts the nominal size: 1 GB × 2 hops.
        assert_eq!(rep.total_gb_hops, 2.0);
        // During the stream (first hour = 12 buckets) the peak is 2.
        assert_eq!(rep.peak_link_mbps[0], 2.0);
        assert_eq!(rep.peak_link_mbps[11], 2.0);
        // After the stream ends, load returns to zero.
        assert_eq!(*rep.peak_link_mbps.last().unwrap(), 0.0);
        // The transfer series counts what the wire carried: 2 Mb/s for
        // 3 600 s on each of 2 links is 2 · 3600 · 2 / 8000 = 1.8 GB
        // (one hour at 2 Mb/s is 0.9 GB of stream, under the 1 GB
        // nominal size).
        let vol: f64 = rep.transfer_gb.iter().sum();
        assert!((vol - 1.8).abs() < 1e-9, "wire volume {vol}");
    }

    #[test]
    fn nearest_replica_chosen() {
        let (net, paths) = line3();
        let cat = catalog(1);
        // Copies at 0 and 1; client at 2 → fetch from 1 (1 hop).
        let trace = Trace::new(SimTime::new(8000), vec![req(0, 2, 0)]);
        let vhos = no_cache_vhos(vec![vec![0], vec![0], vec![]]);
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        assert_eq!(rep.total_gb_hops, 1.0);
    }

    #[test]
    fn cache_hit_after_first_fetch() {
        let (net, paths) = line3();
        let cat = catalog(1);
        let trace = Trace::new(SimTime::new(20_000), vec![req(0, 2, 0), req(10_000, 2, 0)]);
        let mut vhos = no_cache_vhos(vec![vec![0], vec![], vec![]]);
        vhos[2].cache = Some((CacheKind::Lru, 5.0));
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        assert_eq!(rep.served_remote, 1);
        assert_eq!(rep.served_local_cached, 1);
        assert_eq!(rep.cache.insertions, 1);
    }

    #[test]
    fn remote_fetch_from_another_vhos_cache() {
        let (net, paths) = line3();
        let cat = catalog(1);
        // Copy pinned at 0 only. Node 1 fetches (caches it), then node
        // 2 fetches: nearest holder is now node 1's cache (1 hop).
        let trace = Trace::new(SimTime::new(30_000), vec![req(0, 1, 0), req(10_000, 2, 0)]);
        let mut vhos = no_cache_vhos(vec![vec![0], vec![], vec![]]);
        vhos[1].cache = Some((CacheKind::Lru, 5.0));
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        // 1 GB × 1 hop (0→1) + 1 GB × 1 hop (1→2).
        assert_eq!(rep.total_gb_hops, 2.0);
    }

    #[test]
    fn mip_routing_uses_distribution() {
        let (net, paths) = line3();
        let cat = catalog(1);
        // Placement: copies at 0 and 1; distribution for client 2 sends
        // everything to 0 (2 hops) even though 1 is nearer.
        let placement = {
            let stores = vec![vec![VhoId::new(0), VhoId::new(1)]];
            // from_stores carries no routing distribution, so the
            // MIP-routing policy must fall back to nearest replica.
            // This test asserts the fallback.
            Placement::from_stores(3, stores)
        };
        let trace = Trace::new(SimTime::new(8000), vec![req(0, 2, 0)]);
        let vhos = no_cache_vhos(vec![vec![0], vec![0], vec![]]);
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::MipRouting(placement),
            &SimConfig::default(),
        );
        // Fallback to nearest: 1 hop.
        assert_eq!(rep.total_gb_hops, 1.0);
    }

    #[test]
    fn measure_from_excludes_warmup() {
        let (net, paths) = line3();
        let cat = catalog(2);
        let trace = Trace::new(SimTime::new(30_000), vec![req(0, 2, 0), req(20_000, 2, 1)]);
        let vhos = no_cache_vhos(vec![vec![0, 1], vec![], vec![]]);
        let cfg = SimConfig {
            measure_from: SimTime::new(10_000),
            ..Default::default()
        };
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &cfg,
        );
        assert_eq!(rep.total_requests, 1);
        assert_eq!(rep.served_remote, 1);
        // But the warm-up stream still showed up on the links.
        assert_eq!(rep.peak_link_mbps[0], 2.0);
    }

    #[test]
    fn concurrent_streams_stack_on_links() {
        let (net, paths) = line3();
        let cat = catalog(3);
        let trace = Trace::new(
            SimTime::new(30_000),
            vec![req(0, 2, 0), req(100, 2, 1), req(200, 2, 2)],
        );
        let vhos = no_cache_vhos(vec![vec![0, 1, 2], vec![], vec![]]);
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        assert_eq!(rep.max_link_mbps, 6.0);
    }

    #[test]
    fn unhosted_video_is_denied_not_a_panic() {
        let (net, paths) = line3();
        let cat = catalog(1);
        let trace = Trace::new(SimTime::new(8000), vec![req(0, 2, 0)]);
        // Malformed placement: the video exists nowhere. The request
        // must surface as a counted denial, never an abort.
        let vhos = no_cache_vhos(vec![vec![], vec![], vec![]]);
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        assert_eq!(rep.denied_no_replica, 1);
        assert_eq!(rep.total_requests, 1);
        assert_eq!(rep.served_remote, 0);
        assert_eq!(rep.max_link_mbps, 0.0);
        assert!((rep.denial_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_ratios() {
        let rep = SimReport {
            bucket_secs: 300,
            peak_link_mbps: vec![],
            transfer_gb: vec![1.0, 3.0, 2.0],
            total_requests: 10,
            served_local_pinned: 4,
            served_local_cached: 2,
            served_remote: 2,
            total_gb_hops: 12.0,
            max_link_mbps: 5.0,
            denied_no_replica: 1,
            denied_capacity: 1,
            interrupted_streams: 2,
            cache: CacheStats::default(),
        };
        assert!((rep.local_fraction() - 0.6).abs() < 1e-12);
        assert_eq!(rep.max_aggregate_gb(), 3.0);
        assert_eq!(rep.denied(), 2);
        assert!((rep.denial_rate() - 0.2).abs() < 1e-12);
        assert!((rep.rebuffer_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn final_state_reflects_cache_contents() {
        let (net, paths) = line3();
        let cat = catalog(1);
        let trace = Trace::new(SimTime::new(20_000), vec![req(0, 2, 0)]);
        let mut vhos = no_cache_vhos(vec![vec![0], vec![], vec![]]);
        vhos[2].cache = Some((CacheKind::Lru, 5.0));
        let (_, fin) = simulate_with_final(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        assert_eq!(fin.cache_contents[2], vec![VideoId::new(0)]);
        assert_eq!(fin.cached_holders[0], vec![VhoId::new(2)]);
        assert!(fin.cache_contents[0].is_empty());
    }

    // ---- fault-injection behaviour ----------------------------------

    use crate::faults::{FaultEvent, FaultKind, FaultSchedule};

    fn fault_cfg(events: Vec<FaultEvent>, admission: bool) -> SimConfig {
        SimConfig {
            faults: FaultSchedule { events, admission },
            ..Default::default()
        }
    }

    #[test]
    fn vho_outage_fails_over_to_next_replica() {
        let (net, paths) = line3();
        let cat = catalog(1);
        // Copies at 0 and 1, client at 2. Fault-free the nearest is 1
        // (1 hop); with 1 down the request fails over to 0 (2 hops).
        let trace = Trace::new(SimTime::new(8000), vec![req(0, 2, 0)]);
        let vhos = no_cache_vhos(vec![vec![0], vec![0], vec![]]);
        let cfg = fault_cfg(
            vec![FaultEvent {
                start: SimTime::new(0),
                end: SimTime::new(10),
                kind: FaultKind::VhoOutage { vho: VhoId::new(1) },
            }],
            false,
        );
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &cfg,
        );
        assert_eq!(rep.served_remote, 1);
        assert_eq!(rep.total_gb_hops, 2.0, "failover took the 2-hop route");
        assert_eq!(rep.denied(), 0);
    }

    #[test]
    fn link_cut_interrupts_denies_then_recovers() {
        let (net, paths) = line3();
        let cat = catalog(1);
        // Only copy at 0; client at 2 (path links 0->1, 1->2). Stream
        // starts at t=0; link 1->2 is cut on [1000, 2000): the stream
        // is interrupted, a request at 1500 finds no route (denied),
        // and a request at 2500 is served again after recovery.
        let trace = Trace::new(
            SimTime::new(30_000),
            vec![req(0, 2, 0), req(1500, 2, 0), req(2500, 2, 0)],
        );
        let vhos = no_cache_vhos(vec![vec![0], vec![], vec![]]);
        let cfg = fault_cfg(
            vec![FaultEvent {
                start: SimTime::new(1000),
                end: SimTime::new(2000),
                kind: FaultKind::LinkDegrade {
                    link: LinkId::new(2),
                    capacity_scale: 0.0,
                },
            }],
            false,
        );
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &cfg,
        );
        assert_eq!(rep.interrupted_streams, 1);
        assert_eq!(rep.denied_no_replica, 1);
        assert_eq!(rep.served_remote, 2);
        assert_eq!(rep.total_requests, 3);
        // The cut window shows zero load (bucket 4 covers 1200..1500).
        assert_eq!(rep.peak_link_mbps[4], 0.0);
    }

    #[test]
    fn flash_crowd_replays_requests() {
        let (net, paths) = line3();
        let cat = catalog(1);
        let trace = Trace::new(SimTime::new(30_000), vec![req(100, 2, 0)]);
        let vhos = no_cache_vhos(vec![vec![0], vec![], vec![]]);
        let cfg = fault_cfg(
            vec![FaultEvent {
                start: SimTime::new(0),
                end: SimTime::new(200),
                kind: FaultKind::FlashCrowd {
                    vho: Some(VhoId::new(2)),
                    multiplier: 3,
                },
            }],
            false,
        );
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &cfg,
        );
        assert_eq!(rep.total_requests, 3);
        assert_eq!(rep.served_remote, 3);
        // Three concurrent copies of the same 2 Mb/s stream.
        assert_eq!(rep.max_link_mbps, 6.0);
    }

    #[test]
    fn admission_control_denies_overload() {
        let (mut net, _) = line3();
        net.set_uniform_capacity(vod_model::Mbps::new(3.0));
        let paths = PathSet::shortest_paths(&net);
        let cat = catalog(2);
        // Two concurrent 2 Mb/s streams over a 3 Mb/s link: the second
        // must be refused, not overload the link.
        let trace = Trace::new(SimTime::new(30_000), vec![req(0, 2, 0), req(100, 2, 1)]);
        let vhos = no_cache_vhos(vec![vec![0, 1], vec![], vec![]]);
        let cfg = fault_cfg(vec![], true);
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &cfg,
        );
        assert_eq!(rep.served_remote, 1);
        assert_eq!(rep.denied_capacity, 1);
        assert!(rep.max_link_mbps <= 3.0, "admission kept links feasible");
    }

    #[test]
    fn dormant_schedule_matches_fault_free_run() {
        let (net, paths) = line3();
        let cat = catalog(2);
        let trace = Trace::new(
            SimTime::new(30_000),
            vec![req(0, 2, 0), req(100, 1, 1), req(5000, 2, 1)],
        );
        let mut vhos = no_cache_vhos(vec![vec![0, 1], vec![], vec![]]);
        vhos[2].cache = Some((CacheKind::Lru, 5.0));
        let base = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig::default(),
        );
        // A schedule whose only event never overlaps the trace flips
        // the engine onto the fault-aware path but must not change a
        // single bit of the report.
        let cfg = fault_cfg(
            vec![FaultEvent {
                start: SimTime::new(40_000),
                end: SimTime::new(50_000),
                kind: FaultKind::VhoOutage { vho: VhoId::new(0) },
            }],
            false,
        );
        let rep = simulate(
            &net,
            &paths,
            &cat,
            &trace,
            &vhos,
            &PolicyKind::NearestReplica,
            &cfg,
        );
        assert_eq!(rep.total_requests, base.total_requests);
        assert_eq!(rep.total_gb_hops.to_bits(), base.total_gb_hops.to_bits());
        assert_eq!(rep.peak_link_mbps, base.peak_link_mbps);
        assert_eq!(rep.transfer_gb, base.transfer_gb);
        assert_eq!(rep.denied(), 0);
    }

    // ---- oracles for `Loads` and `Ends` ------------------------------

    use proptest::prelude::*;
    use vod_core::{Dists, VideoRouting};

    /// Reference for [`Loads`]: the implementation it replaced, with
    /// the global max folded linearly at every call and the old
    /// `advance` loop verbatim.
    struct RescanLoads {
        level: Vec<f64>,
        current_total: f64,
        last_event: u64,
        bucket_secs: u64,
        peaks: Vec<f64>,
        volumes_gb: Vec<f64>,
    }

    impl RescanLoads {
        fn max(&self) -> f64 {
            self.level.iter().copied().fold(0.0, f64::max)
        }

        fn advance(&mut self, now: u64) {
            let mut t = self.last_event;
            while t < now {
                let b = (t / self.bucket_secs) as usize;
                if b >= self.peaks.len() {
                    break;
                }
                let seg_end = ((b as u64 + 1) * self.bucket_secs).min(now);
                self.peaks[b] = self.peaks[b].max(self.max());
                self.volumes_gb[b] += self.current_total * (seg_end - t) as f64 / 8000.0;
                t = seg_end;
            }
            self.last_event = now;
            let b = (now / self.bucket_secs) as usize;
            if b < self.peaks.len() {
                self.peaks[b] = self.peaks[b].max(self.max());
            }
        }

        fn add(&mut self, links: &[LinkId], rate: f64) {
            for &l in links {
                self.level[l.index()] += rate;
            }
            self.current_total += rate * links.len() as f64;
        }

        fn remove(&mut self, links: &[LinkId], rate: f64) {
            for &l in links {
                self.level[l.index()] = (self.level[l.index()] - rate).max(0.0);
            }
            self.current_total = (self.current_total - rate * links.len() as f64).max(0.0);
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    const N_LINKS: usize = 6;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random add / remove / advance scripts in the engine's call
        /// pattern — one `advance` per event, then only adds or only
        /// removes — give bitwise the peaks and volumes of a rescan at
        /// every call. The time steps cover several events in one
        /// second, events exactly on a bucket boundary, gaps over three
        /// and more buckets and events past the horizon; the closing
        /// call comes with the clock before, at and past the horizon.
        #[test]
        fn loads_match_a_rescan_at_every_event(
            bucket_secs_pick in 0usize..4,
            horizon in 1_500u64..2_500,
            drain in any::<bool>(),
            steps in prop::collection::vec((0u8..8, 1u64..90, 0u8..5, 1usize..64), 1..100),
        ) {
            // 1 s buckets, an odd length, the default, and one bucket
            // longer than the horizon.
            let bucket_secs = [1, 77, 300, 5_000][bucket_secs_pick];
            let mut fast = Loads::new(N_LINKS, SimTime::new(horizon), bucket_secs);
            let mut slow = RescanLoads {
                level: vec![0.0; N_LINKS],
                current_total: 0.0,
                last_event: 0,
                bucket_secs,
                peaks: vec![0.0; fast.peaks.len()],
                volumes_gb: vec![0.0; fast.peaks.len()],
            };
            let mut active: Vec<(Vec<LinkId>, f64)> = Vec::new();
            let mut now = 0u64;
            for (gap, dt, op, mask) in steps {
                now = match gap {
                    0 | 1 => now,
                    2 => (now / bucket_secs + 1) * bucket_secs,
                    3 => now + 3 * bucket_secs + dt,
                    _ => now + dt,
                };
                fast.advance(now);
                slow.advance(now);
                if op == 0 && !active.is_empty() {
                    // One or two streams end (or are killed) at once.
                    for _ in 0..1 + mask % 2 {
                        if active.is_empty() {
                            break;
                        }
                        let (links, rate) = active.swap_remove(mask % active.len());
                        fast.remove(&links, rate);
                        slow.remove(&links, rate);
                    }
                } else {
                    // One stream starts, or a flash crowd's two copies.
                    let links: Vec<LinkId> = (0..N_LINKS)
                        .filter(|l| mask >> l & 1 == 1)
                        .map(|l| LinkId::new(l as u32))
                        .collect();
                    // Dyadic rates: a drained script leaves exactly zero
                    // load, as the engine's 2 Mb/s streams do.
                    let rate = [2.0, 0.5, 1.25][mask % 3];
                    for _ in 0..1 + usize::from(op == 4) {
                        fast.add(&links, rate);
                        slow.add(&links, rate);
                        active.push((links.clone(), rate));
                    }
                }
                prop_assert_eq!(fast.max().to_bits(), slow.max().to_bits());
            }
            // The engine closes only after every stream has ended. Once
            // the clock has left the reported buckets the old closing
            // call would book whatever load is left into the last
            // bucket (see `close_does_not_move_the_clock_back`), so
            // there the script drains first, as the engine does.
            if drain || now / bucket_secs >= fast.peaks.len() as u64 {
                for (k, (links, rate)) in active.drain(..).enumerate() {
                    now += [0, 1, bucket_secs][k % 3];
                    fast.advance(now);
                    slow.advance(now);
                    fast.remove(&links, rate);
                    slow.remove(&links, rate);
                }
            }
            fast.close(horizon);
            slow.advance(horizon);
            prop_assert_eq!(bits(&fast.peaks), bits(&slow.peaks));
            prop_assert_eq!(bits(&fast.volumes_gb), bits(&slow.volumes_gb));
        }

        /// Ends queued the way the engine queues them — request times
        /// non-decreasing, any mix of the four length classes, due ends
        /// popped before each request — come out sorted by
        /// `(time, seq)`, also after a `retain` dropped some of them;
        /// and after every push, pop and `retain` the cached least
        /// front `peek` returns is a fresh scan's.
        #[test]
        fn ends_pop_in_time_then_seq_order(
            requests in prop::collection::vec((0u64..6, 0usize..4, any::<bool>()), 1..200),
            retain_at in 0usize..200,
        ) {
            let mut ends = Ends::default();
            let mut queued: Vec<(SimTime, u64)> = Vec::new();
            let mut popped: Vec<(SimTime, u64)> = Vec::new();
            let mut now = SimTime::ZERO;
            for (seq, &(dt, class, same_second)) in (1u64..).zip(&requests) {
                // Steps of 150 s divide every class length, so ends
                // of different classes often tie on time.
                if !same_second {
                    now = now + dt * 150;
                }
                while let Some((te, k)) = ends.peek().filter(|&(te, _)| te <= now) {
                    let ev = ends.pop(k).unwrap();
                    prop_assert_eq!(ev.time, te);
                    prop_assert_eq!(ends.peek(), scanned_front(&ends));
                    popped.push((ev.time, ev.seq));
                }
                if seq as usize == retain_at {
                    ends.retain(|ev| ev.seq % 3 != 0);
                    prop_assert_eq!(ends.peek(), scanned_front(&ends));
                    queued.retain(|&(t, s)| s % 3 != 0 || popped.contains(&(t, s)));
                }
                let class = VideoClass::ALL[class];
                let time = now + class.duration_secs();
                ends.push(class, end_event(time, seq));
                prop_assert_eq!(ends.peek(), scanned_front(&ends));
                queued.push((time, seq));
            }
            while let Some((_, k)) = ends.peek() {
                let ev = ends.pop(k).unwrap();
                prop_assert_eq!(ends.peek(), scanned_front(&ends));
                popped.push((ev.time, ev.seq));
            }
            queued.sort();
            prop_assert_eq!(popped, queued);
        }

        /// The compiled routing table draws what the distribution walk
        /// it replaced drew, and leaves the RNG in the same state:
        /// clients with no distribution or an empty one, one-server
        /// and many-server rows, zero weights (all-zero rows too), and
        /// drawn servers inside and outside the pinned set.
        #[test]
        fn routing_table_draws_what_the_distribution_walk_drew(
            n_vhos in 1usize..6,
            n_videos in 1usize..5,
            shapes in prop::collection::vec(
                (0u8..4, prop::collection::vec((0usize..8, 0u8..3, 0.0f64..2.0), 1..5)),
                20..21,
            ),
            pins in prop::collection::vec(any::<bool>(), 20..21),
            draws in prop::collection::vec((0usize..5, 0usize..6), 1..80),
            seed in any::<u64>(),
        ) {
            let ids: Vec<VhoId> = vod_model::ids::all_vhos(n_vhos).collect();
            let mut routing = Vec::new();
            let mut pinned = Vec::new();
            for m in 0..n_videos {
                let (mut clients, mut lists) = (Vec::new(), Vec::new());
                for (k, &j) in ids.iter().enumerate() {
                    let (kind, entries) = &shapes[m * n_vhos + k];
                    let dist: Vec<_> = entries
                        .iter()
                        .map(|&(i, w, x)| (ids[i % n_vhos], [0.0, 1.0, x][usize::from(w)]))
                        .collect();
                    match kind {
                        0 => continue,
                        1 => lists.push(Vec::new()),
                        2 => lists.push(dist[..1].to_vec()),
                        _ => lists.push(dist),
                    }
                    clients.push(j);
                }
                routing.push(VideoRouting { clients, x: Dists::from_lists(lists) });
                pinned.push(
                    ids.iter()
                        .zip(&pins[m * n_vhos..])
                        .filter_map(|(&i, &p)| p.then_some(i))
                        .collect::<Vec<_>>(),
                );
            }
            let stores = vec![ids[..1].to_vec(); n_videos];
            let placement = Placement::from_parts(n_vhos, stores, routing).unwrap();
            let table = Routing::compile(&placement, &pinned, &ids);
            let mut fast = derive_rng(seed, 1);
            let mut slow = fast.clone();
            for (m, j) in draws {
                let m = VideoId::new((m % n_videos) as u32);
                let j = ids[j % n_vhos];
                let drawn = table.draw(m, j, &mut fast);
                prop_assert_eq!(drawn, walk_distribution(&placement, &pinned, m, j, &mut slow));
                prop_assert_eq!(&fast, &slow);
            }
        }
    }

    /// `peek` recomputed by a fresh scan: the least `(time, seq)` front.
    fn scanned_front(ends: &Ends) -> Option<(SimTime, usize)> {
        let mut least: Option<(SimTime, u64, usize)> = None;
        for (k, q) in ends.queues.iter().enumerate() {
            if let Some(e) = q.front() {
                if least.is_none_or(|(t, s, _)| (e.time, e.seq) < (t, s)) {
                    least = Some((e.time, e.seq, k));
                }
            }
        }
        least.map(|(t, _, k)| (t, k))
    }

    /// Reference for [`Routing::draw`]: the server choice `simulate`
    /// made before the table, verbatim — a binary search for the
    /// client's distribution, the weighted walk over it and a binary
    /// search of the pinned set.
    fn walk_distribution(
        placement: &Placement,
        pinned_holders: &[Vec<VhoId>],
        m: VideoId,
        j: VhoId,
        rng: &mut impl Rng,
    ) -> Pick {
        let Some(dist) = placement.serving_distribution(m, j) else {
            return Pick::Unrouted;
        };
        let total: f64 = dist.iter().map(|&(_, w)| w).sum();
        let mut pick = rng.gen::<f64>() * total;
        let mut chosen = dist[0].0;
        for &(i, w) in dist {
            if pick <= w {
                chosen = i;
                break;
            }
            pick -= w;
        }
        if pinned_holders[m.index()].binary_search(&chosen).is_ok() {
            Pick::Pinned(chosen)
        } else {
            Pick::Unpinned
        }
    }

    fn end_event(time: SimTime, seq: u64) -> EndEvent {
        EndEvent {
            time,
            seq,
            video: VideoId::new(0),
            server: VhoId::new(0),
            client: VhoId::new(1),
            unpin_server_cache: false,
            unpin_client_cache: false,
            measured: true,
        }
    }

    #[test]
    #[should_panic(expected = "must be queued in (time, seq) order")]
    fn out_of_order_end_is_refused() {
        let mut ends = Ends::default();
        ends.push(VideoClass::Show, end_event(SimTime::new(3_700), 1));
        // Same class, earlier end: a per-video duration would do this.
        ends.push(VideoClass::Show, end_event(SimTime::new(3_600), 2));
    }

    #[test]
    fn close_does_not_move_the_clock_back() {
        // Four 300 s buckets; the last one covers 900..1200.
        let mut loads = Loads::new(1, SimTime::new(1_000), 300);
        let link = [LinkId::new(0)];
        loads.advance(950);
        loads.add(&link, 2.0);
        // The drain runs past the horizon and (in a script, never in
        // the engine) load is still rising there.
        loads.advance(1_300);
        loads.add(&link, 2.0);
        loads.close(1_000);
        assert_eq!(loads.last_event, 1_300);
        assert_eq!(loads.peaks, vec![0.0, 0.0, 0.0, 2.0]);
        // 2 Mb/s over 950..1200, the part of the stream inside the
        // reported buckets.
        assert_eq!(loads.volumes_gb[3], 2.0 * 250.0 / 8000.0);
    }
}
