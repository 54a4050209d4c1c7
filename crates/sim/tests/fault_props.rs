//! Property tests for the fault-injection layer: request conservation
//! under arbitrary fault schedules, thread-count invariance of faulted
//! runs, and the zero-cost guarantee that an empty schedule leaves the
//! report byte-identical to a fault-free run.
#![expect(
    clippy::cast_possible_truncation,
    reason = "test code narrows small fixture sizes"
)]
use proptest::prelude::*;
use vod_model::{Gigabytes, LinkId, SimTime};
use vod_net::PathSet;
use vod_sim::{
    random_single_vho_configs, simulate, simulate_batch, CacheKind, FaultEvent, FaultKind,
    FaultSchedule, PolicyKind, SimConfig, SimJob, SimReport,
};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

/// Bitwise equality of two reports (mirrors `tests/determinism.rs`).
fn assert_bit_identical(a: &SimReport, b: &SimReport) {
    assert_eq!(a.total_requests, b.total_requests);
    assert_eq!(a.served_local_pinned, b.served_local_pinned);
    assert_eq!(a.served_local_cached, b.served_local_cached);
    assert_eq!(a.served_remote, b.served_remote);
    assert_eq!(a.denied_no_replica, b.denied_no_replica);
    assert_eq!(a.denied_capacity, b.denied_capacity);
    assert_eq!(a.interrupted_streams, b.interrupted_streams);
    assert_eq!(a.total_gb_hops.to_bits(), b.total_gb_hops.to_bits());
    assert_eq!(a.max_link_mbps.to_bits(), b.max_link_mbps.to_bits());
    assert_eq!(a.cache.insertions, b.cache.insertions);
    assert_eq!(a.cache.evictions, b.cache.evictions);
    assert_eq!(a.cache.hits, b.cache.hits);
    assert_eq!(a.cache.rejections, b.cache.rejections);
    assert_eq!(a.peak_link_mbps.len(), b.peak_link_mbps.len());
    for (x, y) in a.peak_link_mbps.iter().zip(&b.peak_link_mbps) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(a.transfer_gb.len(), b.transfer_gb.len());
    for (x, y) in a.transfer_gb.iter().zip(&b.transfer_gb) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}

/// A pseudo-random but deterministic fault schedule: VHO outages, link
/// degradations/cuts and flash crowds with windows inside the 7-day
/// horizon, derived from the proptest-drawn integers (no RNG here, so
/// failures shrink cleanly).
fn schedule_from(
    net: &vod_net::Network,
    picks: &[(u8, u32, u32, u8)],
    admission: bool,
) -> FaultSchedule {
    let horizon = 7 * 86_400u64;
    let vhos: Vec<_> = net.vho_ids().collect();
    let mut events = Vec::new();
    for &(kind, start, len, which) in picks {
        let start = u64::from(start) % (horizon - 3_600);
        let end = (start + 600 + u64::from(len) % 86_400).min(horizon);
        let kind = match kind % 4 {
            0 => FaultKind::VhoOutage {
                vho: vhos[usize::from(which) % vhos.len()],
            },
            1 => FaultKind::LinkDegrade {
                link: LinkId::from_index(usize::from(which) % net.num_links()),
                capacity_scale: 0.0,
            },
            2 => FaultKind::LinkDegrade {
                link: LinkId::from_index(usize::from(which) % net.num_links()),
                capacity_scale: 0.5,
            },
            _ => FaultKind::FlashCrowd {
                vho: Some(vhos[usize::from(which) % vhos.len()]),
                multiplier: 2 + u32::from(which % 3),
            },
        };
        events.push(FaultEvent {
            start: SimTime::new(start),
            end: SimTime::new(end),
            kind,
        });
    }
    FaultSchedule { events, admission }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under any fault schedule, every issued request (including flash-
    /// crowd copies) is exactly one of: served locally from pinned
    /// storage, served from cache, served remotely, denied for lack of
    /// a live replica, or denied by admission control. No request is
    /// lost or double-counted, and the denial helpers agree with the
    /// raw counters.
    #[test]
    fn faulted_sim_conserves_requests(
        seed in 0u64..200,
        n_videos in 20usize..80,
        rpd in 100.0f64..500.0,
        kind in 0u8..3,
        admission in any::<bool>(),
        picks in prop::collection::vec((0u8..=255, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u8..=255), 1..6),
    ) {
        let net = vod_net::topologies::mesh_backbone(5, 7, seed);
        let paths = PathSet::shortest_paths(&net);
        let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(rpd, 7, seed));
        let disks = vec![Gigabytes::new(catalog.total_size().value() * 0.4); 5];
        let cache_kind = match kind {
            0 => CacheKind::Lru,
            1 => CacheKind::Lfu,
            _ => CacheKind::Lrfu(0.3),
        };
        let vhos = random_single_vho_configs(&catalog, &disks, cache_kind, seed);
        let cfg = SimConfig {
            seed,
            faults: schedule_from(&net, &picks, admission),
            ..Default::default()
        };
        let rep = simulate(
            &net, &paths, &catalog, &trace, &vhos,
            &PolicyKind::NearestReplica, &cfg,
        );

        // Conservation: issued = served + denied, with flash crowds
        // only ever adding whole extra copies on top of the trace.
        prop_assert!(rep.total_requests as usize >= trace.len());
        prop_assert_eq!(
            rep.served_local_pinned + rep.served_local_cached + rep.served_remote
                + rep.denied_no_replica + rep.denied_capacity,
            rep.total_requests
        );
        prop_assert_eq!(rep.denied(), rep.denied_no_replica + rep.denied_capacity);
        prop_assert!(rep.denial_rate() >= 0.0 && rep.denial_rate() <= 1.0);
        // Interrupted streams were served (then cut) — never more of
        // them than there were served requests.
        prop_assert!(
            rep.interrupted_streams
                <= rep.served_local_pinned + rep.served_local_cached + rep.served_remote
        );
    }

    /// The thread count stays invisible in faulted runs: the same jobs
    /// through `simulate_batch` at 1 and 4 threads are byte-identical
    /// for every cache kind.
    #[test]
    fn faulted_batch_is_thread_invariant(
        seed in 0u64..100,
        admission in any::<bool>(),
        picks in prop::collection::vec((0u8..=255, 0u32..=u32::MAX, 0u32..=u32::MAX, 0u8..=255), 1..5),
    ) {
        let net = vod_net::topologies::mesh_backbone(5, 7, seed);
        let paths = PathSet::shortest_paths(&net);
        let catalog = synthesize_library(&LibraryConfig::default_for(40, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(250.0, 7, seed));
        let disks = vec![Gigabytes::new(catalog.total_size().value() * 0.4); 5];
        let policy = PolicyKind::NearestReplica;
        let faults = schedule_from(&net, &picks, admission);
        let vho_sets: Vec<_> = [CacheKind::Lru, CacheKind::Lfu, CacheKind::Lrfu(0.3)]
            .into_iter()
            .map(|k| random_single_vho_configs(&catalog, &disks, k, seed))
            .collect();
        let jobs: Vec<SimJob> = vho_sets
            .iter()
            .map(|vhos| SimJob {
                net: &net,
                paths: &paths,
                catalog: &catalog,
                trace: &trace,
                vhos,
                policy: &policy,
                cfg: SimConfig {
                    seed,
                    faults: faults.clone(),
                    ..Default::default()
                },
            })
            .collect();
        let serial = simulate_batch(&jobs, 1);
        let parallel = simulate_batch(&jobs, 4);
        prop_assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_bit_identical(a, b);
        }
    }

    /// Zero-cost guarantee: an explicitly-empty schedule produces a
    /// report byte-identical to the default (fault-free) config — the
    /// fault layer must not perturb a single bit when dormant.
    #[test]
    fn empty_schedule_is_byte_identical_to_fault_free(
        seed in 0u64..100,
        kind in 0u8..3,
    ) {
        let net = vod_net::topologies::mesh_backbone(5, 7, seed);
        let paths = PathSet::shortest_paths(&net);
        let catalog = synthesize_library(&LibraryConfig::default_for(40, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(250.0, 7, seed));
        let disks = vec![Gigabytes::new(catalog.total_size().value() * 0.4); 5];
        let cache_kind = match kind {
            0 => CacheKind::Lru,
            1 => CacheKind::Lfu,
            _ => CacheKind::Lrfu(0.3),
        };
        let vhos = random_single_vho_configs(&catalog, &disks, cache_kind, seed);
        let policy = PolicyKind::NearestReplica;
        let plain = simulate(
            &net, &paths, &catalog, &trace, &vhos, &policy,
            &SimConfig { seed, ..Default::default() },
        );
        let dormant = simulate(
            &net, &paths, &catalog, &trace, &vhos, &policy,
            &SimConfig {
                seed,
                faults: FaultSchedule::empty(),
                ..Default::default()
            },
        );
        assert_bit_identical(&plain, &dormant);
    }
}
