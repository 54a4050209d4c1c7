//! Property tests over the simulator's conservation and cache-state
//! invariants: randomized topologies, catalogs, traces, policies and
//! cache kinds, checked against `simulate_with_final`'s end-of-run
//! holder sets.
#![expect(
    clippy::cast_possible_truncation,
    reason = "test code narrows small fixture sizes"
)]
use proptest::prelude::*;
use vod_model::{Gigabytes, VideoId};
use vod_net::PathSet;
use vod_sim::{random_single_vho_configs, simulate_with_final, CacheKind, PolicyKind, SimConfig};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every request is served exactly once (pinned + cached + remote
    /// add up to the trace), and the final holder index is exactly the
    /// transpose of the final cache contents — each direction of the
    /// subset check catches a different desync (stale holder rows vs
    /// unindexed cache entries).
    #[test]
    fn conservation_and_holder_transpose(
        seed in 0u64..300,
        n_videos in 20usize..90,
        rpd in 100.0f64..600.0,
        kind in 0u8..3,
        insert_on_miss in any::<bool>(),
    ) {
        let net = vod_net::topologies::mesh_backbone(5, 7, seed);
        let paths = PathSet::shortest_paths(&net);
        let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(rpd, 7, seed));
        // Disks sized so caches actually churn (evictions happen).
        let disks = vec![Gigabytes::new(catalog.total_size().value() * 0.4); 5];
        let cache_kind = match kind {
            0 => CacheKind::Lru,
            1 => CacheKind::Lfu,
            _ => CacheKind::Lrfu(0.3),
        };
        let vhos = random_single_vho_configs(&catalog, &disks, cache_kind, seed);
        let (rep, fin) = simulate_with_final(
            &net, &paths, &catalog, &trace, &vhos,
            &PolicyKind::NearestReplica,
            &SimConfig { seed, insert_on_miss, ..Default::default() },
        );

        // Conservation: the three service classes partition the trace.
        prop_assert_eq!(rep.total_requests as usize, trace.len());
        prop_assert_eq!(
            rep.served_local_pinned + rep.served_local_cached + rep.served_remote,
            rep.total_requests
        );

        // cached_holders[v] says VHO n caches v  =>  v is in n's cache.
        for (v, holders) in fin.cached_holders.iter().enumerate() {
            let video = VideoId::new(v as u32);
            for &n in holders {
                prop_assert!(
                    fin.cache_contents[n.index()].binary_search(&video).is_ok(),
                    "video {video} indexed at VHO {n} but not in its cache"
                );
            }
        }
        // v in n's cache  =>  cached_holders[v] lists n (transpose).
        for (n, contents) in fin.cache_contents.iter().enumerate() {
            for &video in contents {
                prop_assert!(
                    fin.cached_holders[video.index()]
                        .iter()
                        .any(|h| h.index() == n),
                    "VHO {n} caches {video} but the holder index misses it"
                );
            }
        }
    }
}
