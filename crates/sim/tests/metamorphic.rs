//! Metamorphic test of the simulator: a size-0 cache replays like no
//! cache at all.
//!
//! The invariant is exact, not within some ε. Every video has a
//! positive size, so a 0 GB cache refuses every insert and never holds
//! a video. No request is then served from it and no holder set lists
//! it, so each replay picks the same server, draws the same MIP-routing
//! numbers, and adds the same loads in the same order; every float sum
//! takes the same path and comes out in the same bits. The one report
//! field that differs is `cache.rejections`: it counts each refused
//! insert, one per remotely served request here, since every VHO has a
//! cache and the fetching VHO tries to keep what it fetched.
use vod_core::{solve_placement, DiskConfig, EpfConfig, MipInstance, Placement};
use vod_model::{Catalog, Mbps};
use vod_net::{Network, PathSet};
use vod_sim::{
    mip_vho_configs, simulate_with_final, CacheKind, PolicyKind, SimConfig, SimFinalState,
    SimReport, VhoConfig,
};
use vod_trace::{
    generate_trace, synthesize_library, synthetic_demand, LibraryConfig, Trace, TraceConfig,
};

/// A 200-video week on `ebone` and one MIP placement of it.
fn world(seed: u64) -> (Network, Catalog, Trace, Placement) {
    let mut net = vod_net::topologies::ebone();
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(200, 7, seed));
    let cfg = TraceConfig::default_for(2_000.0, 7, seed);
    let trace = generate_trace(&catalog, &net, &cfg);
    let inst = MipInstance::new(
        net.clone(),
        catalog.clone(),
        synthetic_demand(&catalog, &net, &cfg),
        &DiskConfig::UniformRatio { ratio: 1.9 },
        1.0,
        0.0,
        None,
    );
    let out = solve_placement(
        &inst,
        &EpfConfig {
            max_passes: 20,
            seed,
            ..Default::default()
        },
    )
    .expect("the world's instance is well formed");
    (net, catalog, trace, out.placement)
}

/// Every counter and every bit of both series and the final cache
/// state, `cache.rejections` aside.
fn same_replay(a: &(SimReport, SimFinalState), b: &(SimReport, SimFinalState), ctx: &str) {
    let ((ra, fa), (rb, fb)) = (a, b);
    let counts = |r: &SimReport| {
        [
            r.bucket_secs,
            r.total_requests,
            r.served_local_pinned,
            r.served_local_cached,
            r.served_remote,
            r.denied_no_replica,
            r.denied_capacity,
            r.interrupted_streams,
            r.cache.hits,
            r.cache.insertions,
            r.cache.evictions,
            r.total_gb_hops.to_bits(),
            r.max_link_mbps.to_bits(),
        ]
    };
    let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(counts(ra), counts(rb), "{ctx}: counters");
    assert_eq!(
        bits(&ra.peak_link_mbps),
        bits(&rb.peak_link_mbps),
        "{ctx}: peaks"
    );
    assert_eq!(
        bits(&ra.transfer_gb),
        bits(&rb.transfer_gb),
        "{ctx}: transfer"
    );
    assert_eq!(fa.cached_holders, fb.cached_holders, "{ctx}: holders");
    assert_eq!(fa.cache_contents, fb.cache_contents, "{ctx}: contents");
}

#[test]
fn a_size_0_cache_replays_like_no_cache() {
    for seed in [3, 11] {
        let (net, catalog, trace, placement) = world(seed);
        let paths = PathSet::shortest_paths(&net);
        let disks = DiskConfig::UniformRatio { ratio: 2.0 }.capacities(&net, catalog.total_size());
        let pinned = mip_vho_configs(&placement, &disks, 0.05, CacheKind::Lru);
        let with_cache = |cache: Option<(CacheKind, f64)>| -> Vec<VhoConfig> {
            pinned
                .iter()
                .map(|v| VhoConfig {
                    pinned: v.pinned.clone(),
                    cache,
                })
                .collect()
        };
        let cfg = SimConfig {
            seed,
            ..Default::default()
        };
        for (name, policy) in [
            ("MIP routing", PolicyKind::MipRouting(placement.clone())),
            ("nearest replica", PolicyKind::NearestReplica),
        ] {
            let replay = |vhos: &[VhoConfig]| {
                simulate_with_final(&net, &paths, &catalog, &trace, vhos, &policy, &cfg)
            };
            let bare = replay(&with_cache(None));
            assert_eq!(bare.0.cache.rejections, 0);
            assert!(bare.0.served_remote > 0, "seed {seed}: nothing to fetch");
            for kind in [CacheKind::Lru, CacheKind::Lfu, CacheKind::Lrfu(0.001)] {
                let ctx = format!("seed {seed}, {name}, {kind:?}");
                let empty = replay(&with_cache(Some((kind, 0.0))));
                same_replay(&empty, &bare, &ctx);
                assert_eq!(empty.0.cache.rejections, empty.0.served_remote, "{ctx}");
            }
        }
    }
}
