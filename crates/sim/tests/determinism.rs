//! Batch-runner determinism regression: `simulate_batch` must produce
//! **byte-identical** reports whatever the thread count (mirrors
//! `crates/core/tests/determinism.rs` for the solver pool).
//!
//! The batch contract (see `crates/sim/src/batch.rs`) is that each job
//! runs the same single-threaded `simulate` as the serial path and the
//! results are reassembled in job order, so `threads = 1` vs
//! `threads = 4` differ only in scheduling — never in a single bit of
//! output.
use vod_model::Gigabytes;
use vod_net::PathSet;
use vod_sim::{
    random_single_vho_configs, simulate_batch, CacheKind, PolicyKind, SimConfig, SimJob, SimReport,
};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

/// Bitwise equality of two reports: every counter, every f64 bit
/// pattern, every series entry.
fn assert_bit_identical(a: &SimReport, b: &SimReport, ctx: &str) {
    assert_eq!(a.total_requests, b.total_requests, "{ctx}: total_requests");
    assert_eq!(
        a.served_local_pinned, b.served_local_pinned,
        "{ctx}: served_local_pinned"
    );
    assert_eq!(
        a.served_local_cached, b.served_local_cached,
        "{ctx}: served_local_cached"
    );
    assert_eq!(a.served_remote, b.served_remote, "{ctx}: served_remote");
    assert_eq!(
        a.total_gb_hops.to_bits(),
        b.total_gb_hops.to_bits(),
        "{ctx}: total_gb_hops"
    );
    assert_eq!(
        a.max_link_mbps.to_bits(),
        b.max_link_mbps.to_bits(),
        "{ctx}: max_link_mbps"
    );
    assert_eq!(
        a.denied_no_replica, b.denied_no_replica,
        "{ctx}: denied_no_replica"
    );
    assert_eq!(
        a.denied_capacity, b.denied_capacity,
        "{ctx}: denied_capacity"
    );
    assert_eq!(
        a.interrupted_streams, b.interrupted_streams,
        "{ctx}: interrupted_streams"
    );
    assert_eq!(a.cache.insertions, b.cache.insertions, "{ctx}: insertions");
    assert_eq!(a.cache.evictions, b.cache.evictions, "{ctx}: evictions");
    assert_eq!(a.cache.hits, b.cache.hits, "{ctx}: hits");
    assert_eq!(a.cache.rejections, b.cache.rejections, "{ctx}: rejections");
    assert_eq!(
        a.peak_link_mbps.len(),
        b.peak_link_mbps.len(),
        "{ctx}: peak series length"
    );
    for (i, (x, y)) in a.peak_link_mbps.iter().zip(&b.peak_link_mbps).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: peak_link_mbps[{i}]");
    }
    assert_eq!(
        a.transfer_gb.len(),
        b.transfer_gb.len(),
        "{ctx}: transfer series length"
    );
    for (i, (x, y)) in a.transfer_gb.iter().zip(&b.transfer_gb).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: transfer_gb[{i}]");
    }
}

#[test]
fn thread_count_is_invisible_in_reports() {
    for seed in [11u64, 12] {
        let net = vod_net::topologies::mesh_backbone(6, 9, seed);
        let paths = PathSet::shortest_paths(&net);
        let catalog = synthesize_library(&LibraryConfig::default_for(120, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(800.0, 7, seed));
        let disks = vec![Gigabytes::new(catalog.total_size().value() * 0.5); 6];
        let vho_sets: Vec<_> = [CacheKind::Lru, CacheKind::Lfu, CacheKind::Lrfu(0.3)]
            .into_iter()
            .map(|kind| random_single_vho_configs(&catalog, &disks, kind, seed))
            .collect();
        let policy = PolicyKind::NearestReplica;
        let jobs: Vec<SimJob> = vho_sets
            .iter()
            .flat_map(|vhos| {
                [true, false].map(|insert_on_miss| SimJob {
                    net: &net,
                    paths: &paths,
                    catalog: &catalog,
                    trace: &trace,
                    vhos,
                    policy: &policy,
                    cfg: SimConfig {
                        seed,
                        insert_on_miss,
                        ..Default::default()
                    },
                })
            })
            .collect();
        let serial = simulate_batch(&jobs, 1);
        let parallel = simulate_batch(&jobs, 4);
        assert_eq!(serial.len(), parallel.len());
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            assert_bit_identical(a, b, &format!("seed {seed}, job {i}"));
        }
    }
}
