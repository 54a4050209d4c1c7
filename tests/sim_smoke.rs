//! Tier-1 smoke of the simulator layer: one seeded mesh world replayed
//! under every cache policy, four fault schedules and two bucket
//! lengths, each run reduced to one fingerprint of everything the
//! engine reports — every counter, the bits of both bucket series and
//! the final cache state — and compared with constants. No solver runs
//! (random single-copy placement, nearest-replica routing).
//!
//! The constants were captured on the tournament-tree / binary-heap
//! engine that preceded the bucket-peak `Loads` and the per-class end
//! queues, so they passing is the statement that the engine swap moved
//! no bit. Re-capture them only for a change that is *meant* to move a
//! report, and say so. The full matrices live in
//! `crates/sim/tests/{determinism,fault_props,sim_props}.rs`.
#![expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures and builds raw VhoIds"
)]

use vod_json::snapshot::fnv1a64;
use vodplace::model::LinkId;
use vodplace::net::topologies;
use vodplace::prelude::*;
use vodplace::sim::{
    random_single_vho_configs, simulate_with_final, FaultEvent, FaultKind, FaultSchedule,
    SimFinalState, SimReport,
};

const SEED: u64 = 29;
const DAY: u64 = 86_400;
const DAYS: u64 = 7;

/// One FNV-1a over everything a run reports, as little-endian words:
/// the counters, both series (length, then bits) and the final state
/// (each list's length, then its ids).
fn fingerprint(rep: &SimReport, fin: &SimFinalState) -> u64 {
    let mut words = vec![
        rep.bucket_secs,
        rep.total_requests,
        rep.served_local_pinned,
        rep.served_local_cached,
        rep.served_remote,
        rep.denied_no_replica,
        rep.denied_capacity,
        rep.interrupted_streams,
        rep.cache.hits,
        rep.cache.insertions,
        rep.cache.evictions,
        rep.cache.rejections,
        rep.total_gb_hops.to_bits(),
        rep.max_link_mbps.to_bits(),
    ];
    for series in [&rep.peak_link_mbps, &rep.transfer_gb] {
        words.push(series.len() as u64);
        words.extend(series.iter().map(|x| x.to_bits()));
    }
    for holders in &fin.cached_holders {
        words.push(holders.len() as u64);
        words.extend(holders.iter().map(|v| v.index() as u64));
    }
    for contents in &fin.cache_contents {
        words.push(contents.len() as u64);
        words.extend(contents.iter().map(|m| m.index() as u64));
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

fn event(start: u64, end: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent {
        start: SimTime::new(start),
        end: SimTime::new(end),
        kind,
    }
}

fn outage(vho: u16) -> FaultKind {
    FaultKind::VhoOutage {
        vho: VhoId::new(vho),
    }
}

fn degrade(link: u32, capacity_scale: f64) -> FaultKind {
    FaultKind::LinkDegrade {
        link: LinkId::new(link),
        capacity_scale,
    }
}

/// The four schedules, by name: no faults; admission control alone;
/// a storm whose outages and cuts start while streams are up (so some
/// are interrupted), with a brown-out and both flash-crowd scopes; and
/// an outage and cuts that outlive the horizon, one of them starting
/// during the drain after the last request.
fn schedules() -> [(&'static str, FaultSchedule); 4] {
    let storm = vec![
        event(2 * DAY + 68_000, 2 * DAY + 80_000, outage(3)),
        event(4 * DAY + 70_000, 4 * DAY + 77_200, outage(7)),
        event(3 * DAY + 66_500, 3 * DAY + 75_000, degrade(5, 0.0)),
        event(5 * DAY + 72_077, 5 * DAY + 75_000, degrade(18, 0.0)),
        event(DAY, 6 * DAY, degrade(9, 0.5)),
        event(
            2 * DAY + 60_000,
            2 * DAY + 70_000,
            FaultKind::FlashCrowd {
                vho: Some(VhoId::new(2)),
                multiplier: 3,
            },
        ),
        event(
            4 * DAY + 73_600,
            4 * DAY + 75_400,
            FaultKind::FlashCrowd {
                vho: None,
                multiplier: 2,
            },
        ),
    ];
    let outliving = vec![
        event(6 * DAY + 40_000, 9 * DAY, outage(5)),
        event(6 * DAY + 80_000, 8 * DAY, degrade(11, 0.0)),
        event(DAYS * DAY + 600, 8 * DAY, degrade(30, 0.0)),
    ];
    [
        ("none", FaultSchedule::empty()),
        (
            "admission",
            FaultSchedule {
                events: vec![],
                admission: true,
            },
        ),
        (
            "storm",
            FaultSchedule {
                events: storm,
                admission: true,
            },
        ),
        (
            "outliving",
            FaultSchedule {
                events: outliving,
                admission: false,
            },
        ),
    ]
}

/// Fingerprints in run order: cache kind (LRU, LFU, LRFU) outermost,
/// then schedule (none, admission, storm, outliving), then
/// `bucket_secs` (300, 77).
const EXPECTED: [u64; 24] = [
    0x3b22_9b83_d980_070a,
    0x2c7f_6dcb_26bb_5c4d,
    0x7b3a_5f0e_7c96_c22e,
    0x8ac3_3636_c8cb_a21d,
    0x7a79_1580_56fa_b0a6,
    0x3c75_f41a_03fe_f3bd,
    0x03d5_ee3b_06f8_ba23,
    0x8e2f_24e2_2d26_c223,
    0x3d20_7c6b_5b5c_9bce,
    0x000b_4393_58db_ada2,
    0xa10d_0fc5_7cf8_905f,
    0x5c4d_3c56_30ce_c1d8,
    0x6f61_936c_5de3_14ad,
    0x4e91_16b2_0247_4a04,
    0xba09_e894_3581_01dc,
    0xb92c_cd81_f26f_34ad,
    0xa6e2_369e_bf4e_d231,
    0xa456_d68c_9910_5dce,
    0x423a_f85f_d227_a621,
    0x5f4e_02e2_5bd1_b16d,
    0xecf9_374d_f04c_b65c,
    0x53d2_38fb_6212_5c81,
    0x7e9d_8c3d_a0e8_5cc1,
    0xfc31_9571_e8aa_ed3d,
];

#[test]
fn replay_reports_keep_their_bits() {
    let mut net = topologies::mesh_backbone(12, 20, SEED);
    net.set_uniform_capacity(Mbps::new(16.0));
    let paths = PathSet::shortest_paths(&net);
    let catalog = synthesize_library(&LibraryConfig::default_for(150, DAYS, SEED));
    let trace = generate_trace(
        &catalog,
        &net,
        &TraceConfig::default_for(1_400.0, DAYS, SEED),
    );
    let disks = vec![Gigabytes::new(catalog.total_size().value() * 0.12); net.num_nodes()];

    let mut expected = EXPECTED.iter();
    let mut moved = Vec::new();
    let (mut interrupted, mut denied_capacity) = (0, 0);
    for kind in [CacheKind::Lru, CacheKind::Lfu, CacheKind::Lrfu(0.001)] {
        let vhos = random_single_vho_configs(&catalog, &disks, kind, SEED);
        for (name, faults) in schedules() {
            for bucket_secs in [300, 77] {
                let cfg = SimConfig {
                    bucket_secs,
                    measure_from: SimTime::new(DAY),
                    seed: SEED,
                    faults: faults.clone(),
                    ..Default::default()
                };
                let (rep, fin) = simulate_with_final(
                    &net,
                    &paths,
                    &catalog,
                    &trace,
                    &vhos,
                    &PolicyKind::NearestReplica,
                    &cfg,
                );
                interrupted += rep.interrupted_streams;
                denied_capacity += rep.denied_capacity;
                let (got, want) = (fingerprint(&rep, &fin), *expected.next().unwrap());
                if got != want {
                    moved.push(format!(
                        "{kind:?} / {name} / {bucket_secs} s: {got:#018x}, expected {want:#018x}"
                    ));
                }
            }
        }
    }
    // The matrix must reach the paths the fingerprints are there for.
    assert!(interrupted > 0, "no case interrupts a stream");
    assert!(denied_capacity > 0, "no case denies for capacity");

    assert!(expected.next().is_none(), "fewer runs than fingerprints");
    assert!(
        moved.is_empty(),
        "{} of {} replay fingerprints moved:\n{}",
        moved.len(),
        EXPECTED.len(),
        moved.join("\n")
    );
}
