//! The generated trace, pinned bit for bit: one FNV-1a over every
//! request's (time, video, VHO) of the two benchmark worlds that build
//! a trace, `replay-week`'s and `service-week`'s.
//!
//! The constants were captured while `generate_trace` still drew every
//! request into one vector and stably sorted the whole of it on time.
//! The generator now assembles the trace day by day; these pins are the
//! statement that doing so moved no request. Re-capture them only for a
//! change that is *meant* to move the trace (a new RNG stream, say),
//! and say so.

use vod_net::{topologies, Network};
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

/// FNV-1a over each request's time, video index and VHO index, as
/// little-endian `u64`s, in trace order.
fn fingerprint(net: &Network, videos: usize, per_day: f64, days: u64, seed: u64) -> (usize, u64) {
    let catalog = synthesize_library(&LibraryConfig::default_for(videos, days, seed));
    let trace = generate_trace(
        &catalog,
        net,
        &TraceConfig::default_for(per_day, days, seed),
    );
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in trace.requests() {
        for word in [r.time.secs(), r.video.index() as u64, r.vho.index() as u64] {
            for b in word.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    (trace.len(), h)
}

#[test]
fn replay_week_traces_keep_their_bits() {
    let net = topologies::backbone55();
    let got = [3, 11].map(|seed| fingerprint(&net, 500, 100_000.0, 14, seed));
    assert_eq!(
        got,
        [
            (1_401_469, 0x6c52_b0da_a2c6_5e32),
            (1_401_722, 0x8595_7d6e_adbb_7cad),
        ]
    );
}

#[test]
fn the_service_week_trace_keeps_its_bits() {
    let got = fingerprint(&topologies::ebone(), 600, 30_000.0, 49, 3);
    assert_eq!(got, (1_470_864, 0x12d5_d183_bcc5_9bed));
}
