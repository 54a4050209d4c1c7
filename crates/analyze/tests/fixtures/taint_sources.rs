//! Fixture: one seeded determinism-taint violation per source kind,
//! every one reachable from the sink root `place_all` through at least
//! one call. Never compiled — parsed by `tests/golden_taint.rs`.

use std::collections::HashMap;
use std::collections::HashSet;
use std::time::Instant;

pub fn place_all(videos: usize) -> Vec<usize> {
    let mut out = pick_order(videos);
    jitter(&mut out);
    out
}

fn pick_order(videos: usize) -> Vec<usize> {
    // hash-order: iteration order of the map decides placement order.
    let mut popularity: HashMap<usize, u64> = HashMap::new();
    for v in 0..videos {
        popularity.insert(v, load_popularity(v));
    }
    let seen: HashSet<usize> = popularity.keys().copied().collect();
    seen.into_iter().collect()
}

fn jitter(order: &mut [usize]) {
    // wall-clock: a timing readout steers the result.
    let t = Instant::now();
    // unseeded-rng: ambient entropy instead of the run's seed.
    let mut rng = rand::thread_rng();
    // thread-id: scheduling decides the outcome.
    let tid = std::thread::current().id();
    mix(order, t, rng.next_u64(), tid);
}

fn load_popularity(v: usize) -> u64 {
    // env-read: ambient configuration changes the answer.
    let scale = std::env::var("POPULARITY_SCALE").ok();
    // fs-read: undeclared input file.
    let table = std::fs::read_to_string("popularity.txt").ok();
    // env-read, the `OsString` spellings: the same ambient state.
    let debug = std::env::var_os("POPULARITY_DEBUG").is_some();
    let n_vars = std::env::vars_os().count();
    fold(v, scale, table, debug, n_vars)
}
