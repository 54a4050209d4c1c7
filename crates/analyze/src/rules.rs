//! The shared rule registry and path-scope tables.
//!
//! Both layers of the static-analysis stack consult this module: the
//! textual per-line rules hosted in `cargo xtask lint` (which re-uses
//! the scope predicates) and the interprocedural passes in this crate.
//! Keeping the registry in one place means `lint:allow(<rule>)`
//! annotations for *either* layer parse everywhere, and an annotation
//! naming an unknown rule is a finding instead of a silent no-op.

/// The ten textual rules enforced by `cargo xtask lint`.
pub const TEXTUAL_RULES: [&str; 10] = [
    "nondeterministic-map",
    "nan-unwrap-cmp",
    "wall-clock",
    "raw-index",
    "vec-vec-f64",
    "dyn-dispatch",
    "no-panic-hot-path",
    "snapshot-io",
    "io-fault-shim",
    "sleep-timer",
];

/// The interprocedural rules enforced by `cargo xtask analyze`.
pub const ANALYZER_RULES: [&str; 4] = [
    "determinism-taint",
    "panic-reachable",
    "alloc-in-hot-loop",
    "stale-allow",
];

/// Every rule name a `lint:allow(...)` annotation may legally name.
pub fn is_known_rule(name: &str) -> bool {
    TEXTUAL_RULES.contains(&name) || ANALYZER_RULES.contains(&name)
}

pub fn known_rules_joined() -> String {
    let mut all: Vec<&str> = TEXTUAL_RULES.to_vec();
    all.extend_from_slice(&ANALYZER_RULES);
    all.join(", ")
}

// ---------------------------------------------------------------------
// Path scopes (workspace-relative, `/`-separated paths).
// ---------------------------------------------------------------------

/// Paths no analysis layer ever scans: vendored third-party shims, the
/// tooling crates themselves (whose rule tables and test fixtures
/// deliberately spell forbidden patterns), and build output.
pub fn exempt_path(path: &str) -> bool {
    path.starts_with("crates/shims/")
        || path.starts_with("crates/xtask/")
        || path.starts_with("crates/analyze/")
        || path.starts_with("target/")
}

/// Crates whose *library* code must use deterministic containers.
pub fn deterministic_container_scope(path: &str) -> bool {
    path.starts_with("crates/core/src/")
        || path.starts_with("crates/sim/src/")
        || path.starts_with("crates/trace/src/")
}

/// Crates allowed to read wall-clock time freely (experiment timing).
pub fn wall_clock_exempt(path: &str) -> bool {
    path.starts_with("crates/bench/")
}

/// Crates allowed to construct `VhoId`s from raw integers: the id
/// newtypes live in `vod-model`, and `vod-net` builds topologies.
pub fn raw_index_exempt(path: &str) -> bool {
    path.starts_with("crates/model/") || path.starts_with("crates/net/")
}

/// Crates that write durable artifacts (state snapshots, solver
/// checkpoints, `results/*.json`): every write must go through
/// `vod_json::snapshot::write_atomic` (or the snapshot helpers built
/// on it) so an interrupted process leaves either the old complete
/// file or the new one, never a torn half-write.
pub fn snapshot_io_scope(path: &str) -> bool {
    path.starts_with("crates/json/src/")
        || path.starts_with("crates/ops/src/")
        || path.starts_with("crates/bench/src/")
}

/// Crates whose snapshot I/O must stay *faultable* (`vod_json::faults`):
/// every durable read and write routes through the `vod_json::snapshot`
/// helpers or a `FaultHandle`'s methods, which share the single raw-I/O
/// sites that take each operation's injected fault — so injected
/// ENOSPC, torn writes and read-EIO faults exercise exactly the code
/// paths real disk trouble would. Unlike [`snapshot_io_scope`] this
/// excludes `crates/bench`: the drill harnesses tear and corrupt files
/// *deliberately*, simulating external damage no fault schedule sees.
pub fn io_fault_shim_scope(path: &str) -> bool {
    path.starts_with("crates/json/src/") || path.starts_with("crates/ops/src/")
}

/// The only sanctioned sleep sites. The supervisors' determinism
/// contract is that backoff is *recorded*, never slept
/// (`vod_ops::recorded_backoff`); the single real `thread::sleep` in
/// the workspace is `deployment_sleep` in the recorded-backoff module.
/// The bench harness is also exempt: it times and paces real work by
/// design (same rationale as [`wall_clock_exempt`]).
pub fn sleep_timer_exempt(path: &str) -> bool {
    path == "crates/ops/src/supervise.rs" || path.starts_with("crates/bench/")
}

/// Whether a path is test-only code (integration tests, benches).
pub fn test_only_file(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/") || path.contains("/benches/")
}

/// Solver hot-path modules where nested `Vec<Vec<f64>>` matrices are
/// forbidden (flat row-major buffers only — see
/// `crates/core/src/penalty.rs` and DESIGN.md "Solver performance
/// architecture"). `direct.rs` is excluded: the simplex baseline is
/// deliberately not a hot path.
pub fn flat_buffer_scope(path: &str) -> bool {
    const HOT: [&str; 9] = [
        "block.rs",
        "epf.rs",
        "kernel.rs",
        "penalty.rs",
        "pool.rs",
        "potential.rs",
        "rounding.rs",
        "shard.rs",
        "solution.rs",
    ];
    path.strip_prefix("crates/core/src/")
        .is_some_and(|f| HOT.contains(&f))
        || sim_hot_path_scope(path)
}

/// Simulator hot-path modules where heap-boxed trait objects (and
/// nested matrices) are forbidden: the per-event loop must stay
/// monomorphized and allocation-free (see the `CacheImpl` enum in
/// `crates/sim/src/cache.rs` and DESIGN.md "Simulator performance
/// architecture").
pub fn sim_hot_path_scope(path: &str) -> bool {
    const HOT: [&str; 4] = ["batch.rs", "cache.rs", "engine.rs", "faults.rs"];
    path.strip_prefix("crates/sim/src/")
        .is_some_and(|f| HOT.contains(&f))
}

/// Modules reachable from `vod_sim::simulate` or
/// `vod_core::solve_placement` at run time, per the hand-maintained
/// textual list. The interprocedural `panic-reachable` pass supersedes
/// this with real call-graph reachability; the textual rule keeps the
/// list so `cargo xtask lint` stays dependency-light and instant.
pub fn no_panic_scope(path: &str) -> bool {
    flat_buffer_scope(path)
        || path == "crates/core/src/solver.rs"
        || path == "crates/net/src/routing.rs"
        || path.starts_with("crates/trace/src/")
}

/// The allocation-free invariant scope for `alloc-in-hot-loop`: the
/// PR 2/3 steady-state modules. Reachability alone is too broad here —
/// construction and setup code reachable from the roots may allocate
/// freely; the invariant is specifically about the solver/simulator
/// inner loops.
pub fn alloc_free_scope(path: &str) -> bool {
    flat_buffer_scope(path)
}
