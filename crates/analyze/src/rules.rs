//! The analyzer's rule registry and path scopes.
//!
//! The workspace's per-line determinism and hot-path bans are clippy
//! configuration, not code here: `disallowed-types` and
//! `disallowed-methods` lists in one `clippy.toml` per package scope,
//! and a `#![deny(clippy::expect_used, …)]` header on each hot-path
//! module (DESIGN.md §5). `cargo xtask lint` checks that those scopes
//! still fire. This crate keeps what clippy cannot hold: the
//! interprocedural passes, and the `nan-unwrap-cmp` token rule, which a
//! `partial_cmp` method ban cannot express because every
//! `#[derive(PartialOrd)]` would trip it.
//!
//! A `// lint:allow(<rule>): <why>` comment names one of
//! [`ANALYZER_RULES`]; an annotation naming anything else is a finding
//! instead of a silent no-op. A clippy `#[expect]` or `#[allow]` whose
//! lint appears in [`CLIPPY_ESCAPES`] is the escape for the analyzer
//! rule it maps to, so one attribute serves both layers.

/// The rules enforced by `cargo xtask analyze`.
pub const ANALYZER_RULES: [&str; 5] = [
    "determinism-taint",
    "panic-reachable",
    "alloc-in-hot-loop",
    "nan-unwrap-cmp",
    "stale-allow",
];

/// Clippy lints whose `#[expect]`/`#[allow]` also escapes an analyzer
/// rule: (clippy lint, analyzer rule).
pub const CLIPPY_ESCAPES: [(&str, &str); 7] = [
    ("expect_used", "panic-reachable"),
    ("unwrap_used", "panic-reachable"),
    ("panic", "panic-reachable"),
    ("unreachable", "panic-reachable"),
    ("todo", "panic-reachable"),
    ("unimplemented", "panic-reachable"),
    ("disallowed_types", "determinism-taint"),
];

/// Every rule name a `lint:allow(...)` annotation may legally name.
pub fn is_known_rule(name: &str) -> bool {
    ANALYZER_RULES.contains(&name)
}

/// Paths the analyzer never scans: vendored third-party shims, the
/// tooling crates themselves (whose rule tables and test fixtures
/// deliberately spell forbidden patterns), and build output.
pub fn exempt_path(path: &str) -> bool {
    path.starts_with("crates/shims/")
        || path.starts_with("crates/xtask/")
        || path.starts_with("crates/analyze/")
        || path.starts_with("target/")
}

/// Whether a path is test-only code (integration tests, benches).
pub fn test_only_file(path: &str) -> bool {
    path.contains("/tests/") || path.starts_with("tests/") || path.contains("/benches/")
}

/// The allocation-free invariant scope for `alloc-in-hot-loop`: the
/// solver and simulator steady-state modules. Reachability alone is
/// too broad here — construction and setup code reachable from the
/// roots may allocate freely; the invariant is specifically about the
/// inner loops. `direct.rs` is excluded: the simplex baseline is
/// deliberately not a hot path.
pub fn alloc_free_scope(path: &str) -> bool {
    const HOT: [(&str, &str); 2] = [
        (
            "crates/core/src/",
            "block epf kernel penalty pool potential rounding shard solution",
        ),
        ("crates/sim/src/", "batch cache engine faults"),
    ];
    HOT.iter().any(|(dir, names)| {
        path.strip_prefix(dir)
            .and_then(|f| f.strip_suffix(".rs"))
            .is_some_and(|f| names.split(' ').any(|n| n == f))
    })
}
