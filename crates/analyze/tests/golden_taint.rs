//! Golden-file tests: the interprocedural passes against the seeded
//! fixture crates under `tests/fixtures/`. Each fixture plants an
//! exact set of violations (and a few decoys that must stay silent);
//! these tests pin the complete finding set, not just its presence.

use vod_analyze::{analyze_sources, Finding, SourceFile};

/// Load a fixture file and present it to the analyzer under a synthetic
/// workspace path (which controls path-scoped rules like
/// `alloc-in-hot-loop`).
fn fixture(name: &str, mapped_path: &str) -> SourceFile {
    let disk = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let content = match std::fs::read_to_string(&disk) {
        Ok(c) => c,
        Err(e) => panic!("cannot read fixture {disk}: {e}"),
    };
    SourceFile {
        path: mapped_path.to_string(),
        content,
    }
}

fn triples(findings: &[Finding]) -> Vec<(String, String, usize)> {
    findings
        .iter()
        .map(|f| (f.kind.clone(), f.function.clone(), f.line))
        .collect()
}

#[test]
fn taint_fixture_reports_every_source_kind_exactly() {
    let files = [fixture("taint_sources.rs", "crates/fix/src/lib.rs")];
    let r = analyze_sources(&files, &["place_all"]);
    assert!(
        r.findings.iter().all(|f| f.rule == "determinism-taint"),
        "{:?}",
        r.findings
    );
    let got = triples(&r.findings);
    let s = String::from;
    let want = [
        ("hash-order".to_string(), s("pick_order"), 17),
        ("hash-order".to_string(), s("pick_order"), 17),
        ("hash-order".to_string(), s("pick_order"), 21),
        ("wall-clock".to_string(), s("jitter"), 27),
        ("unseeded-rng".to_string(), s("jitter"), 29),
        ("thread-id".to_string(), s("jitter"), 31),
        ("env-read".to_string(), s("load_popularity"), 37),
        ("env-read".to_string(), s("load_popularity"), 41),
        ("env-read".to_string(), s("load_popularity"), 42),
        ("fs-read".to_string(), s("load_popularity"), 39),
    ];
    let mut got_sorted = got.clone();
    got_sorted.sort();
    let mut want_sorted = want.to_vec();
    want_sorted.sort();
    assert_eq!(got_sorted, want_sorted);
    // Every finding carries a chain rooted at the sink.
    assert!(
        r.findings
            .iter()
            .all(|f| f.chain.first().map(String::as_str) == Some("place_all")),
        "{:?}",
        r.findings
    );
}

#[test]
fn panic_fixture_reports_only_the_reachable_unwrap() {
    let files = [fixture("panic_chain.rs", "crates/fix/src/lib.rs")];
    let r = analyze_sources(&files, &["simulate"]);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "panic-reachable");
    assert_eq!(f.kind, "unwrap");
    assert_eq!(f.function, "route");
    assert_eq!(f.chain, ["simulate", "admit", "route"]);
    // `offline_tool` (unreachable unwrap) and `skip_marker` (byte-
    // literal expect method) are both decoys the single assertion
    // above already excludes.
}

#[test]
fn alloc_fixture_reports_loop_allocations_only_in_hot_scope() {
    let hot = [fixture("alloc_hot_loop.rs", "crates/core/src/rounding.rs")];
    let r = analyze_sources(&hot, &["round_solution"]);
    assert!(
        r.findings.iter().all(|f| f.rule == "alloc-in-hot-loop"),
        "{:?}",
        r.findings
    );
    let mut got = triples(&r.findings);
    got.sort();
    let s = String::from;
    let mut want = vec![
        (s("vec-new"), s("round_solution"), 8),
        (s("push"), s("round_solution"), 9),
        (s("push"), s("round_solution"), 10),
        (s("clone"), s("round_solution"), 14),
    ];
    want.sort();
    assert_eq!(got, want);

    // The identical file outside the hot scope is silent.
    let cold = [fixture("alloc_hot_loop.rs", "crates/ops/src/lib.rs")];
    let r = analyze_sources(&cold, &["round_solution"]);
    assert!(r.findings.is_empty(), "{:?}", r.findings);
}

/// Regression cover for the pre-PR-1 bug class: objective accumulation
/// over `HashMap` iteration order. The workspace is clean today; this
/// pins that the analyzer would catch the bug coming back.
#[test]
fn hashmap_iteration_bug_class_is_caught() {
    let files = [fixture("hashmap_iteration.rs", "crates/fix/src/lib.rs")];
    let r = analyze_sources(&files, &["solve_placement"]);
    let keys: std::collections::BTreeSet<String> = r.findings.iter().map(Finding::key).collect();
    assert_eq!(
        keys.into_iter().collect::<Vec<_>>(),
        ["determinism-taint|crates/fix/src/lib.rs|solve_placement|hash-order"]
    );
    // Both textual occurrences on the declaration line are reported.
    assert_eq!(r.findings.len(), 2, "{:?}", r.findings);
    assert!(r.findings.iter().all(|f| f.line == 11), "{:?}", r.findings);
}
