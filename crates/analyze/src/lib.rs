//! `vod-analyze` — token-level interprocedural static analysis for the
//! VoD placement workspace.
//!
//! The paper's evaluation rests on runs being *reproducible*: identical
//! inputs and seeds must yield byte-identical placements, simulation
//! reports, and snapshots. Clippy enforces the first line of defense
//! with type-resolved bans in per-package `clippy.toml` files (see
//! [`rules`]); this crate is the one custom layer on top — a real
//! lexer, a function inventory with an approximate call graph,
//! interprocedural passes that track nondeterminism sources, panics,
//! and hot-loop allocations all the way to the sinks the evaluation
//! depends on, and the `nan-unwrap-cmp` token rule clippy cannot hold.
//!
//! Pipeline (see DESIGN.md §8):
//!
//! ```text
//! source text ──lex──▶ tokens ──extract_fns──▶ fn inventory ──▶ call graph
//!                        │                                          │
//!                        └──scan_allows──▶ lint:allow +         reachability
//!                                          #[expect] escapes        │
//!                                                │                  │
//!                                                ▼                  ▼
//!                         passes: determinism-taint · panic-reachable ·
//!                                 alloc-in-hot-loop · nan-unwrap-cmp ·
//!                                 stale-allow
//!                                                │
//!                                                ▼
//!                          findings ──diff──▶ results/ANALYZE_baseline.json
//! ```
//!
//! Zero dependencies by design: the analyzer is part of the build's
//! trusted base and must itself be trivially auditable and fast.

pub mod allows;
pub mod graph;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod report;
pub mod rules;

use std::collections::BTreeMap;

pub use report::Finding;

/// The deterministic-output sinks: every function transitively called
/// from one of these must be free of nondeterminism sources and
/// panics. The solve entry point and its two wrappers the harness
/// calls, simulator entry points, LP rounding, and the snapshot
/// writers. A root is a simple name: `solve` also roots
/// `WorkerPool::solve`, which the free `solve` reaches anyway.
pub const DEFAULT_ROOTS: [&str; 11] = [
    "solve",
    "solve_placement",
    "solve_fractional",
    "simulate",
    "simulate_with_final",
    "simulate_batch",
    "round_solution",
    "write_atomic",
    "write_snapshot_atomic",
    "write_wire_snapshot",
    "write_json_snapshot",
];

/// One input file: workspace-relative `/`-separated path + contents.
#[derive(Debug, Clone)]
pub struct SourceFile {
    pub path: String,
    pub content: String,
}

/// Analysis summary alongside the findings, for reporting.
#[derive(Debug)]
pub struct AnalyzeResult {
    pub findings: Vec<Finding>,
    /// Total non-test functions in the inventory.
    pub fn_count: usize,
    /// Functions reachable from the sink roots.
    pub reachable_count: usize,
    /// Files scanned (non-exempt `.rs`).
    pub file_count: usize,
}

/// Run the full analysis over a set of source files.
///
/// `roots` are sink-root function names ([`DEFAULT_ROOTS`] for the real
/// workspace; tests pass their own). Findings come back sorted by
/// (file, line, rule, kind) — deterministically, like everything else
/// here.
pub fn analyze_sources(sources: &[SourceFile], roots: &[&str]) -> AnalyzeResult {
    let mut files: BTreeMap<String, items::ParsedFile> = BTreeMap::new();
    let mut allow_map: BTreeMap<String, allows::Allows> = BTreeMap::new();
    for s in sources {
        if !s.path.ends_with(".rs") || rules::exempt_path(&s.path) {
            continue;
        }
        let pf = items::ParsedFile::new(s.path.clone(), s.content.clone());
        allow_map.insert(s.path.clone(), allows::scan_allows(&pf));
        files.insert(s.path.clone(), pf);
    }

    // Function inventory + call graph over the whole workspace.
    let mut fns: Vec<items::FnItem> = Vec::new();
    for pf in files.values() {
        fns.extend(items::extract_fns(pf));
    }
    let cg = graph::CallGraph::build(&fns);
    let reach = cg.reachable_from(roots);

    // Interprocedural passes.
    let pass_out = passes::run_passes(&files, &allow_map, &fns, &reach);
    let mut findings = pass_out.findings;

    // Stale-allow audit: annotations no pass consumed, plus malformed
    // annotations. Test code is exempt end to end.
    for (path, al) in &allow_map {
        if rules::test_only_file(path) {
            continue;
        }
        for err in &al.errors {
            findings.push(Finding {
                rule: "stale-allow",
                kind: "malformed".to_string(),
                file: path.clone(),
                line: err.line,
                function: enclosing_fn(&fns, path, err.line)
                    .map(items::FnItem::qual)
                    .unwrap_or_else(|| "-".to_string()),
                chain: Vec::new(),
                message: format!("malformed lint:allow annotation: {}", err.message),
            });
        }
        for site in &al.sites {
            if pass_out
                .consumed_allows
                .contains(&(path.clone(), site.line))
            {
                continue;
            }
            if let Some(f) = enclosing_fn(&fns, path, site.target_line) {
                if f.is_test {
                    continue;
                }
            }
            findings.push(Finding {
                rule: "stale-allow",
                kind: format!("unused-{}", site.rule),
                file: path.clone(),
                line: site.line,
                function: enclosing_fn(&fns, path, site.target_line)
                    .map(items::FnItem::qual)
                    .unwrap_or_else(|| "-".to_string()),
                chain: Vec::new(),
                message: format!(
                    "lint:allow({}) suppresses nothing: no rule fires on its target line \
                     any more — delete the annotation (justification was: {:?})",
                    site.rule, site.justification
                ),
            });
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.kind).cmp(&(&b.file, b.line, b.rule, &b.kind))
    });

    AnalyzeResult {
        findings,
        fn_count: fns.iter().filter(|f| !f.is_test).count(),
        reachable_count: reach.len(),
        file_count: files.len(),
    }
}

/// Innermost function in `path` whose extent covers 1-based `line`.
pub(crate) fn enclosing_fn<'f>(
    fns: &'f [items::FnItem],
    path: &str,
    line: usize,
) -> Option<&'f items::FnItem> {
    fns.iter()
        .filter(|f| f.file == path && f.line <= line && !f.body.is_empty())
        .max_by_key(|f| f.line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(path: &str, content: &str) -> SourceFile {
        SourceFile {
            path: path.to_string(),
            content: content.to_string(),
        }
    }

    #[test]
    fn taint_flows_through_the_call_graph() {
        let files = [src(
            "crates/x/src/lib.rs",
            "pub fn entry() { helper(); }
             fn helper() { deep(); }
             fn deep() { let t = std::time::Instant::now(); use_it(t); }
             fn unreached() { let t = std::time::Instant::now(); use_it(t); }",
        )];
        let r = analyze_sources(&files, &["entry"]);
        let taints: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.rule == "determinism-taint")
            .collect();
        assert_eq!(taints.len(), 1, "{:?}", r.findings);
        assert_eq!(taints[0].function, "deep");
        assert_eq!(taints[0].chain, ["entry", "helper", "deep"]);
        assert_eq!(taints[0].kind, "wall-clock");
    }

    #[test]
    fn allow_annotation_blesses_taint() {
        let files = [src(
            "crates/x/src/lib.rs",
            "pub fn entry() {
                 // lint:allow(determinism-taint): time is display-only here
                 let t = std::time::Instant::now();
                 show(t);
             }",
        )];
        let r = analyze_sources(&files, &["entry"]);
        assert!(
            r.findings.iter().all(|f| f.rule != "determinism-taint"),
            "{:?}",
            r.findings
        );
        // ... and the annotation counts as consumed, not stale.
        assert!(
            r.findings.iter().all(|f| f.rule != "stale-allow"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn unconsumed_allow_is_stale() {
        let files = [src(
            "crates/x/src/lib.rs",
            "pub fn entry() {
                 // lint:allow(determinism-taint): leftover from a deleted timer
                 let x = 1;
                 sink(x);
             }",
        )];
        let r = analyze_sources(&files, &["entry"]);
        let stale: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.rule == "stale-allow")
            .collect();
        assert_eq!(stale.len(), 1, "{:?}", r.findings);
        assert_eq!(stale[0].kind, "unused-determinism-taint");
        assert_eq!(stale[0].function, "entry");
    }

    #[test]
    fn panic_reachability_is_interprocedural() {
        let files = [
            src(
                "crates/x/src/lib.rs",
                "pub fn entry() { crate::util::narrow(7); }",
            ),
            src(
                "crates/x/src/util.rs",
                "pub fn narrow(v: u64) -> u32 { u32::try_from(v).unwrap() }",
            ),
        ];
        let r = analyze_sources(&files, &["entry"]);
        let panics: Vec<&Finding> = r
            .findings
            .iter()
            .filter(|f| f.rule == "panic-reachable")
            .collect();
        assert_eq!(panics.len(), 1, "{:?}", r.findings);
        assert_eq!(panics[0].file, "crates/x/src/util.rs");
        assert_eq!(panics[0].kind, "unwrap");
    }

    #[test]
    fn alloc_pass_only_fires_in_hot_scope_loops() {
        let body = "pub fn entry(xs: &[u32]) {
                        let mut out = Vec::new();
                        for x in xs { out.push(*x); }
                    }";
        let hot = analyze_sources(&[src("crates/core/src/pool.rs", body)], &["entry"]);
        let cold = analyze_sources(&[src("crates/ops/src/lib.rs", body)], &["entry"]);
        assert!(
            hot.findings
                .iter()
                .any(|f| f.rule == "alloc-in-hot-loop" && f.kind == "push"),
            "{:?}",
            hot.findings
        );
        // The Vec::new outside the loop must NOT be flagged.
        assert!(
            hot.findings.iter().all(|f| f.kind != "vec-new"),
            "{:?}",
            hot.findings
        );
        assert!(
            cold.findings.iter().all(|f| f.rule != "alloc-in-hot-loop"),
            "{:?}",
            cold.findings
        );
    }

    #[test]
    fn test_functions_are_invisible_to_the_passes() {
        let files = [src(
            "crates/x/src/lib.rs",
            "pub fn entry() { helper(); }
             fn helper() {}
             #[cfg(test)]
             mod tests {
                 #[test]
                 fn case() { let t = std::time::Instant::now(); drop(t); }
             }",
        )];
        let r = analyze_sources(&files, &["entry"]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn exempt_paths_are_skipped_entirely() {
        let files = [src(
            "crates/shims/rand/src/lib.rs",
            "pub fn entry() { let t = std::time::Instant::now(); drop(t); }",
        )];
        let r = analyze_sources(&files, &["entry"]);
        assert_eq!(r.file_count, 0);
        assert!(r.findings.is_empty());
    }

    #[test]
    fn blessed_function_table_silences_matching_kind_only() {
        let files = [src(
            "crates/x/src/lib.rs",
            "pub fn read_all() {
                 let bytes = std::fs::read(path);
                 let map = std::collections::HashMap::new();
                 consume(bytes, map);
             }",
        )];
        let r = analyze_sources(&files, &["read_all"]);
        // fs-read is blessed for this function; hash-order is not.
        let kinds: Vec<&str> = r.findings.iter().map(|f| f.kind.as_str()).collect();
        assert_eq!(kinds, ["hash-order"], "{:?}", r.findings);
    }

    #[test]
    fn a_clippy_expect_blesses_the_matching_analyzer_rule() {
        let body = |attr: &str| {
            format!(
                "pub fn entry(v: Option<u32>) -> u32 {{
                     {attr}
                     let x = v.expect(\"set\");
                     {attr}
                     let t = std::time::Instant::now();
                     keep(t);
                     x
                 }}"
            )
        };
        let kinds = |attr: &str| -> Vec<(&'static str, String)> {
            let r = analyze_sources(&[src("crates/x/src/lib.rs", &body(attr))], &["entry"]);
            r.findings.into_iter().map(|f| (f.rule, f.kind)).collect()
        };
        assert_eq!(
            kinds(""),
            [
                ("panic-reachable", "expect".to_string()),
                ("determinism-taint", "wall-clock".to_string())
            ]
        );
        let both = "#[expect(clippy::expect_used, clippy::disallowed_types, reason = \"r\")]";
        assert!(kinds(both).is_empty());
        // A lint that maps to no analyzer rule blesses nothing.
        let other = "#[expect(clippy::float_cmp, reason = \"r\")]";
        assert_eq!(kinds(other).len(), 2);
    }

    #[test]
    fn nan_unwrap_cmp_fires_in_tests_but_not_in_strings_or_comments() {
        let sort = "fn t(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        for path in ["tests/x.rs", "crates/model/src/x.rs", "examples/x.rs"] {
            let r = analyze_sources(&[src(path, sort)], &[]);
            assert_eq!(r.findings.len(), 1, "{path}: {:?}", r.findings);
            assert_eq!(
                (r.findings[0].rule, r.findings[0].line),
                ("nan-unwrap-cmp", 1)
            );
            assert_eq!(r.findings[0].function, "t");
        }
        for decoy in [
            "fn f() -> &'static str { \"a.partial_cmp(b).unwrap()\" }\n",
            "fn f() -> &'static str { r#\"partial_cmp \"quoted\" \"# }\n",
            "/* outer /* partial_cmp */ still comment: partial_cmp */\nfn f() {}\n",
            "//! `partial_cmp(...).unwrap()` is forbidden.\n/// partial_cmp\nfn f() {}\n",
        ] {
            let r = analyze_sources(&[src("tests/x.rs", decoy)], &[]);
            assert!(r.findings.is_empty(), "{decoy}: {:?}", r.findings);
        }
        let allowed = "// lint:allow(nan-unwrap-cmp): inputs are NaN-free by construction\n\
                       fn t(a: f64, b: f64) -> bool { a.partial_cmp(&b).is_some() }\n";
        assert!(analyze_sources(&[src("crates/x/src/lib.rs", allowed)], &[])
            .findings
            .is_empty());
    }
}
