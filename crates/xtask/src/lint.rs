//! Textual lint rules for `cargo xtask lint` — thin façade.
//!
//! The rule engine itself lives in [`vod_analyze::textual`], re-hosted
//! on the shared span-preserving lexer (`vod_analyze::lexer`): rules
//! match against a *code view* with string/char literals and comments
//! blanked out, so a forbidden pattern inside a string literal or a
//! nested block comment can no longer produce a false positive, and
//! per-line comment stripping is gone. The rule table, path scopes,
//! and `lint:allow` grammar are documented there and in DESIGN.md §8.
//!
//! This module only re-exports the API and pins the engine's observable
//! behavior with the test suite below — the same suite that guarded the
//! original line-oriented implementation, plus cases that only a
//! token-level engine can pass.

pub use vod_analyze::textual::lint_file;
#[cfg(test)]
use vod_analyze::textual::Finding;

#[cfg(test)]
mod tests {
    use super::*;

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_hash_map_in_core_lib_code() {
        let f = lint_file(
            "crates/core/src/foo.rs",
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, f64> = HashMap::new(); }\n",
        );
        assert_eq!(
            rules_of(&f),
            ["nondeterministic-map", "nondeterministic-map"]
        );
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn hash_map_fine_outside_scope_and_in_tests() {
        assert!(lint_file("crates/lp/src/foo.rs", "use std::collections::HashMap;\n").is_empty());
        let in_tests =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n";
        assert!(lint_file("crates/core/src/foo.rs", in_tests).is_empty());
    }

    #[test]
    fn code_after_test_mod_is_library_code_again() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nuse std::collections::HashSet;\n";
        let f = lint_file("crates/sim/src/foo.rs", src);
        assert_eq!(rules_of(&f), ["nondeterministic-map"]);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn flags_partial_cmp_everywhere_even_in_tests() {
        let src = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }\n";
        for path in [
            "crates/model/src/x.rs",
            "crates/bench/src/bin/x.rs",
            "tests/x.rs",
        ] {
            assert_eq!(
                rules_of(&lint_file(path, src)),
                ["nan-unwrap-cmp"],
                "{path}"
            );
        }
    }

    #[test]
    fn partial_cmp_in_doc_comment_is_fine() {
        let src = "//! `partial_cmp(...).unwrap()` is forbidden.\n/// partial_cmp\nfn f() {}\n";
        assert!(lint_file("crates/model/src/x.rs", src).is_empty());
    }

    #[test]
    fn flags_wall_clock_outside_bench() {
        let src = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/x.rs", src)),
            ["wall-clock"]
        );
        assert!(lint_file("crates/bench/src/bin/x.rs", src).is_empty());
        let sys = "fn f() { let t = std::time::SystemTime::now(); }\n";
        assert_eq!(
            rules_of(&lint_file("crates/trace/src/x.rs", sys)),
            ["wall-clock"]
        );
    }

    #[test]
    fn flags_raw_vho_ids_outside_model_and_net() {
        let src = "fn f() {\n    let v = VhoId::new(0);\n    let w = VhoId::from_index(3);\n}\n";
        let f = lint_file("crates/sim/src/x.rs", src);
        assert_eq!(rules_of(&f), ["raw-index", "raw-index"]);
        assert_eq!((f[0].line, f[1].line), (2, 3));
        assert!(lint_file("crates/model/src/x.rs", src).is_empty());
        assert!(lint_file("crates/net/src/x.rs", src).is_empty());
        // Test code may construct ids freely.
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
        assert!(lint_file("crates/sim/src/x.rs", &in_tests).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses_next_code_line() {
        let src = "// lint:allow(wall-clock): solver timing is reporting-only\n\
                   // and never feeds back into the optimization.\n\
                   let t = Instant::now();\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_annotation_applies_to_same_line() {
        let src = "let t = Instant::now(); // lint:allow(wall-clock): progress display only\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_is_consumed_by_one_code_line() {
        let src = "// lint:allow(wall-clock): first read only\n\
                   let t = Instant::now();\n\
                   let u = Instant::now();\n";
        let f = lint_file("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), ["wall-clock"]);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_without_justification_is_a_finding() {
        let src = "// lint:allow(wall-clock)\nlet t = Instant::now();\n";
        let f = lint_file("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), ["lint-allow", "wall-clock"]);
    }

    #[test]
    fn allow_of_unknown_rule_is_a_finding() {
        let src = "// lint:allow(no-such-rule): whatever\n";
        let f = lint_file("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), ["lint-allow"]);
        assert!(f[0].message.contains("unknown lint rule"));
    }

    #[test]
    fn flags_nested_f64_matrices_in_hot_paths() {
        let src = "fn f() { let m: Vec<Vec<f64>> = Vec::new(); }\n";
        assert_eq!(
            rules_of(&lint_file("crates/core/src/epf.rs", src)),
            ["vec-vec-f64"]
        );
        // Outside the hot-path module list the rule is silent.
        assert!(lint_file("crates/core/src/direct.rs", src).is_empty());
        assert!(lint_file("crates/lp/src/lib.rs", src).is_empty());
        // Test modules may build nested reference matrices freely.
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
        assert!(lint_file("crates/core/src/penalty.rs", &in_tests).is_empty());
        // A justified allow covers a boundary constructor.
        let allowed = "// lint:allow(vec-vec-f64): boundary constructor flattens rows\n\
                       pub fn from_rows(rows: Vec<Vec<f64>>) {}\n";
        assert!(lint_file("crates/core/src/block.rs", allowed).is_empty());
    }

    #[test]
    fn flags_nested_f64_matrices_in_sim_hot_paths() {
        let src = "fn f() { let m: Vec<Vec<f64>> = Vec::new(); }\n";
        assert_eq!(
            rules_of(&lint_file("crates/sim/src/engine.rs", src)),
            ["vec-vec-f64"]
        );
        // Non-hot-path sim modules are out of scope.
        assert!(lint_file("crates/sim/src/configs.rs", src).is_empty());
    }

    #[test]
    fn flags_boxed_trait_objects_in_sim_hot_paths() {
        let src = "fn f() { let c: Box<dyn Cache + Send> = make(); }\n";
        for path in [
            "crates/sim/src/engine.rs",
            "crates/sim/src/cache.rs",
            "crates/sim/src/batch.rs",
        ] {
            assert_eq!(rules_of(&lint_file(path, src)), ["dyn-dispatch"], "{path}");
        }
        // Out of scope: other crates, non-hot sim modules, test code.
        assert!(lint_file("crates/core/src/epf.rs", src).is_empty());
        assert!(lint_file("crates/sim/src/configs.rs", src).is_empty());
        assert!(lint_file("crates/sim/tests/x.rs", src).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
        assert!(lint_file("crates/sim/src/cache.rs", &in_tests).is_empty());
        // A justified allow still works.
        let allowed = "// lint:allow(dyn-dispatch): plugin boundary, cold path\n\
                       fn g() -> Box<dyn Cache> { make() }\n";
        assert!(lint_file("crates/sim/src/engine.rs", allowed).is_empty());
    }

    #[test]
    fn flags_panics_in_hot_paths() {
        let src = "fn f(v: Option<u32>) -> u32 {\n    let x = v.unwrap();\n    \
                   let y = v.expect(\"set\");\n    panic!(\"boom\");\n}\n";
        for path in [
            "crates/sim/src/engine.rs",
            "crates/sim/src/faults.rs",
            "crates/core/src/epf.rs",
            "crates/core/src/solver.rs",
            "crates/net/src/routing.rs",
            "crates/trace/src/stats.rs",
        ] {
            assert_eq!(
                rules_of(&lint_file(path, src)),
                ["no-panic-hot-path"; 3],
                "{path}"
            );
        }
        // Cold paths, test files, and test modules are out of scope.
        assert!(lint_file("crates/core/src/direct.rs", src).is_empty());
        assert!(lint_file("crates/sim/tests/x.rs", src).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
        assert!(lint_file("crates/sim/src/engine.rs", &in_tests).is_empty());
    }

    #[test]
    fn asserts_and_fallible_cousins_are_not_panics() {
        // Entry-guard asserts and the _or/_err/_else family are fine.
        let src = "fn f(v: Option<u32>) -> u32 {\n    assert!(true);\n    \
                   assert_eq!(1, 1);\n    debug_assert!(true);\n    \
                   v.unwrap_or(0)\n}\n";
        assert!(lint_file("crates/sim/src/engine.rs", src).is_empty());
        let justified =
            "// lint:allow(no-panic-hot-path): index proven in-bounds by construction\n\
             let x = v.unwrap();\n";
        assert!(lint_file("crates/core/src/pool.rs", justified).is_empty());
    }

    #[test]
    fn shims_and_xtask_are_exempt() {
        let src = "fn f() { let t = Instant::now(); let m = HashMap::new(); }\n";
        assert!(lint_file("crates/shims/rand/src/lib.rs", src).is_empty());
        assert!(lint_file("crates/xtask/src/lint.rs", src).is_empty());
    }

    #[test]
    fn block_comments_are_stripped_across_lines() {
        let src = "/*\n let t = Instant::now();\n*/\nfn f() {}\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn flags_direct_writes_in_snapshot_crates() {
        let src = "fn f() {\n    std::fs::write(&path, bytes)?;\n    \
                   let f = std::fs::File::create(&path)?;\n}\n";
        // In the shim-observable crates a raw write is *two* findings:
        // it can be torn by a crash (snapshot-io) and the injectable
        // fault schedule can never reach it (io-fault-shim).
        for path in ["crates/json/src/snapshot.rs", "crates/ops/src/service.rs"] {
            let f = lint_file(path, src);
            assert_eq!(
                rules_of(&f),
                [
                    "snapshot-io",
                    "io-fault-shim",
                    "snapshot-io",
                    "io-fault-shim"
                ],
                "{path}"
            );
        }
        // The bench harness writes results files (atomicity still
        // required) but is outside the fault shim's jurisdiction: the
        // drills corrupt files deliberately, simulating external
        // damage the shim must not see.
        for path in [
            "crates/bench/src/lib.rs",
            "crates/bench/src/bin/service_drill.rs",
        ] {
            let f = lint_file(path, src);
            assert_eq!(rules_of(&f), ["snapshot-io", "snapshot-io"], "{path}");
        }
    }

    #[test]
    fn flags_shim_bypassing_reads_in_snapshot_crates() {
        let src = "fn f() {\n    let b = std::fs::read(&path)?;\n    \
                   let s = std::fs::read_to_string(&path)?;\n    \
                   let f = std::fs::File::open(&path)?;\n}\n";
        for path in ["crates/json/src/snapshot.rs", "crates/ops/src/service.rs"] {
            assert_eq!(
                rules_of(&lint_file(path, src)),
                ["io-fault-shim"; 3],
                "{path}"
            );
        }
        // Reads are torn-safe, so snapshot-io stays silent; outside the
        // shim's scope (bench, other crates, test code) so does
        // io-fault-shim.
        assert!(lint_file("crates/bench/src/bin/service_drill.rs", src).is_empty());
        assert!(lint_file("crates/core/src/epf.rs", src).is_empty());
        assert!(lint_file("crates/ops/tests/cold_restart.rs", src).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
        assert!(lint_file("crates/json/src/snapshot.rs", &in_tests).is_empty());
        // The sanctioned raw-I/O sites carry a justified allow.
        let allowed = "// lint:allow(io-fault-shim): the shim hook above IS this read's\n\
                       // fault schedule; every snapshot reader funnels through here.\n\
                       std::fs::read(path).map_err(io_err)\n";
        assert!(lint_file("crates/json/src/snapshot.rs", allowed).is_empty());
    }

    #[test]
    fn direct_writes_fine_outside_snapshot_scope_and_in_tests() {
        let src = "fn f() { std::fs::write(&path, bytes).ok(); }\n";
        // Crates that never write durable artifacts are out of scope.
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
        assert!(lint_file("crates/trace/src/x.rs", src).is_empty());
        // Tests corrupt files on purpose.
        assert!(lint_file("crates/ops/tests/service_loop.rs", src).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
        assert!(lint_file("crates/json/src/snapshot.rs", &in_tests).is_empty());
    }

    #[test]
    fn annotated_atomic_helper_is_allowed() {
        // The one sanctioned raw-write site carries both allows: it IS
        // the atomic helper and its preceding shim hook IS the fault
        // schedule.
        let src = "// lint:allow(snapshot-io): this IS the atomic write helper\n\
                   // lint:allow(io-fault-shim): the shim hook above is its schedule\n\
                   std::fs::write(&tmp, bytes)?;\n";
        assert!(lint_file("crates/json/src/snapshot.rs", src).is_empty());
        // One allow alone leaves the other rule firing.
        let half = "// lint:allow(snapshot-io): atomic helper\n\
                    std::fs::write(&tmp, bytes)?;\n";
        assert_eq!(
            rules_of(&lint_file("crates/json/src/snapshot.rs", half)),
            ["io-fault-shim"]
        );
    }

    #[test]
    fn flags_sleeps_outside_the_backoff_module() {
        let src = "fn f() { std::thread::sleep(std::time::Duration::from_millis(5)); }\n";
        for path in [
            "crates/ops/src/service.rs",
            "crates/core/src/epf.rs",
            "crates/sim/src/engine.rs",
        ] {
            assert_eq!(rules_of(&lint_file(path, src)), ["sleep-timer"], "{path}");
        }
        // The sanctioned sites: the recorded-backoff module owns the
        // only real sleep; the bench harness paces real work by design.
        assert!(lint_file("crates/ops/src/supervise.rs", src).is_empty());
        assert!(lint_file("crates/bench/src/bin/x.rs", src).is_empty());
        // Tests and test modules may sleep freely.
        assert!(lint_file("crates/sim/tests/x.rs", src).is_empty());
        let in_tests = format!("#[cfg(test)]\nmod tests {{\n    {src}\n}}\n");
        assert!(lint_file("crates/ops/src/service.rs", &in_tests).is_empty());
        // park_timeout is a disguised sleep; a justified allow works.
        let park = "fn f() { std::thread::park_timeout(d); }\n";
        assert_eq!(
            rules_of(&lint_file("crates/ops/src/diff.rs", park)),
            ["sleep-timer"]
        );
        let allowed = "// lint:allow(sleep-timer): shutdown drain, not a backoff\n\
                       std::thread::sleep(d);\n";
        assert!(lint_file("crates/ops/src/service.rs", allowed).is_empty());
    }

    #[test]
    fn pattern_inside_string_literal_is_not_a_finding() {
        let src = "fn f() { let s = \"use std::collections::HashMap;\"; }\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
        let raw = "fn f() { let s = r#\"let t = Instant::now();\"#; }\n";
        assert!(lint_file("crates/core/src/x.rs", raw).is_empty());
    }

    #[test]
    fn pattern_inside_nested_block_comment_is_not_a_finding() {
        let src = "/* outer /* let t = Instant::now(); */ still comment */\nfn f() {}\n";
        assert!(lint_file("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn decoy_in_string_does_not_mask_real_finding_on_same_line() {
        let src = "fn f() { log(\"Instant::now\"); let t = Instant::now(); }\n";
        let f = lint_file("crates/core/src/x.rs", src);
        assert_eq!(rules_of(&f), ["wall-clock"]);
    }
}
