//! The ten textual per-line rules, re-hosted on the token stream.
//!
//! This is the engine behind `cargo xtask lint`. The rules themselves
//! are unchanged from the line-oriented implementation they replace
//! (same scopes, same messages, same `lint:allow` escape hatch — the
//! xtask unit tests pin that behavior), but the *input* is no longer
//! the raw line: patterns are matched against the lexer's
//! [`code_view`](crate::lexer::code_view), where comments and
//! string/char literals have been blanked byte-for-byte. A
//! `panic!(...)` spelled inside a doc comment, a `HashMap` mentioned in
//! an error-message string, or a rule pattern quoted inside a nested
//! block comment simply does not exist for the rules anymore — the
//! false-positive/negative class the old comment stripper admitted is
//! gone, and both analysis layers share one lexer.
//!
//! | rule | forbids | where |
//! |------|---------|-------|
//! | `nondeterministic-map` | `std::collections::HashMap`/`HashSet` | `vod-core`, `vod-sim`, `vod-trace` library code |
//! | `nan-unwrap-cmp` | `partial_cmp` (incl. `.unwrap()` comparators) | whole workspace |
//! | `wall-clock` | `Instant::now` / `SystemTime` | outside `crates/bench` |
//! | `raw-index` | `VhoId::new` / `VhoId::from_index` | outside `crates/model`, `crates/net` library code |
//! | `vec-vec-f64` | `Vec<Vec<f64>>` | `vod-core` solver + `vod-sim` simulator hot-path modules |
//! | `dyn-dispatch` | `Box<dyn` | `vod-sim` simulator hot-path modules |
//! | `no-panic-hot-path` | `panic!` / `unreachable!` / `todo!` / `.unwrap()` / `.expect(` | modules reachable from `simulate` / `solve_placement` |
//! | `snapshot-io` | `fs::write(` / `File::create(` | `vod-json`, `vod-ops`, `vod-bench` library + bin code (durable artifact writers) |
//! | `io-fault-shim` | `fs::read(` / `fs::read_to_string(` / `File::open(` / `fs::write(` / `File::create(` | `vod-json`, `vod-ops` library code (snapshot I/O must go through the raw-I/O sites a `FaultHandle` can fault) |
//! | `sleep-timer` | `thread::sleep` / `park_timeout` | everywhere except `crates/ops/src/supervise.rs` (the recorded-backoff module) and `crates/bench` |

use crate::lexer::{code_view, comment_view, lex};
use crate::rules::{
    self, deterministic_container_scope, exempt_path, flat_buffer_scope, io_fault_shim_scope,
    no_panic_scope, raw_index_exempt, sim_hot_path_scope, sleep_timer_exempt, snapshot_io_scope,
    test_only_file, wall_clock_exempt,
};
use std::collections::BTreeSet;
use std::fmt;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

pub use crate::rules::TEXTUAL_RULES as RULES;

/// Full outcome of linting one file: the findings plus, for the
/// stale-allow audit, which `lint:allow` annotations actually
/// suppressed something (keyed by the annotation's own line).
#[derive(Debug, Default)]
pub struct TextualOutcome {
    pub findings: Vec<Finding>,
    pub consumed_allows: BTreeSet<usize>,
}

/// Parse `lint:allow(<rule>): <justification>` out of a comment line,
/// if present. Returns `Err` (as a finding message) when the
/// annotation is malformed or lacks a justification.
fn parse_allow(comment_line: &str) -> Option<Result<&'static str, String>> {
    let start = comment_line.find("lint:allow(")?;
    let rest = &comment_line[start + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Some(Err("unclosed lint:allow(...)".to_string()));
    };
    let rule_name = rest[..close].trim();
    let known = RULES
        .iter()
        .chain(rules::ANALYZER_RULES.iter())
        .find(|r| **r == rule_name);
    let Some(rule) = known else {
        return Some(Err(format!(
            "unknown lint rule {rule_name:?} (known: {})",
            rules::known_rules_joined()
        )));
    };
    let after = rest[close + 1..].trim_start();
    let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Some(Err(format!(
            "lint:allow({rule_name}) requires a justification: `// lint:allow({rule_name}): <why>`"
        )));
    }
    Some(Ok(rule))
}

/// Lint one file's contents. `path` must be workspace-relative with
/// `/` separators.
pub fn lint_file(path: &str, content: &str) -> Vec<Finding> {
    lint_file_full(path, content).findings
}

/// Lint one file, also reporting which annotations were consumed.
pub fn lint_file_full(path: &str, content: &str) -> TextualOutcome {
    let mut out = TextualOutcome::default();
    if exempt_path(path) || !path.ends_with(".rs") {
        return out;
    }
    let test_file = test_only_file(path);

    let tokens = lex(content);
    let code = code_view(content, &tokens);
    let comments = comment_view(content, &tokens);

    // Brace depth inside `#[cfg(test)] mod` blocks; 0 = library code.
    let mut cfg_test_pending = false;
    let mut test_mod_depth: i64 = 0;
    let mut in_test_mod = false;
    // Rules suppressed for the next code line: (rule, annotation line).
    let mut pending_allows: Vec<(&'static str, usize)> = Vec::new();

    for (idx, (code_raw, comment_line)) in code.lines().zip(comments.lines()).enumerate() {
        let lineno = idx + 1;
        let code = code_raw.trim();

        // Annotations live in comments, so parse the comment view.
        if let Some(allow) = parse_allow(comment_line) {
            match allow {
                Ok(rule) => pending_allows.push((rule, lineno)),
                Err(msg) => out.findings.push(Finding {
                    file: path.to_string(),
                    line: lineno,
                    rule: "lint-allow",
                    message: msg,
                }),
            }
        }
        if code.is_empty() {
            continue; // comment or blank line: allows stay pending
        }

        // Track `#[cfg(test)] mod … { … }` regions.
        if code.contains("#[cfg(test)]") {
            cfg_test_pending = true;
        } else if cfg_test_pending && !in_test_mod {
            if code.starts_with("mod ") || code.starts_with("pub mod ") {
                in_test_mod = true;
                test_mod_depth = 0;
            } else if !code.starts_with("#[") {
                // Attribute applied to something other than a module
                // (a test fn outside a tests mod): treat conservatively
                // as library code, but stop waiting for a module.
                cfg_test_pending = false;
            }
        }
        if in_test_mod {
            test_mod_depth += code.matches('{').count() as i64;
            test_mod_depth -= code.matches('}').count() as i64;
            if test_mod_depth <= 0 {
                in_test_mod = false;
                cfg_test_pending = false;
            }
        }
        let in_test_code = test_file || in_test_mod;

        let mut check = |rule: &'static str, hit: bool, message: String| {
            if !hit {
                return;
            }
            if let Some(&(_, allow_line)) = pending_allows.iter().find(|(r, _)| *r == rule) {
                out.consumed_allows.insert(allow_line);
            } else {
                out.findings.push(Finding {
                    file: path.to_string(),
                    line: lineno,
                    rule,
                    message,
                });
            }
        };

        if deterministic_container_scope(path) && !in_test_code {
            check(
                "nondeterministic-map",
                code.contains("HashMap") || code.contains("HashSet"),
                "std hash containers iterate in randomized order; use BTreeMap/BTreeSet \
                 or a sorted Vec so placements are byte-identical across runs"
                    .to_string(),
            );
        }
        check(
            "nan-unwrap-cmp",
            code.contains("partial_cmp"),
            "partial_cmp panics (or silently mis-sorts) on NaN; use f64::total_cmp or \
             vod_model::fcmp"
                .to_string(),
        );
        if !wall_clock_exempt(path) {
            check(
                "wall-clock",
                code.contains("Instant::now") || code.contains("SystemTime"),
                "wall-clock reads outside crates/bench break reproducibility; annotate \
                 solver timing with lint:allow(wall-clock)"
                    .to_string(),
            );
        }
        if !raw_index_exempt(path) && !in_test_code {
            check(
                "raw-index",
                code.contains("VhoId::new(") || code.contains("VhoId::from_index"),
                "raw VhoId construction outside crates/model and crates/net bypasses the \
                 id-newtype boundary; take ids from the Network or annotate the dense-\
                 vector indexing"
                    .to_string(),
            );
        }
        if flat_buffer_scope(path) && !in_test_code {
            check(
                "vec-vec-f64",
                code.contains("Vec<Vec<f64>>"),
                "nested f64 matrices in solver hot paths re-allocate per chunk; use a \
                 flat row-major buffer (crate::penalty::PenaltyArena, UflProblem) or \
                 annotate a boundary constructor"
                    .to_string(),
            );
        }
        if no_panic_scope(path) && !in_test_code {
            check(
                "no-panic-hot-path",
                code.contains("panic!(")
                    || code.contains("unreachable!(")
                    || code.contains("todo!(")
                    || code.contains(".unwrap()")
                    || code.contains(".expect("),
                "panics and unwraps reachable from simulate/solve kill the whole run; \
                 degrade instead (typed SolveError, denial accounting, let-else \
                 fallbacks) or justify an unreachable invariant with \
                 lint:allow(no-panic-hot-path)"
                    .to_string(),
            );
        }
        if snapshot_io_scope(path) && !in_test_code {
            check(
                "snapshot-io",
                code.contains("fs::write(") || code.contains("File::create("),
                "direct file writes in snapshot/results paths can be torn by a crash; \
                 route through vod_json::snapshot::write_atomic (or the snapshot \
                 helpers) so readers only ever see complete files"
                    .to_string(),
            );
        }
        if io_fault_shim_scope(path) && !in_test_code {
            check(
                "io-fault-shim",
                code.contains("fs::read(")
                    || code.contains("fs::read_to_string(")
                    || code.contains("File::open(")
                    || code.contains("fs::write(")
                    || code.contains("File::create("),
                "raw file I/O here bypasses injectable I/O faults (vod_json::faults), \
                 so chaos drills can never reach this path; route through the \
                 vod_json::snapshot helpers or a FaultHandle's methods, which share \
                 the single raw-I/O sites that take each operation's fault"
                    .to_string(),
            );
        }
        if !sleep_timer_exempt(path) && !in_test_code {
            check(
                "sleep-timer",
                code.contains("thread::sleep") || code.contains("park_timeout"),
                "sleeping outside the recorded-backoff module breaks the never-sleeps \
                 determinism contract (interrupted and uninterrupted runs must be \
                 bit-comparable); record the delay with vod_ops::recorded_backoff and \
                 leave real sleeping to supervise::deployment_sleep"
                    .to_string(),
            );
        }
        if sim_hot_path_scope(path) && !in_test_code {
            check(
                "dyn-dispatch",
                code.contains("Box<dyn"),
                "boxed trait objects in the simulator hot path cost a heap indirection \
                 and an uninlinable virtual call per event; dispatch through the \
                 CacheImpl enum (crates/sim/src/cache.rs) instead"
                    .to_string(),
            );
        }

        pending_allows.clear();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The behavior-pinning suite for these rules lives in
    // `crates/xtask/src/lint.rs` (unchanged across the re-host). The
    // tests here cover exactly what the token-stream re-host *added*:
    // patterns inside string literals and nested block comments.

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn patterns_inside_string_literals_are_not_findings() {
        let src = r#"
            fn f() -> String {
                let a = "Instant::now() and SystemTime belong in strings";
                let b = "HashMap<VhoId, f64> documented here";
                let c = "call .unwrap() or panic!( freely in messages";
                let d = "fs::write( and File::create( quoted";
                format!("{a}{b}{c}{d}")
            }
        "#;
        assert!(lint_file("crates/core/src/epf.rs", src).is_empty());
        assert!(lint_file("crates/json/src/snapshot.rs", src).is_empty());
    }

    #[test]
    fn patterns_inside_raw_strings_are_not_findings() {
        let src = "fn f() -> &'static str { r#\"SystemTime::now() \"quoted\" HashMap\"# }\n";
        assert!(lint_file("crates/sim/src/engine.rs", src).is_empty());
    }

    #[test]
    fn patterns_inside_nested_block_comments_are_not_findings() {
        let src = "/* outer /* Instant::now() HashMap */ still comment: .unwrap() */\nfn f() {}\n";
        assert!(lint_file("crates/core/src/epf.rs", src).is_empty());
    }

    #[test]
    fn real_pattern_next_to_string_decoy_is_still_caught() {
        let src = "fn f() { let msg = \"HashMap\"; let m = HashMap::new(); }\n";
        let f = lint_file("crates/core/src/foo.rs", src);
        assert_eq!(rules_of(&f), ["nondeterministic-map"]);
    }

    #[test]
    fn unterminated_string_swallows_rest_of_file() {
        // An unterminated literal makes everything after it string
        // contents; the lexer is lenient, the rules see nothing.
        let src = "fn f() { let s = \"unterminated;\nlet t = Instant::now();\n";
        assert!(lint_file("crates/core/src/foo.rs", src).is_empty());
    }

    #[test]
    fn allow_in_string_literal_does_not_suppress() {
        let src = "fn f() { let s = \"lint:allow(wall-clock): fake\"; let t = Instant::now(); }\n";
        let f = lint_file("crates/core/src/foo.rs", src);
        assert_eq!(rules_of(&f), ["wall-clock"]);
    }

    #[test]
    fn consumed_allows_are_reported() {
        let src = "// lint:allow(wall-clock): reporting only\nlet t = Instant::now();\n\
                   // lint:allow(wall-clock): never consumed — no pattern follows\nlet u = 1;\n";
        let out = lint_file_full("crates/core/src/x.rs", src);
        assert!(out.findings.is_empty());
        assert!(out.consumed_allows.contains(&1));
        assert!(!out.consumed_allows.contains(&3));
    }
}
