//! The interprocedural passes.
//!
//! All three passes run over the same substrate: the function
//! inventory ([`crate::items`]), the call graph ([`crate::graph`]),
//! and the reachable set computed from the **sink roots** — the
//! functions whose output the paper's evaluation promises is
//! bit-identical across runs (`solve` and its wrappers, `simulate*`,
//! `round_solution`, and the snapshot writers).
//!
//! 1. **determinism-taint** — a nondeterminism *source* (wall clock,
//!    hash-order iteration, unseeded RNG, thread identity, env/fs
//!    reads) inside any function transitively reachable from a root
//!    taints everything the root produces. Sources are recognized
//!    token-sequence patterns; the finding carries the shortest call
//!    chain from the root as evidence.
//! 2. **panic-reachable** — the interprocedural upgrade of the
//!    hot-path modules' `#![deny(clippy::expect_used, …)]` headers:
//!    instead of a hand-maintained module list, any
//!    `panic!`/`unreachable!`/`todo!`/`.unwrap()`/`.expect(` in a
//!    reachable function is a finding. `.expect(` with a byte
//!    literal argument is recognized as the JSON cursor's fallible
//!    `expect(b'[')` *method* and skipped.
//! 3. **alloc-in-hot-loop** — inside the PR 2/3 allocation-free-scope
//!    modules, loop bodies of reachable functions must not allocate
//!    (`Vec::new`, `vec![]`, `.push`, `.collect`, `.to_vec`,
//!    `.clone`, `.extend`, `Box::new`, `String` construction).
//! 4. **nan-unwrap-cmp** — a token rule over every scanned file, test
//!    code included: `partial_cmp` panics (or silently mis-sorts) on
//!    NaN; use `f64::total_cmp` or `vod_model::fcmp`.
//!
//! Escapes, in order of preference: a clippy `#[expect]` covering the
//! line whose lint maps onto the rule (`crate::rules::CLIPPY_ESCAPES`:
//! `disallowed_types` for taint, `expect_used` and its kin for
//! panics), a `// lint:allow(<rule>): <why>` annotation on the
//! offending line, an entry in the [`BLESSED`] function allowlist, or
//! — for accepted pre-existing debt — the checked-in baseline file.

use crate::allows::Allows;
use crate::graph::Reachability;
use crate::items::{FnItem, ParsedFile};
use crate::lexer::TokenKind;
use crate::report::Finding;
use crate::rules::alloc_free_scope;
use std::collections::BTreeMap;
use std::collections::BTreeSet;

/// A nondeterminism source: finding kind and token pattern.
const TAINT_SOURCES: &[(&str, &[&str])] = &[
    ("wall-clock", &["Instant", ":", ":", "now"]),
    ("wall-clock", &["SystemTime"]),
    ("hash-order", &["HashMap"]),
    ("hash-order", &["HashSet"]),
    ("unseeded-rng", &["thread_rng"]),
    ("unseeded-rng", &["from_entropy"]),
    ("unseeded-rng", &["OsRng"]),
    ("thread-id", &["thread", ":", ":", "current"]),
    ("env-read", &["env", ":", ":", "var"]),
    ("env-read", &["env", ":", ":", "vars"]),
    ("env-read", &["env", ":", ":", "var_os"]),
    ("env-read", &["env", ":", ":", "vars_os"]),
    ("fs-read", &["fs", ":", ":", "read"]),
    ("fs-read", &["fs", ":", ":", "read_to_string"]),
    ("fs-read", &["fs", ":", ":", "read_dir"]),
    ("fs-read", &["File", ":", ":", "open"]),
];

/// Panic-shaped token patterns. `.expect(` is handled separately for
/// the byte-literal-argument refinement.
const PANIC_PATTERNS: &[(&str, &[&str])] = &[
    ("panic", &["panic", "!"]),
    ("unreachable", &["unreachable", "!"]),
    ("todo", &["todo", "!"]),
    ("unimplemented", &["unimplemented", "!"]),
    ("unwrap", &[".", "unwrap", "(", ")"]),
];

/// Allocation-shaped token patterns for loop bodies.
const ALLOC_PATTERNS: &[(&str, &[&str])] = &[
    ("vec-new", &["Vec", ":", ":", "new"]),
    ("vec-with-capacity", &["Vec", ":", ":", "with_capacity"]),
    ("vec-macro", &["vec", "!"]),
    ("push", &[".", "push", "("]),
    ("collect", &[".", "collect", "("]),
    ("collect", &[".", "collect", ":", ":"]),
    ("to-vec", &[".", "to_vec", "("]),
    ("clone", &[".", "clone", "("]),
    ("extend", &[".", "extend", "("]),
    ("box-new", &["Box", ":", ":", "new"]),
    ("string-new", &["String", ":", ":", "new"]),
    ("to-string", &[".", "to_string", "("]),
    ("to-owned", &[".", "to_owned", "("]),
];

/// The blessed-function allowlist: (function simple name, rule, kind
/// or "*", justification). An entry silences matching findings in that
/// function *with a reviewed reason* — unlike the baseline, which only
/// freezes debt. Keep this table short and each entry defensible; it
/// is rendered into the README's sources/sinks table.
pub const BLESSED: &[(&str, &str, &str, &str)] = &[(
    "read_all",
    "determinism-taint",
    "fs-read",
    "the single raw-read site every snapshot reader funnels through, faulted or not; \
     it takes the read's injected fault as an argument, and reads are declared input, \
     not ambient state",
)];

fn blessed(fn_name: &str, rule: &str, kind: &str) -> bool {
    BLESSED
        .iter()
        .any(|(f, r, k, _)| *f == fn_name && *r == rule && (*k == "*" || *k == kind))
}

/// Output of the pass runner: findings plus which annotations were
/// consumed, keyed by (file, annotation line).
#[derive(Debug, Default)]
pub struct PassOutput {
    pub findings: Vec<Finding>,
    pub consumed_allows: BTreeSet<(String, usize)>,
}

impl PassOutput {
    /// Whether `rule` is escaped on `line` of `file`; a comment that
    /// does so is recorded as consumed for the stale-allow audit.
    fn escaped(&mut self, file: &str, allows: &Allows, line: usize, rule: &str) -> bool {
        if let Some(site) = allows.comment_for(line, rule) {
            self.consumed_allows.insert((file.to_string(), site.line));
        }
        allows.is_blessed(line, rule)
    }
}

/// Find every occurrence of `pat` (token texts) within `range` of the
/// file's code tokens; yields the code index of the first token.
fn match_seq(pf: &ParsedFile, range: &std::ops::Range<usize>, pat: &[&str]) -> Vec<usize> {
    let mut hits = Vec::new();
    if pat.is_empty() || range.end < pat.len() {
        return hits;
    }
    for i in range.start..=(range.end - pat.len()) {
        if (0..pat.len()).all(|k| pf.code_text(i + k) == pat[k]) {
            hits.push(i);
        }
    }
    hits
}

/// Run all three interprocedural passes.
pub fn run_passes(
    files: &BTreeMap<String, ParsedFile>,
    allows: &BTreeMap<String, Allows>,
    fns: &[FnItem],
    reach: &Reachability,
) -> PassOutput {
    let mut out = PassOutput::default();
    let no_allows = Allows::default();
    for (path, pf) in files {
        nan_unwrap_cmp(pf, allows.get(path).unwrap_or(&no_allows), fns, &mut out);
    }

    for fn_idx in reach.iter() {
        let f = &fns[fn_idx];
        let Some(pf) = files.get(&f.file) else {
            continue;
        };
        let file_allows = allows.get(&f.file).unwrap_or(&no_allows);
        let chain = reach.chain(fns, fn_idx);

        // Pass 1: determinism taint.
        for (kind, pat) in TAINT_SOURCES {
            for hit in match_seq(pf, &f.body, pat) {
                let line = pf.code_line(hit);
                if out.escaped(&f.file, file_allows, line, "determinism-taint")
                    || blessed(&f.name, "determinism-taint", kind)
                {
                    continue;
                }
                out.findings.push(Finding {
                    rule: "determinism-taint",
                    kind: (*kind).to_string(),
                    file: f.file.clone(),
                    line,
                    function: f.qual(),
                    chain: chain.clone(),
                    message: format!(
                        "nondeterminism source `{}` reaches deterministic sink `{}` via {}; \
                         placements/reports must be byte-identical for identical seeds — \
                         plumb the value in as explicit input, or bless the function",
                        pat.join(""),
                        chain.first().map(String::as_str).unwrap_or("?"),
                        chain.join(" -> "),
                    ),
                });
            }
        }

        // Pass 2: interprocedural panic reachability.
        let mut panic_hits: Vec<(&str, usize)> = Vec::new();
        for (kind, pat) in PANIC_PATTERNS {
            for hit in match_seq(pf, &f.body, pat) {
                panic_hits.push((kind, hit));
            }
        }
        // `.expect(` — skip byte-literal arguments (the JSON cursor's
        // fallible `expect(b'[')` method, not Option/Result::expect).
        for hit in match_seq(pf, &f.body, &[".", "expect", "("]) {
            if pf.code_kind(hit + 3) == Some(TokenKind::Char) {
                continue;
            }
            panic_hits.push(("expect", hit));
        }
        panic_hits.sort_by_key(|&(_, h)| h);
        for (kind, hit) in panic_hits {
            let line = pf.code_line(hit);
            if out.escaped(&f.file, file_allows, line, "panic-reachable")
                || blessed(&f.name, "panic-reachable", kind)
            {
                continue;
            }
            out.findings.push(Finding {
                rule: "panic-reachable",
                kind: kind.to_string(),
                file: f.file.clone(),
                line,
                function: f.qual(),
                chain: chain.clone(),
                message: format!(
                    "`{kind}` can tear down a run of `{}` (call chain: {}); degrade with \
                     typed errors instead, or justify the invariant with \
                     #[expect(clippy::{}, reason = \"…\")]",
                    chain.first().map(String::as_str).unwrap_or("?"),
                    chain.join(" -> "),
                    match kind {
                        "unwrap" | "expect" => format!("{kind}_used"),
                        _ => kind.to_string(),
                    },
                ),
            });
        }

        // Pass 3: alloc-in-hot-loop, restricted to the PR 2/3
        // allocation-free modules.
        if !alloc_free_scope(&f.file) {
            continue;
        }
        let mut seen: BTreeSet<(String, usize)> = BTreeSet::new();
        for lp in &f.loops {
            for (kind, pat) in ALLOC_PATTERNS {
                for hit in match_seq(pf, lp, pat) {
                    let line = pf.code_line(hit);
                    if !seen.insert(((*kind).to_string(), line)) {
                        continue; // nested loop ranges overlap
                    }
                    if out.escaped(&f.file, file_allows, line, "alloc-in-hot-loop")
                        || blessed(&f.name, "alloc-in-hot-loop", kind)
                    {
                        continue;
                    }
                    out.findings.push(Finding {
                        rule: "alloc-in-hot-loop",
                        kind: (*kind).to_string(),
                        file: f.file.clone(),
                        line,
                        function: f.qual(),
                        chain: chain.clone(),
                        message: format!(
                            "`{kind}` allocates inside a loop body of hot-path function \
                             `{}` (reachable via {}); hoist the buffer out of the loop or \
                             annotate with lint:allow(alloc-in-hot-loop)",
                            f.qual(),
                            chain.join(" -> "),
                        ),
                    });
                }
            }
        }
    }
    out
}

/// The `nan-unwrap-cmp` token rule: every `partial_cmp` in code (never
/// in a comment or a string), test code included.
fn nan_unwrap_cmp(pf: &ParsedFile, allows: &Allows, fns: &[FnItem], out: &mut PassOutput) {
    for hit in (0..pf.code.len()).filter(|&i| pf.code_text(i) == "partial_cmp") {
        let line = pf.code_line(hit);
        if out.escaped(&pf.path, allows, line, "nan-unwrap-cmp") {
            continue;
        }
        let function =
            crate::enclosing_fn(fns, &pf.path, line).map_or_else(|| "-".to_string(), FnItem::qual);
        out.findings.push(Finding {
            rule: "nan-unwrap-cmp",
            kind: "partial-cmp".to_string(),
            file: pf.path.clone(),
            line,
            function,
            chain: Vec::new(),
            message: "partial_cmp panics (or silently mis-sorts) on NaN; use f64::total_cmp \
                      or vod_model::fcmp"
                .to_string(),
        });
    }
}
