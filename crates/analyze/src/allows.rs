//! Escape scanning: `// lint:allow(<rule>): <why>` comments for the
//! analyzer's own rules, and clippy `#[expect]`/`#[allow]` attributes
//! whose lint maps onto one ([`CLIPPY_ESCAPES`]).
//!
//! A comment is parsed from the **comment view** (an "annotation"
//! inside a string literal is inert) and blesses exactly one code line:
//! the same line when code precedes the comment, otherwise the next
//! line that carries any code. The justification is mandatory; its
//! absence, an unclosed annotation, or an unknown rule name are
//! malformed-annotation errors the caller reports as findings.
//!
//! An attribute blesses every line of what it is attached to: the
//! item, statement, match arm, field or closure after an outer
//! `#[…]`, or the rest of the enclosing module or block after an inner
//! `#![…]`. Clippy reports a stale `#[expect]` by itself, so attribute
//! escapes take no part in the stale-allow audit. A `#[cfg(test)]`
//! attribute covers its element the same way for [`TEST_EXEMPT`]: a
//! test-only match arm or helper outside a test module is compiled out
//! of every solve.

use crate::items::ParsedFile;
use crate::rules::{is_known_rule, ANALYZER_RULES, CLIPPY_ESCAPES};
use std::ops::RangeInclusive;

/// The rules test code is exempt from (`nan-unwrap-cmp` is not).
pub const TEST_EXEMPT: [&str; 3] = ["determinism-taint", "panic-reachable", "alloc-in-hot-loop"];

/// One well-formed annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowSite {
    /// 1-based line of the annotation comment itself.
    pub line: usize,
    /// 1-based line of the code line it blesses (0 when it dangles at
    /// end of file with no code after it).
    pub target_line: usize,
    pub rule: String,
    pub justification: String,
}

/// One malformed annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowError {
    pub line: usize,
    pub message: String,
}

/// Scan result for one file.
#[derive(Debug, Default)]
pub struct Allows {
    pub sites: Vec<AllowSite>,
    pub errors: Vec<AllowError>,
    /// Attribute escapes: (analyzer rule, lines covered).
    pub attrs: Vec<(&'static str, RangeInclusive<usize>)>,
}

impl Allows {
    /// The comment annotation blessing `rule` on a 1-based code line.
    pub fn comment_for(&self, line: usize, rule: &str) -> Option<&AllowSite> {
        self.sites
            .iter()
            .find(|s| s.target_line == line && s.rule == rule)
    }

    /// Whether `rule` is blessed on `line`, by a comment or an attribute.
    pub fn is_blessed(&self, line: usize, rule: &str) -> bool {
        self.comment_for(line, rule).is_some()
            || self
                .attrs
                .iter()
                .any(|(r, lines)| *r == rule && lines.contains(&line))
    }
}

/// Parse every escape in a parsed file.
pub fn scan_allows(pf: &ParsedFile) -> Allows {
    let mut out = Allows::default();
    scan_comments(pf, &mut out);
    let n = pf.code.len();
    for i in 0..n {
        if pf.code_text(i) != "#" {
            continue;
        }
        let inner = pf.code_text(i + 1) == "!";
        let open = i + 1 + usize::from(inner);
        let head: Vec<&str> = (open..open + 5).map(|k| pf.code_text(k)).collect();
        let close = group_end(pf, open);
        let rules: Vec<&'static str> = if head == ["[", "cfg", "(", "test", ")"] {
            // Test-only code: compiled out of every solve and replay.
            TEST_EXEMPT.to_vec()
        } else if head[0] == "[" && matches!(head[1], "expect" | "allow") && head[2] == "(" {
            (open + 3..close)
                .filter(|&k| pf.code_text(k) == "clippy" && pf.code_text(k + 1) == ":")
                .filter_map(|k| {
                    CLIPPY_ESCAPES
                        .iter()
                        .find(|(l, _)| *l == pf.code_text(k + 3))
                })
                .map(|&(_, rule)| rule)
                .collect()
        } else {
            continue;
        };
        if rules.is_empty() {
            continue;
        }
        let last = if inner {
            enclosing_end(pf, close + 1)
        } else {
            target_end(pf, close + 1)
        };
        let lines = pf.code_line(i)..=pf.code_line(last.min(n.saturating_sub(1)));
        out.attrs
            .extend(rules.into_iter().map(|r| (r, lines.clone())));
    }
    out
}

/// Index of the token closing the group opened at `open`.
fn group_end(pf: &ParsedFile, open: usize) -> usize {
    let mut depth = 0i64;
    for k in open..pf.code.len() {
        match pf.code_text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            return k;
        }
    }
    pf.code.len()
}

/// Last token before the group enclosing `from` closes.
fn enclosing_end(pf: &ParsedFile, from: usize) -> usize {
    let mut depth = 0i64;
    for k in from..pf.code.len() {
        match pf.code_text(k) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return k.saturating_sub(1),
            ")" | "]" | "}" => depth -= 1,
            _ => {}
        }
    }
    pf.code.len()
}

/// Last token of the element an outer attribute ending before `from`
/// is attached to. Further attributes are skipped; an item (`fn`,
/// `impl`, `mod`, `trait`) ends with its body, anything else at a `;`
/// or `,` of its own level, at a closing `}` not followed by a
/// continuation, or before the enclosing group closes.
fn target_end(pf: &ParsedFile, mut k: usize) -> usize {
    while pf.code_text(k) == "#" {
        k = group_end(pf, k + 1) + 1;
    }
    let item = (k..k + 6).any(|j| matches!(pf.code_text(j), "fn" | "impl" | "mod" | "trait"));
    if pf.code_text(k) == "move" {
        k += 1;
    }
    if pf.code_text(k) == "|" {
        k = (k + 1..pf.code.len())
            .find(|&j| pf.code_text(j) == "|")
            .unwrap_or(k);
    }
    let mut depth = 0i64;
    for j in k..pf.code.len() {
        match pf.code_text(j) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" if depth == 0 => return j.saturating_sub(1),
            "}" if depth == 1 => {
                let next = pf.code_text(j + 1);
                if item {
                    return j;
                }
                if matches!(next, ";" | ",") {
                    return j + 1;
                }
                if !matches!(next, "." | "?" | "else" | "as") {
                    return j;
                }
                depth = 0;
            }
            ")" | "]" | "}" => depth -= 1,
            ";" | "," if depth == 0 && !item => return j,
            _ => {}
        }
    }
    pf.code.len()
}

/// The comment annotations of one file.
fn scan_comments(pf: &ParsedFile, out: &mut Allows) {
    // Annotations waiting for a code line, and the last line with code.
    let mut pending: Vec<AllowSite> = Vec::new();
    let mut code_line = 0;
    for t in &pf.tokens {
        let line = pf.lines.line_of(t.start);
        if t.is_trivia() {
            let text = t.text(&pf.content);
            for (at, _) in text.match_indices("lint:allow(") {
                let line = pf.lines.line_of(t.start + at);
                match parse_one(&text[at + "lint:allow(".len()..]) {
                    Ok((rule, justification)) => pending.push(AllowSite {
                        line,
                        target_line: 0,
                        rule,
                        justification,
                    }),
                    Err(message) => out.errors.push(AllowError { line, message }),
                }
            }
            if line != code_line {
                continue;
            }
        }
        code_line = line;
        for mut site in pending.drain(..) {
            site.target_line = line;
            out.sites.push(site);
        }
    }
    // Dangling annotations at end of file keep target_line == 0.
    out.sites.extend(pending);
}

/// Parse one annotation body starting right after `lint:allow(`:
/// (rule, justification).
fn parse_one(tail: &str) -> Result<(String, String), String> {
    let Some(close) = tail.find(')') else {
        return Err("unclosed lint:allow(...)".to_string());
    };
    let rule = tail[..close].trim();
    if !is_known_rule(rule) {
        return Err(format!(
            "unknown lint rule {rule:?} (known: {}; the bans moved to clippy: \
             escape them with #[expect(clippy::…, reason = \"…\")])",
            ANALYZER_RULES.join(", ")
        ));
    }
    let after = tail[close + 1..].trim_start();
    let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
    if justification.is_empty() {
        return Err(format!(
            "lint:allow({rule}) requires a justification: `// lint:allow({rule}): <why>`"
        ));
    }
    Ok((rule.to_string(), justification.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(src: &str) -> Allows {
        scan_allows(&ParsedFile::new("x.rs".to_string(), src.to_string()))
    }

    #[test]
    fn an_annotation_targets_its_own_code_line_or_the_next() {
        let a = scan("let t = now(); // lint:allow(determinism-taint): display only\n");
        assert_eq!((a.sites[0].line, a.sites[0].target_line), (1, 1));
        let src = "// lint:allow(panic-reachable): proven in bounds\n\
                   /* continuation of the explanation. */\n\
                   let x = v.unwrap();\n";
        let a = scan(src);
        assert_eq!(
            (a.sites.len(), a.sites[0].line, a.sites[0].target_line),
            (1, 1, 3)
        );
        assert!(a.is_blessed(3, "panic-reachable"));
        assert!(!a.is_blessed(3, "determinism-taint"));
    }

    #[test]
    fn malformed_annotations_error() {
        let a = scan("// lint:allow(determinism-taint)\nlet t = now();\n");
        assert_eq!(a.errors.len(), 1);
        assert!(a.errors[0].message.contains("requires a justification"));
        // The textual rules moved to clippy: their names are unknown now.
        let b = scan("// lint:allow(wall-clock): whatever\n");
        assert_eq!(b.errors.len(), 1);
        assert!(b.errors[0].message.contains("unknown lint rule"));
        let c = scan("// lint:allow(panic-reachable\n");
        assert_eq!(c.errors.len(), 1);
        assert!(c.errors[0].message.contains("unclosed"));
    }

    #[test]
    fn annotation_in_string_literal_is_inert() {
        let a = scan("let s = \"lint:allow(nan-unwrap-cmp): nope\";\n");
        assert!(a.sites.is_empty());
        assert!(a.errors.is_empty());
    }

    /// The lines an attribute covers, per mapped analyzer rule.
    fn covered(src: &str) -> Vec<(&'static str, usize, usize)> {
        scan(src)
            .attrs
            .into_iter()
            .map(|(r, l)| (r, *l.start(), *l.end()))
            .collect()
    }

    #[test]
    fn an_outer_attribute_covers_its_statement_arm_closure_or_item() {
        let stmt = "fn f() {\n    #[expect(clippy::expect_used, reason = \"r\")]\n    \
                    let x = v\n        .expect(\"set\");\n    let y = w.expect(\"no\");\n}\n";
        assert_eq!(covered(stmt), [("panic-reachable", 2, 4)]);
        let arm = "match x {\n    Some(v) => v,\n    #[expect(clippy::unreachable, reason = \"r\")]\n    \
                   None => unreachable!(),\n    _ => 0,\n}\n";
        assert_eq!(covered(arm), [("panic-reachable", 3, 4)]);
        let closure = "xs.map(\n    #[expect(clippy::expect_used, reason = \"r\")]\n    \
                       |r, s| r.expect(s),\n)\n.count();\n";
        assert_eq!(covered(closure), [("panic-reachable", 2, 3)]);
        let item = "#[expect(clippy::disallowed_types, reason = \"r\")]\n\
                    fn f<A, B>(a: A) -> B\nwhere\n    A: Into<B>,\n{\n    if a { 1 } else { 2 }\n}\n\
                    fn g() {}\n";
        assert_eq!(covered(item), [("determinism-taint", 1, 7)]);
    }

    #[test]
    fn inner_attributes_cover_their_module_and_unmapped_lints_nothing() {
        let src = "mod hot {\n    #![allow(clippy::panic, reason = \"r\")]\n    \
                   fn f() { panic!() }\n}\nfn g() {}\n";
        assert_eq!(covered(src), [("panic-reachable", 2, 3)]);
        let arm = "match k {\n    #[cfg(test)]\n    K::Plant => panic!(),\n    _ => {}\n}\n";
        assert_eq!(covered(arm), TEST_EXEMPT.map(|r| (r, 2, 3)));
        let other = "#[expect(clippy::float_cmp, reason = \"r\")]\nfn f() {}\n\
                     #[cfg_attr(test, expect(clippy::expect_used, reason = \"r\"))]\nfn g() {}\n";
        assert!(covered(other).is_empty());
    }
}
