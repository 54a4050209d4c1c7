//! Finding type, JSON rendering, and the checked-in baseline format.
//!
//! The baseline (`results/ANALYZE_baseline.json`) freezes pre-existing
//! findings by **key** — `rule|file|function|kind` — deliberately
//! omitting line numbers so unrelated edits that shift a finding a few
//! lines do not churn the file. CI fails only on keys absent from the
//! baseline; stale baseline keys (debt that got fixed) are reported so
//! the file can be re-generated with `cargo xtask analyze
//! --write-baseline`.
//!
//! JSON is rendered and parsed by hand: `vod-analyze` has zero
//! dependencies, and the formats involved are flat.

use std::collections::BTreeSet;
use std::fmt;

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule name from [`crate::rules::ANALYZER_RULES`].
    pub rule: &'static str,
    /// Rule-specific kind, e.g. `wall-clock` or `push`.
    pub kind: String,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Qualified function name (`module::Owner::name`), or `-` when the
    /// finding is not attached to a function (e.g. a stale allow at
    /// module scope).
    pub function: String,
    /// Call chain from the sink root (empty for non-reachability rules).
    pub chain: Vec<String>,
    pub message: String,
}

impl Finding {
    /// Baseline identity: stable across line-number churn.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.rule, self.file, self.function, self.kind
        )
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}/{}] {}",
            self.file, self.line, self.rule, self.kind, self.message
        )
    }
}

/// Minimal JSON string escaping (control chars, quote, backslash).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Render the machine-readable findings report.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {");
        out.push_str(&format!("\"rule\": \"{}\", ", escape(f.rule)));
        out.push_str(&format!("\"kind\": \"{}\", ", escape(&f.kind)));
        out.push_str(&format!("\"file\": \"{}\", ", escape(&f.file)));
        out.push_str(&format!("\"line\": {}, ", f.line));
        out.push_str(&format!("\"function\": \"{}\", ", escape(&f.function)));
        out.push_str("\"chain\": [");
        for (j, c) in f.chain.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(c)));
        }
        out.push_str("], ");
        out.push_str(&format!("\"message\": \"{}\", ", escape(&f.message)));
        out.push_str(&format!("\"key\": \"{}\"", escape(&f.key())));
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Render the baseline file: sorted, deduplicated keys only.
pub fn render_baseline(findings: &[Finding]) -> String {
    render_baseline_keys(&findings.iter().map(Finding::key).collect())
}

/// The baseline file of `keys`, in the committed layout: one space
/// per nesting level.
pub fn render_baseline_keys(keys: &BTreeSet<String>) -> String {
    let mut out = String::from("{\n \"version\": 1,\n \"keys\": [");
    for (i, k) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n  \"{}\"", escape(k)));
    }
    out.push_str("\n ]\n}\n");
    out
}

/// Parse a baseline file back into its key set.
///
/// The scanner accepts any JSON-ish text and extracts every quoted
/// string containing a `|` — exactly the strings `render_baseline`
/// emits as keys (rule names, paths, and function names never contain
/// `|`, and the only other strings in the file are `"version"` /
/// `"keys"`). Escapes are unescaped for the backslash/quote cases that
/// `escape` can produce.
pub fn parse_baseline(content: &str) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    let bytes = content.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        // Scan the quoted string.
        let mut j = i + 1;
        let mut s = String::new();
        let mut closed = false;
        while j < bytes.len() {
            match bytes[j] {
                b'"' => {
                    closed = true;
                    break;
                }
                b'\\' if j + 1 < bytes.len() => {
                    match bytes[j + 1] {
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        other => s.push(other as char),
                    }
                    j += 2;
                }
                _ => {
                    // Copy one UTF-8 scalar; multibyte continuation is
                    // handled by pushing raw bytes into a Vec instead.
                    let start = j;
                    j += 1;
                    while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
                        j += 1;
                    }
                    s.push_str(&String::from_utf8_lossy(&bytes[start..j]));
                }
            }
        }
        if closed && s.contains('|') {
            keys.insert(s);
        }
        i = j + 1;
    }
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Finding {
        Finding {
            rule: "determinism-taint",
            kind: "wall-clock".to_string(),
            file: "crates/core/src/solver.rs".to_string(),
            line: 42,
            function: "solver::solve".to_string(),
            chain: vec!["solve_placement".to_string(), "solver::solve".to_string()],
            message: "quote \" and backslash \\ survive".to_string(),
        }
    }

    #[test]
    fn key_omits_line_numbers() {
        let mut f = sample();
        let k1 = f.key();
        f.line = 999;
        assert_eq!(k1, f.key());
        assert_eq!(
            k1,
            "determinism-taint|crates/core/src/solver.rs|solver::solve|wall-clock"
        );
    }

    #[test]
    fn baseline_roundtrips() {
        let f = sample();
        let text = render_baseline(std::slice::from_ref(&f));
        let keys = parse_baseline(&text);
        assert_eq!(keys.len(), 1);
        assert!(keys.contains(&f.key()));
    }

    #[test]
    fn the_committed_baseline_is_what_the_writer_writes() {
        let committed = include_str!("../../../results/ANALYZE_baseline.json");
        assert_eq!(render_baseline_keys(&parse_baseline(committed)), committed);
    }

    #[test]
    fn baseline_keys_are_sorted_and_deduped() {
        let mut a = sample();
        a.kind = "zzz".to_string();
        let b = sample();
        let text = render_baseline(&[a.clone(), b.clone(), b.clone()]);
        let first = text.find(&b.key()).unwrap_or(usize::MAX);
        let second = text.find(&a.key()).unwrap_or(0);
        assert!(first < second, "{text}");
        assert_eq!(parse_baseline(&text).len(), 2);
    }

    #[test]
    fn json_report_escapes_specials() {
        let text = render_json(&[sample()]);
        assert!(text.contains("quote \\\" and backslash \\\\ survive"));
        assert!(text.contains("\"line\": 42"));
        assert!(text.contains("\"chain\": [\"solve_placement\", \"solver::solve\"]"));
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let text = render_json(&[]);
        assert!(text.contains("\"findings\": [\n  ]"));
        assert!(parse_baseline(&render_baseline(&[])).is_empty());
    }
}
