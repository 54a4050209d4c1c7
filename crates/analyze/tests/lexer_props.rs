//! Property tests for the lexer: totality and span discipline.
//!
//! The lexer is the foundation of every other analysis layer, and it
//! runs over whatever bytes happen to be in the tree — including
//! malformed, mid-edit, or adversarial input. Two properties must hold
//! unconditionally:
//!
//! 1. **Totality** — `lex` never panics, on any input.
//! 2. **Span discipline** — token spans are sorted, non-overlapping,
//!    in-bounds, aligned to `char` boundaries, and together cover
//!    every non-whitespace byte of the input (nothing is silently
//!    dropped).

use proptest::prelude::*;
use vod_analyze::lexer::{lex, Token};

/// Rust-ish source fragments: the generator splices these together to
/// hit lexer states (raw strings, nested comments, lifetimes, byte
/// chars, unterminated constructs) far more often than uniform bytes
/// would.
const FRAGMENTS: &[&str] = &[
    "fn f() {",
    "}",
    "let x = ",
    "\"str with \\\" escape\"",
    "\"unterminated",
    "r#\"raw \" body\"#",
    "r#\"unterminated raw",
    "b'x'",
    "'c'",
    "'\\n'",
    "'lifetime",
    "&'a str",
    "// line comment\n",
    "/* block */",
    "/* nested /* deeper */ still */",
    "/* unterminated",
    "*/",
    "0x1f_u64",
    "1.5e-3",
    "1.",
    "..",
    "ident_07",
    "r#match",
    "::",
    ";\n",
    "#[cfg(test)]",
    "📦",
    "\\",
    "\u{0}",
];

fn check_spans(src: &str, tokens: &[Token]) -> Result<(), TestCaseError> {
    let mut covered = vec![false; src.len()];
    let mut prev_end = 0usize;
    for t in tokens {
        prop_assert!(t.start < t.end, "empty span {}..{}", t.start, t.end);
        prop_assert!(
            t.end <= src.len(),
            "span {}..{} out of bounds",
            t.start,
            t.end
        );
        prop_assert!(
            t.start >= prev_end,
            "overlap: token at {} starts before {}",
            t.start,
            prev_end
        );
        prop_assert!(src.is_char_boundary(t.start) && src.is_char_boundary(t.end));
        for c in covered.iter_mut().take(t.end).skip(t.start) {
            *c = true;
        }
        prev_end = t.end;
    }
    for (i, ch) in src.char_indices() {
        prop_assert!(
            covered[i] || ch.is_whitespace(),
            "char at byte {i} ({ch:?}) neither tokenized nor whitespace"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn arbitrary_bytes_never_panic_and_spans_behave(
        bytes in prop::collection::vec(0u8..=255u8, 0..200)
    ) {
        let src = String::from_utf8_lossy(&bytes).into_owned();
        let tokens = lex(&src);
        check_spans(&src, &tokens)?;
    }

    #[test]
    fn rustish_fragment_soup_never_panics_and_spans_behave(
        picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..40)
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let tokens = lex(&src);
        check_spans(&src, &tokens)?;
    }
}
