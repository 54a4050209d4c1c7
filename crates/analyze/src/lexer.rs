//! A total, span-preserving Rust lexer.
//!
//! This is the foundation every pass shares. It is *total*: any input string produces a
//! token stream, never a panic, and the spans of the produced tokens
//! are non-overlapping, strictly increasing, char-boundary aligned,
//! and together cover every non-whitespace byte of the input. Those
//! four properties are what `tests/lexer_props.rs` pins.
//!
//! The lexer understands the constructs that made the old line-oriented
//! comment stripper lie:
//!
//! - string literals with escapes (`"a \" b"`), raw strings with any
//!   hash depth (`r#"..."#`), byte/C-string prefixes (`b"", br#""#,
//!   c"", cr#""#`),
//! - char and byte-char literals (`'a'`, `'\n'`, `b'x'`) vs lifetimes
//!   (`'a`, `'static`),
//! - nested block comments (`/* outer /* inner */ still comment */`),
//! - line comments, including doc comments.
//!
//! Malformed input (unterminated strings/comments, stray quotes) is
//! lexed leniently: the unterminated token runs to end of input. For a
//! static analyzer that must never take the build down, graceful
//! over-approximation beats precision.

/// What a [`Token`] is. Keywords are `Ident`s (the parser layer
/// distinguishes them by text); all string-like literals collapse into
/// `Str` because every pass treats their contents as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `HashMap`, `r#match`, ...).
    Ident,
    /// Lifetime or loop label (`'a`, `'static`, `'outer`).
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffix).
    Number,
    /// String-like literal: `"..."`, `r#"..."#`, `b"..."`, `c"..."`.
    Str,
    /// Char-like literal: `'a'`, `'\n'`, `b'x'`.
    Char,
    /// `// ...` (incl. `///` and `//!`), newline excluded.
    LineComment,
    /// `/* ... */`, nesting-aware, terminator included when present.
    BlockComment,
    /// Any other single non-whitespace character.
    Punct,
}

/// One token: a kind plus a byte span into the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    pub kind: TokenKind,
    pub start: usize,
    pub end: usize,
}

impl Token {
    /// The token's text within the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }

    /// Comments are trivia: skipped by the item parser, scanned for
    /// `lint:allow` annotations.
    pub fn is_trivia(&self) -> bool {
        matches!(self.kind, TokenKind::LineComment | TokenKind::BlockComment)
    }
}

struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn peek2(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next()
    }

    fn peek3(&self) -> Option<char> {
        let mut it = self.src[self.pos..].chars();
        it.next();
        it.next();
        it.next()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn eat_while(&mut self, f: impl Fn(char) -> bool) {
        while let Some(c) = self.peek() {
            if !f(c) {
                break;
            }
            self.pos += c.len_utf8();
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.src[self.pos..].starts_with(s)
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lex `src` into a complete token stream (whitespace omitted).
pub fn lex(src: &str) -> Vec<Token> {
    let mut c = Cursor { src, pos: 0 };
    let mut out = Vec::new();
    while let Some(ch) = c.peek() {
        if ch.is_whitespace() {
            c.bump();
            continue;
        }
        let start = c.pos;
        let kind = if ch == '/' && c.peek2() == Some('/') {
            c.eat_while(|x| x != '\n');
            TokenKind::LineComment
        } else if ch == '/' && c.peek2() == Some('*') {
            eat_block_comment(&mut c);
            TokenKind::BlockComment
        } else if is_ident_start(ch) {
            lex_ident_or_prefixed(&mut c)
        } else if ch.is_ascii_digit() {
            eat_number(&mut c);
            TokenKind::Number
        } else if ch == '"' {
            eat_string(&mut c);
            TokenKind::Str
        } else if ch == '\'' {
            c.bump();
            lex_char_or_lifetime(&mut c)
        } else {
            c.bump();
            TokenKind::Punct
        };
        // Totality guard: every branch above must consume at least one
        // char; if one ever fails to, skip a char rather than loop.
        if c.pos == start {
            c.bump();
        }
        out.push(Token {
            kind,
            start,
            end: c.pos,
        });
    }
    out
}

/// An identifier, or a string/char literal introduced by a prefix
/// (`r`, `b`, `br`, `c`, `cr`, or raw identifiers `r#ident`).
fn lex_ident_or_prefixed(c: &mut Cursor<'_>) -> TokenKind {
    let start = c.pos;
    c.eat_while(is_ident_continue);
    let text = &c.src[start..c.pos];
    match (text, c.peek()) {
        ("r" | "b" | "br" | "c" | "cr", Some('"')) => {
            if text.contains('r') && text != "b" {
                eat_raw_string(c, 0)
            } else {
                eat_string(c);
            }
            TokenKind::Str
        }
        ("r" | "br" | "cr", Some('#')) => {
            // Raw string with hashes — or a raw identifier (`r#match`).
            let mut hashes = 0usize;
            let mut it = c.src[c.pos..].chars();
            loop {
                match it.next() {
                    Some('#') => hashes += 1,
                    Some('"') => {
                        eat_raw_string(c, hashes);
                        return TokenKind::Str;
                    }
                    Some(x) if text == "r" && hashes == 1 && is_ident_start(x) => {
                        // Raw identifier: consume `#` + ident.
                        c.bump();
                        c.eat_while(is_ident_continue);
                        return TokenKind::Ident;
                    }
                    _ => return TokenKind::Ident,
                }
            }
        }
        ("b", Some('\'')) => {
            c.bump();
            lex_char_or_lifetime(c);
            // A byte "lifetime" (`b'x` with no close) is not valid
            // Rust; classify the whole prefixed token as Char either
            // way — passes only care that the contents are opaque.
            TokenKind::Char
        }
        _ => TokenKind::Ident,
    }
}

/// Consume a `"..."` string body starting at the opening quote.
fn eat_string(c: &mut Cursor<'_>) {
    c.bump(); // opening quote
    while let Some(x) = c.bump() {
        match x {
            '\\' => {
                c.bump();
            }
            '"' => return,
            _ => {}
        }
    }
}

/// Consume `#*hashes "..." "#*hashes` starting at the first `#` (or at
/// the quote when `hashes == 0`).
fn eat_raw_string(c: &mut Cursor<'_>, hashes: usize) {
    for _ in 0..hashes {
        c.bump(); // '#'
    }
    c.bump(); // opening quote
    let closer: String = std::iter::once('"')
        .chain("#".repeat(hashes).chars())
        .collect();
    while c.pos < c.src.len() {
        if c.starts_with(&closer) {
            for _ in 0..=hashes {
                c.bump();
            }
            return;
        }
        c.bump();
    }
}

/// Consume a nested `/* ... */` comment starting at the `/`.
fn eat_block_comment(c: &mut Cursor<'_>) {
    c.bump(); // '/'
    c.bump(); // '*'
    let mut depth = 1usize;
    while depth > 0 {
        if c.starts_with("/*") {
            depth += 1;
            c.bump();
            c.bump();
        } else if c.starts_with("*/") {
            depth -= 1;
            c.bump();
            c.bump();
        } else if c.bump().is_none() {
            return;
        }
    }
}

/// Consume a numeric literal starting at its first digit.
fn eat_number(c: &mut Cursor<'_>) {
    c.eat_while(is_ident_continue);
    // Fractional part: only when followed by a digit (`1.5`, not `1..4`
    // and not `1.max(2)`).
    if c.peek() == Some('.') && c.peek2().is_some_and(|x| x.is_ascii_digit()) {
        c.bump();
        c.eat_while(is_ident_continue);
    }
    // Signed exponent: `1e-5`, `2.5E+10` (the unsigned form was already
    // swallowed by the ident-continue runs above).
    let prev_is_exp = c.src[..c.pos].ends_with(['e', 'E']);
    if prev_is_exp
        && matches!(c.peek(), Some('+' | '-'))
        && c.peek2().is_some_and(|x| x.is_ascii_digit())
    {
        c.bump();
        c.eat_while(is_ident_continue);
    }
}

/// After an opening `'` has been consumed: decide between a char
/// literal, a lifetime/label, or a stray quote.
fn lex_char_or_lifetime(c: &mut Cursor<'_>) -> TokenKind {
    match c.peek() {
        // Escape sequence: consume through the closing quote (or give
        // up at end of line / input for malformed literals).
        Some('\\') => {
            c.bump();
            c.bump(); // the escaped char
            while let Some(x) = c.peek() {
                if x == '\'' {
                    c.bump();
                    break;
                }
                if x == '\n' {
                    break;
                }
                c.bump();
            }
            TokenKind::Char
        }
        // `''` — empty char literal (invalid Rust, lexed leniently).
        Some('\'') => {
            c.bump();
            TokenKind::Char
        }
        Some(x) if is_ident_continue(x) => {
            if c.peek2() == Some('\'') && c.peek3() != Some('\'') {
                // 'a' — but not 'a'' (label followed by char? lex the
                // simple thing: 'a' as the char).
                c.bump();
                c.bump();
                TokenKind::Char
            } else if c.peek2() == Some('\'') {
                c.bump();
                c.bump();
                TokenKind::Char
            } else {
                // Lifetime or loop label.
                c.eat_while(is_ident_continue);
                TokenKind::Lifetime
            }
        }
        // '(' + ')' + quote etc: a one-char literal like '(' if the
        // closing quote is right there, else a stray quote.
        Some(_) if c.peek2() == Some('\'') => {
            c.bump();
            c.bump();
            TokenKind::Char
        }
        _ => TokenKind::Punct,
    }
}

/// Byte offsets of line starts; `line_of` maps a span offset to a
/// 1-based line number with a binary search.
#[derive(Debug, Clone)]
pub struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        Self { starts }
    }

    pub fn line_of(&self, offset: usize) -> usize {
        self.starts.partition_point(|&s| s <= offset)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src)
            .iter()
            .map(|t| (t.kind, t.text(src).to_string()))
            .collect()
    }

    #[test]
    fn lexes_plain_code() {
        let got = kinds("fn f(x: u32) -> u32 { x + 1 }");
        let texts: Vec<&str> = got.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(
            texts,
            ["fn", "f", "(", "x", ":", "u32", ")", "-", ">", "u32", "{", "x", "+", "1", "}"]
        );
        assert_eq!(got[0].0, TokenKind::Ident);
        assert_eq!(got[13].0, TokenKind::Number);
    }

    #[test]
    fn strings_are_single_tokens() {
        let got = kinds(r#"let s = "Instant::now() \" quoted";"#);
        assert_eq!(got.iter().filter(|(k, _)| *k == TokenKind::Str).count(), 1);
        let s = got
            .iter()
            .find(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t.clone());
        assert_eq!(s.as_deref(), Some(r#""Instant::now() \" quoted""#));
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"contains "quotes" and HashMap"#;"###;
        let got = kinds(src);
        let s: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Str)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(s, [r###"r#"contains "quotes" and HashMap"#"###]);
    }

    #[test]
    fn byte_and_c_strings() {
        for src in [
            "b\"bytes\"",
            "br#\"raw bytes\"#",
            "c\"cstr\"",
            "cr#\"raw c\"#",
        ] {
            let got = kinds(src);
            assert_eq!(got.len(), 1, "{src}");
            assert_eq!(got[0].0, TokenKind::Str, "{src}");
            assert_eq!(got[0].1, src, "{src}");
        }
    }

    #[test]
    fn raw_identifiers() {
        let got = kinds("let r#match = 1;");
        assert!(got
            .iter()
            .any(|(k, t)| *k == TokenKind::Ident && t == "r#match"));
    }

    #[test]
    fn chars_vs_lifetimes() {
        let got = kinds(r"let c = 'a'; let e = '\n'; fn f<'a>(x: &'a str) {} 'outer: loop {}");
        let chars: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Char)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(chars, ["'a'", r"'\n'"]);
        let lifetimes: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(lifetimes, ["'a", "'a", "'outer"]);
    }

    #[test]
    fn byte_char_literal() {
        let got = kinds("self.expect(b'[')?;");
        assert!(got
            .iter()
            .any(|(k, t)| *k == TokenKind::Char && t == "b'['"));
    }

    #[test]
    fn nested_block_comments() {
        let src = "/* outer /* inner */ still comment */ fn f() {}";
        let got = kinds(src);
        assert_eq!(got[0].0, TokenKind::BlockComment);
        assert_eq!(got[0].1, "/* outer /* inner */ still comment */");
        assert_eq!(got[1].1, "fn");
    }

    #[test]
    fn unterminated_constructs_run_to_eof() {
        for src in ["\"never closed", "/* never closed", "r#\"never closed"] {
            let got = lex(src);
            assert_eq!(got.len(), 1, "{src}");
            assert_eq!(got[0].end, src.len(), "{src}");
        }
    }

    #[test]
    fn numbers_with_exponents_and_suffixes() {
        let got = kinds("1.5e-3 + 0xFF_u32 + 2.5E+10 + 1_000usize");
        let nums: Vec<&str> = got
            .iter()
            .filter(|(k, _)| *k == TokenKind::Number)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(nums, ["1.5e-3", "0xFF_u32", "2.5E+10", "1_000usize"]);
    }

    #[test]
    fn range_dots_are_not_swallowed() {
        let got = kinds("for i in 0..10 {}");
        let texts: Vec<&str> = got.iter().map(|(_, t)| t.as_str()).collect();
        assert_eq!(texts, ["for", "i", "in", "0", ".", ".", "10", "{", "}"]);
    }

    #[test]
    fn line_index_maps_offsets() {
        let src = "a\nbb\nccc\n";
        let idx = LineIndex::new(src);
        assert_eq!(idx.line_of(0), 1);
        assert_eq!(idx.line_of(2), 2);
        assert_eq!(idx.line_of(5), 3);
    }
}
