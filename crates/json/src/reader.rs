//! The crate's one JSON tokenizer: a pull reader over a document's
//! bytes.
//!
//! The caller says what it expects next — a value of some kind, the
//! next item of the open array, the next key of the open object — and
//! the reader checks the syntax on the way, one byte at a time.
//! [`Value::parse`](crate::Value::parse) builds its tree from these
//! calls, and every [`Wire`](crate::wire::Wire) type reads its form
//! from them with no tree in between. Strings come back borrowed from
//! the input unless they hold an escape, so a key or a hex number costs
//! no allocation.
//!
//! The input is bytes, not `&str`: outside string literals only ASCII
//! is valid JSON, and each literal is checked for UTF-8 as it is read,
//! so a payload read from disk needs no separate UTF-8 pass.
//!
//! Nesting is bounded by [`MAX_DEPTH`]. `Value::parse` recurses once
//! per level, and a snapshot's checksum can be forged, so an unbounded
//! depth would let one crafted file overflow the stack — an abort where
//! every reader promises a typed error.

use crate::JsonError;
use std::borrow::Cow;

/// The deepest nesting a document may have. The deepest wire form, a
/// client's `(VHO, weight)` pair in the deployed placement's routing
/// inside `service.state`, sits 8 containers down.
pub const MAX_DEPTH: usize = 128;

/// What the next value is, by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    Null,
    Bool,
    Num,
    Str,
    Arr,
    Obj,
}

/// A position in a document, and the containers open around it.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
    /// The innermost open container has not been asked for an item yet.
    fresh: bool,
}

impl<'a> Reader<'a> {
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn byte(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.byte() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// The kind of the next value, after skipping the layout before it.
    pub fn peek(&mut self) -> Result<Next, JsonError> {
        self.skip_ws();
        match self.byte() {
            Some(b'n') => Ok(Next::Null),
            Some(b't' | b'f') => Ok(Next::Bool),
            Some(b'"') => Ok(Next::Str),
            Some(b'[') => Ok(Next::Arr),
            Some(b'{') => Ok(Next::Obj),
            Some(c) if c == b'-' || c.is_ascii_digit() => Ok(Next::Num),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// The next value is `null`, and is stepped over.
    pub fn null(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        self.literal("null")
    }

    pub fn bool(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let b = self.byte() == Some(b't');
        self.literal(if b { "true" } else { "false" })?;
        Ok(b)
    }

    fn literal(&mut self, word: &str) -> Result<(), JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    pub fn num(&mut self) -> Result<f64, JsonError> {
        self.skip_ws();
        let start = self.pos;
        if self.byte() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.byte(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|text| text.parse::<f64>().ok())
            .ok_or_else(|| self.err("invalid number"))
    }

    /// A string literal: borrowed from the input when it holds no
    /// escape.
    pub fn str(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.skip_ws();
        self.eat(b'"')?;
        let mut start = self.pos;
        self.plain();
        if self.byte() == Some(b'"') {
            let s = self.utf8(start)?;
            self.pos += 1;
            return Ok(Cow::Borrowed(s));
        }
        let mut s = String::new();
        loop {
            s.push_str(self.utf8(start)?);
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(s));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    self.escape(&mut s)?;
                }
                _ => return Err(self.err("unterminated string")),
            }
            start = self.pos;
            self.plain();
        }
    }

    /// Step over a run of bytes that stand for themselves in a string.
    fn plain(&mut self) {
        while matches!(self.byte(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
            self.pos += 1;
        }
    }

    fn utf8(&self, start: usize) -> Result<&'a str, JsonError> {
        let bytes = self.bytes;
        std::str::from_utf8(&bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in string"))
    }

    /// The escape after a backslash, pushed onto `s`.
    fn escape(&mut self, s: &mut String) -> Result<(), JsonError> {
        let esc = self.byte().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        match esc {
            b'"' => s.push('"'),
            b'\\' => s.push('\\'),
            b'/' => s.push('/'),
            b'n' => s.push('\n'),
            b'r' => s.push('\r'),
            b't' => s.push('\t'),
            b'b' => s.push('\u{0008}'),
            b'f' => s.push('\u{000C}'),
            b'u' => {
                let code = self.hex4()?;
                // Surrogate pairs: JSON escapes astral chars as two
                // \u escapes.
                let c = if (0xD800..0xDC00).contains(&code) {
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let low = self.hex4()?;
                        let combined =
                            0x10000 + ((code - 0xD800) << 10) + (low.wrapping_sub(0xDC00) & 0x3FF);
                        char::from_u32(combined)
                    } else {
                        None
                    }
                } else {
                    char::from_u32(code)
                };
                s.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
            }
            _ => return Err(self.err("unknown escape character")),
        }
        Ok(())
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Open the array that comes next; ask [`Reader::item`] before each
    /// of its items.
    pub fn begin_arr(&mut self) -> Result<(), JsonError> {
        self.enter(b'[')
    }

    /// Open the object that comes next; ask [`Reader::key`] before each
    /// of its values.
    pub fn begin_obj(&mut self) -> Result<(), JsonError> {
        self.enter(b'{')
    }

    fn enter(&mut self, bracket: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.depth == MAX_DEPTH {
            return Err(self.err("containers nested deeper than the depth limit"));
        }
        self.eat(bracket)?;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// Whether the open array has another item. Past its last one, the
    /// array is closed.
    pub fn item(&mut self) -> Result<bool, JsonError> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.byte() {
            Some(b']') => {
                self.close();
                Ok(false)
            }
            Some(b',') if !fresh => {
                self.pos += 1;
                Ok(true)
            }
            _ if fresh => Ok(true),
            _ => Err(self.err("expected ',' or ']' in array")),
        }
    }

    /// The next key of the open object, with its `:` stepped over; the
    /// key's value comes next. Past the last key, the object is closed.
    pub fn key(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        let fresh = std::mem::take(&mut self.fresh);
        match self.byte() {
            Some(b'}') => {
                self.close();
                return Ok(None);
            }
            Some(b',') if !fresh => self.pos += 1,
            _ if fresh => {}
            _ => return Err(self.err("expected ',' or '}' in object")),
        }
        let key = self.str()?;
        self.skip_ws();
        self.eat(b':')?;
        Ok(Some(key))
    }

    fn close(&mut self) {
        self.pos += 1;
        self.depth = self.depth.saturating_sub(1);
    }

    /// Step over the next value, checking its syntax, without building
    /// it. Iterative: a skipped value costs no stack per level.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        let floor = self.depth;
        // Bit `d`: the container open at depth `floor + d + 1` is an
        // object. `MAX_DEPTH` bits cover every level.
        let mut objects = 0u128;
        loop {
            match self.peek()? {
                Next::Null => self.null()?,
                Next::Bool => {
                    self.bool()?;
                }
                Next::Num => {
                    self.num()?;
                }
                Next::Str => {
                    self.str()?;
                }
                Next::Arr => {
                    self.begin_arr()?;
                    objects &= !(1u128 << (self.depth - floor - 1));
                }
                Next::Obj => {
                    self.begin_obj()?;
                    objects |= 1u128 << (self.depth - floor - 1);
                }
            }
            // Close every container that just ended, down to the one
            // with a next value.
            loop {
                if self.depth == floor {
                    return Ok(());
                }
                let more = if objects >> (self.depth - floor - 1) & 1 == 1 {
                    self.key()?.is_some()
                } else {
                    self.item()?
                };
                if more {
                    break;
                }
            }
        }
    }

    /// Nothing but layout is left: the document was one value.
    pub fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_steps_over_one_value_of_any_shape() {
        let doc = br#"[{"a": [1, {"b": null}], "c": "x\"y"}, true, -2.5e3, [], {}] 7"#;
        let mut r = Reader::new(doc);
        r.skip().unwrap();
        assert_eq!(r.num(), Ok(7.0));
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn skip_checks_the_syntax_it_steps_over() {
        for bad in [
            &b"[1,]"[..],
            b"{\"a\" 1}",
            b"[1 2]",
            b"{\"a\":}",
            b"[\"\\q\"]",
            b"[tru]",
        ] {
            assert!(
                Reader::new(bad).skip().is_err(),
                "{}",
                String::from_utf8_lossy(bad)
            );
        }
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut r = Reader::new(br#"["plain", "esc\n\u00e9"]"#);
        r.begin_arr().unwrap();
        assert!(r.item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
        assert!(r.item().unwrap());
        assert!(matches!(r.str().unwrap(), Cow::Owned(s) if s == "esc\n\u{e9}"));
        assert!(!r.item().unwrap());
        assert_eq!(r.end(), Ok(()));
    }

    #[test]
    fn nesting_past_the_limit_is_an_error() {
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert_eq!(Reader::new(at_limit.as_bytes()).skip(), Ok(()));
        let past = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let err = Reader::new(past.as_bytes()).skip().unwrap_err();
        assert_eq!(err.offset, MAX_DEPTH);
        assert!(Reader::new(&[b'['; 100_000]).skip().is_err());
    }
}
