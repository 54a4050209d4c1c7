//! Minimal JSON support for result files and durable state.
//!
//! The workspace cannot depend on `serde`/`serde_json` (the build
//! environment is fully offline), and its serialization needs are
//! small: write experiment payloads under `results/`, and persist the
//! service's state and the solver's checkpoints so a later process
//! reads back the same bits. This crate provides a [`Value`] tree, a
//! strict recursive-descent parser, a deterministic pretty printer, a
//! one-way [`ToJson`] conversion for the payload shapes the bench
//! binaries produce, the two-way [`wire`] codec every durable payload
//! is written with, the checksummed atomic [`snapshot`] container
//! those payloads travel in, and the injectable I/O [`faults`] shim.
//!
//! Determinism notes:
//! - objects are ordered `Vec<(String, Value)>`, so key order is
//!   exactly insertion order — no hash-map iteration anywhere;
//! - non-finite floats (`NaN`, `±inf`) print as `null`, mirroring
//!   `serde_json`'s rejection of them but without aborting a run whose
//!   tables legitimately contain "not measured" cells.

#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::float_cmp,
        clippy::cast_possible_truncation
    )
)]

use std::fmt::Write as _;

pub mod faults;
pub mod snapshot;
pub mod wire;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All numbers are carried as `f64`; every integer the workspace
    /// serializes fits in the 53-bit exact range.
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered key/value pairs (not a map on purpose).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Look up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// Integer accessor: `Some` only when the number is a non-negative
    /// integer small enough to be represented exactly.
    // Exact-integer check and in-range cast; the comparisons and the
    // cast are the point of this function.
    #[allow(clippy::float_cmp, clippy::cast_possible_truncation)]
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.trunc() == *x && *x < 9.0e15 => Some(*x as usize),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parse a JSON document. Strict: exactly one value, no trailing
    /// garbage, no comments, no trailing commas.
    pub fn parse(s: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(v)
    }

    /// Render with two-space indentation and a trailing newline-free
    /// final line, matching the layout `serde_json::to_string_pretty`
    /// produced for the existing result files.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(x) => write_number(out, *x),
            Value::Str(s) => write_escaped(out, s),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Value::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, levels: usize) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

// The integer fast path needs an exact-value comparison and an
// in-range float-to-int cast; both are guarded.
#[allow(clippy::float_cmp, clippy::cast_possible_truncation)]
fn write_number(out: &mut String, x: f64) {
    if !x.is_finite() {
        // serde_json refuses non-finite floats; result tables use NaN
        // for "not measured", so print the JSON-representable null.
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < 9.0e15 {
        let _ = write!(out, "{}", x as i64);
    } else {
        let _ = write!(out, "{x}");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: copy a run of plain bytes at once.
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.pos += 1;
            }
            if self.pos > start {
                s.push_str(
                    std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid UTF-8 in string"))?,
                );
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
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
                            // Surrogate pairs: JSON escapes astral
                            // chars as two \u escapes.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    let combined = 0x10000
                                        + ((code - 0xD800) << 10)
                                        + (low.wrapping_sub(0xDC00) & 0x3FF);
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
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
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

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

/// Conversion into a [`Value`]. Implemented for the primitive and
/// container shapes the bench payloads use; experiment-specific structs
/// implement it by hand (an `Obj` with their field names).
pub trait ToJson {
    fn to_value(&self) -> Value;
}

impl ToJson for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_value(&self) -> Value {
        Value::Num(*self)
    }
}

macro_rules! int_to_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_value(&self) -> Value {
                Value::Num(*self as f64)
            }
        }
    )*};
}

int_to_json!(u8, u16, u32, u64, usize, i32, i64);

impl ToJson for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(v) => v.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_value).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(ToJson::to_value).collect())
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

macro_rules! tuple_to_json {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: ToJson),+> ToJson for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Arr(vec![$(self.$idx.to_value()),+])
            }
        }
    };
}

tuple_to_json!(A: 0, B: 1);
tuple_to_json!(A: 0, B: 1, C: 2);
tuple_to_json!(A: 0, B: 1, C: 2, D: 3);
tuple_to_json!(A: 0, B: 1, C: 2, D: 3, E: 4);
tuple_to_json!(A: 0, B: 1, C: 2, D: 3, E: 4, F: 5);

/// Shorthand for building an object value in field order.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Render any [`ToJson`] payload with pretty indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(payload: &T) -> String {
    payload.to_value().to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_nested_document() {
        let doc = obj(vec![
            ("title", Value::Str("Table III".into())),
            (
                "rows",
                (vec![
                    (1u32, 2.5f64, "a".to_string()),
                    (2, 3.5, "b\"q\\".to_string()),
                ])
                .to_value(),
            ),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::Obj(vec![])),
            ("flag", Value::Bool(true)),
            ("missing", Value::Null),
        ]);
        let text = doc.to_string_pretty();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!(back.get("title").unwrap().as_str(), Some("Table III"));
        assert_eq!(back.get("flag").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("rows").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn integers_print_without_decimal_point() {
        assert_eq!(Value::Num(3.0).to_string_pretty(), "3");
        assert_eq!(Value::Num(-17.0).to_string_pretty(), "-17");
        assert_eq!(Value::Num(0.5).to_string_pretty(), "0.5");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Value::Num(f64::NAN).to_string_pretty(), "null");
        assert_eq!(Value::Num(f64::INFINITY).to_string_pretty(), "null");
        let payload = vec![(1usize, f64::NAN)];
        assert_eq!(
            to_string_pretty(&payload),
            "[\n  [\n    1,\n    null\n  ]\n]"
        );
    }

    #[test]
    fn option_maps_to_null() {
        let xs: Vec<Option<f64>> = vec![Some(1.5), None];
        let v = xs.to_value();
        assert_eq!(v, Value::Arr(vec![Value::Num(1.5), Value::Null]));
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Value::parse(r#"["a\nb", "A", "😀", "\\"]"#).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("a\nb"));
        assert_eq!(items[1].as_str(), Some("A"));
        assert_eq!(items[2].as_str(), Some("😀"));
        assert_eq!(items[3].as_str(), Some("\\"));
    }

    #[test]
    fn parses_numbers() {
        let v = Value::parse("[0, -1, 2.5, 1e3, -2.5E-2]").unwrap();
        let xs: Vec<f64> = v
            .as_arr()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![0.0, -1.0, 2.5, 1000.0, -0.025]);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "[1] x",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn strict_trailing_garbage_offset() {
        let err = Value::parse("[1] junk").unwrap_err();
        assert_eq!(err.offset, 4);
    }
}
