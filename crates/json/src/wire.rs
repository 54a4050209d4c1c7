//! The wire codec: every durable payload is encoded from its field
//! list, and the JSON form of a field is a function of its *type*.
//!
//! | Rust type | JSON form | why |
//! |---|---|---|
//! | `u64`, `f64` | 16-digit lowercase hex string of the bit pattern | a `Num` is an `f64`: integers above 2^53 lose bits, non-finite floats print as `null`, and a decimal float round trip is not bit-exact |
//! | `usize`, `u32`, `u16` | `Num`, range-checked on decode | counts and indices, far below 2^53, readable in a state file |
//! | `bool`, `String` | `Bool`, `Str` | |
//! | `Option<T>` | `null` or `T`'s form | |
//! | `Vec<T>` | array | |
//! | `(A, B)` | 2-element array | |
//! | [`wire_record!`] struct | object, keys in field-list order | the printer keeps insertion order, so the bytes are canonical |
//! | [`wire_names!`] unit enum | `Str` of its `name()` | |
//! | [`wire_tagged!`] enum | object led by `"kind"` | |
//!
//! A record's codec *is* its field list: `wire_record!(T { a, b })`
//! writes `{"a": …, "b": …}` and reads the same keys back, so a field is
//! named once and adding one is one word. A field whose type cannot
//! implement [`Wire`] here names its two functions instead:
//! `c: with(enc_fn, dec_fn)`.
//!
//! That is how the id newtypes (`VhoId`, `VideoId`) travel. They live in
//! `vod-model`, which this crate does not depend on, and a new edge
//! between the two crates would rewrite the standalone benchmark's
//! lockfile; so `vod-core` and `vod-ops` keep 3-line `vho_*` / `video_*`
//! adapters and compose them with [`enc_seq`], [`enc_pair`],
//! [`dec_seq`] and [`dec_pair`] — the same functions `Vec<T>` and
//! `(A, B)` are written with.
//!
//! Encoding has one emitter and two sinks. A type writes its form once,
//! as [`Sink`] events ([`Wire::emit`]); what the events become is the
//! sink's business. [`PrettyText`] prints them — the bytes
//! [`Value::to_string_pretty`] would print for the same document, with
//! no document built — and is how every snapshot is written
//! ([`Wire::text`]). [`Tree`] builds the [`Value`] ([`Wire::enc`]), for
//! the callers that want to look inside one. Both are provided methods
//! over `emit`, so a type cannot print one form and build another.
//!
//! Decoding never panics. A [`WireError`] says what was expected and
//! where: `records[3].sim.max_gbps: expected a 16-digit hex string`.
//! The path is assembled on the way *out* of a failed decode, one
//! segment per level, so a successful decode builds no string. Keys a
//! record does not list are ignored; integrity is the snapshot
//! container's checksum, not the codec's job.

use crate::snapshot::{hex_u64, u64_bits_value};
use crate::{push_indent, write_escaped, write_number, Value};
use std::fmt;

/// A type with one JSON form, fixed by the table in the module doc.
pub trait Wire: Sized {
    /// Write the form into `out`, one event per node.
    fn emit<S: Sink>(&self, out: &mut S);

    fn dec(v: &Value) -> Result<Self, WireError>;

    /// The form as a document.
    fn enc(&self) -> Value {
        let mut tree = Tree::default();
        self.emit(&mut tree);
        tree.finish()
    }

    /// The form as text: `self.enc().to_string_pretty()`, byte for
    /// byte, without the document in between.
    fn text(&self) -> String {
        let mut text = PrettyText::default();
        self.emit(&mut text);
        text.finish()
    }
}

/// What an encoder writes to: the nodes of one JSON document, in
/// document order. A container is its `begin_*`, its items (each led by
/// [`Sink::key`] in an object), and its `end_*`.
pub trait Sink {
    fn null(&mut self);
    fn bool(&mut self, b: bool);
    fn num(&mut self, x: f64);
    fn str(&mut self, s: &str);
    /// A bit pattern as its 16-digit lowercase hex string.
    fn hex(&mut self, bits: u64);
    fn begin_arr(&mut self);
    fn end_arr(&mut self);
    fn begin_obj(&mut self);
    /// The key of the value that follows.
    fn key(&mut self, k: &str);
    fn end_obj(&mut self);
}

/// The sink that prints: two-space indentation, one item per line,
/// `[]` and `{}` for empty containers — [`Value::to_string_pretty`]'s
/// layout, which the golden files pin.
#[derive(Debug, Default)]
pub struct PrettyText {
    out: String,
    /// One entry per open container: has it an item yet?
    open: Vec<bool>,
    /// The last event was a key, so the next value continues its line.
    keyed: bool,
}

impl PrettyText {
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    /// Start a container item on its own line, after a comma unless it
    /// is the first.
    fn item(&mut self) {
        if let Some(has_items) = self.open.last_mut() {
            if std::mem::replace(has_items, true) {
                self.out.push(',');
            }
            self.out.push('\n');
            push_indent(&mut self.out, self.open.len());
        }
    }

    fn value(&mut self) {
        if !std::mem::take(&mut self.keyed) {
            self.item();
        }
    }

    fn begin(&mut self, bracket: char) {
        self.value();
        self.out.push(bracket);
        self.open.push(false);
    }

    fn end(&mut self, bracket: char) {
        if self.open.pop() == Some(true) {
            self.out.push('\n');
            push_indent(&mut self.out, self.open.len());
        }
        self.out.push(bracket);
    }
}

impl Sink for PrettyText {
    fn null(&mut self) {
        self.value();
        self.out.push_str("null");
    }
    fn bool(&mut self, b: bool) {
        self.value();
        self.out.push_str(if b { "true" } else { "false" });
    }
    fn num(&mut self, x: f64) {
        self.value();
        write_number(&mut self.out, x);
    }
    fn str(&mut self, s: &str) {
        self.value();
        write_escaped(&mut self.out, s);
    }
    fn hex(&mut self, bits: u64) {
        self.value();
        // A checkpoint is mostly these: one 18-byte push per number,
        // no formatter and no allocation.
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut quoted = [b'"'; 18];
        for (pair, byte) in quoted[1..17].chunks_exact_mut(2).zip(bits.to_be_bytes()) {
            pair[0] = DIGITS[usize::from(byte >> 4)];
            pair[1] = DIGITS[usize::from(byte & 0xf)];
        }
        // ASCII by construction.
        self.out
            .push_str(std::str::from_utf8(&quoted).unwrap_or_default());
    }
    fn begin_arr(&mut self) {
        self.begin('[');
    }
    fn end_arr(&mut self) {
        self.end(']');
    }
    fn begin_obj(&mut self) {
        self.begin('{');
    }
    fn key(&mut self, k: &str) {
        self.item();
        write_escaped(&mut self.out, k);
        self.out.push_str(": ");
        self.keyed = true;
    }
    fn end_obj(&mut self) {
        self.end('}');
    }
}

/// The sink that builds the [`Value`].
#[derive(Debug, Default)]
pub struct Tree {
    /// Open containers, innermost last, each with the key it will be
    /// stored under once closed.
    open: Vec<(Option<String>, Value)>,
    key: Option<String>,
    root: Option<Value>,
}

impl Tree {
    /// The document; `Null` when nothing was emitted.
    #[must_use]
    pub fn finish(self) -> Value {
        self.root.unwrap_or(Value::Null)
    }

    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            Some((_, Value::Arr(items))) => items.push(v),
            Some((_, Value::Obj(fields))) => {
                fields.push((self.key.take().unwrap_or_default(), v));
            }
            _ => self.root = Some(v),
        }
    }

    fn begin(&mut self, empty: Value) {
        self.open.push((self.key.take(), empty));
    }

    fn end(&mut self) {
        if let Some((key, v)) = self.open.pop() {
            self.key = key;
            self.put(v);
        }
    }
}

impl Sink for Tree {
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn num(&mut self, x: f64) {
        self.put(Value::Num(x));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()));
    }
    fn hex(&mut self, bits: u64) {
        self.put(u64_bits_value(bits));
    }
    fn begin_arr(&mut self) {
        self.begin(Value::Arr(Vec::new()));
    }
    fn end_arr(&mut self) {
        self.end();
    }
    fn begin_obj(&mut self) {
        self.begin(Value::Obj(Vec::new()));
    }
    fn key(&mut self, k: &str) {
        self.key = Some(k.to_string());
    }
    fn end_obj(&mut self) {
        self.end();
    }
}

/// Why a decode failed, and at which node of the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// `records[3].sim.max_gbps`; empty at the document root.
    pub path: String,
    pub what: String,
}

impl WireError {
    pub fn new(what: impl Into<String>) -> Self {
        Self {
            path: String::new(),
            what: what.into(),
        }
    }

    /// The failing node sits under object key `key`.
    #[must_use]
    pub fn in_field(self, key: &str) -> Self {
        self.under(format_args!("{key}"))
    }

    /// The failing node sits under array index `i`.
    #[must_use]
    pub fn in_index(self, i: usize) -> Self {
        self.under(format_args!("[{i}]"))
    }

    fn under(mut self, outer: fmt::Arguments<'_>) -> Self {
        let dot = if self.path.is_empty() || self.path.starts_with('[') {
            ""
        } else {
            "."
        };
        self.path = format!("{outer}{dot}{}", self.path);
        self
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.what)
        } else {
            write!(f, "{}: {}", self.path, self.what)
        }
    }
}

impl std::error::Error for WireError {}

/// Decode the value under `key` of object `obj` with `dec`.
pub fn field<'a, T>(
    obj: &'a Value,
    key: &str,
    dec: impl FnOnce(&'a Value) -> Result<T, WireError>,
) -> Result<T, WireError> {
    match (obj, obj.get(key)) {
        (_, Some(v)) => dec(v).map_err(|e| e.in_field(key)),
        (Value::Obj(_), None) => Err(WireError::new("missing field").in_field(key)),
        _ => Err(WireError::new("expected an object")),
    }
}

/// The string behind a `Str`.
pub fn str_of(v: &Value) -> Result<&str, WireError> {
    v.as_str()
        .ok_or_else(|| WireError::new("expected a string"))
}

/// An array of `enc`-encoded items.
pub fn enc_seq<T, S: Sink>(xs: &[T], out: &mut S, enc: impl Fn(&T, &mut S)) {
    out.begin_arr();
    for x in xs {
        enc(x, out);
    }
    out.end_arr();
}

/// A 2-element array of what `a` and `b` emit.
pub fn enc_pair<S: Sink>(out: &mut S, a: impl FnOnce(&mut S), b: impl FnOnce(&mut S)) {
    out.begin_arr();
    a(out);
    b(out);
    out.end_arr();
}

/// Decode an array item by item.
pub fn dec_seq<T>(
    v: &Value,
    dec: impl Fn(&Value) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    v.as_arr()
        .ok_or_else(|| WireError::new("expected an array"))?
        .iter()
        .enumerate()
        .map(|(i, x)| dec(x).map_err(|e| e.in_index(i)))
        .collect()
}

/// Decode an array of exactly two items.
pub fn dec_pair<A, B>(
    v: &Value,
    dec_a: impl FnOnce(&Value) -> Result<A, WireError>,
    dec_b: impl FnOnce(&Value) -> Result<B, WireError>,
) -> Result<(A, B), WireError> {
    match v.as_arr() {
        Some([a, b]) => Ok((
            dec_a(a).map_err(|e| e.in_index(0))?,
            dec_b(b).map_err(|e| e.in_index(1))?,
        )),
        _ => Err(WireError::new("expected a 2-element array")),
    }
}

fn bits_of(v: &Value) -> Result<u64, WireError> {
    hex_u64(v).ok_or_else(|| WireError::new("expected a 16-digit hex string"))
}

impl Wire for u64 {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.hex(*self);
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        bits_of(v)
    }
}

impl Wire for f64 {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.hex(self.to_bits());
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        bits_of(v).map(f64::from_bits)
    }
}

fn num_of<T: TryFrom<usize>>(v: &Value, what: &str) -> Result<T, WireError> {
    v.as_usize()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| WireError::new(what))
}

macro_rules! wire_num {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn emit<S: Sink>(&self, out: &mut S) {
                out.num(*self as f64);
            }
            fn dec(v: &Value) -> Result<Self, WireError> {
                num_of(v, concat!("expected a ", stringify!($t)))
            }
        }
    )*};
}

wire_num!(usize, u32, u16);

impl Wire for bool {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.bool(*self);
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        v.as_bool().ok_or_else(|| WireError::new("expected a bool"))
    }
}

impl Wire for String {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.str(self);
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        str_of(v).map(str::to_string)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn emit<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.null(),
            Some(x) => x.emit(out),
        }
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        match v {
            Value::Null => Ok(None),
            some => T::dec(some).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn emit<S: Sink>(&self, out: &mut S) {
        enc_seq(self, out, T::emit);
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        dec_seq(v, T::dec)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn emit<S: Sink>(&self, out: &mut S) {
        enc_pair(out, |out| self.0.emit(out), |out| self.1.emit(out));
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        dec_pair(v, A::dec, B::dec)
    }
}

/// `wire_record!(T { a, b, c: with(enc_fn, dec_fn) })`: [`Wire`] for
/// struct `T` as an object whose keys are the listed fields, in order.
/// `enc_fn: fn(&C, &mut impl Sink)`, `dec_fn: fn(&Value) -> Result<C, WireError>`.
#[macro_export]
macro_rules! wire_record {
    ($t:ty { $($f:ident $(: with($enc:expr, $dec:expr))?),+ $(,)? }) => {
        impl $crate::wire::Wire for $t {
            fn emit<S: $crate::wire::Sink>(&self, out: &mut S) {
                out.begin_obj();
                $(
                    out.key(stringify!($f));
                    $crate::wire_record!(@enc self.$f, out $(, $enc)?);
                )+
                out.end_obj();
            }
            fn dec(v: &$crate::Value) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {$(
                    $f: $crate::wire::field(v, stringify!($f), $crate::wire_record!(@dec $($dec)?))?,
                )+})
            }
        }
    };
    (@enc $x:expr, $out:ident) => { $crate::wire::Wire::emit(&$x, $out) };
    (@enc $x:expr, $out:ident, $enc:expr) => { $enc(&$x, $out) };
    (@dec) => { $crate::wire::Wire::dec };
    (@dec $dec:expr) => { $dec };
}

/// `wire_names!(T)`: [`Wire`] for a unit enum with `name(self) ->
/// &'static str` and `from_name(&str) -> Option<Self>`, as that name.
#[macro_export]
macro_rules! wire_names {
    ($t:ty) => {
        impl $crate::wire::Wire for $t {
            fn emit<S: $crate::wire::Sink>(&self, out: &mut S) {
                out.str(self.name());
            }
            fn dec(v: &$crate::Value) -> Result<Self, $crate::wire::WireError> {
                let name = $crate::wire::str_of(v)?;
                <$t>::from_name(name)
                    .ok_or_else(|| $crate::wire::WireError::new(format!("unknown name {name:?}")))
            }
        }
    };
}

/// `wire_tagged!(T { "tag" => Variant { a, b }, … })`: [`Wire`] for an
/// enum of struct variants, as an object led by `"kind": "tag"` and
/// followed by the variant's fields in order.
#[macro_export]
macro_rules! wire_tagged {
    ($t:ty { $($tag:literal => $variant:ident { $($f:ident),* $(,)? }),+ $(,)? }) => {
        impl $crate::wire::Wire for $t {
            fn emit<S: $crate::wire::Sink>(&self, out: &mut S) {
                out.begin_obj();
                out.key("kind");
                match self {$(
                    Self::$variant { $($f),* } => {
                        out.str($tag);
                        $(
                            out.key(stringify!($f));
                            $crate::wire::Wire::emit($f, out);
                        )*
                    }
                )+}
                out.end_obj();
            }
            fn dec(v: &$crate::Value) -> Result<Self, $crate::wire::WireError> {
                match $crate::wire::field(v, "kind", $crate::wire::str_of)? {
                    $($tag => Ok(Self::$variant {$(
                        $f: $crate::wire::field(v, stringify!($f), $crate::wire::Wire::dec)?,
                    )*}),)+
                    other => Err($crate::wire::WireError::new(format!("unknown kind {other:?}"))
                        .in_field("kind")),
                }
            }
        }
    };
}
