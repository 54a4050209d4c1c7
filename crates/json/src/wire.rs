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
//! | `Arc<T>` | `T`'s form | a checkpoint shares the solver's iterate |
//! | `(A, B)` | 2-element array | |
//! | [`wire_record!`] struct | object, keys in field-list order | the printer keeps insertion order, so the bytes are canonical |
//! | [`wire_names!`] unit enum | `Str` of its `name()` | |
//! | [`wire_tagged!`] enum | object led by `"kind"` | |
//!
//! A record's codec *is* its field list: `wire_record!(T { a, b })`
//! writes `{"a": …, "b": …}` and reads the same keys back, so a field is
//! named once and adding one is one word. A field whose type cannot
//! implement [`Wire`] here names its two functions instead:
//! `c: with(enc_fn, dec_fn)`, where `dec_fn` reads from a [`Reader`].
//!
//! That is how the id newtypes (`VhoId`, `VideoId`) travel. They live in
//! `vod-model`, which this crate does not depend on, and a new edge
//! between the two crates would rewrite the standalone benchmark's
//! lockfile; so `vod-core` and `vod-ops` keep 3-line `vho_*` / `video_*`
//! adapters and compose them with [`enc_seq`], [`enc_pair`],
//! [`dec_seq`] and [`dec_pair`] — the same functions `Vec<T>` and
//! `(A, B)` are written with.
//!
//! Encoding has one emitter and three sinks. A type writes its form
//! once, as [`Sink`] events ([`Wire::emit`]); what the events become is
//! the sink's business. [`PrettyText`] prints them — the bytes
//! [`Value::to_string_pretty`] would print for the same document, with
//! no document built ([`Wire::text`]) — and is what the golden files pin
//! and `placement_fingerprint` hashes. [`CompactText`] prints the same
//! text without the whitespace outside string literals
//! ([`Wire::compact`]), and is how every snapshot is written: the
//! parser skips layout, and around a checkpoint's `[id, "bits"]` pairs
//! the layout was some 70 % of the bytes. [`Tree`] builds the [`Value`]
//! ([`Wire::enc`]), for the callers that want to look inside one. All
//! three are provided methods over `emit`, so a type cannot print one
//! form and build another.
//!
//! Decoding mirrors encoding: one reader and no document. A type reads
//! its form from the crate's one tokenizer ([`Wire::read`] over a
//! [`Reader`]), asking for the node it expects next, and
//! [`Wire::from_text`] is that read over a whole payload — what every
//! snapshot read calls. A record reads its keys in any order, each into
//! one slot per listed field; a key it does not list is stepped over
//! with its syntax checked, and a repeated key keeps its first value,
//! as [`Value::get`] finds the first. So a read holds the payload's
//! text and the value being decoded, and nothing else: the tree the
//! parser used to build first was some 8 times the size of its text.
//! [`Wire::dec`] remains for callers that already hold a [`Value`]; it
//! reads that document's compact text.
//!
//! Decoding never panics. A [`WireError`] says what was expected and
//! where: `records[3].sim.max_gbps: expected a 16-digit hex string`.
//! The path is assembled on the way *out* of a failed decode, one
//! segment per level, so a successful decode builds no string. The
//! first error in document order is the one reported, whether it is a
//! shape error or a syntax error. Keys a record does not list are
//! ignored; integrity is the snapshot container's checksum, not the
//! codec's job.

use crate::reader::{Next, Reader};
use crate::snapshot::hex_u64;
use crate::{
    exact_usize, push_indent, strip_layout, write_escaped, write_number, JsonError, Value,
};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// A type with one JSON form, fixed by the table in the module doc.
pub trait Wire: Sized {
    /// Write the form into `out`, one event per node.
    fn emit<S: Sink>(&self, out: &mut S);

    /// Read the form of the value that comes next in `r`.
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decode a whole payload: one value, then nothing but layout.
    fn from_text(text: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(text);
        let x = Self::read(&mut r)?;
        r.end()?;
        Ok(x)
    }

    /// Decode a document already built as a [`Value`], by reading its
    /// compact text. No snapshot read takes this path.
    fn dec(v: &Value) -> Result<Self, WireError> {
        Self::from_text(strip_layout(&v.to_string_pretty()).as_bytes())
    }

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

    /// The form as compact text: [`Wire::text`] without the whitespace
    /// outside string literals. What the snapshot writers write.
    fn compact(&self) -> String {
        let mut text = CompactText::default();
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
/// layout, which the golden files pin and `placement_fingerprint`
/// hashes.
pub type PrettyText = Text<true>;

/// The sink that prints compactly: [`PrettyText`]'s text with no
/// newline, no indent and `:` after a key — the pretty text with the
/// whitespace outside string literals removed. What the snapshot
/// writers write.
pub type CompactText = Text<false>;

/// A printing sink, with the pretty layout or none.
#[derive(Debug, Default)]
pub struct Text<const PRETTY: bool> {
    out: String,
    /// One entry per open container: has it an item yet?
    open: Vec<bool>,
    /// The last event was a key, so the next value continues its line.
    keyed: bool,
}

impl<const PRETTY: bool> Text<PRETTY> {
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }

    /// The text printed so far, for a writer that drains it as it goes.
    pub(crate) fn buffer(&mut self) -> &mut String {
        &mut self.out
    }

    /// Start a container item: a comma unless it is the first, then,
    /// pretty, a new line at its depth.
    fn item(&mut self) {
        if let Some(has_items) = self.open.last_mut() {
            if std::mem::replace(has_items, true) {
                self.out.push(',');
            }
            if PRETTY {
                self.out.push('\n');
                push_indent(&mut self.out, self.open.len());
            }
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
        if self.open.pop() == Some(true) && PRETTY {
            self.out.push('\n');
            push_indent(&mut self.out, self.open.len());
        }
        self.out.push(bracket);
    }
}

impl<const PRETTY: bool> Sink for Text<PRETTY> {
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
        self.out.push_str(if PRETTY { ": " } else { ":" });
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
        self.put(Value::Str(format!("{bits:016x}")));
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

/// A syntax error, reported where the read stood when it met it.
impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        Self::new(e.to_string())
    }
}

/// Decode the value under `key` of the document `obj` with `dec`: for
/// callers that hold a [`Value`].
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

/// Read the object that comes next, key by key in document order:
/// `each` reads or steps over the value under each key.
pub fn dec_obj<'a>(
    r: &mut Reader<'a>,
    mut each: impl FnMut(&str, &mut Reader<'a>) -> Result<(), WireError>,
) -> Result<(), WireError> {
    if r.peek()? != Next::Obj {
        return Err(WireError::new("expected an object"));
    }
    r.begin_obj()?;
    while let Some(key) = r.key()? {
        each(&key, r)?;
    }
    Ok(())
}

/// Read the value under `key` into its field's `slot` with `read`, or,
/// when the key is repeated, step over it: the first value wins.
pub fn read_field<'a, T>(
    slot: &mut Option<T>,
    key: &str,
    r: &mut Reader<'a>,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<(), WireError> {
    if slot.is_some() {
        return skip_field(r, key);
    }
    *slot = Some(read(r).map_err(|e| e.in_field(key))?);
    Ok(())
}

/// Step over the value under `key`, checking its syntax.
pub fn skip_field(r: &mut Reader<'_>, key: &str) -> Result<(), WireError> {
    r.skip().map_err(|e| WireError::from(e).in_field(key))
}

/// The value a field's slot took, or the field is missing.
pub fn filled<T>(slot: Option<T>, key: &str) -> Result<T, WireError> {
    slot.ok_or_else(|| WireError::new("missing field").in_field(key))
}

/// The string that comes next; borrowed from the text when it holds no
/// escape.
pub fn str_of<'a>(r: &mut Reader<'a>) -> Result<Cow<'a, str>, WireError> {
    if r.peek()? != Next::Str {
        return Err(WireError::new("expected a string"));
    }
    Ok(r.str()?)
}

/// The `"kind"` of the tagged object that comes next, looked up ahead
/// of the object's other keys; `r` itself does not move.
pub fn kind_of<'a>(r: &Reader<'a>) -> Result<Cow<'a, str>, WireError> {
    crate::wire_fields!(&mut r.clone(), kind: str_of => Ok(kind))
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

/// Read an array item by item.
pub fn dec_seq<'a, T>(
    r: &mut Reader<'a>,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let mut items = Vec::new();
    dec_each(r, |r| {
        items.push(read(r)?);
        Ok(())
    })?;
    Ok(items)
}

/// Read an array item by item into wherever `read` puts them; returns
/// the item count. [`dec_seq`] without the `Vec`, for a decoder that
/// fills a buffer of its own.
pub fn dec_each<'a>(
    r: &mut Reader<'a>,
    mut read: impl FnMut(&mut Reader<'a>) -> Result<(), WireError>,
) -> Result<usize, WireError> {
    if r.peek()? != Next::Arr {
        return Err(WireError::new("expected an array"));
    }
    r.begin_arr()?;
    let mut n = 0;
    while r.item()? {
        read(r).map_err(|e| e.in_index(n))?;
        n += 1;
    }
    Ok(n)
}

/// Read an array of exactly two items.
pub fn dec_pair<'a, A, B>(
    r: &mut Reader<'a>,
    read_a: impl FnOnce(&mut Reader<'a>) -> Result<A, WireError>,
    read_b: impl FnOnce(&mut Reader<'a>) -> Result<B, WireError>,
) -> Result<(A, B), WireError> {
    let not_a_pair = || WireError::new("expected a 2-element array");
    if r.peek()? != Next::Arr {
        return Err(not_a_pair());
    }
    r.begin_arr()?;
    if !r.item()? {
        return Err(not_a_pair());
    }
    let a = read_a(r).map_err(|e| e.in_index(0))?;
    if !r.item()? {
        return Err(not_a_pair());
    }
    let b = read_b(r).map_err(|e| e.in_index(1))?;
    if r.item()? {
        return Err(not_a_pair());
    }
    Ok((a, b))
}

fn bits_of(r: &mut Reader<'_>) -> Result<u64, WireError> {
    let not_hex = || WireError::new("expected a 16-digit hex string");
    if r.peek()? != Next::Str {
        return Err(not_hex());
    }
    hex_u64(&r.str()?).ok_or_else(not_hex)
}

impl Wire for u64 {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.hex(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        bits_of(r)
    }
}

impl Wire for f64 {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.hex(self.to_bits());
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        bits_of(r).map(f64::from_bits)
    }
}

fn num_of<T: TryFrom<usize>>(r: &mut Reader<'_>, what: &str) -> Result<T, WireError> {
    if r.peek()? != Next::Num {
        return Err(WireError::new(what));
    }
    exact_usize(r.num()?)
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| WireError::new(what))
}

macro_rules! wire_num {
    ($($t:ident),*) => {$(
        impl Wire for $t {
            fn emit<S: Sink>(&self, out: &mut S) {
                out.num(*self as f64);
            }
            fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
                num_of(r, concat!("expected a ", stringify!($t)))
            }
        }
    )*};
}

wire_num!(usize, u32, u16);

impl Wire for bool {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.bool(*self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.peek()? != Next::Bool {
            return Err(WireError::new("expected a bool"));
        }
        Ok(r.bool()?)
    }
}

impl Wire for String {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.str(self);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        str_of(r).map(Cow::into_owned)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn emit<S: Sink>(&self, out: &mut S) {
        match self {
            None => out.null(),
            Some(x) => x.emit(out),
        }
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if r.peek()? == Next::Null {
            r.null()?;
            return Ok(None);
        }
        T::read(r).map(Some)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn emit<S: Sink>(&self, out: &mut S) {
        enc_seq(self, out, T::emit);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        dec_seq(r, T::read)
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn emit<S: Sink>(&self, out: &mut S) {
        T::emit(self, out);
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        T::read(r).map(Arc::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn emit<S: Sink>(&self, out: &mut S) {
        enc_pair(out, |out| self.0.emit(out), |out| self.1.emit(out));
    }
    fn read(r: &mut Reader<'_>) -> Result<Self, WireError> {
        dec_pair(r, A::read, B::read)
    }
}

/// `wire_record!(T { a, b, c: with(enc_fn, dec_fn) })`: [`Wire`] for
/// struct `T` as an object whose keys are the listed fields, in order.
/// `enc_fn: fn(&C, &mut impl Sink)`,
/// `dec_fn: fn(&mut Reader) -> Result<C, WireError>`.
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
            fn read(
                r: &mut $crate::reader::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                $crate::wire_fields!(r, $($f: $crate::wire_record!(@dec $($dec)?)),+
                    => Ok(Self { $($f),+ }))
            }
        }
    };
    (@enc $x:expr, $out:ident) => { $crate::wire::Wire::emit(&$x, $out) };
    (@enc $x:expr, $out:ident, $enc:expr) => { $enc(&$x, $out) };
    (@dec) => { $crate::wire::Wire::read };
    (@dec $dec:expr) => { $dec };
}

/// `wire_fields!(r, a: read_a, b: read_b => build)`: read the object
/// that comes next in `r` into one slot per listed key, each with its
/// `read` function, then evaluate `build` with `a` and `b` bound to
/// what was read. Keys come in any order; unlisted ones are stepped
/// over, a repeated one keeps its first value, and a missing one
/// returns its error from the enclosing function. The reader side of
/// every record, for the forms a macro does not write.
#[macro_export]
macro_rules! wire_fields {
    ($r:expr $(, $f:ident: $read:expr)* $(,)? => $build:expr) => {{
        $( let mut $f = None; )*
        $crate::wire::dec_obj($r, |key, r| {
            $(
                if key == stringify!($f) {
                    return $crate::wire::read_field(&mut $f, key, r, $read);
                }
            )*
            $crate::wire::skip_field(r, key)
        })?;
        $( let $f = $crate::wire::filled($f, stringify!($f))?; )*
        $build
    }};
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
            fn read(r: &mut $crate::reader::Reader<'_>) -> Result<Self, $crate::wire::WireError> {
                let name = $crate::wire::str_of(r)?;
                <$t>::from_name(&name)
                    .ok_or_else(|| $crate::wire::WireError::new(format!("unknown name {name:?}")))
            }
        }
    };
}

/// `wire_tagged!(T { "tag" => Variant { a, b }, … })`: [`Wire`] for an
/// enum of struct variants, as an object led by `"kind": "tag"` and
/// followed by the variant's fields in order. A read finds the kind
/// first, wherever it stands, then reads the variant's fields as a
/// record does.
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
            fn read(
                r: &mut $crate::reader::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                match &*$crate::wire::kind_of(r)? {
                    $($tag => $crate::wire_fields!(r $(, $f: $crate::wire::Wire::read)*
                        => Ok(Self::$variant { $($f),* })),)+
                    other => Err($crate::wire::WireError::new(format!("unknown kind {other:?}"))
                        .in_field("kind")),
                }
            }
        }
    };
}
