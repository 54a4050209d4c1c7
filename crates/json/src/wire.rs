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
//! adapters and compose them with [`enc_seq`], [`dec_seq`] and
//! [`dec_pair`] — the same functions `Vec<T>` and `(A, B)` are written
//! with.
//!
//! Decoding never panics. A [`WireError`] says what was expected and
//! where: `records[3].sim.max_gbps: expected a 16-digit hex string`.
//! The path is assembled on the way *out* of a failed decode, one
//! segment per level, so a successful decode builds no string. Keys a
//! record does not list are ignored; integrity is the snapshot
//! container's checksum, not the codec's job.

use crate::snapshot::{f64_bits_value, hex_u64, u64_bits_value};
use crate::Value;
use std::fmt;

/// A type with one JSON form, fixed by the table in the module doc.
pub trait Wire: Sized {
    fn enc(&self) -> Value;
    fn dec(v: &Value) -> Result<Self, WireError>;
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
pub fn enc_seq<T>(xs: &[T], enc: impl Fn(&T) -> Value) -> Value {
    Value::Arr(xs.iter().map(enc).collect())
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
    fn enc(&self) -> Value {
        u64_bits_value(*self)
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        bits_of(v)
    }
}

impl Wire for f64 {
    fn enc(&self) -> Value {
        f64_bits_value(*self)
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
            fn enc(&self) -> Value {
                Value::Num(*self as f64)
            }
            fn dec(v: &Value) -> Result<Self, WireError> {
                num_of(v, concat!("expected a ", stringify!($t)))
            }
        }
    )*};
}

wire_num!(usize, u32, u16);

impl Wire for bool {
    fn enc(&self) -> Value {
        Value::Bool(*self)
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        v.as_bool().ok_or_else(|| WireError::new("expected a bool"))
    }
}

impl Wire for String {
    fn enc(&self) -> Value {
        Value::Str(self.clone())
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        str_of(v).map(str::to_string)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn enc(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::enc)
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        match v {
            Value::Null => Ok(None),
            some => T::dec(some).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn enc(&self) -> Value {
        enc_seq(self, T::enc)
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        dec_seq(v, T::dec)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self) -> Value {
        Value::Arr(vec![self.0.enc(), self.1.enc()])
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        dec_pair(v, A::dec, B::dec)
    }
}

/// `wire_record!(T { a, b, c: with(enc_fn, dec_fn) })`: [`Wire`] for
/// struct `T` as an object whose keys are the listed fields, in order.
/// `enc_fn: fn(&C) -> Value`, `dec_fn: fn(&Value) -> Result<C, WireError>`.
#[macro_export]
macro_rules! wire_record {
    ($t:ty { $($f:ident $(: with($enc:expr, $dec:expr))?),+ $(,)? }) => {
        impl $crate::wire::Wire for $t {
            fn enc(&self) -> $crate::Value {
                $crate::Value::Obj(vec![$((
                    stringify!($f).to_string(),
                    $crate::wire_record!(@enc self.$f $(, $enc)?),
                )),+])
            }
            fn dec(v: &$crate::Value) -> Result<Self, $crate::wire::WireError> {
                Ok(Self {$(
                    $f: $crate::wire::field(v, stringify!($f), $crate::wire_record!(@dec $($dec)?))?,
                )+})
            }
        }
    };
    (@enc $x:expr) => { $crate::wire::Wire::enc(&$x) };
    (@enc $x:expr, $enc:expr) => { $enc(&$x) };
    (@dec) => { $crate::wire::Wire::dec };
    (@dec $dec:expr) => { $dec };
}

/// `wire_names!(T)`: [`Wire`] for a unit enum with `name(self) ->
/// &'static str` and `from_name(&str) -> Option<Self>`, as that name.
#[macro_export]
macro_rules! wire_names {
    ($t:ty) => {
        impl $crate::wire::Wire for $t {
            fn enc(&self) -> $crate::Value {
                $crate::Value::Str(self.name().to_string())
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
            fn enc(&self) -> $crate::Value {
                match self {$(
                    Self::$variant { $($f),* } => $crate::Value::Obj(vec![
                        ("kind".to_string(), $crate::Value::Str($tag.to_string())),
                        $((stringify!($f).to_string(), $crate::wire::Wire::enc($f)),)*
                    ]),
                )+}
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
