//! The wire codec's properties, checked once for every payload that is
//! written with it: a value survives encode → decode, a document
//! damaged at any single node decodes to an error that names that node
//! — never a panic, never the original value — and the text an encoder
//! streams is the text its document prints.
//!
//! The sample record nests every form the codec has: all primitive
//! types, `Option`, `Vec`, pairs, a `wire_record!` inside another, a
//! `wire_tagged!` enum, a `wire_names!` enum and an id newtype that
//! travels through `with(…)` adapters like `VhoId` does.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use proptest::prelude::*;
use vod_json::wire::{dec_pair, dec_seq, enc_pair, enc_seq, Sink, Wire, WireError};
use vod_json::{wire_names, wire_record, wire_tagged, Value};

/// An `f64` that compares by bit pattern, so NaN payloads and `-0.0`
/// take part in `==`.
#[derive(Debug, Clone, Copy)]
struct Bits(f64);

impl PartialEq for Bits {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}

impl Wire for Bits {
    fn emit<S: Sink>(&self, out: &mut S) {
        self.0.emit(out);
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        f64::dec(v).map(Bits)
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Color {
    Red,
    Green,
    Blue,
}

impl Color {
    const ALL: [Color; 3] = [Color::Red, Color::Green, Color::Blue];

    fn name(self) -> &'static str {
        match self {
            Color::Red => "red",
            Color::Green => "green",
            Color::Blue => "blue",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|c| c.name() == s)
    }
}

wire_names!(Color);

#[derive(Debug, Clone, PartialEq)]
enum Event {
    Started { at: u64, color: Color },
    Failed { code: u16, why: String },
    Idle {},
}

wire_tagged!(Event {
    "started" => Started { at, color },
    "failed" => Failed { code, why },
    "idle" => Idle {},
});

/// Stand-in for the id newtypes of `vod-model`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Id(u16);

fn id_enc<S: Sink>(i: &Id, out: &mut S) {
    i.0.emit(out);
}

fn id_dec(v: &Value) -> Result<Id, WireError> {
    u16::dec(v).map(Id)
}

type Route = Vec<(Id, Bits)>;

fn route_enc<S: Sink>(r: &Route, out: &mut S) {
    enc_seq(r, out, |(i, x), out| {
        enc_pair(out, |out| id_enc(i, out), |out| x.emit(out));
    });
}

fn route_dec(v: &Value) -> Result<Route, WireError> {
    dec_seq(v, |p| dec_pair(p, id_dec, Bits::dec))
}

#[derive(Debug, Clone, PartialEq)]
struct Leaf {
    bits: u64,
    x: Bits,
    n: usize,
    small: u32,
    tiny: u16,
    flag: bool,
    label: String,
}

wire_record!(Leaf {
    bits,
    x,
    n,
    small,
    tiny,
    flag,
    label
});

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    leaf: Leaf,
    maybe: Option<Leaf>,
    score: Option<Bits>,
    events: Vec<Event>,
    pairs: Vec<(u32, Bits)>,
    owner: Id,
    route: Route,
}

wire_record!(Sample {
    leaf,
    maybe,
    score,
    events,
    pairs,
    owner: with(id_enc, id_dec),
    route: with(route_enc, route_dec),
});

/// What the sample's document looks like, node by node — the mutation
/// walk needs to know which damage each node's type must reject.
enum Shape {
    Hex,
    /// A `Num` that must stay below this bound.
    Num(f64),
    Bool,
    Str,
    Name,
    Opt(Box<Shape>),
    Seq(Box<Shape>),
    Pair(Box<Shape>, Box<Shape>),
    Rec(Vec<(&'static str, Shape)>),
    Tagged(Vec<(&'static str, Vec<(&'static str, Shape)>)>),
}

const U16: Shape = Shape::Num(65_536.0);
const U32: Shape = Shape::Num(4_294_967_296.0);
const USIZE: Shape = Shape::Num(9.0e15);

fn leaf_shape() -> Shape {
    Shape::Rec(vec![
        ("bits", Shape::Hex),
        ("x", Shape::Hex),
        ("n", USIZE),
        ("small", U32),
        ("tiny", U16),
        ("flag", Shape::Bool),
        ("label", Shape::Str),
    ])
}

fn sample_shape() -> Shape {
    let pair = |a, b| Shape::Seq(Box::new(Shape::Pair(Box::new(a), Box::new(b))));
    Shape::Rec(vec![
        ("leaf", leaf_shape()),
        ("maybe", Shape::Opt(Box::new(leaf_shape()))),
        ("score", Shape::Opt(Box::new(Shape::Hex))),
        (
            "events",
            Shape::Seq(Box::new(Shape::Tagged(vec![
                ("started", vec![("at", Shape::Hex), ("color", Shape::Name)]),
                ("failed", vec![("code", U16), ("why", Shape::Str)]),
                ("idle", vec![]),
            ]))),
        ),
        ("pairs", pair(U32, Shape::Hex)),
        ("owner", U16),
        ("route", pair(U16, Shape::Hex)),
    ])
}

/// Path of a node `inner` levels below `outer`, in `WireError`'s form.
fn join(outer: &str, inner: &str) -> String {
    let dot = if inner.is_empty() || inner.starts_with('[') {
        ""
    } else {
        "."
    };
    format!("{outer}{dot}{inner}")
}

type Fields = [(String, Value)];

/// Damage below `fields[at]`, re-rooted at the object.
fn below(fields: &Fields, at: usize, shape: &Shape) -> Vec<(Value, Option<String>)> {
    let (key, child) = &fields[at];
    let rooted = |(m, path): (Value, Option<String>)| {
        let mut fields = fields.to_vec();
        fields[at].1 = m;
        (Value::Obj(fields), path.map(|p| join(key, &p)))
    };
    mutants(child, shape).into_iter().map(rooted).collect()
}

/// `fields[at]`'s key dropped, and renamed: both reported at that key.
fn unkeyed(fields: &Fields, at: usize) -> [(Value, Option<String>); 2] {
    let mut dropped = fields.to_vec();
    let (key, _) = dropped.remove(at);
    let mut renamed = fields.to_vec();
    renamed[at].0.push('_');
    [
        (Value::Obj(dropped), Some(key.clone())),
        (Value::Obj(renamed), Some(key)),
    ]
}

/// Every single-node mutation of `v`: the damaged document, and the
/// path the decode error must carry — or `None` for the one mutation a
/// codec cannot reject, a list that lost its tail, which must decode to
/// a *different* value.
fn mutants(v: &Value, shape: &Shape) -> Vec<(Value, Option<String>)> {
    let here = |m: Value| (m, Some(String::new()));
    if let (Shape::Opt(inner), some) = (shape, v) {
        return match some {
            Value::Null => vec![here(Value::Bool(true))],
            _ => mutants(some, inner),
        };
    }
    // No form accepts a value of another JSON type.
    let mut out = vec![here(match v {
        Value::Bool(_) => Value::Str("true".into()),
        _ => Value::Bool(true),
    })];
    match (shape, v) {
        (Shape::Hex, Value::Str(s)) => {
            out.push(here(Value::Str(format!("+{}", &s[1..]))));
            out.push(here(Value::Str(s[1..].to_string())));
            out.push(here(Value::Str(format!("{s}0"))));
            if s.to_uppercase() != *s {
                out.push(here(Value::Str(s.to_uppercase())));
            }
        }
        (Shape::Num(bound), Value::Num(_)) => {
            out.extend([-1.0, 0.5, *bound].map(|x| here(Value::Num(x))));
        }
        (Shape::Name, Value::Str(_)) => out.push(here(Value::Str("bogus".into()))),
        (Shape::Bool, Value::Bool(_)) | (Shape::Str, Value::Str(_)) => {}
        (Shape::Seq(inner), Value::Arr(items)) => {
            for (i, item) in items.iter().enumerate() {
                for (m, path) in mutants(item, inner) {
                    let mut items = items.clone();
                    items[i] = m;
                    out.push((Value::Arr(items), path.map(|p| join(&format!("[{i}]"), &p))));
                }
            }
            if let Some((_, head)) = items.split_last() {
                out.push((Value::Arr(head.to_vec()), None));
            }
        }
        (Shape::Pair(a, b), Value::Arr(items)) => {
            out.push(here(Value::Arr(items[..1].to_vec())));
            out.push(here(Value::Arr([&items[..], &items[1..]].concat())));
            for (i, shape) in [(0, a), (1, b)] {
                for (m, path) in mutants(&items[i], shape) {
                    let mut items = items.clone();
                    items[i] = m;
                    out.push((Value::Arr(items), path.map(|p| join(&format!("[{i}]"), &p))));
                }
            }
        }
        (Shape::Rec(shapes), Value::Obj(fields)) => {
            for (at, (_, shape)) in shapes.iter().enumerate() {
                out.extend(unkeyed(fields, at));
                out.extend(below(fields, at, shape));
            }
        }
        (Shape::Tagged(variants), Value::Obj(fields)) => {
            let tag = fields[0].1.as_str().unwrap();
            let (_, shapes) = variants.iter().find(|(t, _)| *t == tag).unwrap();
            out.extend(below(fields, 0, &Shape::Name));
            for at in 0..=shapes.len() {
                out.extend(unkeyed(fields, at));
            }
            for (at, (_, shape)) in shapes.iter().enumerate() {
                out.extend(below(fields, at + 1, shape));
            }
        }
        _ => panic!("document does not match its shape at {v:?}"),
    }
    out
}

/// Deterministic sample from proptest-drawn integers, so failures
/// shrink on the integers.
fn sample_of(picks: &[u64]) -> Sample {
    let mut at = 0;
    let mut next = || {
        at += 1;
        picks[(at - 1) % picks.len()]
    };
    let leaf = |next: &mut dyn FnMut() -> u64| Leaf {
        bits: next(),
        x: Bits(f64::from_bits(next())),
        n: (next() % 9_000_000_000_000_000) as usize,
        small: next() as u32,
        tiny: next() as u16,
        flag: next() % 2 == 1,
        label: format!("label \"{}\"\n", next() % 1000),
    };
    let first = leaf(&mut next);
    let maybe = (next() % 3 != 0).then(|| leaf(&mut next));
    let score = (next() % 3 != 0).then(|| Bits(f64::from_bits(next())));
    let events = (0..next() % 4)
        .map(|_| match next() % 3 {
            0 => Event::Started {
                at: next(),
                color: Color::ALL[(next() % 3) as usize],
            },
            1 => Event::Failed {
                code: next() as u16,
                why: format!("why {}", next() % 1000),
            },
            _ => Event::Idle {},
        })
        .collect();
    let pairs = (0..next() % 4)
        .map(|_| (next() as u32, Bits(f64::from_bits(next()))))
        .collect();
    let owner = Id(next() as u16);
    let route = (0..next() % 4)
        .map(|_| (Id(next() as u16), Bits(f64::from_bits(next()))))
        .collect();
    Sample {
        leaf: first,
        maybe,
        score,
        events,
        pairs,
        owner,
        route,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn a_value_survives_encode_print_parse_decode(
        picks in prop::collection::vec(any::<u64>(), 16..64),
    ) {
        let x = sample_of(&picks);
        let v = x.enc();
        prop_assert_eq!(Sample::dec(&v), Ok(x.clone()));
        let parsed = Value::parse(&v.to_string_pretty()).unwrap();
        prop_assert_eq!(Sample::dec(&parsed), Ok(x));
    }

    #[test]
    fn damage_at_any_single_node_is_an_error_that_names_the_node(
        picks in prop::collection::vec(any::<u64>(), 16..64),
    ) {
        let x = sample_of(&picks);
        for (damaged, expect) in mutants(&x.enc(), &sample_shape()) {
            match (Sample::dec(&damaged), expect) {
                (Err(e), Some(path)) => prop_assert_eq!(e.path, path, "{}", e.what),
                (Ok(y), None) => prop_assert!(y != x, "a shorter list decoded to the original"),
                (got, expect) => prop_assert!(
                    false,
                    "expected {:?}, decoded {:?} from {}",
                    expect,
                    got,
                    damaged.to_string_pretty()
                ),
            }
        }
    }
}

/// A hand-written form no macro produces: the empty object.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Hole;

impl Wire for Hole {
    fn emit<S: Sink>(&self, out: &mut S) {
        out.begin_obj();
        out.end_obj();
    }
    fn dec(v: &Value) -> Result<Self, WireError> {
        match v {
            Value::Obj(fields) if fields.is_empty() => Ok(Hole),
            _ => Err(WireError::new("expected an empty object")),
        }
    }
}

/// A record around the sample whose containers may be empty anywhere:
/// first, last, in a row, and directly inside one another.
#[derive(Debug, Clone, PartialEq)]
struct Nest {
    holes: Vec<Hole>,
    lists: Vec<Vec<u32>>,
    hole: Hole,
    sample: Sample,
    gap: Option<Hole>,
    texts: Vec<String>,
    tail: Vec<Option<Vec<Hole>>>,
}

wire_record!(Nest {
    holes,
    lists,
    hole,
    sample,
    gap,
    texts,
    tail
});

fn nest_of(picks: &[u64]) -> Nest {
    let pick = |i: usize| picks[i % picks.len()];
    let text = |i: usize| match pick(i) % 5 {
        0 => String::new(),
        1 => "q\"uote \\ back/slash".to_string(),
        2 => "line\nfeed\ttab\rreturn".to_string(),
        3 => format!("ctl {} {}", '\u{1}', '\u{1f}'),
        _ => format!("π → 😀 {}", pick(i + 1)),
    };
    Nest {
        holes: vec![Hole; (pick(0) % 3) as usize],
        lists: (0..pick(1) % 4)
            .map(|i| (0..pick(2 + i as usize) % 3).map(|k| k as u32).collect())
            .collect(),
        hole: Hole,
        sample: sample_of(picks),
        gap: (pick(3) % 2 == 0).then_some(Hole),
        texts: (0..pick(4) % 4).map(|i| text(5 + i as usize)).collect(),
        tail: (0..pick(9) % 4)
            .map(|i| match pick(10 + i as usize) % 3 {
                0 => None,
                1 => Some(Vec::new()),
                _ => Some(vec![Hole; 2]),
            })
            .collect(),
    }
}

/// The property: what `emit` streams into the text sink is what the
/// document `emit` builds in the tree sink prints.
fn streams_what_it_prints<T: Wire>(x: &T) -> Result<(), TestCaseError> {
    prop_assert_eq!(x.text(), x.enc().to_string_pretty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_streamed_text_is_the_printed_document(
        picks in prop::collection::vec(any::<u64>(), 16..64),
    ) {
        // Every `Wire` type at the document root...
        let p = picks[0];
        streams_what_it_prints(&p)?;
        streams_what_it_prints(&f64::from_bits(p))?;
        streams_what_it_prints(&((p % 9_000_000_000_000_000) as usize))?;
        streams_what_it_prints(&(p as u32))?;
        streams_what_it_prints(&(p as u16))?;
        streams_what_it_prints(&(p % 2 == 0))?;
        streams_what_it_prints(&format!("a \"b\"\n\\ {p} \u{7} é"))?;
        streams_what_it_prints(&String::new())?;
        streams_what_it_prints(&None::<u64>)?;
        streams_what_it_prints(&Some(p))?;
        streams_what_it_prints(&Vec::<u64>::new())?;
        streams_what_it_prints(&picks)?;
        streams_what_it_prints(&(p as u32, Bits(f64::from_bits(p))))?;
        streams_what_it_prints(&vec![Vec::<u32>::new(); (p % 3) as usize])?;
        streams_what_it_prints(&Color::ALL[(p % 3) as usize])?;
        streams_what_it_prints(&Event::Idle {})?;
        streams_what_it_prints(&Hole)?;
        // ...and nested in records.
        let x = sample_of(&picks);
        streams_what_it_prints(&x.leaf)?;
        streams_what_it_prints(&x)?;
        let nest = nest_of(&picks);
        streams_what_it_prints(&nest)?;
        prop_assert_eq!(Nest::dec(&Value::parse(&nest.text()).unwrap()), Ok(nest));
    }
}

#[test]
fn empty_containers_stream_closed_on_one_line() {
    let nest = nest_of(&[0, 2, 0, 1, 0, 0, 0, 0, 0, 2, 1, 0]);
    assert!(nest.holes.is_empty() && nest.lists == [vec![], vec![0]]);
    let text = nest.text();
    assert!(
        text.starts_with("{\n  \"holes\": [],\n  \"lists\": [\n    [],\n    [\n      0\n    ]\n  ],\n  \"hole\": {},\n  \"sample\": {\n"),
        "{text}"
    );
    assert!(
        text.ends_with(
            "  \"gap\": null,\n  \"texts\": [],\n  \"tail\": [\n    [],\n    null\n  ]\n}"
        ),
        "{text}"
    );
    assert_eq!(text, nest.enc().to_string_pretty());
}

#[test]
fn an_error_reads_as_path_then_expectation() {
    let x = sample_of(&[7, 1, 2, 3, 4, 5, 6, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8]);
    let Value::Obj(mut fields) = x.enc() else {
        panic!("a record encodes as an object");
    };
    assert_eq!(fields[0].0, "leaf");
    let Value::Obj(leaf) = &mut fields[0].1 else {
        panic!("a record encodes as an object");
    };
    assert_eq!(leaf[1].0, "x");
    leaf[1].1 = Value::Num(1.0);
    let err = Sample::dec(&Value::Obj(fields)).unwrap_err();
    assert_eq!(err.to_string(), "leaf.x: expected a 16-digit hex string");
    assert_eq!(
        Sample::dec(&Value::Null).unwrap_err().to_string(),
        "expected an object"
    );
}
