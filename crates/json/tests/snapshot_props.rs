//! Fuzzed-input hardening for the snapshot container and the JSON
//! parser: arbitrary byte mutations, truncations, and garbage must
//! come back as typed errors — never a panic, never a silently-wrong
//! payload.

#![expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures and reads and writes files directly"
)]

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use vod_json::faults::FaultHandle;
use vod_json::reader::Reader;
use vod_json::snapshot::{self, SnapshotError};
use vod_json::wire::{Sink, Wire, WireError};
use vod_json::{strip_layout, Value};

/// A directory of its own under the temp dir, removed when dropped.
struct TmpDir(PathBuf);

impl TmpDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("vod-snap-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Encode a snapshot via the public file API (temp file round trip).
fn valid_snapshot(kind: &str, version: u32, payload: &[u8]) -> Vec<u8> {
    let dir = TmpDir::new("props");
    let path = dir.0.join(format!("{kind}-{version}.snap"));
    snapshot::write_snapshot_atomic(&path, kind, version, payload).unwrap();
    std::fs::read(&path).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mutated_snapshots_yield_typed_errors(
        payload in prop::collection::vec(0u8..=255, 0..200),
        mutations in prop::collection::vec((0usize..4096, 1u8..=255), 1..4),
    ) {
        let mut bytes = valid_snapshot("prop-kind", 7, &payload);
        for &(pos, x) in &mutations {
            let at = pos % bytes.len();
            bytes[at] ^= x;
        }
        // Two mutations may cancel each other out; in every other case
        // the decode must fail with a typed error. What it must never
        // do is panic or hand back altered bytes as if they were good.
        match snapshot::decode(&bytes, "prop-kind", 7) {
            Ok(back) => prop_assert_eq!(back, payload, "corrupt decode must not succeed"),
            Err(
                SnapshotError::Truncated { .. }
                | SnapshotError::BadMagic
                | SnapshotError::KindMismatch { .. }
                | SnapshotError::VersionMismatch { .. }
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Malformed { .. },
            ) => {}
            Err(SnapshotError::Io { .. }) => {
                prop_assert!(false, "in-memory decode cannot produce Io");
            }
        }
    }

    #[test]
    fn truncated_snapshots_yield_typed_errors(
        payload in prop::collection::vec(0u8..=255, 0..200),
        cut_frac in 0.0f64..1.0,
    ) {
        let bytes = valid_snapshot("prop-kind", 7, &payload);
        #[expect(clippy::cast_possible_truncation, reason = "a cut point inside a short buffer")]
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        prop_assert!(snapshot::decode(&bytes[..cut.min(bytes.len() - 1)], "prop-kind", 7).is_err());
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..300),
    ) {
        // Any outcome is fine except a panic; random bytes essentially
        // never carry the magic + a matching checksum.
        let _ = snapshot::decode(&bytes, "any-kind", 1);
    }

    #[test]
    fn random_bytes_never_panic_the_json_parser(
        bytes in prop::collection::vec(0u8..=255, 0..300),
    ) {
        if let Ok(text) = std::str::from_utf8(&bytes) {
            let _ = Value::parse(text);
        }
    }

    #[test]
    fn mutated_json_documents_yield_typed_errors(
        n in 0u64..1000,
        mutations in prop::collection::vec((0usize..4096, 1u8..=255), 1..3),
    ) {
        let mut bytes = (n, n as f64 / 7.0).text().into_bytes();
        for &(pos, x) in &mutations {
            let at = pos % bytes.len();
            bytes[at] ^= x;
        }
        // Mutated JSON either fails to decode with a typed WireError
        // or decodes to a pair; no path may panic. A decoded pair was
        // read from well-formed JSON, so the parser takes the text too.
        if <(u64, f64)>::from_text(&bytes).is_ok() {
            let text = std::str::from_utf8(&bytes);
            prop_assert!(text.is_ok_and(|t| Value::parse(t).is_ok()));
        }
    }
}

/// A parsed document as a [`Wire`] value, emitted node by node, so any
/// golden can go down the typed payloads' write path. Write-only.
struct Doc(Value);

fn walk<S: Sink>(v: &Value, out: &mut S) {
    match v {
        Value::Null => out.null(),
        Value::Bool(b) => out.bool(*b),
        Value::Num(x) => out.num(*x),
        Value::Str(s) => out.str(s),
        Value::Arr(items) => {
            out.begin_arr();
            for x in items {
                walk(x, out);
            }
            out.end_arr();
        }
        Value::Obj(fields) => {
            out.begin_obj();
            for (k, x) in fields {
                out.key(k);
                walk(x, out);
            }
            out.end_obj();
        }
    }
}

impl Wire for Doc {
    fn emit<S: Sink>(&self, out: &mut S) {
        walk(&self.0, out);
    }
    fn read(_: &mut Reader<'_>) -> Result<Self, WireError> {
        Err(WireError::new("write-only"))
    }
}

/// Every payload golden of the workspace, streamed into a snapshot the
/// way the service's state dir writes one, reads back as the golden's
/// compact text.
#[test]
fn every_golden_payload_streams_to_its_compact_text() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let dir = TmpDir::new("golden");
    let snap = dir.0.join("golden.snap");
    let mut seen = 0;
    for goldens in ["core/tests/golden", "ops/tests/golden"] {
        for entry in std::fs::read_dir(crates.join(goldens)).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let doc = Doc(Value::parse(&text).unwrap());
            FaultHandle::default()
                .write_wire_snapshot(&snap, "golden", 1, &doc)
                .unwrap();
            let payload = snapshot::read_snapshot(&snap, "golden", 1).unwrap();
            assert_eq!(
                String::from_utf8(payload).unwrap(),
                strip_layout(&text),
                "{}",
                path.display()
            );
            seen += 1;
        }
    }
    assert_eq!(
        seen, 6,
        "the checkpoint, fractional, placement and state goldens"
    );
}
