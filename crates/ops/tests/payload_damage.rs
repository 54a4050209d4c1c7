//! Every snapshot payload the service reads, damaged: cut short at any
//! offset or with any one byte flipped, a read from its text returns a
//! typed error or exactly the value the damaged text spells — the
//! document `Value::parse` builds from it — and never panics.
//!
//! The payloads are the three `tests/golden/v1_*` files (a service
//! state, a phase-2 solver checkpoint and a fractional artifact, all
//! written from the golden values of a real solve), read as the service
//! reads them: pretty, as those files hold them, and compact, as the
//! current writers write them.
#![expect(clippy::unwrap_used, reason = "test code unwraps its own fixtures")]

use proptest::prelude::*;
use std::path::Path;
use vod_core::checkpoint::{CHECKPOINT_KIND, CHECKPOINT_VERSION};
use vod_core::{FractionalSolution, SolverCheckpoint};
use vod_json::snapshot::read_snapshot;
use vod_json::wire::Wire;
use vod_json::{strip_layout, wire_record, Value};
use vod_ops::state::FRACTIONAL_VERSION;
use vod_ops::{ServiceState, FRACTIONAL_KIND, SERVICE_KIND, SERVICE_VERSION};

/// `fractional.snap`'s payload: the service's private artifact record,
/// by its field list.
struct Artifact {
    cycle: usize,
    config: u64,
    lower_bound: f64,
    fractional: FractionalSolution,
}

wire_record!(Artifact {
    cycle,
    config,
    lower_bound,
    fractional
});

/// A payload's decoder, its result given back as a document.
type Decode = fn(&[u8]) -> Result<Value, String>;

fn state(text: &[u8]) -> Result<Value, String> {
    ServiceState::from_text(text)
        .map(|s| s.enc())
        .map_err(|e| e.to_string())
}

fn checkpoint(text: &[u8]) -> Result<Value, String> {
    SolverCheckpoint::from_bytes(text)
        .map(|c| c.enc())
        .map_err(|e| e.to_string())
}

fn fractional(text: &[u8]) -> Result<Value, String> {
    Artifact::from_text(text)
        .map(|a| a.enc())
        .map_err(|e| e.to_string())
}

/// Each payload, pretty and compact, with its decoder.
fn payloads() -> Vec<(Vec<u8>, Decode)> {
    let golden = |name: &str, kind: &str, version: u32| {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name);
        let pretty = String::from_utf8(read_snapshot(&path, kind, version).unwrap()).unwrap();
        let compact = strip_layout(&pretty);
        [pretty.into_bytes(), compact.into_bytes()]
    };
    let mut out: Vec<(Vec<u8>, Decode)> = Vec::new();
    for (files, decode) in [
        (
            golden("v1_service.state", SERVICE_KIND, SERVICE_VERSION),
            state as Decode,
        ),
        (
            golden("v1_solver.ckpt", CHECKPOINT_KIND, CHECKPOINT_VERSION),
            checkpoint,
        ),
        (
            golden("v1_fractional.snap", FRACTIONAL_KIND, FRACTIONAL_VERSION),
            fractional,
        ),
    ] {
        out.extend(files.into_iter().map(|text| (text, decode)));
    }
    out
}

/// The property: an error, or the document the text spells.
fn reads_as_itself_or_fails(decode: Decode, text: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(decoded) = decode(text) {
        let spelled = std::str::from_utf8(text).map(Value::parse);
        prop_assert_eq!(
            spelled,
            Ok(Ok(decoded)),
            "{}",
            String::from_utf8_lossy(text)
        );
    }
    Ok(())
}

#[test]
fn every_payload_reads_back_whole() {
    for (text, decode) in payloads() {
        let decoded = decode(&text).unwrap();
        assert_eq!(
            Value::parse(std::str::from_utf8(&text).unwrap()),
            Ok(decoded)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_cut_or_flipped_payload_is_an_error_or_what_it_spells(
        cut in 0usize..1 << 20,
        at in 0usize..1 << 20,
        mask in 1u8..=255,
    ) {
        for (text, decode) in payloads() {
            let short = &text[..cut % text.len()];
            prop_assert!(decode(short).is_err(), "a payload cut at {} decoded", short.len());
            let mut flipped = text.clone();
            flipped[at % text.len()] ^= mask;
            reads_as_itself_or_fails(decode, &flipped)?;
        }
    }
}
