//! State files written before the current container format must still
//! read back: a service upgraded mid-cycle keeps its state, its
//! checkpoint and its fractional artifact.
//!
//! `tests/golden/v1_*` are `VODSNAP1` containers (FNV-1a checksum,
//! pretty-printed payloads) written by `write_snapshot_atomic` from the
//! golden values of `wire_golden.rs` here and in `vod-core`. Each must
//! read back, through the same calls the service makes, to that golden
//! value. The files are never rewritten.
#![expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures and reads and writes files directly"
)]

use std::path::{Path, PathBuf};
use vod_core::checkpoint::{CHECKPOINT_KIND, CHECKPOINT_VERSION};
use vod_core::{FractionalSolution, SolverCheckpoint};
use vod_json::snapshot::{read_json_snapshot, read_snapshot};
use vod_json::wire::{field, Wire};
use vod_ops::state::FRACTIONAL_VERSION;
use vod_ops::{ServiceState, FRACTIONAL_KIND, SERVICE_KIND, SERVICE_VERSION};

fn ops_golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn core_golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../core/tests/golden")
        .join(name);
    std::fs::read_to_string(path).unwrap()
}

#[test]
fn a_v1_service_state_reads_back_to_its_golden_value() {
    let v = read_json_snapshot(
        &ops_golden("v1_service.state"),
        SERVICE_KIND,
        SERVICE_VERSION,
    )
    .unwrap();
    let state = ServiceState::from_value(&v).unwrap();
    let golden = std::fs::read_to_string(ops_golden("service_state_full.json")).unwrap();
    assert_eq!(state.text(), golden);
}

#[test]
fn a_v1_solver_checkpoint_reads_back_to_its_golden_value() {
    let bytes = read_snapshot(
        &ops_golden("v1_solver.ckpt"),
        CHECKPOINT_KIND,
        CHECKPOINT_VERSION,
    )
    .unwrap();
    let ck = SolverCheckpoint::from_bytes(&bytes).unwrap();
    assert!(ck.in_phase2());
    assert_eq!(ck.text(), core_golden("checkpoint_phase2.json"));
}

#[test]
fn a_v1_fractional_artifact_reads_back_to_its_golden_value() {
    let v = read_json_snapshot(
        &ops_golden("v1_fractional.snap"),
        FRACTIONAL_KIND,
        FRACTIONAL_VERSION,
    )
    .unwrap();
    assert_eq!(field(&v, "cycle", usize::dec), Ok(2));
    assert_eq!(field(&v, "config", u64::dec), Ok(0x0123_4567_89ab_cdef));
    assert_eq!(field(&v, "lower_bound", f64::dec), Ok(1200.25));
    let fractional = field(&v, "fractional", FractionalSolution::dec).unwrap();
    assert_eq!(fractional.text(), core_golden("fractional.json"));
}
