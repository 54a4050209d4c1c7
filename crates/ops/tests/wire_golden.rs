//! Byte-level goldens for the durable service state.
//!
//! `service.state` is read back by later processes — possibly by a
//! later build — and `placement_fingerprint` hashes the placement's
//! encoded text, so the encoding is a format, not an implementation
//! detail. Two fixed states that between them exercise every
//! `DegradeReason` variant, every `RecoveryAction`, `None` and `Some`
//! of every `Option`, a non-empty deferred queue, `u64::MAX`, and the
//! floats a decimal round trip would lose (a NaN payload, `-0.0`, a
//! subnormal) must encode to the checked-in text, and that text must
//! decode and re-encode to itself.
//!
//! A deliberate format change bumps `SERVICE_VERSION` and replaces the
//! files under `tests/golden/` with the `.actual` files a failing run
//! leaves in the target tmp dir.
#![allow(clippy::unwrap_used)]

use std::path::Path;
use vod_core::Placement;
use vod_json::Value;
use vod_model::{VhoId, VideoId};
use vod_ops::{
    DeferredMigration, DegradeReason, RecoveryAction, ServiceRecord, ServiceState, SimSummary,
    StageId,
};

fn assert_golden(name: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected != actual {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
        std::fs::write(&dump, actual).unwrap();
        panic!(
            "encoding differs from {}; this run's text is in {}",
            golden.display(),
            dump.display()
        );
    }
}

/// Encode → golden text → decode → encode is the golden text again.
fn assert_state_golden(name: &str, state: &ServiceState) {
    let text = state.to_value().to_string_pretty();
    assert_golden(name, &text);
    let back = ServiceState::from_value(&Value::parse(&text).unwrap()).unwrap();
    assert_eq!(back.to_value().to_string_pretty(), text, "{name}");
}

fn vhos(ids: &[u16]) -> Vec<VhoId> {
    ids.iter().map(|&i| VhoId::new(i)).collect()
}

/// Three videos on four VHOs; video 1 has an empty routing row and
/// video 2 a client whose distribution carries the awkward floats.
fn placement() -> Placement {
    Placement::from_parts(
        4,
        vec![vhos(&[0, 2]), vhos(&[1]), vhos(&[0, 1, 3])],
        vec![
            vec![
                (VhoId::new(1), vec![(VhoId::new(0), 1.0)]),
                (
                    VhoId::new(3),
                    vec![(VhoId::new(0), 0.25), (VhoId::new(2), 0.75)],
                ),
            ],
            Vec::new(),
            vec![(
                VhoId::new(2),
                vec![
                    (VhoId::new(0), -0.0),
                    (VhoId::new(1), f64::from_bits(1)),
                    (VhoId::new(3), 1.0 / 3.0),
                ],
            )],
        ],
    )
    .unwrap()
}

fn record(cycle: usize, degraded: Option<DegradeReason>) -> ServiceRecord {
    ServiceRecord {
        cycle,
        degraded,
        recoveries: Vec::new(),
        attempts: 5,
        backoff_ms: 0,
        solver_resumes: 0,
        placement_fnv: 0x0123_4567_89ab_cdef,
        objective: Some(1234.5),
        lower_bound: Some(1200.25),
        moved: 3,
        deferred: 0,
        denied: 0,
        denial_rate: Some(0.0),
        stale: false,
        sim: Some(SimSummary {
            max_gbps: 0.75,
            local_frac: 0.5,
            total_requests: 1234,
        }),
        repairs: Vec::new(),
        rejections: Vec::new(),
    }
}

#[test]
fn a_state_with_every_option_set_keeps_its_bytes() {
    let records = vec![
        record(0, None),
        ServiceRecord {
            recoveries: RecoveryAction::ALL.to_vec(),
            attempts: u32::MAX,
            backoff_ms: u64::MAX,
            solver_resumes: 2,
            objective: None,
            lower_bound: None,
            denied: 9,
            denial_rate: Some(f64::from_bits(0x7ff8_0000_dead_beef)),
            sim: None,
            repairs: vec![0xabcd, u64::MAX],
            rejections: vec![
                "foreign: fingerprint".into(),
                "remap-eligible: \"quoted\"\n\ttab".into(),
            ],
            ..record(
                1,
                Some(DegradeReason::StageFailed {
                    stage: StageId::Solve,
                    attempts: 3,
                    last_error: "injected failure".into(),
                }),
            )
        },
        ServiceRecord {
            stale: true,
            placement_fnv: 0,
            sim: None,
            ..record(
                2,
                Some(DegradeReason::ValidationFailed {
                    what: "video 7 has no holder".into(),
                }),
            )
        },
        record(
            3,
            Some(DegradeReason::Stalled {
                stage: StageId::Round,
                ticks: 40,
                budget: 40,
            }),
        ),
        record(
            4,
            Some(DegradeReason::SnapshotUnavailable {
                failures: u64::MAX,
                what: "persist service state: snapshot io error".into(),
            }),
        ),
        record(
            5,
            Some(DegradeReason::StageFailed {
                stage: StageId::Estimate,
                attempts: 0,
                last_error: String::new(),
            }),
        ),
    ];
    let state = ServiceState {
        seed: 0x1234_5678_9abc_def0,
        cycle: 6,
        stage: StageId::Validate,
        attempts_done: 1,
        cycle_attempts: 3,
        cycle_backoff_ms: 750,
        cycle_solver_resumes: 1,
        cycle_recoveries: vec![RecoveryAction::WarmResume, RecoveryAction::ColdSolve],
        deployed: Some((4, placement())),
        target: Some(placement()),
        target_objective: Some(-0.0),
        target_lower_bound: Some(f64::from_bits(1)),
        pending_moved: 5,
        pending_sim: Some(SimSummary {
            max_gbps: f64::INFINITY,
            local_frac: f64::from_bits(0xfff8_0000_0000_0001),
            total_requests: u64::MAX,
        }),
        pending_denied: 7,
        pending_denial: Some(0.125),
        deferred: vec![
            DeferredMigration {
                video: VideoId::new(2),
                copies: 2,
                since_cycle: 1,
            },
            DeferredMigration {
                video: VideoId::new(u32::MAX),
                copies: 1,
                since_cycle: 4,
            },
        ],
        records,
        resumes: 3,
        cold_restarts: 1,
        stale_serves: 2,
        deltas_applied: 1,
        snapshot_failures: 4,
        cycle_repairs: vec![0x1234],
        cycle_rejections: vec!["remap-eligible: capacities".into()],
    };
    assert_state_golden("service_state_full.json", &state);
}

#[test]
fn a_state_with_every_option_empty_keeps_its_bytes() {
    let mut state = ServiceState::fresh(u64::MAX);
    state.stage = StageId::Simulate;
    state.records.push(ServiceRecord {
        objective: None,
        lower_bound: None,
        denial_rate: None,
        sim: None,
        ..record(0, None)
    });
    assert_state_golden("service_state_sparse.json", &state);
}
