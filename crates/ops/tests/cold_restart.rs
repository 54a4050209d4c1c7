//! Pinned coverage for the service's cold-restart path: a
//! `service.state` file torn at *every byte offset of the snapshot
//! header* (and corrupted at every header byte) must produce a typed
//! cold restart — never a panic, never a resumed-from-garbage state —
//! and the replay after a torn write must land on placements
//! byte-identical to an uninterrupted run. A state file of the previous
//! container version resumes; one of an unknown version cold-restarts.
//! A state file written under a different seed must be refused
//! outright.
//!
//! The second half drills *injectable I/O faults*
//! ([`vod_json::faults`]): ENOSPC, torn partial writes, failed fsync
//! barriers and read EIO, each asserting the atomic-write contract —
//! a failed write leaves the previous snapshot intact and no `*.tmp`
//! debris — and that the service degrades an unreadable state file
//! into a typed cold restart. Each fault schedule is a handle passed to
//! the I/O it faults, so tests running side by side never see each
//! other's faults, and two services stepped in turn on one thread keep
//! separate counts.
#![expect(
    clippy::unwrap_used,
    clippy::disallowed_methods,
    reason = "test code unwraps its own fixtures and reads and writes files directly"
)]

use std::path::{Path, PathBuf};
use vod_core::{DiskConfig, EpfConfig, SolverCheckpoint};
use vod_estimate::{EstimateConfig, EstimatorKind};
use vod_json::faults::{FaultHandle, FaultPlan as IoFaultPlan, IoFault};
use vod_json::snapshot::{fnv1a64, read_snapshot, write_snapshot_atomic, SnapshotError};
use vod_model::Mbps;
use vod_net::{topologies, PathSet};
use vod_ops::{
    OpsConfig, OpsError, OpsWorld, Service, ServiceConfig, ServicePlan, StepOutcome, SERVICE_KIND,
    SERVICE_VERSION,
};
use vod_sim::FaultSchedule;
use vod_trace::{generate_trace, synthesize_library, LibraryConfig, TraceConfig};

/// Snapshot container header for the `ops-service` kind: 8B magic +
/// 1B kind-len + 11B kind + 4B version + 8B payload-len + 8B checksum.
const HEADER_LEN: usize = 8 + 1 + SERVICE_KIND.len() + 4 + 8 + 8;

fn world(seed: u64) -> OpsWorld {
    let mut net = topologies::mesh_backbone(6, 9, seed);
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let paths = PathSet::shortest_paths(&net);
    let catalog = synthesize_library(&LibraryConfig::default_for(40, 14, seed));
    let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(400.0, 14, seed));
    let disks = DiskConfig::UniformRatio { ratio: 2.5 }.capacities(&net, catalog.total_size());
    OpsWorld {
        net,
        paths,
        catalog,
        trace,
        disks,
        mip_disk: DiskConfig::UniformRatio { ratio: 2.0 },
        est: EstimateConfig::default(),
    }
}

fn config(seed: u64, dir: &Path) -> ServiceConfig {
    ServiceConfig {
        ops: OpsConfig {
            cycles: 2,
            period_days: 2,
            start_day: 7,
            estimator: EstimatorKind::History,
            epf: EpfConfig {
                max_passes: 40,
                seed,
                ..EpfConfig::default()
            },
            max_attempts: 3,
            checkpoint_every: 3,
            backoff_base_ms: 250,
            validate_tol: 1e-6,
            simulate: false,
            state_dir: dir.to_path_buf(),
        },
        churn_cap: None,
        cycle_step_budget: None,
        watchdog_budget: 32,
        cycle_faults: Vec::new(),
        cycle_deltas: Vec::new(),
    }
}

fn start(w: &OpsWorld, seed: u64, dir: &Path) -> Result<Service, OpsError> {
    Service::resume_or_start(w, config(seed, dir), ServicePlan::default())
}

/// A test's state directory: emptied before use, removed when the
/// guard drops, so a failing test leaves none behind either.
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

impl std::ops::Deref for StateDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for StateDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

/// A fresh per-test state directory (stale state from a previous test
/// process would otherwise be resumed), removed again when the returned
/// guard drops.
fn fresh_dir(name: &str) -> StateDir {
    let dir = std::env::temp_dir().join(format!("vod_cold_{}_{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StateDir(dir)
}

/// Run a service a few steps in, then return the healthy state bytes.
fn partial_state(dir: &Path, seed: u64, w: &OpsWorld, steps: usize) -> Vec<u8> {
    let mut p = start(w, seed, dir).unwrap();
    for _ in 0..steps {
        assert_ne!(p.step().unwrap(), StepOutcome::Finished);
    }
    std::fs::read(dir.join("service.state")).unwrap()
}

#[test]
fn torn_header_writes_at_every_offset_cold_restart() {
    let w = world(60);
    let dir = fresh_dir("torn");
    let clean = partial_state(&dir, 60, &w, 3);
    assert!(clean.len() > HEADER_LEN, "state should outgrow its header");
    let path = dir.join("service.state");

    for offset in 0..=HEADER_LEN {
        // Torn write: only the first `offset` bytes hit the disk.
        std::fs::write(&path, &clean[..offset]).unwrap();
        let p = start(&w, 60, &dir).unwrap();
        assert_eq!(
            p.state().cold_restarts,
            1,
            "truncation at {offset} must cold-restart, not resume"
        );
        assert_eq!(p.state().cycle, 0, "cold restart starts from cycle 0");

        if offset < HEADER_LEN {
            // Bit rot inside the header: magic, kind, version, length
            // and checksum corruptions are all typed rejections.
            let mut rotted = clean.clone();
            rotted[offset] ^= 0x20;
            std::fs::write(&path, &rotted).unwrap();
            let p = start(&w, 60, &dir).unwrap();
            assert_eq!(
                p.state().cold_restarts,
                1,
                "header corruption at {offset} must cold-restart"
            );
        }
    }

    // The pristine bytes still resume (the loop never spoiled them).
    std::fs::write(&path, &clean).unwrap();
    let p = start(&w, 60, &dir).unwrap();
    assert_eq!(p.state().cold_restarts, 0, "clean state must resume");
    assert!(p.state().resumes >= 1);
}

#[test]
fn container_versions_resume_or_cold_restart() {
    let w = world(64);
    let dir = fresh_dir("versions");
    let clean = partial_state(&dir, 64, &w, 3);
    assert_eq!(
        &clean[..8],
        b"VODSNAP2",
        "writers write the current version"
    );
    let path = dir.join("service.state");

    // The same state as the previous version wrote it: FNV-1a sum.
    let mut v1 = clean.clone();
    v1[..8].copy_from_slice(b"VODSNAP1");
    let sum = HEADER_LEN - 8;
    v1[sum..HEADER_LEN].copy_from_slice(&fnv1a64(&clean[HEADER_LEN..]).to_le_bytes());
    std::fs::write(&path, &v1).unwrap();
    let p = start(&w, 64, &dir).unwrap();
    assert_eq!(p.state().cold_restarts, 0, "a v1 state file resumes");
    assert!(p.state().resumes >= 1);
    drop(p);
    let rewritten = std::fs::read(&path).unwrap();
    assert_eq!(&rewritten[..8], b"VODSNAP2", "and is rewritten as v2");

    // A version this build does not know is not read at all.
    let mut v3 = clean;
    v3[..8].copy_from_slice(b"VODSNAP3");
    std::fs::write(&path, &v3).unwrap();
    let p = start(&w, 64, &dir).unwrap();
    assert_eq!(p.state().cold_restarts, 1, "a VODSNAP3 state cold-restarts");
    assert_eq!(p.state().cycle, 0);
}

/// A checksum can be forged, so a valid container may carry any
/// payload. 100 000 open brackets once overflowed the recursive
/// parser's stack and aborted the process; now every reader stops at
/// the depth limit with a typed error, and the service cold-restarts.
#[test]
fn a_deeply_nested_payload_is_a_typed_error_and_a_cold_restart() {
    let deep = "[".repeat(100_000);
    let under_a_key = format!("{{\"seed\":{deep}");
    let under_an_unlisted_key = format!("{{\"x\":{deep}");
    assert!(vod_json::Value::parse(&deep).is_err());
    assert!(vod_json::Value::parse(&under_a_key).is_err());
    for payload in [&deep, &under_a_key, &under_an_unlisted_key] {
        assert!(SolverCheckpoint::from_bytes(payload.as_bytes()).is_err());
    }

    let w = world(65);
    let dir = fresh_dir("deep");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.state");
    for payload in [&deep, &under_a_key, &under_an_unlisted_key] {
        write_snapshot_atomic(&path, SERVICE_KIND, SERVICE_VERSION, payload.as_bytes()).unwrap();
        let p = start(&w, 65, &dir).unwrap();
        assert_eq!(
            p.state().cold_restarts,
            1,
            "a deep payload must cold-restart"
        );
        assert_eq!(p.state().cycle, 0);
    }
}

#[test]
fn replay_after_torn_write_matches_uninterrupted_run() {
    let w = world(61);

    let torn_base_dir = fresh_dir("torn_base");
    let mut base = start(&w, 61, &torn_base_dir).unwrap();
    let base_fps: Vec<u64> = base
        .run()
        .unwrap()
        .records
        .iter()
        .map(|r| r.placement_fnv)
        .collect();

    // Interrupt mid-schedule with a torn state write, then let the
    // cold restart replay the whole schedule.
    let dir = fresh_dir("torn_replay");
    let clean = partial_state(&dir, 61, &w, 7);
    let cut = HEADER_LEN / 2;
    std::fs::write(dir.join("service.state"), &clean[..cut]).unwrap();
    let mut p = start(&w, 61, &dir).unwrap();
    assert_eq!(p.state().cold_restarts, 1);
    let st = p.run().unwrap();
    let fps: Vec<u64> = st.records.iter().map(|r| r.placement_fnv).collect();
    assert_eq!(fps, base_fps, "cold replay must reproduce the baseline");
}

#[test]
fn seed_mismatch_refuses_to_clobber_foreign_state() {
    let w = world(62);
    let dir = fresh_dir("seed");
    let _ = partial_state(&dir, 62, &w, 2);
    // Same directory, different experiment seed: typed refusal, and
    // the foreign state file is left byte-for-byte intact.
    let before = std::fs::read(dir.join("service.state")).unwrap();
    match start(&w, 63, &dir) {
        Err(OpsError::Invalid { what }) => {
            assert!(what.contains("seed"), "{what}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    let after = std::fs::read(dir.join("service.state")).unwrap();
    assert_eq!(before, after, "refusal must not touch the state file");
}

// ---------------------------------------------------------------------------
// Injectable I/O faults: the atomic-write contract under ENOSPC, torn
// partial writes and failed durability barriers, and schedules scoped
// to the service they are handed to.
// ---------------------------------------------------------------------------

#[test]
fn injected_write_faults_leave_previous_snapshot_intact() {
    let dir = fresh_dir("io_write_faults");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("victim.snap");
    // Torn-write offsets cover: nothing landed, mid-header, header
    // boundary, mid-payload, and longer-than-the-payload (clamped).
    let cases = [
        IoFault::WriteEnospc,
        IoFault::WritePartial { keep: 0 },
        IoFault::WritePartial { keep: 1 },
        IoFault::WritePartial { keep: 8 },
        IoFault::WritePartial { keep: HEADER_LEN },
        IoFault::WritePartial {
            keep: HEADER_LEN + 5,
        },
        IoFault::WritePartial { keep: 1 << 20 },
        IoFault::FsyncFail,
    ];
    for fault in cases {
        write_snapshot_atomic(&path, SERVICE_KIND, SERVICE_VERSION, b"previous payload").unwrap();
        let io = FaultHandle::new(IoFaultPlan::one_write(0, fault));
        let err = io
            .write_snapshot_atomic(
                &path,
                SERVICE_KIND,
                SERVICE_VERSION,
                b"NEW payload, never visible",
            )
            .expect_err("the injected fault must fail the write");
        assert!(matches!(err, SnapshotError::Io { .. }), "{fault}: {err}");
        assert_eq!(io.writes_seen(), 1, "{fault}");
        let debris: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp"))
            .collect();
        assert!(debris.is_empty(), "{fault}: stray temp files {debris:?}");
        assert_eq!(
            read_snapshot(&path, SERVICE_KIND, SERVICE_VERSION).unwrap(),
            b"previous payload",
            "{fault}: destination must keep the old bytes"
        );
    }
}

/// A service over `dir` whose snapshot I/O runs under `plan`, and the
/// handle that counts it.
fn faulted(w: &OpsWorld, seed: u64, dir: &Path, plan: IoFaultPlan) -> (Service, FaultHandle) {
    let mut cfg = config(seed, dir);
    cfg.ops.simulate = true;
    let admission = FaultSchedule {
        admission: true,
        ..FaultSchedule::default()
    };
    cfg.cycle_faults = vec![(0, admission.clone()), (1, admission)];
    let io = FaultHandle::new(plan);
    let plan = ServicePlan {
        io: io.clone(),
        ..ServicePlan::default()
    };
    (Service::resume_or_start(w, cfg, plan).unwrap(), io)
}

#[test]
fn injected_read_eio_cold_restarts_then_heals() {
    let w = world(65);
    let dir = fresh_dir("io_read_eio");
    let _ = partial_state(&dir, 65, &w, 3);
    // Unreadable sector under service.state: the resume degrades to a
    // typed cold restart instead of propagating or panicking.
    let (p, io) = faulted(&w, 65, &dir, IoFaultPlan::one_read(0));
    assert_eq!(
        p.state().cold_restarts,
        1,
        "read EIO must cold-restart, not resume garbage"
    );
    assert_eq!(io.reads_seen(), 1, "the constructor reads the state once");
    drop(p);
    // The sector heals before the cold restart persisted over it? No —
    // the cold constructor already rewrote the state. A fresh resume
    // continues from the cold-restarted state cleanly.
    let p2 = start(&w, 65, &dir).unwrap();
    assert!(p2.state().resumes >= 1);
}

/// What one faulted run yields: placement fingerprints and denials per
/// cycle, then the handle's write and read counts.
fn outcome(s: &Service, io: &FaultHandle) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let records = &s.state().records;
    (
        records.iter().map(|r| r.placement_fnv).collect(),
        records.iter().map(|r| r.denied).collect(),
        io.writes_seen(),
        io.reads_seen(),
    )
}

#[test]
fn two_services_stepped_in_turn_keep_their_own_fault_schedules() {
    // Different write and read indices in each schedule: one counter
    // shared by both services would fire them at the wrong operations.
    let cases = || {
        [
            (
                66,
                IoFaultPlan {
                    writes: vec![(1, IoFault::WriteEnospc), (4, IoFault::FsyncFail)],
                    reads: vec![1],
                },
            ),
            (
                67,
                IoFaultPlan {
                    writes: vec![
                        (0, IoFault::WritePartial { keep: 9 }),
                        (2, IoFault::WriteEnospc),
                    ],
                    reads: vec![0, 2],
                },
            ),
        ]
    };
    // Links thin enough that admission control denies requests.
    let worlds = [world(66), world(67)].map(|mut w| {
        w.net.set_uniform_capacity(Mbps::from_gbps(0.01));
        w
    });
    let solo: Vec<_> = cases()
        .into_iter()
        .zip(&worlds)
        .map(|((seed, plan), w)| {
            let dir = fresh_dir(&format!("solo_{seed}"));
            let (mut s, io) = faulted(w, seed, &dir, plan);
            s.run().unwrap();
            outcome(&s, &io)
        })
        .collect();

    let [(seed_a, plan_a), (seed_b, plan_b)] = cases();
    let turns_a_dir = fresh_dir("turns_a");
    let (mut a, io_a) = faulted(&worlds[0], seed_a, &turns_a_dir, plan_a);
    let turns_b_dir = fresh_dir("turns_b");
    let (mut b, io_b) = faulted(&worlds[1], seed_b, &turns_b_dir, plan_b);
    let (mut a_done, mut b_done) = (false, false);
    while !(a_done && b_done) {
        a_done = a_done || a.step().unwrap() == StepOutcome::Finished;
        b_done = b_done || b.step().unwrap() == StepOutcome::Finished;
    }
    for (who, s) in [("a", &a), ("b", &b)] {
        assert_eq!(s.state().records.len(), 2, "{who}");
        assert!(
            s.state().snapshot_failures > 0,
            "{who}: no write fault fired"
        );
        assert!(s.state().records.iter().any(|r| r.denied > 0), "{who}");
    }
    assert_eq!(outcome(&a, &io_a), solo[0], "service a vs its solo run");
    assert_eq!(outcome(&b, &io_b), solo[1], "service b vs its solo run");
}
