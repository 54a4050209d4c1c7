//! Fault-injection sweep — emits `results/BENCH_faults.json`.
//!
//! Degradation curves for the optimal placement vs the Random+LRU
//! baseline as faults accumulate: for k ∈ {0..4} the sweep fails the
//! first k VHOs (storage + cache offline for an 8-hour window) and,
//! separately, cuts the first k backbone edges (both directions), with
//! admission control on. Every job runs through `simulate_batch` twice
//! — threads=1 and threads=N — and the reports must be byte-identical;
//! this binary asserts it, so the sweep doubles as a determinism check
//! for the fault layer.
//!
//! A final repair step re-solves the k=2 VHO-outage scenario with a
//! warm `solve` (started from the healthy placement, failed disks
//! scaled to zero via `CapacityOverrides`) and records how many copies
//! the repair migrates and the gap it achieves.
//!
//! The JSON deliberately contains no wall times or thread counts, so
//! the file is byte-identical across machines and thread counts at a
//! fixed seed.
//!
//! Scales: `--quick` (CI smoke), default, `--full`.
use vod_bench::{feasibility, fmt, save_results, Defaults, Deployment, Scale, Scenario, Table};
use vod_core::{solve, CapacityOverrides, Hooks, Start};
use vod_estimate::EstimatorKind;
use vod_json::{obj, ToJson, Value};
use vod_model::{LinkId, Mbps, SimTime};
use vod_sim::{
    default_threads, random_single_vho_configs, simulate_batch, CacheKind, FaultEvent, FaultKind,
    FaultSchedule, SimConfig, SimJob, SimReport,
};

/// Which element class the sweep degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    VhoOutage,
    LinkCut,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::VhoOutage => "vho-outage",
            Mode::LinkCut => "link-cut",
        }
    }
}

/// An 8-hour fault window in the middle of the measured week: every
/// scheduled element fails at the same instant and recovers together.
fn schedule(mode: Mode, k: usize, net: &vod_net::Network) -> FaultSchedule {
    let start = SimTime::new(7 * 86_400 + 8 * 3_600);
    let end = SimTime::new(7 * 86_400 + 16 * 3_600);
    let mut events = Vec::new();
    match mode {
        Mode::VhoOutage => {
            for vho in net.vho_ids().take(k) {
                events.push(FaultEvent {
                    start,
                    end,
                    kind: FaultKind::VhoOutage { vho },
                });
            }
        }
        Mode::LinkCut => {
            // Undirected edge i is the directed pair (2i, 2i+1).
            for i in 0..k.min(net.num_undirected_edges()) {
                for dir in 0..2 {
                    events.push(FaultEvent {
                        start,
                        end,
                        kind: FaultKind::LinkDegrade {
                            link: LinkId::from_index(2 * i + dir),
                            capacity_scale: 0.0,
                        },
                    });
                }
            }
        }
    }
    FaultSchedule {
        events,
        admission: true,
    }
}

/// Bitwise fingerprint of a report, including the denial counters the
/// fault layer adds — any thread-count divergence trips the assert.
fn fingerprint(rep: &SimReport) -> (u64, u64, u64, u64, u64) {
    let mut series = 0u64;
    for &v in rep.peak_link_mbps.iter().chain(&rep.transfer_gb) {
        series = series.rotate_left(7) ^ v.to_bits();
    }
    (
        rep.total_requests,
        rep.total_gb_hops.to_bits(),
        rep.denied_no_replica ^ rep.denied_capacity.rotate_left(21),
        rep.interrupted_streams,
        series,
    )
}

struct Row {
    policy: String,
    mode: &'static str,
    k: usize,
    requests: u64,
    denied_no_replica: u64,
    denied_capacity: u64,
    interrupted: u64,
    denial_rate: f64,
    gb_hops: f64,
}

impl ToJson for Row {
    fn to_value(&self) -> Value {
        obj(vec![
            ("policy", self.policy.to_value()),
            ("mode", self.mode.to_value()),
            ("k", self.k.to_value()),
            ("requests", self.requests.to_value()),
            ("denied_no_replica", self.denied_no_replica.to_value()),
            ("denied_capacity", self.denied_capacity.to_value()),
            ("interrupted", self.interrupted.to_value()),
            ("denial_rate", self.denial_rate.to_value()),
            ("gb_hops", self.gb_hops.to_value()),
        ])
    }
}

fn main() {
    let scale = Scale::from_args();
    let s = Scenario::operational(scale, 2010);
    let d = Defaults::for_scale(scale);
    let net = s.scaled_net(&d);
    let full_disks = s.full_disks(&d);
    let future = s.week(1);

    // ---- Healthy placement (MIP) and the Random+LRU baseline. ----
    let (inst, mip_placement) = s.place(
        &net,
        s.estimate(EstimatorKind::History, &d, 7, 14),
        &s.mip_disk(&d),
    );
    let random = random_single_vho_configs(&s.catalog, &full_disks, CacheKind::Lru, s.seed);
    let policies = [
        (
            "MIP+LRU",
            Deployment::mip(mip_placement.clone(), &full_disks, d.cache_frac),
        ),
        ("Random+LRU", Deployment::nearest(random)),
    ];

    // ---- The sweep grid: policy × fault mode × k. ----
    let ks = [0usize, 1, 2, 3, 4];
    let mut labels: Vec<(&str, &'static str, usize)> = Vec::new();
    let mut jobs: Vec<SimJob> = Vec::new();
    for (name, dep) in &policies {
        for mode in [Mode::VhoOutage, Mode::LinkCut] {
            for &k in &ks {
                labels.push((name, mode.label(), k));
                jobs.push(SimJob {
                    net: &net,
                    paths: &s.paths,
                    catalog: &s.catalog,
                    trace: &future,
                    vhos: &dep.vhos,
                    policy: &dep.policy,
                    cfg: SimConfig {
                        measure_from: SimTime::new(7 * 86_400),
                        seed: s.seed,
                        faults: schedule(mode, k, &s.net),
                        ..Default::default()
                    },
                });
            }
        }
    }

    // ---- Determinism: threads=1 vs threads=N must agree bitwise. ----
    let threads = default_threads().max(2);
    let serial_reps = simulate_batch(&jobs, 1);
    let batch_reps = simulate_batch(&jobs, threads);
    for (i, (a, b)) in serial_reps.iter().zip(&batch_reps).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "fault job {i} diverged between threads=1 and threads={threads}"
        );
    }

    let rows: Vec<Row> = labels
        .iter()
        .zip(&serial_reps)
        .map(|((policy, mode, k), rep)| Row {
            policy: policy.to_string(),
            mode,
            k: *k,
            requests: rep.total_requests,
            denied_no_replica: rep.denied_no_replica,
            denied_capacity: rep.denied_capacity,
            interrupted: rep.interrupted_streams,
            denial_rate: rep.denial_rate(),
            gb_hops: rep.total_gb_hops,
        })
        .collect();

    // ---- Repair: warm re-solve of the k=2 VHO-outage world. ----
    let failed: Vec<vod_model::VhoId> = s.net.vho_ids().take(2).collect();
    let core_scn = feasibility(&net, &s.catalog, &inst.demand);
    let overrides = CapacityOverrides {
        link_scale: Vec::new(),
        disk_scale: failed.iter().map(|&v| (v, 0.0)).collect(),
    };
    let degraded = core_scn
        .instance_with(&s.mip_disk(&d), Mbps::from_gbps(d.link_gbps), &overrides)
        .expect("overrides validated above");
    let cfg = s.probe_config();
    let warm = Start {
        prior: None,
        warm: Some(&mip_placement),
    };
    let repair = solve(&degraded, &cfg, warm, Hooks::default())
        .expect("degraded instance is well-formed")
        .rounded(&degraded, &cfg);
    let migrated = repair.placement.migration_copies_from(&mip_placement);

    let mut table = Table::new(
        "Fault sweep — denial/interruption counts per policy",
        &[
            "policy",
            "mode",
            "k",
            "requests",
            "denied (no replica)",
            "denied (capacity)",
            "interrupted",
            "denial rate",
            "GB-hops",
        ],
    );
    for r in &rows {
        table.row(vec![
            r.policy.clone(),
            r.mode.to_string(),
            r.k.to_string(),
            r.requests.to_string(),
            r.denied_no_replica.to_string(),
            r.denied_capacity.to_string(),
            r.interrupted.to_string(),
            fmt(r.denial_rate),
            fmt(r.gb_hops),
        ]);
    }
    table.print();
    println!(
        "\nrepair (k=2 VHO outage): {migrated} copies migrated, \
         feasibility gap {:.4}, converged: {}; \
         {} jobs byte-identical at threads=1 vs {threads}",
        repair.feasibility_gap(),
        repair.converged(),
        jobs.len(),
    );

    let payload = obj(vec![
        ("schema", "BENCH_faults/v1".to_value()),
        ("scale", format!("{scale:?}").to_value()),
        ("seed", s.seed.to_value()),
        ("rows", rows.to_value()),
        (
            "repair",
            obj(vec![
                ("mode", "vho-outage".to_value()),
                ("k", 2u64.to_value()),
                ("migrated_copies", migrated.to_value()),
                ("feasibility_gap", repair.feasibility_gap().to_value()),
                ("converged", repair.converged().to_value()),
            ]),
        ),
    ]);
    save_results("BENCH_faults", &payload);
}
