//! Property tests for the lane-backend kernel contract
//! (`crates/core/src/kernel.rs`): every backend must be **bitwise
//! identical per element** to the `Scalar` reference on solver-shaped
//! inputs (finite, nonnegative, no `-0.0`), at three levels —
//!
//! 1. the raw kernel ops (`axpy`, `accum`, `accum_relu_sub`,
//!    `accum_min_sub`, `row_min`, `headroom_min`, `drain_budget`),
//! 2. whole UFL block solves and dual-ascent bounds
//!    ([`UflProblem::solve_local_search_with_kernel`] /
//!    [`UflProblem::dual_ascent_bound_with_kernel`]) — on continuous
//!    costs and on small cost grids, where value ties are the norm, and
//! 3. the penalty arena's recurrence walk, whose incremental updates
//!    must be history-independent and land bitwise on a `Scalar`
//!    from-scratch rebuild whatever backend maintained them.
#![allow(clippy::unwrap_used, clippy::float_cmp)]
use proptest::prelude::*;
use std::sync::OnceLock;
use vod_core::block::{UflProblem, UflScratch};
use vod_core::kernel::{self, Kernel};
use vod_core::penalty::PenaltyArena;
use vod_core::potential::{Duals, RowLayout};
use vod_core::{DiskConfig, MipInstance};
use vod_model::Mbps;
use vod_net::topologies;
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn setup() -> &'static (MipInstance, RowLayout) {
    static SETUP: OnceLock<(MipInstance, RowLayout)> = OnceLock::new();
    SETUP.get_or_init(|| {
        let mut net = topologies::mesh_backbone(6, 9, 33);
        net.set_uniform_capacity(Mbps::from_gbps(1.0));
        let catalog = synthesize_library(&LibraryConfig::default_for(40, 7, 33));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(600.0, 7, 33));
        let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        let inst = MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        );
        let layout = RowLayout {
            n_vhos: inst.n_vhos(),
            n_links: inst.network.num_links(),
            n_windows: inst.n_windows(),
        };
        (inst, layout)
    })
}

/// Deterministic `u64` stream (SplitMix64) from a seed.
fn splitmix(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5;
    move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what} entry {k}: scalar {x} vs backend {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Raw kernel ops: every backend bitwise-matches Scalar on random
    /// solver-shaped vectors (lengths straddle the 8-lane boundary,
    /// values nonnegative with exact zeros mixed in).
    #[test]
    fn kernel_ops_bitwise_match_scalar(
        pairs in prop::collection::vec((0.0f64..1e4, 0.0f64..1e4), 0..70),
        w in 0.0f64..8.0,
        vc in 0.0f64..100.0,
        delta in 0.0f64..50.0,
        zero_every in 2usize..6,
    ) {
        // Unzip into equal-length operands; plant exact zeros so the
        // max(0.0) branches and min ties get exercised.
        let mut a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        for (k, x) in a.iter_mut().enumerate() {
            if k % zero_every == 0 {
                *x = 0.0;
            }
        }
        let scalar_only = [Kernel::Scalar];
        let lanes: Vec<Kernel> = Kernel::all()
            .iter()
            .copied()
            .filter(|k| !matches!(k, Kernel::Scalar))
            .collect();
        prop_assert!(!lanes.is_empty());

        // Reference results on Scalar.
        let reference = |k: Kernel| {
            let mut axpy_acc = a.clone();
            kernel::axpy(k, &mut axpy_acc, w, &b);
            let mut accum_acc = a.clone();
            kernel::accum(k, &mut accum_acc, &b);
            let mut relu_acc = a.clone();
            kernel::accum_relu_sub(k, &mut relu_acc, vc, &b);
            // `alt` finite and +∞ (a swap out of the only open facility).
            let mut min_acc = a.clone();
            kernel::accum_min_sub(k, &mut min_acc, &b, vc, delta);
            kernel::accum_min_sub(k, &mut min_acc, &b, f64::INFINITY, w);
            let mut budget = a.clone();
            kernel::drain_budget(k, &mut budget, &b, vc, delta);
            (
                axpy_acc,
                accum_acc,
                relu_acc,
                min_acc,
                budget,
                kernel::row_min(k, &b),
                kernel::headroom_min(k, &b, vc, &a),
            )
        };
        let base = reference(scalar_only[0]);
        for &k in &lanes {
            let got = reference(k);
            assert_bits_eq(&base.0, &got.0, "axpy");
            assert_bits_eq(&base.1, &got.1, "accum");
            assert_bits_eq(&base.2, &got.2, "accum_relu_sub");
            assert_bits_eq(&base.3, &got.3, "accum_min_sub");
            assert_bits_eq(&base.4, &got.4, "drain_budget");
            prop_assert_eq!(base.5.to_bits(), got.5.to_bits(), "row_min");
            prop_assert_eq!(base.6.to_bits(), got.6.to_bits(), "headroom_min");
        }
    }

    /// Whole UFL block solves: identical open sets, assignments, costs
    /// and dual-ascent bounds across backends on random instances.
    #[test]
    fn ufl_solves_bitwise_match_scalar(
        n_fac in 1usize..12,
        n_clients in 0usize..10,
        cells in prop::collection::vec((0.0f64..50.0, 0.0f64..400.0), 1..2),
        seed in 0u64..1000,
    ) {
        // Deterministic pseudo-random UFL from (seed, dims): SplitMix64
        // stream, nonnegative costs only.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        };
        let (fscale, sscale) = cells[0];
        let facility: Vec<f64> = (0..n_fac).map(|_| next() * fscale).collect();
        let rows: Vec<Vec<f64>> = (0..n_clients)
            .map(|_| (0..n_fac).map(|_| next() * sscale).collect())
            .collect();
        let ufl = UflProblem::from_rows(facility, rows);

        let mut scratch = UflScratch::default();
        let base_sol = ufl.solve_local_search_with_kernel(&mut scratch, Kernel::Scalar);
        let base_fast = ufl.solve_local_search_fast_with_kernel(&mut scratch, Kernel::Scalar);
        let base_bound = ufl.dual_ascent_bound_with_kernel(&mut scratch, Kernel::Scalar);
        for &k in Kernel::all() {
            let sol = ufl.solve_local_search_with_kernel(&mut scratch, k);
            prop_assert_eq!(&sol.open, &base_sol.open, "open set ({})", k.name());
            prop_assert_eq!(&sol.assign, &base_sol.assign, "assignment ({})", k.name());
            prop_assert_eq!(
                ufl.cost(&sol).to_bits(),
                ufl.cost(&base_sol).to_bits(),
                "cost ({})", k.name()
            );
            let fast = ufl.solve_local_search_fast_with_kernel(&mut scratch, k);
            prop_assert_eq!(&fast.open, &base_fast.open, "fast open set ({})", k.name());
            prop_assert_eq!(&fast.assign, &base_fast.assign, "fast assignment ({})", k.name());
            let bound = ufl.dual_ascent_bound_with_kernel(&mut scratch, k);
            prop_assert_eq!(
                bound.to_bits(),
                base_bound.to_bits(),
                "dual ascent bound ({})", k.name()
            );
        }
    }

    /// The full search where it can actually break. Continuous costs
    /// never tie, and a tie is the only place a top-2 cache and a fresh
    /// ascending scan can disagree on *which* facility they pick: draw
    /// service costs from a 4-value grid and opening costs from a
    /// 3-value grid, at up to mesh100 width, and compare the add / drop
    /// / swap search across backends.
    #[test]
    fn ufl_full_search_matches_scalar_under_value_ties(
        n_fac in 1usize..101,
        n_clients in 0usize..41,
        seed in 0u64..100_000,
    ) {
        let mut next = splitmix(seed);
        let mut pick = |grid: &[f64]| grid[usize::try_from(next() % grid.len() as u64).unwrap()];
        // Opening costs scale with the client count so that neither
        // "open everything" nor "open one" is trivially optimal.
        let open_unit = 0.25 * (n_clients as f64 + 1.0);
        let facility: Vec<f64> = (0..n_fac)
            .map(|_| open_unit * pick(&[0.0, 1.0, 2.0]))
            .collect();
        let rows: Vec<Vec<f64>> = (0..n_clients)
            .map(|_| (0..n_fac).map(|_| pick(&[0.0, 1.0, 2.0, 5.0])).collect())
            .collect();
        let ufl = UflProblem::from_rows(facility, rows);

        let mut scratch = UflScratch::default();
        let base = ufl.solve_local_search_with_kernel(&mut scratch, Kernel::Scalar);
        for &k in Kernel::all() {
            let sol = ufl.solve_local_search_with_kernel(&mut scratch, k);
            prop_assert_eq!(&sol.open, &base.open, "open set ({})", k.name());
            prop_assert_eq!(&sol.assign, &base.assign, "assignment ({})", k.name());
            prop_assert_eq!(
                ufl.cost(&sol).to_bits(),
                ufl.cost(&base).to_bits(),
                "cost ({})", k.name()
            );
        }
    }

    /// Penalty recurrence: an arena maintained incrementally on any
    /// lane backend, through an arbitrary detour of snapshots, lands
    /// bitwise on the Scalar from-scratch rebuild of the final duals —
    /// the table walk is history-independent and backend-independent.
    #[test]
    fn penalty_walk_is_history_and_backend_independent(
        scale in 0.25f64..3.0,
        detours in prop::collection::vec((0usize..1000, 0.1f64..2.0), 0..6),
    ) {
        let (inst, layout) = setup();
        let n_rows = layout.n_rows();
        let target = Duals::new((0..n_rows).map(|r| scale * (r % 5) as f64).collect(), 1.0);
        let reference = PenaltyArena::for_duals(inst, layout, &target, Kernel::Scalar);
        for &k in Kernel::all() {
            let mut arena = PenaltyArena::new(inst, layout);
            let mut duals = Duals::new(vec![0.0; n_rows], 1.0);
            for &(raw_row, bump) in &detours {
                duals.rows[raw_row % n_rows] += bump;
                duals.bump_version();
                arena.update(inst, layout, &duals, k);
            }
            duals.rows.copy_from_slice(&target.rows);
            duals.bump_version();
            arena.update(inst, layout, &duals, k);
            for t in 0..layout.n_windows {
                for j in 0..layout.n_vhos {
                    let (a, b) = (reference.client_row(t, j), arena.client_row(t, j));
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        prop_assert_eq!(x.to_bits(), y.to_bits(), "backend {}", k.name());
                    }
                }
            }
        }
    }
}

/// End-to-end: a full (small) EPF solve must produce bitwise-identical
/// objective, lower bound and step counts on every backend — the same
/// identity the solver benchmark asserts on the Table III ladder.
#[test]
fn full_solve_is_backend_invariant() {
    let (inst, _) = setup();
    let mut reference: Option<(u64, u64, usize, u64)> = None;
    for &k in Kernel::all() {
        let cfg = vod_core::EpfConfig {
            max_passes: 25,
            polish_iters: 10,
            seed: 7,
            threads: 1,
            kernel: k,
            ..Default::default()
        };
        let (frac, stats) = vod_core::solve_fractional(inst, &cfg);
        let key = (
            frac.objective.to_bits(),
            frac.lower_bound.to_bits(),
            stats.passes,
            stats.block_steps,
        );
        match &reference {
            None => reference = Some(key),
            Some(base) => assert_eq!(
                *base,
                key,
                "backend {} diverged from Scalar on the full solve",
                k.name()
            ),
        }
    }
}
