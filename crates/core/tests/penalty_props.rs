//! Property tests for the incremental penalty arena: after **any**
//! sequence of dual perturbations, the incrementally-maintained arena
//! must be bitwise identical to a from-scratch rebuild under the final
//! duals, and both to the naive per-entry path-order sum written out
//! below — on both kernel backends. This is the invariant
//! (`crates/core/src/penalty.rs`: a window is recomputed whole along
//! the prefix recurrence, never patched with deltas) that lets the EPF
//! hot path reuse one flat arena across tens of thousands of dual
//! snapshots without ever drifting from the reference semantics. Every
//! `(window, client)` row is checked, including clients with no demand
//! in the window, which no hot path reads.
#![expect(clippy::disallowed_methods, reason = "test code builds raw VhoIds")]
use proptest::prelude::*;
use std::sync::OnceLock;
use vod_core::penalty::PenaltyArena;
use vod_core::potential::{Duals, RowLayout};
use vod_core::Kernel;
use vod_core::{DiskConfig, MipInstance};
use vod_model::{Mbps, VhoId};
use vod_net::graph::make_nodes;
use vod_net::{topologies, Network};
use vod_trace::{
    analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
};

fn build_instance(n_vhos: usize, n_videos: usize, seed: u64) -> (MipInstance, RowLayout) {
    let net = topologies::mesh_backbone(n_vhos, n_vhos * 3 / 2, seed);
    instance_on(net, n_videos, seed)
}

fn instance_on(mut net: Network, n_videos: usize, seed: u64) -> (MipInstance, RowLayout) {
    net.set_uniform_capacity(Mbps::from_gbps(1.0));
    let catalog = synthesize_library(&LibraryConfig::default_for(n_videos, 7, seed));
    let trace = generate_trace(
        &catalog,
        &net,
        &TraceConfig::default_for(n_videos as f64 * 15.0, 7, seed),
    );
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
}

fn setup() -> &'static (MipInstance, RowLayout) {
    static SETUP: OnceLock<(MipInstance, RowLayout)> = OnceLock::new();
    SETUP.get_or_init(|| build_instance(6, 40, 33))
}

/// The oracle: `D_t(i, j)` summed link by link along `P_ij`, sharing
/// nothing with the arena but the routing table.
fn naive_penalty(
    inst: &MipInstance,
    layout: &RowLayout,
    duals: &Duals,
    t: usize,
    i: usize,
    j: usize,
) -> f64 {
    if i == j {
        return 0.0;
    }
    let (iv, jv) = (
        vod_model::VhoId::from_index(i),
        vod_model::VhoId::from_index(j),
    );
    inst.paths()
        .path(iv, jv)
        .iter()
        .map(|&l| duals.rows[layout.link_row(l, t)])
        .sum()
}

/// Every `(t, i, j)` of `arena` is bitwise the naive sum under `duals`,
/// through both read paths (`at` and `client_row`).
fn assert_arena_is_naive(
    inst: &MipInstance,
    layout: &RowLayout,
    arena: &PenaltyArena,
    duals: &Duals,
    what: &str,
) {
    let v = layout.n_vhos;
    for t in 0..layout.n_windows {
        for j in 0..v {
            let row = arena.client_row(t, j);
            assert_eq!(row.len(), v, "{what}: row {t}/{j}");
            for (i, &stored) in row.iter().enumerate() {
                let want = naive_penalty(inst, layout, duals, t, i, j);
                assert_eq!(
                    arena.at(t, i, j).to_bits(),
                    want.to_bits(),
                    "{what}: at({t},{i},{j})"
                );
                assert_eq!(
                    stored.to_bits(),
                    want.to_bits(),
                    "{what}: client_row({t},{j})[{i}]"
                );
            }
        }
    }
}

/// Incremental ≡ from-scratch ≡ naive. The rebuild deliberately runs
/// the *other* backend than the arena under test, pinning the rebuild
/// invariant and cross-backend bitwise identity at once.
fn assert_arena_matches_rebuild(
    inst: &MipInstance,
    layout: &RowLayout,
    arena: &PenaltyArena,
    duals: &Duals,
    kernel: Kernel,
) {
    let other = match kernel {
        Kernel::Scalar => Kernel::Chunked,
        Kernel::Chunked => Kernel::Scalar,
    };
    let fresh = PenaltyArena::for_duals(inst, layout, duals, other);
    assert_arena_is_naive(inst, layout, &fresh, duals, "rebuild");
    assert_arena_is_naive(inst, layout, arena, duals, kernel.name());
}

/// `(t, j)` rows whose client has no demand in window `t` in any block
/// — never read by the solver, still maintained by the arena.
fn idle_rows(inst: &MipInstance, layout: &RowLayout) -> usize {
    let v = layout.n_vhos;
    let mut active = vec![false; layout.n_windows * v];
    for b in inst.blocks() {
        for c in &b.clients {
            for (t, &rate) in c.rate.iter().enumerate() {
                if rate != 0.0 {
                    active[t * v + c.j.index()] = true;
                }
            }
        }
    }
    active.iter().filter(|&&a| !a).count()
}

/// A library small enough that some clients are idle in some window:
/// their rows follow the duals like every other row.
#[test]
fn idle_client_rows_are_maintained() {
    let (inst, layout) = build_instance(12, 8, 33);
    assert!(
        idle_rows(&inst, &layout) > 0,
        "fixture must leave some (window, client) row without demand"
    );
    let n_rows = layout.n_rows();
    for &k in Kernel::all() {
        let mut duals = Duals::new((0..n_rows).map(|r| 0.5 + (r % 5) as f64).collect(), 1.0);
        let mut arena = PenaltyArena::for_duals(&inst, &layout, &duals, k);
        assert_arena_is_naive(&inst, &layout, &arena, &duals, k.name());
        for row in duals.rows.iter_mut().skip(layout.n_vhos).step_by(3) {
            *row *= 1.75;
        }
        duals.bump_version();
        arena.update(&inst, &layout, &duals, k);
        assert_arena_is_naive(&inst, &layout, &arena, &duals, k.name());
    }
}

/// A `w × h` grid: between two nodes `dx` columns and `dy` rows apart
/// there are `C(dx + dy, dx)` shortest routes for BFS to choose from.
fn grid(w: usize, h: usize) -> Network {
    let id = |x: usize, y: usize| VhoId::from_index(y * w + x);
    let mut edges = Vec::new();
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y)));
            }
            if y + 1 < h {
                edges.push((id(x, y), id(x, y + 1)));
            }
        }
    }
    Network::from_undirected_edges(make_nodes(&vec![1.0; w * h]), &edges, Mbps::from_gbps(1.0))
}

/// Topologies with many equal-length alternatives (a grid; the
/// antipodal pairs of an even ring): the recurrence must follow the
/// tie-broken BFS trees the routing table actually holds.
#[test]
fn tie_broken_bfs_trees_match_the_naive_sum() {
    for (net, what) in [
        (grid(4, 3), "grid(4, 3)"),
        (topologies::ring(8), "ring(8)"),
        (topologies::ring(3), "ring(3)"),
    ] {
        let (inst, layout) = instance_on(net, 40, 33);
        let n_rows = layout.n_rows();
        for &k in Kernel::all() {
            let mut duals = Duals::new((0..n_rows).map(|r| 0.25 + (r % 7) as f64).collect(), 1.0);
            let mut arena = PenaltyArena::for_duals(&inst, &layout, &duals, k);
            assert_arena_is_naive(&inst, &layout, &arena, &duals, what);
            // One link row of one window, then every third row.
            duals.rows[layout.n_vhos + 1] += 0.5;
            duals.bump_version();
            arena.update(&inst, &layout, &duals, k);
            assert_arena_matches_rebuild(&inst, &layout, &arena, &duals, k);
            for row in duals.rows.iter_mut().skip(layout.n_vhos).step_by(3) {
                *row *= 1.75;
            }
            duals.bump_version();
            arena.update(&inst, &layout, &duals, k);
            assert_arena_matches_rebuild(&inst, &layout, &arena, &duals, k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Apply a random sequence of row perturbations (scales, bumps and
    /// zero-outs on random rows — link and disk alike) and check the
    /// arena against the from-scratch rebuild and the naive sum after
    /// every update, on both backends.
    #[test]
    fn incremental_matches_rebuild_after_random_perturbations(
        init in prop::collection::vec(0.0f64..2.0, 1..2),
        steps in prop::collection::vec(
            (0usize..1000, 0u8..3, 0.25f64..4.0),
            1..12,
        ),
    ) {
        let (inst, layout) = setup();
        let n_rows = layout.n_rows();
        for &k in Kernel::all() {
            let mut duals = Duals::new(vec![init[0]; n_rows], 1.0);
            let mut arena = PenaltyArena::new(inst, layout);
            arena.update(inst, layout, &duals, k);
            assert_arena_matches_rebuild(inst, layout, &arena, &duals, k);
            for &(raw_row, op, factor) in &steps {
                let row = raw_row % n_rows;
                match op {
                    0 => duals.rows[row] *= factor,
                    1 => duals.rows[row] += factor,
                    _ => duals.rows[row] = 0.0,
                }
                duals.bump_version();
                arena.update(inst, layout, &duals, k);
                assert_arena_matches_rebuild(inst, layout, &arena, &duals, k);
            }
        }
    }

    /// Updating through intermediate snapshots and then jumping back to
    /// an earlier one (values equal, version different) still lands on
    /// the rebuild of that snapshot — path-order re-summing is
    /// history-independent.
    #[test]
    fn arena_state_is_history_independent(scale in 0.5f64..3.0, detour in 1usize..5) {
        let (inst, layout) = setup();
        let n_rows = layout.n_rows();
        let target = Duals::new((0..n_rows).map(|r| scale * (r % 7) as f64).collect(), 1.0);
        // Route A: straight to the target.
        let direct = PenaltyArena::for_duals(inst, layout, &target, Kernel::Scalar);
        // Route B: detour through other snapshots first.
        let mut wandering = PenaltyArena::new(inst, layout);
        for k in 0..detour {
            let mid = Duals::new(
                (0..n_rows).map(|r| (r + k) as f64 * 0.125).collect(),
                1.0,
            );
            wandering.update(inst, layout, &mid, Kernel::Chunked);
        }
        wandering.update(inst, layout, &target, Kernel::Chunked);
        assert_arena_is_naive(inst, layout, &direct, &target, "direct");
        assert_arena_is_naive(inst, layout, &wandering, &target, "wandering");
    }

    /// The same identity on *random topologies* and random dual
    /// trajectories: whatever the routing table, the incrementally
    /// maintained arena reads the naive sum at every `(t, i, j)`, on
    /// both backends.
    #[test]
    fn incremental_matches_naive_on_random_topologies(
        dims in (5usize..9, 20usize..40),
        seed in 0u64..500,
        steps in prop::collection::vec((0usize..1000, 0.1f64..3.0), 1..6),
    ) {
        let (n_vhos, n_videos) = dims;
        let (inst, layout) = build_instance(n_vhos, n_videos, seed);
        let n_rows = layout.n_rows();
        for &k in Kernel::all() {
            let mut arena = PenaltyArena::new(&inst, &layout);
            let mut duals = Duals::new(vec![0.0; n_rows], 1.0);
            assert_arena_is_naive(&inst, &layout, &arena, &duals, "zero duals");
            for &(raw_row, bump) in &steps {
                duals.rows[raw_row % n_rows] += bump;
                duals.bump_version();
                arena.update(&inst, &layout, &duals, k);
                assert_arena_is_naive(&inst, &layout, &arena, &duals, k.name());
            }
        }
    }
}
