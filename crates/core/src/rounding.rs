//! The rounding pass (Section V-D): convert the ε-optimal fractional
//! solution into an integral placement.
//!
//! Videos whose `y` values are already integral are kept as-is
//! (including any fractional `x` over their stored copies — `x` is
//! continuous in the MIP). Every other video is re-solved sequentially
//! as an *integer* facility-location problem against the live potential
//! (its fractional contribution is removed from the aggregates first,
//! and the Lagrange multipliers are refreshed as rounding proceeds, so
//! later videos see the load committed by earlier ones). The
//! Charikar–Guha-style local search of [`crate::block`] provides the
//! provably-good-in-practice integer block solutions the paper uses.

use crate::block::{UflProblem, UflScratch};
use crate::epf::{
    block_delta, build_ufl_into, caps_of, compute_state, greedy_x_given_y, layout_of,
};
use crate::instance::MipInstance;
use crate::kernel::Kernel;
use crate::penalty::PenaltyArena;
use crate::potential::Coupling;
use crate::solution::{BlockBuf, BlockSolution, FractionalSolution, Placement};

/// Statistics of one rounding pass.
#[derive(Debug, Clone)]
pub struct RoundingStats {
    /// Videos whose block had to be re-solved integrally.
    pub videos_rounded: usize,
    /// Objective of the final integral solution (original objective).
    pub objective: f64,
    /// Max relative disk/link violation of the integral solution.
    pub max_violation: f64,
    /// `(objective − LB)/LB` against the solver's Lagrangian bound
    /// (`None` when the fractional run had no bound, e.g. feasibility
    /// mode).
    pub optimality_gap: Option<f64>,
}

/// Round a fractional solution into a [`Placement`].
pub fn round_solution(
    inst: &MipInstance,
    fractional: &FractionalSolution,
    gamma: f64,
    kernel: Kernel,
) -> (Placement, RoundingStats) {
    let layout = layout_of(inst);
    let mut blocks: Vec<BlockSolution> = fractional.blocks.clone();
    let (usage, obj) = compute_state(inst, &layout, &blocks);
    // The rounding potential keeps the objective row, targeting the
    // fractional objective: rounding should not degrade cost more than
    // necessary while repairing integrality.
    let target = Some(fractional.objective.max(1e-9));
    let mut coupling = Coupling::new(layout, caps_of(inst, &layout), gamma, target);
    coupling.set_state(usage, obj);
    coupling.init_scale(0.01);

    let mut rounded = 0usize;
    // The penalty arena and UFL buffers are reused across all rounded
    // videos (same flat hot path as the EPF loop; see crate::penalty).
    let mut arena = PenaltyArena::new(inst, &layout);
    let mut ufl = UflProblem::default();
    let mut scratch = UflScratch::default();
    let mut deltas: Vec<(usize, f64)> = Vec::new();
    // `m` indexes `inst.blocks()` and `blocks` (mutated below) in
    // lockstep, so a range loop is the honest shape here.
    #[allow(clippy::needless_range_loop)]
    for m in 0..inst.n_videos() {
        if blocks[m].is_integral() {
            continue;
        }
        rounded += 1;
        // Fresh multipliers for every committed video: later videos
        // must see the load the earlier roundings committed. Link
        // penalties are priced *before* this block's own contribution
        // is removed (incremental: only rows the previous rounding
        // touched get re-summed).
        arena.update(inst, &layout, &coupling.duals(), kernel);
        let data = &inst.blocks()[m];
        // Remove this block's fractional contribution so the UFL sees
        // the load of everyone else.
        let empty = BlockSolution {
            y: Vec::new(),
            x: vec![Vec::new(); data.clients.len()],
        };
        let dobj_out = block_delta(inst, &layout, data, &blocks[m], &empty, &mut deltas);
        coupling.apply(&deltas, dobj_out, 1.0);

        let duals_now = coupling.duals();
        build_ufl_into(inst, &layout, data, &duals_now, &arena, &mut ufl, kernel);
        let cand = ufl.solve_local_search_with_kernel(&mut scratch, kernel);
        let hat = BlockSolution::from_ufl(&cand);
        let dobj_in = block_delta(inst, &layout, data, &empty, &hat, &mut deltas);
        coupling.apply(&deltas, dobj_in, 1.0);
        blocks[m] = hat;
    }

    // Snap near-integral y values exactly and drop zero entries.
    for b in &mut blocks {
        for e in &mut b.y {
            e.1 = if e.1 >= 0.5 { 1.0 } else { 0.0 };
        }
        b.y.retain(|&(_, v)| v > 0.0);
    }

    repair_disks(inst, &mut blocks);

    // Final routing sweep: with the copy sets fixed (integral y),
    // re-route every client to its cheapest holder under the
    // post-repair congestion duals — the repair's ad-hoc reassignments
    // and the dual-inflated costs used mid-rounding both leave easy
    // routing wins on the table.
    {
        let (usage, obj) = compute_state(inst, &layout, &blocks);
        coupling.set_state(usage, obj);
        arena.update(inst, &layout, &coupling.duals(), kernel);
        let mut costs = Vec::new();
        let mut buf = BlockBuf::default();
        for (m, data) in inst.blocks().iter().enumerate() {
            let better = greedy_x_given_y(inst, data, &blocks[m].y, &arena, &mut costs, &mut buf);
            blocks[m].x.clone_from(&better.x);
        }
    }

    let (usage, objective) = compute_state(inst, &layout, &blocks);
    coupling.set_state(usage, objective);
    let max_violation = coupling.delta_c().max(0.0);
    let optimality_gap = (fractional.lower_bound > 0.0)
        .then(|| (objective - fractional.lower_bound) / fractional.lower_bound);

    let placement = Placement::from_blocks(inst, &blocks);
    // Rounded blocks must be exactly block-feasible and the assembled
    // placement must stay within the violation the stats report.
    #[cfg(feature = "audit")]
    {
        crate::audit::check_blocks(inst, &blocks, crate::solution::INT_TOL)
            .assert_ok("rounded block invariants");
        crate::audit::check_placement(inst, &placement, max_violation + crate::solution::INT_TOL)
            .assert_ok("rounded placement audit");
    }
    (
        placement,
        RoundingStats {
            videos_rounded: rounded,
            objective,
            max_violation,
            optimality_gap,
        },
    )
}

/// Greedy disk-repair pass: integral placements are lumpy (a 2 GB
/// movie on a small disk is several percent of it), so after rounding
/// some disks can exceed capacity. While any VHO is overfull, drop (or
/// move) the copy whose removal costs least: a multi-copy video's copy
/// is dropped and its clients reassigned to the cheapest remaining
/// holder; a single-copy video is moved to the most-underfull VHO that
/// fits. Bounded number of moves; link loads are re-derived afterwards
/// by the caller's `compute_state`.
fn repair_disks(inst: &MipInstance, blocks: &mut [BlockSolution]) {
    let n_vhos = inst.n_vhos();
    let mut usage = vec![0.0f64; n_vhos];
    // holders[i] = videos pinned at i.
    let mut held: Vec<Vec<usize>> = vec![Vec::new(); n_vhos];
    for (mi, b) in blocks.iter().enumerate() {
        for &(i, yv) in &b.y {
            if yv >= 0.5 {
                usage[i.index()] += inst.blocks()[mi].size_gb;
                held[i.index()].push(mi);
            }
        }
    }
    let caps: Vec<f64> = inst.disks.iter().map(|d| d.value()).collect();

    // Reassign the clients of video `mi` that were served by `from`
    // onto the cheapest remaining holder.
    let reassign = |blocks: &mut [BlockSolution], mi: usize, from: vod_model::VhoId| {
        let stores: Vec<vod_model::VhoId> = blocks[mi].stores();
        let data = &inst.blocks()[mi];
        for (c_idx, client) in data.clients.iter().enumerate() {
            let dist = &mut blocks[mi].x[c_idx];
            let moved: f64 = dist
                .iter()
                .filter(|&&(i, _)| i == from)
                .map(|&(_, v)| v)
                .sum();
            if moved > 0.0 {
                let Some(target) = stores.iter().copied().min_by(|&a, &b| {
                    inst.cost(a, client.j)
                        .total_cmp(&inst.cost(b, client.j))
                        .then(a.cmp(&b))
                }) else {
                    // Callers only drop a copy when another holder
                    // survives; if that invariant ever slips, keep the
                    // old routing rather than dropping served demand.
                    continue;
                };
                dist.retain(|&(i, _)| i != from);
                match dist.binary_search_by_key(&target, |&(i, _)| i) {
                    Ok(k) => dist[k].1 += moved,
                    Err(k) => dist.insert(k, (target, moved)),
                }
            }
        }
    };

    let max_moves = 4 * n_vhos * 4 + 64;
    for _ in 0..max_moves {
        // Most-overfull VHO.
        let Some(over) = (0..n_vhos)
            .filter(|&i| usage[i] > caps[i] * (1.0 + 1e-9))
            .max_by(|&a, &b| (usage[a] / caps[a]).total_cmp(&(usage[b] / caps[b])))
        else {
            break;
        };
        // lint:allow(raw-index): disk-usage vectors are dense over VHO indices
        let over_id = vod_model::VhoId::from_index(over);
        // Candidate 1: drop a multi-copy video (smallest demand served
        // from here first — approximates least removal cost).
        let drop_candidate = held[over]
            .iter()
            .copied()
            .filter(|&mi| blocks[mi].stores().len() >= 2)
            .min_by(|&a, &b| {
                let served = |mi: usize| -> f64 {
                    inst.blocks()[mi]
                        .clients
                        .iter()
                        .zip(&blocks[mi].x)
                        .map(|(c, dist)| {
                            dist.iter()
                                .filter(|&&(i, _)| i == over_id)
                                .map(|&(_, v)| v * c.demand_gb)
                                .sum::<f64>()
                        })
                        .sum()
                };
                served(a).total_cmp(&served(b)).then(a.cmp(&b))
            });
        if let Some(mi) = drop_candidate {
            blocks[mi].y.retain(|&(i, _)| i != over_id);
            reassign(blocks, mi, over_id);
            usage[over] -= inst.blocks()[mi].size_gb;
            held[over].retain(|&m| m != mi);
            continue;
        }
        // Candidate 2: move a single-copy video to the most-underfull
        // VHO with room.
        let Some(&mi) = held[over].iter().min_by(|&&a, &&b| {
            inst.blocks()[a]
                .size_gb
                .total_cmp(&inst.blocks()[b].size_gb)
                .then(a.cmp(&b))
        }) else {
            break;
        };
        let size = inst.blocks()[mi].size_gb;
        let Some(target) = (0..n_vhos)
            .filter(|&i| i != over && usage[i] + size <= caps[i])
            .min_by(|&a, &b| (usage[a] / caps[a]).total_cmp(&(usage[b] / caps[b])))
        else {
            break; // nowhere to put it — give up on this VHO
        };
        // lint:allow(raw-index): disk-usage vectors are dense over VHO indices
        let target_id = vod_model::VhoId::from_index(target);
        blocks[mi].y.retain(|&(i, _)| i != over_id);
        match blocks[mi].y.binary_search_by_key(&target_id, |&(i, _)| i) {
            Ok(_) => {}
            Err(k) => blocks[mi].y.insert(k, (target_id, 1.0)),
        }
        reassign(blocks, mi, over_id);
        usage[over] -= size;
        usage[target] += size;
        held[over].retain(|&m| m != mi);
        held[target].push(mi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epf::{solve_fractional, EpfConfig};
    use crate::instance::DiskConfig;
    use vod_model::{Mbps, VideoId};
    use vod_net::topologies;
    use vod_trace::{
        analysis, generate_trace, synthesize_library, DemandInput, LibraryConfig, TraceConfig,
    };

    fn instance(seed: u64) -> MipInstance {
        let mut net = topologies::mesh_backbone(6, 9, seed);
        net.set_uniform_capacity(Mbps::from_gbps(1.0));
        let catalog = synthesize_library(&LibraryConfig::default_for(80, 7, seed));
        let trace = generate_trace(&catalog, &net, &TraceConfig::default_for(800.0, 7, seed));
        let windows = analysis::select_peak_windows(&trace, &catalog, 3600, 2);
        let demand = DemandInput::from_trace(&trace, &catalog, net.num_nodes(), windows);
        MipInstance::new(
            net,
            catalog,
            demand,
            &DiskConfig::UniformRatio { ratio: 2.0 },
            1.0,
            0.0,
            None,
        )
    }

    #[test]
    fn rounding_produces_integral_covering_placement() {
        let inst = instance(21);
        let cfg = EpfConfig {
            max_passes: 100,
            seed: 21,
            ..Default::default()
        };
        let (frac, _) = solve_fractional(&inst, &cfg);
        let (placement, stats) = round_solution(&inst, &frac, cfg.gamma, cfg.kernel);
        assert_eq!(placement.n_videos(), inst.n_videos());
        for m in inst.catalog.ids() {
            assert!(
                !placement.stores(m).is_empty(),
                "video {m} lost its last copy"
            );
        }
        // Rounding should keep violations small (paper: a few percent).
        assert!(
            stats.max_violation < 0.25,
            "violation too large: {}",
            stats.max_violation
        );
        // Objective within a reasonable factor of the fractional one.
        assert!(stats.objective <= frac.objective * 1.5 + 1e-6);
    }

    #[test]
    fn optimality_gap_reported() {
        let inst = instance(22);
        let cfg = EpfConfig {
            max_passes: 120,
            seed: 22,
            ..Default::default()
        };
        let (frac, stats) = solve_fractional(&inst, &cfg);
        let (_, rstats) = round_solution(&inst, &frac, cfg.gamma, cfg.kernel);
        if stats.converged {
            let gap = rstats.optimality_gap.expect("bound exists");
            assert!(gap >= -1e-6, "objective below a valid lower bound: {gap}");
            assert!(gap < 0.30, "gap suspiciously large: {gap}");
        }
    }

    #[test]
    fn integral_blocks_mostly_untouched() {
        let inst = instance(23);
        let cfg = EpfConfig {
            max_passes: 100,
            seed: 23,
            ..Default::default()
        };
        let (frac, _) = solve_fractional(&inst, &cfg);
        let pre: Vec<Vec<vod_model::VhoId>> = frac
            .blocks
            .iter()
            .map(|b| {
                if b.is_integral() {
                    b.stores()
                } else {
                    Vec::new()
                }
            })
            .collect();
        let (placement, _) = round_solution(&inst, &frac, cfg.gamma, cfg.kernel);
        // The integer re-solve must not touch already-integral videos;
        // only the final disk-repair pass may *shrink or move* their
        // copy sets (never below one copy). So: each pre-integral
        // video either keeps a subset of its stores, or was moved
        // (single-copy) — and is always still stored somewhere.
        let mut changed = 0usize;
        for (mi, stores) in pre.iter().enumerate() {
            if stores.is_empty() {
                continue;
            }
            let now = placement.stores(VideoId::from_index(mi));
            assert!(!now.is_empty(), "video {mi} lost its last copy");
            let subset = now.iter().all(|i| stores.contains(i));
            let moved = stores.len() == 1 && now.len() == 1;
            assert!(
                subset || moved,
                "video {mi}: stores grew beyond repair semantics: {stores:?} -> {now:?}"
            );
            if now != stores.as_slice() {
                changed += 1;
            }
        }
        // Repair is a touch-up, not a re-solve.
        assert!(
            changed * 4 <= pre.iter().filter(|s| !s.is_empty()).count().max(4),
            "repair modified too many integral videos: {changed}"
        );
    }

    #[test]
    fn repair_eliminates_disk_overflows() {
        let inst = instance(24);
        let cfg = EpfConfig {
            max_passes: 100,
            seed: 24,
            ..Default::default()
        };
        let (frac, _) = solve_fractional(&inst, &cfg);
        let (placement, stats) = round_solution(&inst, &frac, cfg.gamma, cfg.kernel);
        // After the repair pass, disk violations specifically should be
        // (close to) zero; remaining violation, if any, is on links.
        let usage = placement.disk_usage(&inst.catalog);
        for (u, cap) in usage.iter().zip(&inst.disks) {
            assert!(
                u.value() <= cap.value() * 1.02 + 1e-9,
                "disk still overfull after repair: {u} vs {cap} (stats {stats:?})"
            );
        }
    }
}
