//! The *direct* (non-decomposed) LP/MIP formulation, fed to the generic
//! simplex of `vod-lp`.
//!
//! This materializes the full model of Section V-B — one `y_i^m` per
//! (VHO, video) and one `x_{ij}^m` per (server, demand client, video),
//! with all constraints (3)–(8) as explicit rows — exactly the way one
//! would hand the problem to CPLEX. It exists (a) to validate the EPF
//! solver against exact optima on small instances and (b) as the
//! baseline of the Table III scalability comparison.

use crate::block::UflScratch;
use crate::instance::MipInstance;
use crate::kernel::Kernel;
use vod_lp::{Cmp, LinearProgram};

/// The direct formulation plus the variable index maps needed to read
/// a solution back.
#[derive(Debug)]
pub struct DirectLp {
    pub lp: LinearProgram,
    /// `y_vars[m][i]` — index of `y_i^m`.
    pub y_vars: Vec<Vec<usize>>,
    /// `x_vars[m][c][i]` — index of `x_{i, client c}^m` (clients in the
    /// block's order).
    pub x_vars: Vec<Vec<Vec<usize>>>,
}

impl DirectLp {
    /// All `y` variable indices (the MIP's integer variables).
    pub fn integer_vars(&self) -> Vec<usize> {
        self.y_vars.iter().flatten().copied().collect()
    }
}

/// Build the direct LP (the relaxation; pass [`DirectLp::integer_vars`]
/// to `vod_lp::solve_mip` for the exact MIP).
pub fn build_direct_lp(inst: &MipInstance) -> DirectLp {
    let v = inst.n_vhos();
    let mut lp = LinearProgram::new();

    // Variables.
    let mut y_vars = Vec::with_capacity(inst.n_videos());
    let mut x_vars = Vec::with_capacity(inst.n_videos());
    for data in inst.blocks() {
        let ys: Vec<usize> = (0..v)
            .map(|i| {
                let fo = data.facility_obj_cost.get(i).copied().unwrap_or(0.0);
                lp.add_var(fo, Some(1.0))
            })
            .collect();
        let xs: Vec<Vec<usize>> = data
            .clients
            .iter()
            .map(|c| {
                (0..v)
                    .map(|i| {
                        let cost = c.demand_gb
                            // lint:allow(raw-index): LP columns are dense over VHO indices
                            * inst.cost(vod_model::VhoId::from_index(i), c.j);
                        lp.add_var(cost, None)
                    })
                    .collect()
            })
            .collect();
        y_vars.push(ys);
        x_vars.push(xs);
    }

    // (3) Σ_i x_ij = 1 and (4) x_ij <= y_i, per video and demand client.
    for (m, data) in inst.blocks().iter().enumerate() {
        for (c_idx, _client) in data.clients.iter().enumerate() {
            lp.add_constraint(
                (0..v).map(|i| (x_vars[m][c_idx][i], 1.0)).collect(),
                Cmp::Eq,
                1.0,
            );
            for i in 0..v {
                lp.add_constraint(
                    vec![(x_vars[m][c_idx][i], 1.0), (y_vars[m][i], -1.0)],
                    Cmp::Le,
                    0.0,
                );
            }
        }
        // Every video must be stored somewhere even without demand
        // (implied by (3)+(4) when clients exist; explicit otherwise).
        if data.clients.is_empty() {
            lp.add_constraint((0..v).map(|i| (y_vars[m][i], 1.0)).collect(), Cmp::Ge, 1.0);
        }
    }

    // (5) disk capacity per VHO.
    for (i, disk) in inst.disks.iter().enumerate() {
        let terms: Vec<(usize, f64)> = inst
            .blocks()
            .iter()
            .enumerate()
            .map(|(m, data)| (y_vars[m][i], data.size_gb))
            .collect();
        lp.add_constraint(terms, Cmp::Le, disk.value());
    }

    // (6) link bandwidth per (link, window).
    for t in 0..inst.n_windows() {
        for link in inst.network.links() {
            let mut terms: Vec<(usize, f64)> = Vec::new();
            for (m, data) in inst.blocks().iter().enumerate() {
                for (c_idx, client) in data.clients.iter().enumerate() {
                    let rate = client.rate[t];
                    if rate == 0.0 {
                        continue;
                    }
                    for (i, &xv) in x_vars[m][c_idx].iter().enumerate() {
                        // lint:allow(raw-index): LP columns are dense over VHO indices
                        let iv = vod_model::VhoId::from_index(i);
                        if inst.paths.path(iv, client.j).contains(&link.id) {
                            terms.push((xv, rate));
                        }
                    }
                }
            }
            if !terms.is_empty() {
                lp.add_constraint(terms, Cmp::Le, link.capacity.value());
            }
        }
    }

    DirectLp { lp, y_vars, x_vars }
}

/// Exact LP optimum of a single UFL block (tiny dense simplex) — used
/// to validate/tighten the per-block dual-ascent bounds on small
/// networks.
pub fn exact_block_lp(p: &crate::block::UflProblem) -> f64 {
    let n = p.facility_cost.len();
    let mut lp = LinearProgram::new();
    let ys: Vec<usize> = (0..n)
        .map(|i| lp.add_var(p.facility_cost[i], Some(1.0)))
        .collect();
    for row in p.service_rows() {
        let xv: Vec<usize> = (0..n).map(|i| lp.add_var(row[i], None)).collect();
        lp.add_constraint(xv.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);
        for i in 0..n {
            lp.add_constraint(vec![(xv[i], 1.0), (ys[i], -1.0)], Cmp::Le, 0.0);
        }
    }
    if p.n_clients() == 0 {
        lp.add_constraint(ys.iter().map(|&v| (v, 1.0)).collect(), Cmp::Ge, 1.0);
    }
    match vod_lp::solve_lp(&lp) {
        Ok(s) => s.objective,
        // Fall back to the always-valid combinatorial bound.
        Err(_) => p.dual_ascent_bound_with_kernel(&mut UflScratch::default(), Kernel::default()),
    }
}

/// As [`exact_block_lp`], but also recovers the LP *minimizer*
/// (fractional `y`/`x`), so callers can form exact subgradients of the
/// Lagrangian dual instead of approximating them with the heuristic
/// minimizer's usage — at a dual kink the two can disagree badly
/// enough that ascent on the heuristic direction goes downhill.
/// Returns `None` when the simplex fails; callers fall back to the
/// heuristic bound/minimizer pair.
pub fn exact_block_lp_solution(
    p: &crate::block::UflProblem,
) -> Option<(f64, crate::solution::BlockSolution)> {
    let n = p.facility_cost.len();
    let mut lp = LinearProgram::new();
    let ys: Vec<usize> = (0..n)
        .map(|i| lp.add_var(p.facility_cost[i], Some(1.0)))
        .collect();
    for row in p.service_rows() {
        let xv: Vec<usize> = (0..n).map(|i| lp.add_var(row[i], None)).collect();
        lp.add_constraint(xv.iter().map(|&v| (v, 1.0)).collect(), Cmp::Eq, 1.0);
        for i in 0..n {
            lp.add_constraint(vec![(xv[i], 1.0), (ys[i], -1.0)], Cmp::Le, 0.0);
        }
    }
    if p.n_clients() == 0 {
        lp.add_constraint(ys.iter().map(|&v| (v, 1.0)).collect(), Cmp::Ge, 1.0);
    }
    let s = vod_lp::solve_lp(&lp).ok()?;
    // Variable order mirrors the build above: `y` first, then one
    // dense VHO-row of `x` per client.
    let y: Vec<(vod_model::VhoId, f64)> = (0..n)
        .filter(|&i| s.x[i] > 1e-12)
        // lint:allow(raw-index): LP columns are dense over VHO indices
        .map(|i| (vod_model::VhoId::from_index(i), s.x[i]))
        .collect();
    let x: Vec<Vec<(vod_model::VhoId, f64)>> = (0..p.n_clients())
        .map(|c| {
            (0..n)
                .filter_map(|i| {
                    let v = s.x[n * (c + 1) + i];
                    // lint:allow(raw-index): same dense column order
                    (v > 1e-12).then(|| (vod_model::VhoId::from_index(i), v))
                })
                .collect()
        })
        .collect();
    Some((s.objective, crate::solution::BlockSolution { y, x }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epf::{solve_fractional, EpfConfig};
    use crate::instance::DiskConfig;
    use crate::rounding::round_solution;
    use vod_model::{Mbps, SimTime, TimeWindow, VhoId, VideoId};
    use vod_net::topologies;
    use vod_trace::{DemandInput, DemandMatrix};

    /// A hand-sized instance: 3 VHOs on a line, 4 videos.
    fn mini() -> MipInstance {
        use vod_model::{Catalog, Video, VideoClass, VideoKind};
        let mut net = topologies::line(3);
        net.set_uniform_capacity(Mbps::new(100.0));
        let videos: Vec<Video> = (0..4)
            .map(|i| Video {
                id: VideoId::new(i),
                class: VideoClass::Show, // 1 GB
                kind: VideoKind::Catalog,
                release_day: 0,
                weight: 1.0,
            })
            .collect();
        let catalog = Catalog::new(videos);
        // Demand: video 0 popular everywhere, others at single sites.
        let agg = DemandMatrix::from_rows(
            3,
            vec![
                vec![
                    (VhoId::new(0), 10.0),
                    (VhoId::new(1), 10.0),
                    (VhoId::new(2), 10.0),
                ],
                vec![(VhoId::new(0), 5.0)],
                vec![(VhoId::new(1), 4.0)],
                vec![(VhoId::new(2), 3.0)],
            ],
        );
        let windows = vec![TimeWindow::of_len(SimTime::ZERO, 3600)];
        let active = vec![agg.clone()];
        let demand = DemandInput {
            aggregate: agg,
            windows,
            active,
        };
        MipInstance::new(
            net,
            catalog,
            demand,
            // 2 GB per VHO: room for 2 videos each, 6 slots for 4
            // videos → placement matters.
            &DiskConfig::Explicit(vec![vod_model::Gigabytes::new(2.0); 3]),
            1.0,
            0.0,
            None,
        )
    }

    #[test]
    fn lp_relaxation_matches_epf_bound_direction() {
        let inst = mini();
        let direct = build_direct_lp(&inst);
        let exact = vod_lp::solve_lp(&direct.lp).expect("mini LP solvable");
        let cfg = EpfConfig {
            max_passes: 200,
            seed: 1,
            ..Default::default()
        };
        let (frac, _) = solve_fractional(&inst, &cfg);
        // EPF's Lagrangian bound must lower-bound the true LP optimum,
        // and its (ε-feasible) objective must be near it.
        assert!(
            frac.lower_bound <= exact.objective * (1.0 + 1e-6) + 1e-9,
            "LB {} exceeds LP optimum {}",
            frac.lower_bound,
            exact.objective
        );
        assert!(
            frac.objective >= exact.objective * (1.0 - 0.02) - 1e-9,
            "EPF objective {} below LP optimum {} (impossible beyond ε-violation slack)",
            frac.objective,
            exact.objective
        );
        assert!(
            frac.objective <= exact.objective * 1.10 + 1e-9,
            "EPF objective {} strays too far above LP optimum {}",
            frac.objective,
            exact.objective
        );
    }

    #[test]
    fn rounding_near_exact_mip() {
        let inst = mini();
        let direct = build_direct_lp(&inst);
        let mip = vod_lp::solve_mip(&direct.lp, &direct.integer_vars(), 20_000)
            .expect("mini MIP solvable");
        assert!(mip.proven_optimal);
        let cfg = EpfConfig {
            max_passes: 200,
            seed: 2,
            ..Default::default()
        };
        let (frac, _) = solve_fractional(&inst, &cfg);
        let (placement, rstats) = round_solution(&inst, &frac, cfg.gamma, cfg.kernel);
        // The heuristic pipeline must be close to the exact optimum
        // (paper: 1–4 % gaps; allow slack on this tiny instance).
        assert!(
            rstats.objective <= mip.solution.objective * 1.25 + 1e-6,
            "rounded {} vs exact MIP {}",
            rstats.objective,
            mip.solution.objective
        );
        // And its violation must stay small.
        assert!(rstats.max_violation < 0.25);
        // Popular video 0 should be replicated more than tail videos.
        let copies0 = placement.stores(VideoId::new(0)).len();
        let copies3 = placement.stores(VideoId::new(3)).len();
        assert!(copies0 >= copies3);
    }

    #[test]
    fn variable_counts_blow_up_with_library() {
        // The direct formulation's size is what breaks generic solvers
        // (Table III): verify the counts scale as |M|·(|V|² + |V|).
        let inst = mini();
        let direct = build_direct_lp(&inst);
        let v = inst.n_vhos();
        let expected_y = inst.n_videos() * v;
        let expected_x: usize = inst.blocks().iter().map(|b| b.clients.len() * v).sum();
        assert_eq!(direct.lp.num_vars(), expected_y + expected_x);
        assert!(direct.lp.num_constraints() > expected_x);
    }
}
