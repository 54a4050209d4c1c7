//! The *direct* (non-decomposed) LP/MIP formulation, fed to the generic
//! simplex of `vod-lp`.
//!
//! This materializes the full model of Section V-B — one `y_i^m` per
//! (VHO, video) and one `x_{ij}^m` per (server, demand client, video),
//! with all constraints (3)–(8) as explicit rows — exactly the way one
//! would hand the problem to CPLEX. It exists (a) to validate the EPF
//! solver against exact optima on small instances and (b) as the
//! baseline of the Table III scalability comparison.
//!
//! The same simplex also certifies single blocks:
//! [`exact_block_lp`] / [`exact_block_lp_solution`] return the exact
//! LP minimum of one video's UFL block, which the Lagrangian bound of
//! the Appendix (eq. 13) is defined on. A block is **not** handed over
//! as its full `F^m` model (`C + nC + n` rows for `C` clients and `n`
//! VHOs, a 5 MB tableau at 23 × 23, two phases): `x` is projected out
//! and the remaining LP in `y` is solved from its dual, `C + n` rows
//! with a feasible slack basis — the same optimum at about a tenth of
//! the cost. The derivation sits on `solve_projected`, the read-back
//! and what counts as a failed one on `map_back`; the full block model
//! lives on only as the oracle of `tests/block_bounds.rs`.

use crate::block::{UflProblem, UflScratch};
use crate::instance::MipInstance;
use crate::kernel::Kernel;
use crate::solution::BlockSolution;
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

/// Residual allowed when the projected block LP's optimum is mapped
/// back to a primal point (fill shortfall: absolute; price against the
/// LP value: relative). The simplex stops at reduced costs above
/// `−1e-9`, and `Σ_i y_i − 1` *is* the reduced cost of `σ`, so a healthy
/// optimum sits two orders of magnitude inside this.
const MAP_BACK_TOL: f64 = 1e-7;

/// The block LP with `x` projected out, solved from its dual side.
/// Returns the LP optimum and the optimal `y` (dense, one entry per
/// facility); `None` when the simplex fails.
///
/// **The model.** The block relaxation is
/// `min Σ_i f_i y_i + Σ_c Σ_i s_ci x_ci` over
/// `F^m = {Σ_i x_ci = 1, 0 ≤ x_ci ≤ y_i ≤ 1}`. For fixed `y` the clients
/// decouple and client `c` pays the greedy fill of its cheapest open
/// fractions; by LP duality of that fill,
/// `g_c(y) = max_v [ v − Σ_i (v − s_ci)⁺ y_i ]`. The bracket is concave
/// and piecewise linear in `v` with breakpoints at the `s_ck` and slope
/// `1 − Σ_{i: s_ci < v} y_i`, which ends at `1 − Σ_i y_i`: as long as
/// `Σ_i y_i ≥ 1` the maximum sits on a breakpoint, so
/// `g_c(y) = max_k [ s_ck − Σ_i (s_ck − s_ci)⁺ y_i ]` **exactly** — `n`
/// cuts per client describe `g_c`, nothing is relaxed. Without
/// `Σ_i y_i ≥ 1` the bracket grows without bound in `v` (the fill cannot
/// reach 1), which no finite set of cuts says: the full model gets the
/// row for free from `Σ x = 1, x ≤ y`, the projected one must state it.
/// The block LP is therefore
/// `min Σ_i f_i y_i + Σ_c θ_c` over `θ_c ≥` those cuts, `Σ_i y_i ≥ 1`,
/// `0 ≤ y ≤ 1`.
///
/// **Its dual** — what is actually built. With `lo_c = min_k s_ck` the
/// cut at the cheapest facility reads `θ_c ≥ lo_c`; shifting
/// `θ_c = lo_c + θ'_c`, `θ'_c ≥ 0` turns the dual's `Σ_k λ_ck = 1` into
/// `≤ 1` and makes every column with `s_ck = lo_c` a zero-objective
/// column that can be dropped:
///
/// ```text
/// max  Σ_c lo_c + Σ_{c,k} (s_ck − lo_c)·λ_ck + σ − Σ_i u_i
/// s.t. Σ_k λ_ck ≤ 1                                  (client c; skipped when its row is constant)
///      Σ_{c,k} (s_ck − s_ci)⁺·λ_ck + σ − u_i ≤ f_i    (facility i)        λ, σ, u ≥ 0
/// ```
///
/// `C + n` rows where the full model has `C + nC + n`. Every row is
/// `≤` with a right-hand side of `1` or `f_i ≥ 0`, so the slack basis
/// is feasible and the two-phase simplex never runs its phase 1.
///
/// **Reading the primal back.** The facility rows' prices are the
/// optimal `y` ([`vod_lp::LpSolution::duals`] reports them for the
/// minimisation `min −(…)`, hence negated); [`map_back`] recovers `x`.
fn solve_projected(p: &UflProblem) -> Option<(f64, Vec<f64>)> {
    let n = p.n_facilities();
    if p.n_clients() == 0 {
        // `min Σ f_i y_i` over `Σ y ≥ 1`: the cheapest facility, the
        // first one on ties.
        let (i, &f) = p
            .facility_cost
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))?;
        let mut y = vec![0.0; n];
        y[i] = 1.0;
        return Some((f, y));
    }
    let mut lp = LinearProgram::new();
    let mut lo_sum = 0.0;
    let mut client_rows = 0;
    let mut facility: Vec<Vec<(usize, f64)>> = (0..n)
        .map(|_| Vec::with_capacity(p.n_clients() * (n - 1) + 2))
        .collect();
    for row in p.service_rows() {
        let lo = row.iter().copied().fold(f64::INFINITY, f64::min);
        lo_sum += lo;
        let mut cuts = Vec::with_capacity(n - 1);
        for &at in row.iter().filter(|&&at| at > lo) {
            let lambda = lp.add_var(lo - at, None);
            cuts.push((lambda, 1.0));
            for (terms, &s) in facility.iter_mut().zip(row) {
                if at > s {
                    terms.push((lambda, at - s));
                }
            }
        }
        if !cuts.is_empty() {
            lp.add_constraint(cuts, Cmp::Le, 1.0);
            client_rows += 1;
        }
    }
    let sigma = lp.add_var(-1.0, None);
    for (mut terms, &f) in facility.into_iter().zip(&p.facility_cost) {
        terms.push((sigma, 1.0));
        terms.push((lp.add_var(1.0, None), -1.0));
        lp.add_constraint(terms, Cmp::Le, f);
    }
    let s = vod_lp::solve_lp(&lp).ok()?;
    let y = s.duals[client_rows..].iter().map(|&price| -price).collect();
    Some((lo_sum - s.objective, y))
}

/// Map an optimum of [`solve_projected`] back to a point of `F^m` and
/// check the residual. `x` is the greedy fill of each client's
/// cheapest facilities up to their `y` — the exact inner minimiser for
/// that `y`, so `(bound, usage of the point)` is a true subgradient
/// pair of the Lagrangian dual. A fill that cannot reach 1, or a point
/// whose price differs from the LP value beyond [`MAP_BACK_TOL`], is a
/// *failed* map-back: `None`, never a patched-up point. Under the
/// `audit` feature both residuals and `x ≤ y ≤ 1` are asserted instead.
fn map_back(p: &UflProblem, bound: f64, y: &[f64]) -> Option<BlockSolution> {
    // lint:allow(raw-index): LP rows are dense over VHO indices
    let vho = vod_model::VhoId::from_index;
    let mut price: f64 = y.iter().zip(&p.facility_cost).map(|(y, f)| y * f).sum();
    let mut short = (1.0 - y.iter().sum::<f64>()).max(0.0);
    let mut order: Vec<usize> = (0..y.len()).collect();
    let x: Vec<Vec<(vod_model::VhoId, f64)>> = p
        .service_rows()
        .map(|row| {
            order.sort_unstable_by(|&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
            let mut left = 1.0f64;
            let mut shares = Vec::new();
            for &i in &order {
                let take = y[i].min(left);
                if take > 1e-12 {
                    price += row[i] * take;
                    left -= take;
                    shares.push((vho(i), take));
                }
            }
            short = short.max(left);
            shares.sort_unstable_by_key(|&(i, _)| i);
            shares
        })
        .collect();
    let y = (0..y.len())
        .filter(|&i| y[i] > 1e-12)
        .map(|i| (vho(i), y[i]))
        .collect();
    let point = BlockSolution { y, x };
    // Relative, with magnitudes below 1 read as 1: the simplex's own
    // tolerances are absolute, so an optimum of exactly 0 may come back
    // as round-off.
    let ok =
        short <= MAP_BACK_TOL && (price - bound).abs() <= MAP_BACK_TOL * price.max(bound).max(1.0);
    #[cfg(feature = "audit")]
    {
        assert!(
            ok,
            "audit failed at block LP map-back: fill short by {short}, point priced at \
             {price} against the LP value {bound}"
        );
        let stored = point.y.iter().chain(point.x.iter().flatten());
        for &(i, v) in stored {
            assert!(
                v <= point.y_at(i).min(1.0 + MAP_BACK_TOL),
                "audit failed at block LP map-back: {v} at VHO {} exceeds y or 1",
                i.index()
            );
        }
    }
    ok.then_some(point)
}

/// Exact LP optimum of a single UFL block — the block minimum the
/// Lagrangian bound of the Appendix (eq. 13) asks for, where dual
/// ascent only lower-bounds it: the block LP with `x` projected out,
/// see the module docs.
pub fn exact_block_lp(p: &UflProblem) -> f64 {
    match solve_projected(p) {
        Some((bound, _)) => bound,
        // Fall back to the always-valid combinatorial bound.
        None => p.dual_ascent_bound_with_kernel(&mut UflScratch::default(), Kernel::default()),
    }
}

/// As [`exact_block_lp`], but also recovers the LP *minimizer*
/// (fractional `y`/`x`), so callers can form exact subgradients of the
/// Lagrangian dual instead of approximating them with the heuristic
/// minimizer's usage — at a dual kink the two can disagree badly
/// enough that ascent on the heuristic direction goes downhill.
/// Returns `None` when the simplex fails or the mapped-back point
/// misses its residual check (fill short of 1, or priced off the LP
/// value); callers fall back to the heuristic bound/minimizer pair.
pub fn exact_block_lp_solution(p: &UflProblem) -> Option<(f64, BlockSolution)> {
    let (bound, y) = solve_projected(p)?;
    Some((bound, map_back(p, bound, &y)?))
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
