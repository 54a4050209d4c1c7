//! Validation of the per-video block solvers against the exact block
//! LP (solved by the generic simplex): the dual-ascent bound must
//! lower-bound the exact LP optimum and stay tight on average, and the
//! local-search integer solution must sit just above it. The full
//! `F^m` model below is the oracle for `vod_core::direct`'s projected
//! one, which is what the solver runs.
#![expect(clippy::unwrap_used, reason = "test code unwraps its own fixtures")]
use vod_core::block::{UflProblem, UflScratch};
use vod_core::direct::{exact_block_lp, exact_block_lp_solution};
use vod_core::Kernel;
use vod_lp::{Cmp, LinearProgram};

fn exact_ufl_lp(p: &UflProblem) -> f64 {
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
    vod_lp::solve_lp(&lp).unwrap().objective
}

#[test]
fn block_bounds_sandwich_exact_lp() {
    use rand::Rng;
    let mut scratch = UflScratch::default();
    for &kernel in Kernel::all() {
        let mut tot_da = 0.0;
        let mut tot_exact = 0.0;
        let mut tot_ls = 0.0;
        let mut rng = vod_model::rng::rng_from_seed(5);
        for _ in 0..200 {
            let n = 6;
            let c = rng.gen_range(1..7usize);
            let p = UflProblem::from_rows(
                (0..n).map(|_| rng.gen_range(0.0..3.0f64)).collect(),
                (0..c)
                    .map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0f64)).collect())
                    .collect(),
            );
            let da = p.dual_ascent_bound_with_kernel(&mut scratch, kernel);
            let ex = exact_ufl_lp(&p);
            let ls = p.cost(&p.solve_local_search_with_kernel(&mut scratch, kernel));
            assert!(da <= ex + 1e-6, "invalid bound {da} vs exact {ex}");
            tot_da += da;
            tot_exact += ex;
            tot_ls += ls;
        }
        eprintln!(
            "{}: dual ascent {tot_da:.2}  exact LP {tot_exact:.2}  local search {tot_ls:.2}",
            kernel.name()
        );
        eprintln!(
            "ascent slack {:.3}%  integrality {:.3}%",
            (tot_exact - tot_da) / tot_exact * 100.0,
            (tot_ls - tot_exact) / tot_exact * 100.0
        );
    }
}

/// How a case of the projected-model family draws its costs.
#[derive(Debug, Clone, Copy)]
enum Costs {
    /// Continuous: no ties anywhere.
    Continuous,
    /// `f ∈ {0..3}`, `s ∈ {0..4}`: ties among the `s_ck` of a row
    /// (duplicate and dropped cut columns), among the `f_i`, and
    /// between the two.
    Grid,
    /// Every facility free: all facility rows start degenerate.
    FreeFacilities,
    /// Every other client pays the same wherever it is served: its
    /// client row is skipped.
    ConstantRows,
    /// Facility 0 is the cheapest for every client.
    DominantFacility,
    /// Client `c` is cheap at facilities `c` and `c + 1 (mod n)` only:
    /// on an odd cycle the LP stores half a copy at each, which no
    /// integral solution matches — the optima with fractional `y`.
    OddCycle,
}

fn draw(rng: &mut impl rand::Rng, n: usize, clients: usize, costs: Costs) -> UflProblem {
    let grid = matches!(costs, Costs::Grid);
    let facility = (0..n)
        .map(|_| match costs {
            Costs::Grid => rng.gen_range(0..4u32) as f64,
            Costs::FreeFacilities => 0.0,
            _ => rng.gen_range(0.0..3.0f64),
        })
        .collect();
    let rows = (0..clients)
        .map(|c| {
            let mut row: Vec<f64> = (0..n)
                .map(|_| {
                    if grid {
                        rng.gen_range(0..5u32) as f64
                    } else {
                        rng.gen_range(0.0..10.0f64)
                    }
                })
                .collect();
            match costs {
                Costs::ConstantRows if c % 2 == 0 => row.fill(rng.gen_range(0.0..10.0f64)),
                Costs::DominantFacility => row[0] = rng.gen_range(0.0..0.01f64),
                Costs::OddCycle => {
                    for (i, s) in row.iter_mut().enumerate() {
                        let near = i == c % n || i == (c + 1) % n;
                        *s = if near { *s * 0.01 } else { 8.0 + *s };
                    }
                }
                _ => {}
            }
            row
        })
        .collect();
    UflProblem::from_rows(facility, rows)
}

/// The projected block LP (`C + n` rows, solved from its dual) against
/// the full `F^m` model above on a seeded family: equal optimum, a
/// mapped-back point that is feasible for `F^m` and priced at the
/// bound, and the sandwich dual ascent ≤ LP ≤ local search.
#[test]
fn projected_block_lp_matches_the_full_model() {
    use rand::Rng;
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let mut scratch = UflScratch::default();
    let mut rng = vod_model::rng::rng_from_seed(17);
    let mut fractional = 0;
    for n in [1usize, 2, 3, 6, 9, 23] {
        for costs in [
            Costs::Continuous,
            Costs::Grid,
            Costs::FreeFacilities,
            Costs::ConstantRows,
            Costs::DominantFacility,
            Costs::OddCycle,
        ] {
            for case in 0..if n < 23 { 20 } else { 5 } {
                // Zero clients every fifth case, else up to 14.
                let clients = if case % 5 == 0 {
                    0
                } else {
                    rng.gen_range(1..15usize)
                };
                let p = draw(&mut rng, n, clients, costs);
                let tag = format!("n={n} {costs:?} case {case} ({clients} clients)");

                let full = exact_ufl_lp(&p);
                let projected = exact_block_lp(&p);
                assert!(close(projected, full), "{tag}: {projected} vs full {full}");

                let da = p.dual_ascent_bound_with_kernel(&mut scratch, Kernel::default());
                let ls = p.cost(&p.solve_local_search_with_kernel(&mut scratch, Kernel::default()));
                assert!(
                    da <= projected + 1e-9 && projected <= ls + 1e-9,
                    "{tag}: dual ascent {da} <= LP {projected} <= local search {ls}"
                );

                let (bound, point) = exact_block_lp_solution(&p).expect(&tag);
                assert_eq!(bound.to_bits(), projected.to_bits(), "{tag}");
                assert_eq!(point.x.n_clients(), clients, "{tag}");
                let mut price = 0.0;
                let mut stored = 0.0;
                for &(i, y) in &point.y {
                    assert!(y > 0.0 && y <= 1.0 + 1e-9, "{tag}: y = {y}");
                    price += p.facility_cost[i.index()] * y;
                    stored += y;
                    fractional += usize::from(y < 0.99);
                }
                assert!(stored >= 1.0 - 1e-9, "{tag}: stores {stored} copies");
                for (row, dist) in p.service_rows().zip(point.x.iter()) {
                    assert!(dist.windows(2).all(|w| w[0].0 < w[1].0), "{tag}");
                    let mut total = 0.0;
                    for &(i, x) in dist {
                        assert!(x > 0.0 && x <= point.y_at(i), "{tag}: x = {x}");
                        price += row[i.index()] * x;
                        total += x;
                    }
                    assert!((total - 1.0).abs() <= 1e-9, "{tag}: shares sum to {total}");
                }
                assert!(
                    close(price, bound),
                    "{tag}: priced {price} vs bound {bound}"
                );
            }
        }
    }
    // The family is not all-integral: fractional optima do occur.
    assert!(fractional > 20, "{fractional} fractional y values");
}
