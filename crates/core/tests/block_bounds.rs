//! Validation of the per-video block solvers against the exact block
//! LP (solved by the generic simplex): the dual-ascent bound must
//! lower-bound the exact LP optimum and stay tight on average, and the
//! local-search integer solution must sit just above it.
#![allow(
    clippy::unwrap_used,
    clippy::float_cmp,
    clippy::cast_possible_truncation
)]
use vod_core::block::{UflProblem, UflScratch};
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
