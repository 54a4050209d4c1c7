//! Problem data structures for the generic LP solver.

use std::fmt;

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Le,
    Ge,
    Eq,
}

/// One sparse constraint row: `Σ coef·x[var] (cmp) rhs`.
#[derive(Debug, Clone)]
pub struct Row {
    pub terms: Vec<(usize, f64)>,
    pub cmp: Cmp,
    pub rhs: f64,
}

/// A minimization LP over variables `x_0..x_{n-1}` with `x >= 0` and
/// optional finite upper bounds (encoded internally as extra rows).
///
/// This mirrors the modeling surface a generic solver exposes: you
/// enumerate every variable and every constraint explicitly, which for
/// the placement LP means `|M|·(|V|² + |V|)` variables — exactly the
/// blow-up that makes the non-decomposed approach collapse in Table III.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    objective: Vec<f64>,
    upper_bounds: Vec<Option<f64>>,
    rows: Vec<Row>,
}

impl LinearProgram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a variable with objective coefficient `cost` and optional
    /// upper bound; returns its index. All variables are `>= 0`.
    pub fn add_var(&mut self, cost: f64, upper_bound: Option<f64>) -> usize {
        assert!(cost.is_finite(), "objective coefficient must be finite");
        if let Some(ub) = upper_bound {
            assert!(ub >= 0.0 && ub.is_finite(), "invalid upper bound {ub}");
        }
        self.objective.push(cost);
        self.upper_bounds.push(upper_bound);
        self.objective.len() - 1
    }

    /// Add a sparse constraint. Terms with out-of-range variables or
    /// non-finite coefficients are rejected.
    pub fn add_constraint(&mut self, terms: Vec<(usize, f64)>, cmp: Cmp, rhs: f64) {
        assert!(rhs.is_finite(), "constraint rhs must be finite");
        for &(v, c) in &terms {
            assert!(v < self.objective.len(), "variable {v} out of range");
            assert!(c.is_finite(), "constraint coefficient must be finite");
        }
        self.rows.push(Row { terms, cmp, rhs });
    }

    #[inline]
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    #[inline]
    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    #[inline]
    pub fn upper_bound(&self, var: usize) -> Option<f64> {
        self.upper_bounds[var]
    }

    /// All rows including the materialized `x <= ub` bound rows, in a
    /// form ready for standardization.
    pub(crate) fn all_rows(&self) -> Vec<Row> {
        let mut rows = self.rows.clone();
        for (v, ub) in self.upper_bounds.iter().enumerate() {
            if let Some(ub) = ub {
                rows.push(Row {
                    terms: vec![(v, 1.0)],
                    cmp: Cmp::Le,
                    rhs: *ub,
                });
            }
        }
        rows
    }

    /// Evaluate the objective at `x`.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Maximum constraint violation of `x` (0 when feasible), including
    /// bounds and nonnegativity.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst = 0.0f64;
        for (v, ub) in self.upper_bounds.iter().enumerate() {
            worst = worst.max(-x[v]);
            if let Some(ub) = ub {
                worst = worst.max(x[v] - ub);
            }
        }
        for row in &self.rows {
            let lhs: f64 = row.terms.iter().map(|&(v, c)| c * x[v]).sum();
            let viol = match row.cmp {
                Cmp::Le => lhs - row.rhs,
                Cmp::Ge => row.rhs - lhs,
                Cmp::Eq => (lhs - row.rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Approximate memory footprint of the dense simplex tableau this
    /// LP would require, in bytes. Reported by the Table III
    /// experiment: the generic approach materializes an
    /// `(m+1) × (n + slacks + artificials + 1)` dense matrix.
    pub fn tableau_bytes(&self) -> usize {
        let m = self.all_rows().len();
        let n = self.num_vars();
        // Worst case: one slack/surplus plus one artificial per row.
        let cols = n + 2 * m + 1;
        (m + 1) * cols * std::mem::size_of::<f64>()
    }
}

/// Solver failure modes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LpError {
    Infeasible,
    Unbounded,
    /// Iteration limit hit — returned rather than looping forever on
    /// pathological inputs.
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "LP is infeasible"),
            LpError::Unbounded => write!(f, "LP is unbounded"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub x: Vec<f64>,
    pub objective: f64,
    pub iterations: usize,
    /// One price per [`LinearProgram::add_constraint`] row, in call
    /// order (variable upper bounds have none): `∂ objective / ∂ rhs`
    /// of the *minimisation* at this optimum, read off the reduced cost
    /// of the row's slack (artificial for `=`) column. So `≤` rows
    /// price at `≤ 0`, `≥` rows at `≥ 0`, `=` rows either way, a row
    /// with slack left at 0, and `c_j − Σ_r duals[r]·a_rj ≥ 0` for
    /// every variable below its upper bound. A maximisation stated as
    /// `min −f` reports the textbook shadow prices negated.
    pub duals: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_evaluate() {
        let mut lp = LinearProgram::new();
        let a = lp.add_var(1.0, None);
        let b = lp.add_var(2.0, Some(5.0));
        lp.add_constraint(vec![(a, 1.0), (b, 1.0)], Cmp::Ge, 3.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 1);
        assert_eq!(lp.objective_value(&[1.0, 2.0]), 5.0);
        // Bound row materialized.
        assert_eq!(lp.all_rows().len(), 2);
    }

    #[test]
    fn violation_measures() {
        let mut lp = LinearProgram::new();
        let a = lp.add_var(1.0, Some(1.0));
        lp.add_constraint(vec![(a, 2.0)], Cmp::Le, 1.0);
        assert_eq!(lp.max_violation(&[0.5]), 0.0);
        assert!((lp.max_violation(&[1.5]) - 2.0).abs() < 1e-12); // 2*1.5-1=2
        assert_eq!(lp.max_violation(&[-1.0]), 1.0); // nonnegativity
    }

    #[test]
    fn tableau_bytes_grows_with_size() {
        let mut small = LinearProgram::new();
        let v = small.add_var(1.0, None);
        small.add_constraint(vec![(v, 1.0)], Cmp::Le, 1.0);
        let mut big = LinearProgram::new();
        for _ in 0..100 {
            let v = big.add_var(1.0, None);
            big.add_constraint(vec![(v, 1.0)], Cmp::Le, 1.0);
        }
        assert!(big.tableau_bytes() > 100 * small.tableau_bytes());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_unknown_variable() {
        let mut lp = LinearProgram::new();
        lp.add_constraint(vec![(0, 1.0)], Cmp::Le, 1.0);
    }
}
