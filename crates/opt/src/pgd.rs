//! Projected-gradient solver for the load-distribution problem, the exact
//! solver's test oracle.
//!
//! This is an *independent* (slower, iterative) solver for the same convex
//! program handled exactly by [`crate::waterfill`], read from the same
//! [`BankProblem`]: one variable per bank row, retracted `m = 0` rows held
//! at 0. It exists for two reasons:
//!
//! 1. **Cross-validation** — the test suite checks that two very different
//!    algorithms agree, which guards against subtle KKT bookkeeping bugs in
//!    the closed-form solver.
//! 2. **Generality** — it accepts any differentiable convex delay model, not
//!    just M/G/1/PS, should a user plug in a custom cost.
//!
//! The `[power − r]⁺` kink is handled with a subgradient (0 at the kink),
//! which is sound for convex objectives under diminishing step sizes.

use crate::simplex::project_capped_simplex;
use crate::waterfill::BankProblem;
use crate::Result;

/// Options for the projected-gradient solver.
#[derive(Debug, Clone, Copy)]
pub struct PgdOptions {
    /// Number of gradient iterations.
    pub iterations: usize,
    /// Initial step size; decays as `step / √(k+1)`.
    pub step: f64,
}

impl Default for PgdOptions {
    fn default() -> Self {
        Self { iterations: 4000, step: 0.5 }
    }
}

/// Minimizes the load-distribution objective by projected (sub)gradient
/// descent. Returns the per-row loads in bank row order. Every live row
/// must stand for one queue (`m = 1`); retracted `m = 0` rows are skipped
/// and hold load 0.
pub fn solve_pgd(problem: &BankProblem<'_>, opts: PgdOptions) -> Result<Vec<f64>> {
    let bank = problem.bank;
    bank.validate()?;
    problem.validate()?;
    // Multiplicity is an integer count stored as f64; the exact compare is
    // intended. audit:allow(float-eq)
    if (0..bank.len()).any(|k| bank.multiplicity_of(k) != 0.0 && bank.multiplicity_of(k) != 1.0) {
        return Err(crate::OptError::InvalidInput(
            "solve_pgd requires multiplicities 0 or 1; expand queue types first".into(),
        ));
    }
    let n = bank.len();
    // A retracted row is capped at 0, so the projection keeps it empty.
    let caps: Vec<f64> = (0..n).map(|k| bank.multiplicity_of(k) * bank.util_cap_of(k)).collect();
    // Feasible start: proportional to caps.
    let cap_sum: f64 = caps.iter().sum();
    if problem.total_load > cap_sum * (1.0 + 1e-12) {
        return Err(crate::OptError::Infeasible(format!(
            "total load {} exceeds capped capacity {cap_sum}",
            problem.total_load
        )));
    }
    let mut x: Vec<f64> = caps.iter().map(|u| u / cap_sum * problem.total_load).collect();
    let mut best = x.clone();
    let mut best_val = problem.objective(&x);
    let mut grad = vec![0.0; n];

    for k in 0..opts.iterations {
        let power = problem.base_power
            + x.iter()
                .enumerate()
                .map(|(i, &xi)| bank.multiplicity_of(i) * bank.energy_slope_of(i) * xi)
                .sum::<f64>();
        let active = power > problem.renewable;
        for (i, (g, &xi)) in grad.iter_mut().zip(&x).enumerate() {
            if caps[i] <= 0.0 {
                *g = 0.0;
                continue;
            }
            let capacity = bank.capacity_of(i);
            let denom = capacity - xi;
            let ddelay = capacity / (denom * denom);
            let denergy = if active { bank.energy_slope_of(i) } else { 0.0 };
            *g = problem.energy_weight * denergy + problem.delay_weight * ddelay;
        }
        // Normalize the gradient so the step size is scale-free.
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt().max(1e-12);
        let step = opts.step * problem.total_load.max(1.0) / (gnorm * ((k + 1) as f64).sqrt());
        let y: Vec<f64> = x.iter().zip(&grad).map(|(xi, g)| xi - step * g).collect();
        // The projection caps every row (delay blows up at λᵢ = Xᵢ, and
        // `uᵢ < Xᵢ` keeps it strictly inside capacity).
        x = project_capped_simplex(&y, &caps, problem.total_load)?;
        let val = problem.objective(&x);
        if val < best_val {
            best_val = val;
            best.copy_from_slice(&x);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waterfill::{solve, QueueBank};

    /// A bank of single queues `(capacity, util_cap, energy_slope)`.
    fn bank_of(rows: &[(f64, f64, f64)]) -> QueueBank {
        let mut bank = QueueBank::new();
        for &(x, u, c) in rows {
            bank.push_type(x, u, c, 0.0, 1.0);
        }
        bank
    }

    fn problem(bank: &QueueBank, load: f64, a: f64, w: f64, base: f64, r: f64) -> BankProblem<'_> {
        BankProblem {
            bank,
            total_load: load,
            energy_weight: a,
            delay_weight: w,
            base_power: base,
            capped_capacity: bank.aggregates().0,
            renewable: r,
        }
    }

    fn agree(p: &BankProblem<'_>, rel_tol: f64) {
        let (exact, _) = solve(p).unwrap();
        let approx = solve_pgd(p, PgdOptions::default()).unwrap();
        let v_exact = exact.objective;
        let v_pgd = p.objective(&approx);
        assert!(
            v_pgd <= v_exact * (1.0 + rel_tol) + 1e-9 && v_exact <= v_pgd * (1.0 + rel_tol) + 1e-9,
            "objective mismatch: exact {v_exact} vs pgd {v_pgd}"
        );
    }

    #[test]
    fn agrees_with_waterfill_heterogeneous() {
        let bank = bank_of(&[(8.0, 7.2, 0.3), (14.0, 12.6, 0.1), (11.0, 9.9, 0.2)]);
        agree(&problem(&bank, 17.0, 3.0, 1.5, 0.7, 1.0), 1e-3);
    }

    #[test]
    fn agrees_with_waterfill_on_kink_instance() {
        let bank = bank_of(&[(10.0, 9.0, 1.0), (10.0, 9.0, 3.0)]);
        agree(&problem(&bank, 10.0, 50.0, 1.0, 0.0, 16.0), 5e-3);
    }

    #[test]
    fn retracted_rows_hold_no_load() {
        let mut bank = bank_of(&[(8.0, 7.2, 0.3), (14.0, 12.6, 0.1)]);
        bank.push_type(11.0, 9.9, 0.2, 0.0, 0.0);
        let p = problem(&bank, 12.0, 3.0, 1.5, 0.7, 1.0);
        let x = solve_pgd(&p, PgdOptions::default()).unwrap();
        assert_eq!(x[2], 0.0);
        agree(&p, 1e-3);
    }

    #[test]
    fn infeasible_and_weighted_rows_rejected() {
        let bank = bank_of(&[(2.0, 1.0, 0.1)]);
        let p = problem(&bank, 5.0, 1.0, 1.0, 0.0, 0.0);
        assert!(matches!(
            solve_pgd(&p, PgdOptions::default()),
            Err(crate::OptError::Infeasible(_))
        ));
        let mut bank = QueueBank::new();
        bank.push_type(10.0, 9.0, 0.1, 0.0, 2.0);
        let p = problem(&bank, 5.0, 1.0, 1.0, 0.0, 0.0);
        assert!(matches!(
            solve_pgd(&p, PgdOptions::default()),
            Err(crate::OptError::InvalidInput(_))
        ));
    }
}
