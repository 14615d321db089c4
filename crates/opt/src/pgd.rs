//! Projected-gradient solver for the load-distribution problem, the exact
//! solver's test oracle.
//!
//! This is an *independent* (slower, iterative) solver for the same convex
//! program handled exactly by [`crate::waterfill`]. It exists for two
//! reasons:
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
use crate::waterfill::LoadDistProblem;
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
/// descent. Returns the per-queue loads.
pub fn solve_pgd(problem: &LoadDistProblem<'_>, opts: PgdOptions) -> Result<Vec<f64>> {
    problem.validate()?;
    // Multiplicity is an integer count stored as f64; the exact compare is
    // intended. audit:allow(float-eq)
    if problem.queues.iter().any(|q| q.multiplicity != 1.0) {
        return Err(crate::OptError::InvalidInput(
            "solve_pgd requires unit multiplicities; expand queue types first".into(),
        ));
    }
    let n = problem.queues.len();
    let caps: Vec<f64> = problem.queues.iter().map(|q| q.util_cap).collect();
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
        let power = problem.power(&x);
        let active = power > problem.renewable;
        for ((g, q), &xi) in grad.iter_mut().zip(problem.queues).zip(&x) {
            let denom = q.capacity - xi;
            let ddelay = q.capacity / (denom * denom);
            let denergy = if active { q.energy_slope } else { 0.0 };
            *g = problem.energy_weight * denergy + problem.delay_weight * ddelay;
        }
        // Normalize the gradient so the step size is scale-free.
        let gnorm = grad.iter().map(|g| g * g).sum::<f64>().sqrt().max(1e-12);
        let step = opts.step * problem.total_load.max(1.0) / (gnorm * ((k + 1) as f64).sqrt());
        let y: Vec<f64> = x.iter().zip(&grad).map(|(xi, g)| xi - step * g).collect();
        x = project_capped_simplex(&y, &caps, problem.total_load)?;
        // Keep strictly inside capacity (delay blows up at λᵢ = Xᵢ).
        for (xi, q) in x.iter_mut().zip(problem.queues) {
            *xi = xi.min(q.util_cap);
        }
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
    use crate::waterfill::{solve, QueueSpec};

    fn agree(p: &LoadDistProblem<'_>, rel_tol: f64) {
        let exact = solve(p).unwrap();
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
        let qs = vec![
            QueueSpec::single(8.0, 7.2, 0.3),
            QueueSpec::single(14.0, 12.6, 0.1),
            QueueSpec::single(11.0, 9.9, 0.2),
        ];
        let p = LoadDistProblem {
            queues: &qs,
            total_load: 17.0,
            energy_weight: 3.0,
            delay_weight: 1.5,
            base_power: 0.7,
            renewable: 1.0,
        };
        agree(&p, 1e-3);
    }

    #[test]
    fn agrees_with_waterfill_on_kink_instance() {
        let qs = vec![
            QueueSpec::single(10.0, 9.0, 1.0),
            QueueSpec::single(10.0, 9.0, 3.0),
        ];
        let p = LoadDistProblem {
            queues: &qs,
            total_load: 10.0,
            energy_weight: 50.0,
            delay_weight: 1.0,
            base_power: 0.0,
            renewable: 16.0,
        };
        agree(&p, 5e-3);
    }

    #[test]
    fn infeasible_rejected() {
        let qs = vec![QueueSpec::single(2.0, 1.0, 0.1)];
        let p = LoadDistProblem {
            queues: &qs,
            total_load: 5.0,
            energy_weight: 1.0,
            delay_weight: 1.0,
            base_power: 0.0,
            renewable: 0.0,
        };
        assert!(solve_pgd(&p, PgdOptions::default()).is_err());
    }
}
