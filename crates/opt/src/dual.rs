//! Lagrangian dual bisection for long-term budget constraints.
//!
//! The offline benchmarks of the paper (the optimal T-step lookahead family
//! **P2** and the full-horizon OPT of Fig. 5) minimize total cost subject to
//! a *coupling* energy-budget constraint `Σₜ y(t) ≤ budget`. Dualizing the
//! constraint with a multiplier μ ≥ 0 decouples the horizon into independent
//! per-slot problems
//!
//! ```text
//! min_decisions  g(t) + μ·y(t)
//! ```
//!
//! which have exactly the same shape as COCA's per-slot problem **P3** with
//! `q(t) = μ` and `V = 1` — so the same solvers apply. Total usage
//! `Σ y(t)` is non-increasing in μ, so the optimal multiplier is found by
//! bisection. For the continuous relaxation this is exact (strong duality);
//! for discrete speed sets the duality gap is small and shrinks with the
//! horizon length, which we quantify in the test-suite.

use crate::bisect::{bisect_increasing, grow_upper_bracket, BisectOptions};
use crate::{OptError, Result};

/// Result of a budget-dual solve.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct DualOutcome {
    /// Optimal multiplier μ* (0 when the budget is slack at μ = 0).
    pub mu: f64,
    /// Total cost `Σ g(t)` at μ*.
    pub total_cost: f64,
    /// Total budgeted usage `Σ y(t)` at μ*.
    pub total_usage: f64,
    /// Number of full-horizon sweeps performed (a repeat of the previous
    /// sweep's μ is answered without one).
    pub sweeps: usize,
}

/// Options for [`solve_budget_dual`].
#[derive(Debug, Clone, Copy)]
pub struct DualOptions {
    /// Relative tolerance on budget attainment.
    pub budget_rel_tol: f64,
    /// Maximum bisection iterations.
    pub max_iter: usize,
    /// Maximum doublings when growing the initial μ bracket.
    pub max_doublings: usize,
}

impl Default for DualOptions {
    fn default() -> Self {
        Self { budget_rel_tol: 1e-6, max_iter: 80, max_doublings: 60 }
    }
}

/// The full-horizon sweeps of one dual search, remembering the most
/// recent one.
struct Sweeps<F> {
    slot: F,
    num_slots: usize,
    /// Sweeps run so far.
    count: usize,
    /// `(μ, Σ cost, Σ usage)` of the most recent sweep.
    last: Option<(f64, f64, f64)>,
}

impl<F: FnMut(usize, f64) -> (f64, f64)> Sweeps<F> {
    /// Total `(cost, usage)` at `mu`. A sweep at the μ of the sweep just
    /// before it is not run again: its totals are returned, and the slot
    /// callback keeps what it saw in that sweep.
    fn at(&mut self, mu: f64) -> (f64, f64) {
        if let Some((at, cost, usage)) = self.last {
            if at.to_bits() == mu.to_bits() {
                return (cost, usage);
            }
        }
        self.count += 1;
        let mut cost = 0.0;
        let mut usage = 0.0;
        // Offline dual sweep: evaluates the full horizon per μ probe, by
        // design not a streaming simulation pass. audit:allow(slot-loop)
        for t in 0..self.num_slots {
            let (c, y) = (self.slot)(t, mu);
            cost += c;
            usage += y;
        }
        self.last = Some((mu, cost, usage));
        (cost, usage)
    }
}

/// Solves `min Σₜ cost(t)` s.t. `Σₜ usage(t) ≤ budget` by dual bisection.
///
/// `slot` maps `(t, μ)` to the per-slot `(cost, usage)` pair obtained by
/// minimizing `cost + μ·usage` over the slot's feasible decisions. It must
/// produce usage non-increasing in μ for fixed `t` (true for any exact slot
/// minimizer). Consecutive sweeps never share a μ: when the bisection stops
/// on a probe, that probe's sweep is the final one, so a caller recording
/// per-slot decisions ends with those of the returned μ.
pub fn solve_budget_dual<F>(
    slot: F,
    num_slots: usize,
    budget: f64,
    opts: DualOptions,
) -> Result<DualOutcome>
where
    F: FnMut(usize, f64) -> (f64, f64),
{
    if num_slots == 0 {
        return Err(OptError::InvalidInput("horizon must have at least one slot".into()));
    }
    if !(budget.is_finite() && budget >= 0.0) {
        return Err(OptError::InvalidInput(format!("budget must be ≥ 0, got {budget}")));
    }
    let mut sweeps = Sweeps { slot, num_slots, count: 0, last: None };

    // μ = 0: if the unconstrained optimum already fits the budget we are done.
    let (c0, u0) = sweeps.at(0.0);
    if u0 <= budget * (1.0 + opts.budget_rel_tol) {
        return Ok(DualOutcome { mu: 0.0, total_cost: c0, total_usage: u0, sweeps: sweeps.count });
    }

    // Grow an upper bracket where usage drops to (or below) the budget.
    let mu_hi = grow_upper_bracket(1.0, |mu| budget - sweeps.at(mu).1, opts.max_doublings)
        .map_err(|e| match e {
            OptError::NoConvergence { iterations, residual } => OptError::Infeasible(format!(
                "budget unattainable even at extreme multiplier ({iterations} doublings, residual {residual:.3e}); \
                 the mandatory static/processing power exceeds the budget"
            )),
            other => other,
        })?;

    let bis = BisectOptions {
        x_tol: 1e-12 * mu_hi.max(1.0),
        f_tol: budget.abs().max(1.0) * opts.budget_rel_tol,
        max_iter: opts.max_iter,
    };
    let mu = bisect_increasing(0.0, mu_hi, |mu| budget - sweeps.at(mu).1, bis)?;

    // Final sweep at the located multiplier (the last probe's, when the
    // bisection stopped on one); prefer the feasible side.
    let (c, u) = sweeps.at(mu);
    if u <= budget * (1.0 + 10.0 * opts.budget_rel_tol) {
        return Ok(DualOutcome { mu, total_cost: c, total_usage: u, sweeps: sweeps.count });
    }
    // Nudge up once if the midpoint landed on the infeasible side.
    let mu_up = mu * (1.0 + 1e-6) + 1e-12;
    let (c2, u2) = sweeps.at(mu_up);
    Ok(DualOutcome { mu: mu_up, total_cost: c2, total_usage: u2, sweeps: sweeps.count })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Quadratic toy slot: decision y ≥ 0, cost (y − a_t)². The slot
    /// minimizer of cost + μ·y is y = max(a_t − μ/2, 0).
    fn quad_slot(a: &[f64]) -> impl FnMut(usize, f64) -> (f64, f64) + '_ {
        move |t, mu| {
            let y = (a[t] - mu / 2.0).max(0.0);
            ((y - a[t]).powi(2), y)
        }
    }

    #[test]
    fn slack_budget_returns_unconstrained_optimum() {
        let a = [1.0, 2.0, 3.0];
        let out = solve_budget_dual(quad_slot(&a), 3, 100.0, DualOptions::default()).unwrap();
        assert_eq!(out.mu, 0.0);
        assert!(out.total_cost < 1e-12);
        assert!((out.total_usage - 6.0).abs() < 1e-12);
    }

    #[test]
    fn tight_budget_meets_constraint() {
        let a = [1.0, 2.0, 3.0];
        let budget = 3.0;
        let out = solve_budget_dual(quad_slot(&a), 3, budget, DualOptions::default()).unwrap();
        assert!(out.total_usage <= budget * (1.0 + 1e-4), "usage {}", out.total_usage);
        // KKT for this toy problem: y_t = max(a_t − μ/2, 0), Σ y = budget
        // → μ = 2(Σa − budget)/3 = 2 when all slots active.
        assert!((out.mu - 2.0).abs() < 1e-3, "mu = {}", out.mu);
        // Optimal cost = 3 · (μ/2)² = 3.
        assert!((out.total_cost - 3.0).abs() < 1e-3, "cost = {}", out.total_cost);
    }

    #[test]
    fn slot_callback_never_sees_one_multiplier_twice_in_a_row() {
        let a = [1.0, 2.0, 3.0];
        for budget in [0.5, 1.0, 3.0, 4.5] {
            let mut mus: Vec<f64> = Vec::new();
            let out = {
                let mut slot = quad_slot(&a);
                let recorder = |t: usize, mu: f64| {
                    if t == 0 {
                        mus.push(mu);
                    }
                    slot(t, mu)
                };
                solve_budget_dual(recorder, 3, budget, DualOptions::default()).unwrap()
            };
            for pair in mus.windows(2) {
                assert_ne!(pair[0].to_bits(), pair[1].to_bits(), "budget {budget}: {mus:?}");
            }
            assert_eq!(out.sweeps, mus.len());
            // The returned μ is the last one swept: the callback's last
            // view of every slot is the returned plan.
            assert_eq!(mus.last().map(|m| m.to_bits()), Some(out.mu.to_bits()));
        }
    }

    #[test]
    fn zero_budget_drives_usage_to_zero() {
        let a = [1.0, 1.5];
        let out = solve_budget_dual(quad_slot(&a), 2, 0.0, DualOptions::default()).unwrap();
        assert!(out.total_usage <= 1e-6);
    }

    #[test]
    fn unattainable_budget_is_reported() {
        // Usage is constant 5 regardless of μ: a mandatory floor.
        let out = solve_budget_dual(|_, _| (1.0, 5.0), 1, 2.0, DualOptions::default());
        assert!(matches!(out, Err(OptError::Infeasible(_))));
    }

    #[test]
    fn rejects_empty_horizon_and_bad_budget() {
        assert!(solve_budget_dual(|_, _| (0.0, 0.0), 0, 1.0, DualOptions::default()).is_err());
        assert!(solve_budget_dual(|_, _| (0.0, 0.0), 1, -1.0, DualOptions::default()).is_err());
        assert!(solve_budget_dual(|_, _| (0.0, 0.0), 1, f64::NAN, DualOptions::default()).is_err());
    }

    #[test]
    fn cost_increases_as_budget_tightens() {
        let a = [2.0, 2.0, 2.0, 2.0];
        let mut last_cost = -1.0;
        for budget in [8.0, 6.0, 4.0, 2.0, 1.0] {
            let out = solve_budget_dual(quad_slot(&a), 4, budget, DualOptions::default()).unwrap();
            assert!(out.total_cost >= last_cost - 1e-9, "monotone cost in budget");
            last_cost = out.total_cost;
        }
    }
}
