//! The penalized per-slot problem of the budgeted baselines.
//!
//! PerfectHP (hourly budget) and OPT (horizon budget) both price the brown
//! energy `y` of a slot at an extra multiplier μ and minimize the slot
//! cost `g = w·y + β·d` plus `μ·y`. Each hands [`solve_penalized`] to
//! [`coca_opt::dual::solve_budget_dual`], which searches for the μ that
//! meets its budget.

use coca_core::solver::{P3Solution, P3Solver};
use coca_dcsim::dispatch::SlotProblem;
use coca_dcsim::{Cluster, CostParams, SimError, SlotObservation};

/// Builds the per-slot problem that minimizes `g + μ·y`
/// (`A = w + μ`, `W = β`).
pub fn penalized_problem<'a>(
    cluster: &'a Cluster,
    cost: &CostParams,
    obs: &SlotObservation,
    mu: f64,
) -> SlotProblem<'a> {
    SlotProblem {
        cluster,
        arrival_rate: obs.arrival_rate,
        onsite: obs.onsite,
        energy_weight: obs.price + mu,
        delay_weight: cost.beta,
        gamma: cost.gamma,
        pue: cost.pue,
    }
}

/// Minimizes `g + μ·y` for a fixed μ; returns the solution together with
/// the *plain* slot cost `g` (electricity at the market price + weighted
/// delay) and the brown energy `y`.
///
/// # Errors
/// The solver's error. An overload names slot `obs.t`: a [`SlotProblem`]
/// carries no slot index, so the solvers report slot 0.
pub fn solve_penalized<S: P3Solver>(
    solver: &mut S,
    cluster: &Cluster,
    cost: &CostParams,
    obs: &SlotObservation,
    mu: f64,
) -> Result<(P3Solution, f64, f64), SimError> {
    let problem = penalized_problem(cluster, cost, obs, mu);
    let sol = solver.solve(&problem).map_err(|e| match e {
        SimError::Overload { arrival_rate, max_capacity, .. } => {
            SimError::Overload { slot: obs.t, arrival_rate, max_capacity }
        }
        e => e,
    })?;
    // Paper-invariant hook: the penalized subproblem shares constraint (8)
    // with P3 — the solver may not drop load no matter the multiplier.
    coca_core::invariant::global().load_conserved(sol.loads.iter().sum(), obs.arrival_rate);
    let y = sol.outcome.brown;
    let g = obs.price * y + cost.beta * sol.outcome.delay;
    Ok((sol, g, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::symmetric::SymmetricSolver;

    fn setup() -> (Cluster, CostParams, SlotObservation) {
        let cluster = Cluster::homogeneous(6, 10);
        let cost = CostParams::default();
        let obs = SlotObservation { t: 0, arrival_rate: 200.0, onsite: 0.0, price: 0.05 };
        (cluster, cost, obs)
    }

    #[test]
    fn zero_mu_is_plain_cost_minimum() {
        let (cluster, cost, obs) = setup();
        let mut solver = SymmetricSolver::new();
        let (sol, g, y) = solve_penalized(&mut solver, &cluster, &cost, &obs, 0.0).unwrap();
        assert!(g > 0.0 && y > 0.0);
        assert!((g - (obs.price * y + cost.beta * sol.outcome.delay)).abs() < 1e-9);
    }

    #[test]
    fn higher_mu_reduces_brown_energy() {
        let (cluster, cost, obs) = setup();
        let mut ys = Vec::new();
        for mu in [0.0, 0.05, 0.5, 5.0] {
            let mut solver = SymmetricSolver::new();
            let (_, _, y) = solve_penalized(&mut solver, &cluster, &cost, &obs, mu).unwrap();
            ys.push(y);
        }
        for pair in ys.windows(2) {
            assert!(pair[1] <= pair[0] + 1e-9, "y must not increase with μ: {ys:?}");
        }
    }
}
