//! Budget-constrained per-slot minimization.
//!
//! Both PerfectHP (hourly budget) and OPT (Lagrangian per-slot subproblem)
//! need the same primitive: minimize the slot cost `g = w·y + β·d` with the
//! brown energy `y` either priced at an extra multiplier μ or capped at a
//! budget `b`. The cap is enforced by searching the smallest μ ≥ 0 whose
//! penalized optimum satisfies `y(μ) ≤ b` — exact for the continuous
//! relaxation, near-exact with discrete speeds (quantified in tests).

use coca_core::solver::{P3Solution, P3Solver};
use coca_dcsim::dispatch::SlotProblem;
use coca_dcsim::{Cluster, CostParams, SimError, SlotObservation};
use coca_opt::bisect::{bisect_increasing, grow_upper_bracket, BisectOptions};

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
pub fn solve_penalized<S: P3Solver>(
    solver: &mut S,
    cluster: &Cluster,
    cost: &CostParams,
    obs: &SlotObservation,
    mu: f64,
) -> Result<(P3Solution, f64, f64), SimError> {
    let problem = penalized_problem(cluster, cost, obs, mu);
    let sol = solver.solve(&problem)?;
    // Paper-invariant hook: the penalized subproblem shares constraint (8)
    // with P3 — the solver may not drop load no matter the multiplier.
    coca_core::invariant::global().load_conserved(sol.loads.iter().sum(), obs.arrival_rate);
    let y = sol.outcome.brown;
    let g = obs.price * y + cost.beta * sol.outcome.delay;
    Ok((sol, g, y))
}

/// Outcome of a budget-capped slot solve.
pub struct CappedSlot {
    /// The chosen decision.
    pub solution: P3Solution,
    /// Plain slot cost `g`.
    pub cost: f64,
    /// Brown energy `y`.
    pub brown: f64,
    /// Multiplier that enforced the cap (0 when slack).
    pub mu: f64,
    /// Whether the cap had to be abandoned (unattainable even at extreme μ
    /// — the paper's "if no feasible solution exists for a particular hour,
    /// minimize the cost without considering the hourly carbon budget").
    pub budget_abandoned: bool,
}

/// The penalized solves of one slot, remembering the most recent one.
///
/// A second solve at the μ of the solve just before it starts from the
/// warm state that solve left and returns the same answer, so
/// [`Self::at`] reuses it instead. Only the immediately preceding solve
/// qualifies: an earlier solve at the same μ was made from a different
/// warm state, and reusing it moves results.
struct SlotProbes<'a, S> {
    solver: &'a mut S,
    cluster: &'a Cluster,
    cost: &'a CostParams,
    obs: &'a SlotObservation,
    /// The most recent solve and its μ; `None` when unknown.
    last: Option<(f64, (P3Solution, f64, f64))>,
}

impl<S: P3Solver> SlotProbes<'_, S> {
    /// [`solve_penalized`] at `mu`, or the most recent solve when it was
    /// at the same μ.
    fn at(&mut self, mu: f64) -> Result<&(P3Solution, f64, f64), SimError> {
        let out = match self.last.take() {
            Some((at, out)) if at.to_bits() == mu.to_bits() => out,
            _ => solve_penalized(self.solver, self.cluster, self.cost, self.obs, mu)?,
        };
        Ok(&self.last.insert((mu, out)).1)
    }
}

/// Minimizes the slot cost subject to `y ≤ budget` (within `rel_tol`).
pub fn solve_capped<S: P3Solver>(
    solver: &mut S,
    cluster: &Cluster,
    cost: &CostParams,
    obs: &SlotObservation,
    budget: f64,
    rel_tol: f64,
) -> Result<CappedSlot, SimError> {
    let budget = budget.max(0.0);
    // μ = 0: unconstrained minimum.
    let (sol0, g0, y0) = solve_penalized(solver, cluster, cost, obs, 0.0)?;
    if y0 <= budget * (1.0 + rel_tol) {
        return Ok(CappedSlot { solution: sol0, cost: g0, brown: y0, mu: 0.0, budget_abandoned: false });
    }
    let mut probes = SlotProbes { solver, cluster, cost, obs, last: None };
    // Grow an upper bracket for μ; if even extreme μ cannot meet the cap
    // (static power floor), abandon the budget for this hour.
    let mut probe = |mu: f64| -> f64 {
        match probes.at(mu) {
            Ok(&(_, _, y)) => budget - y,
            Err(_) => f64::NAN,
        }
    };
    let mu_hi = match grow_upper_bracket(obs.price.max(1e-3), &mut probe, 60) {
        Ok(hi) => hi,
        Err(_) => {
            return Ok(CappedSlot {
                solution: sol0,
                cost: g0,
                brown: y0,
                mu: 0.0,
                budget_abandoned: true,
            })
        }
    };
    let opts = BisectOptions {
        x_tol: 1e-12 * mu_hi.max(1.0),
        f_tol: budget.max(1.0) * rel_tol,
        max_iter: 60,
    };
    let mu = bisect_increasing(0.0, mu_hi, &mut probe, opts).map_err(SimError::Opt)?;
    // Land on the feasible side of the discrete jump. When the bisection
    // stopped on a probe, `mu` is the μ just solved and is not solved again.
    for candidate in [mu, mu * (1.0 + 1e-6) + 1e-12, mu_hi] {
        let (sol, g, y) = probes.at(candidate)?;
        if *y <= budget * (1.0 + 10.0 * rel_tol) {
            return Ok(CappedSlot {
                solution: sol.clone(),
                cost: *g,
                brown: *y,
                mu: candidate,
                budget_abandoned: false,
            });
        }
    }
    // Discrete speed sets can leave a small residual violation; report the
    // best effort at the bracket top, which the loop just solved.
    let (sol, g, y) = probes.at(mu_hi)?;
    Ok(CappedSlot { solution: sol.clone(), cost: *g, brown: *y, mu: mu_hi, budget_abandoned: false })
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

    #[test]
    fn slack_budget_returns_unconstrained() {
        let (cluster, cost, obs) = setup();
        let mut solver = SymmetricSolver::new();
        let capped = solve_capped(&mut solver, &cluster, &cost, &obs, 1e9, 1e-6).unwrap();
        assert_eq!(capped.mu, 0.0);
        assert!(!capped.budget_abandoned);
    }

    #[test]
    fn tight_budget_is_enforced() {
        let (cluster, cost, obs) = setup();
        let mut solver = SymmetricSolver::new();
        let unconstrained = solve_capped(&mut solver, &cluster, &cost, &obs, 1e9, 1e-6).unwrap();
        let budget = unconstrained.brown * 0.7;
        let mut solver = SymmetricSolver::new();
        let capped = solve_capped(&mut solver, &cluster, &cost, &obs, budget, 1e-6).unwrap();
        assert!(!capped.budget_abandoned);
        // Discrete speeds: allow a 5% quantization overshoot.
        assert!(
            capped.brown <= budget * 1.05,
            "brown {} exceeds budget {budget}",
            capped.brown
        );
        assert!(capped.cost >= unconstrained.cost - 1e-9, "capping cannot reduce cost");
    }

    /// A [`SymmetricSolver`] that records the energy weight (price + μ)
    /// of every solve.
    #[derive(Default)]
    struct Recording {
        inner: SymmetricSolver,
        weights: Vec<f64>,
    }

    impl P3Solver for Recording {
        fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError> {
            self.weights.push(problem.energy_weight);
            self.inner.solve(problem)
        }
        fn name(&self) -> &'static str {
            "recording"
        }
    }

    #[test]
    fn no_two_consecutive_solves_share_a_multiplier() {
        // On this fleet and load the μ bisection of each budget below stops
        // on a probe (or lands on `mu_hi`), so the landing asks for a μ the
        // solver has just solved.
        let cluster = Cluster::scaled_paper_datacenter(8, 200);
        let cost = CostParams::default();
        let obs = SlotObservation {
            t: 0,
            arrival_rate: 0.6 * cluster.max_capacity(),
            onsite: 0.0,
            price: 0.05,
        };
        let unconstrained =
            solve_capped(&mut SymmetricSolver::new(), &cluster, &cost, &obs, 1e9, 1e-6).unwrap().brown;
        for share in [0.88, 0.8, 0.72] {
            let mut solver = Recording::default();
            let capped =
                solve_capped(&mut solver, &cluster, &cost, &obs, share * unconstrained, 1e-6).unwrap();
            assert!(!capped.budget_abandoned);
            let weights = &solver.weights;
            for pair in weights.windows(2) {
                assert_ne!(pair[0].to_bits(), pair[1].to_bits(), "μ solved twice in a row: {weights:?}");
            }
        }
    }

    #[test]
    fn unattainable_budget_abandoned() {
        let (cluster, cost, obs) = setup();
        // Serving 200 req/s needs servers on; their static power floor can
        // never fit a near-zero budget.
        let mut solver = SymmetricSolver::new();
        let capped = solve_capped(&mut solver, &cluster, &cost, &obs, 1e-6, 1e-6).unwrap();
        assert!(capped.budget_abandoned);
        assert!(capped.brown > 1e-3);
    }

    #[test]
    fn onsite_renewables_make_small_budgets_attainable() {
        let (cluster, cost, mut obs) = setup();
        obs.onsite = 1e6; // covers everything
        let mut solver = SymmetricSolver::new();
        let capped = solve_capped(&mut solver, &cluster, &cost, &obs, 0.0, 1e-6).unwrap();
        assert!(!capped.budget_abandoned);
        assert_eq!(capped.brown, 0.0);
    }
}
