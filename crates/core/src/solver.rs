//! The per-slot problem **P3** and its solver abstraction.
//!
//! P3 (paper eq. 16) is a mixed-integer program: choose one speed per
//! server group (discrete) and a load distribution (continuous) minimizing
//! `A·[p − r]⁺ + W·d` where `A = V·w + q` and `W = V·β`. The continuous
//! part is solved exactly by water-filling
//! ([`coca_dcsim::dispatch::optimal_dispatch`]); what varies between
//! solvers is the search over speed vectors:
//!
//! * [`GsdSolver`](crate::gsd::GsdSolver) — the paper's Algorithm 2.
//! * [`DistributedGsdSolver`](crate::gsd_distributed::DistributedGsdSolver)
//!   — the same chain as a message-passing system.
//! * [`SymmetricSolver`](crate::symmetric::SymmetricSolver) — deterministic
//!   coordinate descent over per-class (level, active-count) pairs.
//! * [`ExhaustiveSolver`] — ground truth by enumeration (tiny fleets only).

// A panic mid-slot aborts the control loop Theorem 2 bounds: return typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use coca_dcsim::dispatch::{optimal_dispatch, DispatchOutcome, SlotProblem};
use coca_dcsim::SimError;

/// A solved P3 instance.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct P3Solution {
    /// Chosen per-group speed indices (0 = off).
    pub levels: Vec<usize>,
    /// Optimal per-group loads for those speeds.
    pub loads: Vec<f64>,
    /// Decomposed cost/power/delay of the solution.
    pub outcome: DispatchOutcome,
}

/// Work counters for the most recent [`P3Solver::solve`] call, returned
/// by reference from the concrete solvers' `stats()` accessors (this
/// replaced the old scattered `last_cache_hits` / `last_cache_misses` /
/// `last_bisection_iters` fields, since removed).
///
/// The fields mirror [`coca_obs::SolveEvent`]; [`SolveStats::to_event`]
/// is the bridge the solvers use to notify their
/// [`SolverObserver`](coca_obs::SolverObserver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Proposal iterations run (GSD) or descent rounds (symmetric).
    pub iterations: usize,
    /// Accepted proposals (GSD chains; 0 for deterministic solvers).
    pub accepted: usize,
    /// Water-level evaluations spent inside bisections.
    pub bisection_evals: u64,
    /// States priced on the struct-of-arrays kernel (one per
    /// `evaluate_candidate` call or memo miss; 0 for solvers that do not
    /// run it).
    pub batched_candidates: u64,
}

impl SolveStats {
    /// Packages the stats as a [`coca_obs::SolveEvent`] for `solver`.
    pub fn to_event(self, solver: &'static str) -> coca_obs::SolveEvent {
        coca_obs::SolveEvent {
            solver,
            iterations: self.iterations,
            accepted: self.accepted,
            bisection_evals: self.bisection_evals,
            batched_candidates: self.batched_candidates,
        }
    }
}

/// A solver for the per-slot problem P3.
pub trait P3Solver {
    /// Solves the instance. Implementations must return a feasible solution
    /// whenever `problem.arrival_rate ≤ γ·(max capacity)`.
    fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError>;

    /// Clears warm-start state (e.g. between independent runs).
    fn reset(&mut self) {}

    /// Short identifier for reports.
    fn name(&self) -> &'static str;

    /// Serializes any evolving state that affects solve results — warm
    /// starts, caches whose hits change outputs — for engine checkpoints.
    ///
    /// Solvers overriding this make checkpoint/resume *exact*: restoring
    /// the snapshot and replaying the remaining slots reproduces the
    /// uninterrupted run bit-for-bit (see `SymmetricSolver`). The default
    /// (`Value::Null`) declares "nothing worth saving"; paired with the
    /// default [`P3Solver::restore_state`] it makes resume behave like a
    /// fresh solver — correct, but warm-start history (and, for seeded
    /// stochastic solvers like GSD, the RNG stream) restarts, so resumed
    /// results may differ within solver tolerance.
    fn snapshot_state(&self) -> Result<serde::Value, SimError> {
        Ok(serde::Value::Null)
    }

    /// Restores state captured by [`P3Solver::snapshot_state`]. The
    /// default accepts only `Value::Null` and resets.
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), SimError> {
        if matches!(state, serde::Value::Null) {
            self.reset();
            Ok(())
        } else {
            Err(SimError::InvalidConfig(format!(
                "solver `{}` does not implement snapshot/restore but was given a non-null snapshot",
                self.name()
            )))
        }
    }
}

impl<S: P3Solver + ?Sized> P3Solver for Box<S> {
    fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError> {
        (**self).solve(problem)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn snapshot_state(&self) -> Result<serde::Value, SimError> {
        (**self).snapshot_state()
    }
    fn restore_state(&mut self, state: &serde::Value) -> Result<(), SimError> {
        (**self).restore_state(state)
    }
}

/// Exhaustive enumeration over all speed vectors — exponential in the
/// number of groups, usable only as ground truth on tiny fleets.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSolver;

impl P3Solver for ExhaustiveSolver {
    fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError> {
        let counts = problem.cluster.choice_counts();
        let size = coca_opt::grid::space_size(counts);
        if size == 0 {
            return Err(SimError::InvalidConfig("empty decision space".into()));
        }
        if size > 2_000_000 {
            return Err(SimError::InvalidConfig(format!(
                "exhaustive search over {size} states is intractable; use GSD or the symmetric solver"
            )));
        }
        let mut best: Option<P3Solution> = None;
        for levels in coca_opt::grid::CartesianIter::new(counts) {
            if !problem.is_feasible(&levels) {
                continue;
            }
            let outcome = optimal_dispatch(problem, &levels)?;
            let better = match &best {
                Some(b) => outcome.objective < b.outcome.objective,
                None => true,
            };
            if better {
                best = Some(P3Solution { loads: outcome.loads.clone(), levels, outcome });
            }
        }
        best.ok_or_else(|| SimError::Overload {
            slot: 0,
            arrival_rate: problem.arrival_rate,
            max_capacity: problem.gamma * problem.cluster.max_capacity(),
        })
    }

    fn name(&self) -> &'static str {
        "exhaustive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_dcsim::Cluster;

    fn problem(cluster: &Cluster, lam: f64, a: f64, w: f64) -> SlotProblem<'_> {
        SlotProblem {
            cluster,
            arrival_rate: lam,
            onsite: 0.0,
            energy_weight: a,
            delay_weight: w,
            gamma: 0.95,
            pue: 1.0,
        }
    }

    #[test]
    fn exhaustive_finds_zero_cost_for_zero_load() {
        let cluster = Cluster::homogeneous(2, 4);
        let p = problem(&cluster, 0.0, 1.0, 1.0);
        let sol = ExhaustiveSolver.solve(&p).unwrap();
        // All off is optimal: zero power, zero delay.
        assert_eq!(sol.levels, vec![0, 0]);
        assert_eq!(sol.outcome.objective, 0.0);
    }

    #[test]
    fn exhaustive_turns_on_capacity_under_load() {
        let cluster = Cluster::homogeneous(2, 4);
        let p = problem(&cluster, 30.0, 1.0, 1.0);
        let sol = ExhaustiveSolver.solve(&p).unwrap();
        assert!(p.is_feasible(&sol.levels));
        assert!(sol.levels.iter().any(|&c| c > 0));
        let total: f64 = sol.loads.iter().sum();
        assert!((total - 30.0).abs() < 1e-6);
    }

    #[test]
    fn strong_energy_weight_prefers_fewer_servers() {
        let cluster = Cluster::homogeneous(2, 4);
        // Very expensive electricity: should consolidate onto the minimum
        // feasible configuration despite the delay penalty.
        let costly = ExhaustiveSolver.solve(&problem(&cluster, 20.0, 1e4, 1.0)).unwrap();
        let cheap = ExhaustiveSolver.solve(&problem(&cluster, 20.0, 1e-4, 1.0)).unwrap();
        let power_costly = costly.outcome.it_power;
        let power_cheap = cheap.outcome.it_power;
        assert!(
            power_costly <= power_cheap + 1e-9,
            "expensive electricity must not use more power ({power_costly} vs {power_cheap})"
        );
    }

    #[test]
    fn overload_reported() {
        let cluster = Cluster::homogeneous(1, 1);
        let p = problem(&cluster, 100.0, 1.0, 1.0);
        assert!(matches!(
            ExhaustiveSolver.solve(&p),
            Err(SimError::Overload { .. })
        ));
    }

    #[test]
    fn refuses_huge_spaces() {
        let cluster = Cluster::homogeneous(12, 1); // 5^12 ≈ 244M states
        let p = problem(&cluster, 1.0, 1.0, 1.0);
        assert!(matches!(
            ExhaustiveSolver.solve(&p),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn boxed_solver_delegates() {
        let cluster = Cluster::homogeneous(1, 2);
        let p = problem(&cluster, 5.0, 1.0, 1.0);
        let mut s: Box<dyn P3Solver> = Box::new(ExhaustiveSolver);
        assert_eq!(s.name(), "exhaustive");
        let sol = s.solve(&p).unwrap();
        assert!(p.is_feasible(&sol.levels));
        s.reset();
    }
}
