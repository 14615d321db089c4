//! Criterion benches live in benches/. This library holds what the benches
//! and the `p3_smoke` gate share: the cold reference GSD engine.

#![deny(missing_docs, unsafe_code)]

use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_dcsim::dispatch::{optimal_dispatch, SlotProblem};
use coca_opt::gibbs::{run_gibbs_batched, CandidateOracle, GibbsOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The cold reference for [`GsdSolver`]: the same chain — same options,
/// seed, warm start, driver [`run_gibbs_batched`] and RNG stream — with
/// every proposal priced from scratch by [`GsdSolver::state_cost`], and
/// the final state dispatched cold. Consecutive solves
/// carry the RNG and start from the previous best state, as `GsdSolver`
/// does with `warm_start` on.
#[derive(Debug)]
pub struct ColdGsd {
    opts: GibbsOptions,
    rng: StdRng,
    warm: Option<Vec<usize>>,
}

impl ColdGsd {
    /// A cold engine for `opts` (its `warm_start` flag is taken as set).
    pub fn new(opts: &GsdOptions) -> Self {
        Self {
            opts: opts.gibbs(),
            rng: StdRng::seed_from_u64(opts.seed),
            warm: None,
        }
    }

    /// One slot solve; returns the chosen speed vector.
    ///
    /// # Panics
    /// When the problem is infeasible even at full speed — a bench input
    /// error.
    pub fn solve(&mut self, problem: &SlotProblem<'_>) -> Vec<usize> {
        let initial = match self.warm.take() {
            Some(w) if problem.is_feasible(&w) => w,
            _ => problem.cluster.full_speed_vector(),
        };
        let counts = problem.cluster.choice_counts();
        let mut oracle = ColdOracle { problem, state: initial.clone() };
        let outcome = run_gibbs_batched(counts, &initial, &mut oracle, &self.opts, &mut self.rng)
            .expect("cold chain");
        let levels = outcome.best_state;
        let _ = std::hint::black_box(optimal_dispatch(problem, &levels).expect("cold dispatch"));
        self.warm = Some(levels.clone());
        levels
    }
}

/// Prices every proposal from scratch with [`GsdSolver::state_cost`].
struct ColdOracle<'a> {
    problem: &'a SlotProblem<'a>,
    state: Vec<usize>,
}

impl CandidateOracle for ColdOracle<'_> {
    fn current_cost(&mut self) -> f64 {
        GsdSolver::state_cost(self.problem, &self.state)
    }

    fn candidate_cost(&mut self, site: usize, level: usize) -> f64 {
        let kept = std::mem::replace(&mut self.state[site], level);
        let cost = GsdSolver::state_cost(self.problem, &self.state);
        self.state[site] = kept;
        cost
    }

    fn commit(&mut self, site: usize, level: usize) {
        self.state[site] = level;
    }
}
