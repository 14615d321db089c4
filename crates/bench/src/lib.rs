//! Criterion benches live in benches/. This library holds what the benches
//! and the `p3_smoke` gate share: the cold reference GSD engine.

#![deny(missing_docs, unsafe_code)]

use coca_core::gsd::{cold_chain, GsdOptions};
use coca_dcsim::dispatch::{optimal_dispatch, SlotProblem};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The cold reference for [`GsdSolver`](coca_core::gsd::GsdSolver): the
/// same chain — same options, seed, warm start, driver and RNG stream —
/// walked by [`cold_chain`], which prices every proposal from scratch, and
/// the final state dispatched cold. Consecutive solves carry the RNG and
/// start from the previous best state, as `GsdSolver` does with
/// `warm_start` on.
#[derive(Debug)]
pub struct ColdGsd {
    opts: GsdOptions,
    rng: StdRng,
    warm: Option<Vec<usize>>,
}

impl ColdGsd {
    /// A cold engine for `opts` (its `warm_start` flag is taken as set).
    pub fn new(opts: &GsdOptions) -> Self {
        Self { opts: opts.clone(), rng: StdRng::seed_from_u64(opts.seed), warm: None }
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
        let outcome =
            cold_chain(problem, &initial, &self.opts, &mut self.rng).expect("cold chain");
        let levels = outcome.best_state;
        let _ = std::hint::black_box(optimal_dispatch(problem, &levels).expect("cold dispatch"));
        self.warm = Some(levels.clone());
        levels
    }
}
