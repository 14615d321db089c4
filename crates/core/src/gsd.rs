//! GSD — Gibbs Sampling-based Distributed optimization (paper Algorithm 2).
//!
//! Sequential engine: the Markov chain over speed vectors with the paper's
//! acceptance rule `u = e^{δ/g̃ᵉ}/(e^{δ/g̃ᵉ} + e^{δ/g̃*})`, where each
//! state's cost `g̃` is the P3 objective at the *optimal load distribution*
//! for that speed vector (solved exactly by water-filling — the paper's
//! line 3, "solved efficiently using any distributed optimization
//! techniques"). Infeasible proposals (`λ > γ·Σxᵢ`, line 2's guard) are
//! priced at a large finite penalty so the chain simply walks away from
//! them; the returned solution is always the best *feasible* state
//! visited, and the initial state is feasible by construction.
//!
//! Theorem 1 (converges to the global optimum as δ → ∞) is validated in
//! the test-suite against [`ExhaustiveSolver`](crate::solver::ExhaustiveSolver)
//! and against the closed-form Gibbs stationary distribution.

// A panic mid-slot aborts the control loop Theorem 2 bounds: return typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use coca_dcsim::dispatch::{optimal_dispatch, SlotProblem};
use coca_dcsim::incremental::SlotEvalContext;
use coca_dcsim::SimError;
use coca_obs::SolverObserver;
use coca_opt::gibbs::{run_gibbs_batched, CandidateOracle, GibbsOptions, GibbsOutcome};
use coca_opt::schedule::TemperatureSchedule;

use crate::solver::{P3Solution, P3Solver, SolveStats};

/// Cost assigned to infeasible speed vectors: large enough that the chain
/// never prefers them, finite so the Gibbs acceptance rule stays defined.
pub const INFEASIBLE_COST: f64 = 1e15;

/// Small positive shift keeping costs strictly positive (the acceptance
/// rule divides by the cost; a zero-load all-off state has cost 0).
const COST_EPSILON: f64 = 1e-9;

/// Options for the GSD solver.
#[derive(Debug, Clone)]
pub struct GsdOptions {
    /// Proposal iterations per slot (paper Fig. 4 runs 500).
    pub iterations: usize,
    /// Temperature schedule for δ (paper Fig. 4 uses constants around
    /// 10⁵–10⁶; Sec. 4.2 advises annealing upward in practice).
    pub schedule: TemperatureSchedule,
    /// Record the kept-state cost trace (paper Fig. 4).
    pub record_trace: bool,
    /// RNG seed (the chain is deterministic given the seed).
    pub seed: u64,
    /// Warm-start from the previous slot's solution when available. The
    /// paper's servers keep their current speeds between slots, which is
    /// exactly a warm start.
    pub warm_start: bool,
}

impl Default for GsdOptions {
    fn default() -> Self {
        Self {
            iterations: 500,
            schedule: TemperatureSchedule::Constant(1e6),
            record_trace: false,
            seed: 0xC0CA,
            warm_start: true,
        }
    }
}

impl GsdOptions {
    /// The Gibbs-driver part of these options (what a cold reference chain
    /// over [`GsdSolver::state_cost`] needs to replay the same chain).
    pub fn gibbs(&self) -> GibbsOptions {
        GibbsOptions {
            iterations: self.iterations,
            schedule: self.schedule,
            record_trace: self.record_trace,
        }
    }
}

/// [`CandidateOracle`] adapter over the slot-scoped evaluation kernel:
/// applies GSD's strictly-positive shift / infeasibility penalty on top of
/// the kernel's objectives.
struct ContextOracle<'c, 'p> {
    ctx: &'c mut SlotEvalContext<'p>,
}

impl ContextOracle<'_, '_> {
    #[inline]
    fn shift(obj: f64) -> f64 {
        if obj.is_finite() { obj + COST_EPSILON } else { INFEASIBLE_COST }
    }
}

impl CandidateOracle for ContextOracle<'_, '_> {
    fn current_cost(&mut self) -> f64 {
        Self::shift(self.ctx.evaluate_current())
    }

    fn candidate_cost(&mut self, site: usize, level: usize) -> f64 {
        Self::shift(self.ctx.evaluate_candidate(site, level))
    }

    fn commit(&mut self, site: usize, level: usize) {
        self.ctx.set_level(site, level);
    }
}

/// Sequential GSD engine.
///
/// Every proposal is priced by the struct-of-arrays kernel
/// ([`SlotEvalContext::evaluate_candidate`]): a ±1 delta on the shared
/// multiset aggregates plus one warm water-filling solve, with no restore
/// pass on rejection. [`Self::state_cost`] is the cold reference for the
/// same costs; a chain that prices every proposal with it through the
/// same driver, seed and initial state visits the same states, because
/// the two agree to ≤ 1e-9 and share the RNG stream.
#[derive(Debug)]
pub struct GsdSolver {
    opts: GsdOptions,
    rng: StdRng,
    warm: Option<Vec<usize>>,
    stats: SolveStats,
    observer: Option<Arc<dyn SolverObserver + Send + Sync>>,
    /// Kept-state cost after every iteration of the most recent solve
    /// (empty unless `record_trace` is set).
    pub last_trace: Vec<f64>,
}

impl GsdSolver {
    /// Creates a solver with the given options.
    pub fn new(opts: GsdOptions) -> Self {
        let rng = StdRng::seed_from_u64(opts.seed);
        Self {
            opts,
            rng,
            warm: None,
            stats: SolveStats::default(),
            observer: None,
            last_trace: Vec::new(),
        }
    }

    /// Work counters of the most recent solve.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Attaches a solver observer; [`coca_obs::SolveEvent`]s are emitted
    /// after every solve.
    pub fn set_observer(&mut self, observer: Arc<dyn SolverObserver + Send + Sync>) {
        self.observer = Some(observer);
    }

    /// Records the counters for the solve that just completed; `stats` is
    /// the single source of truth.
    fn finish_solve(&mut self, stats: SolveStats) {
        self.stats = stats;
        if let Some(o) = &self.observer {
            o.on_solve(&stats.to_event("gsd"));
        }
    }

    /// Sets an explicit starting speed vector for the next solve (used by
    /// the Fig. 4(b) initial-point study). Overrides the warm start once.
    pub fn set_initial(&mut self, levels: Vec<usize>) {
        self.warm = Some(levels);
    }

    /// The cold GSD cost oracle for a speed vector: optimal-dispatch
    /// objective, shifted to be strictly positive; infeasible states get
    /// [`INFEASIBLE_COST`]. The reference the kernel is tested against.
    pub fn state_cost(problem: &SlotProblem<'_>, levels: &[usize]) -> f64 {
        if !problem.is_feasible(levels) {
            return INFEASIBLE_COST;
        }
        match optimal_dispatch(problem, levels) {
            Ok(out) => out.objective + COST_EPSILON,
            Err(_) => INFEASIBLE_COST,
        }
    }

    fn initial_state(&mut self, problem: &SlotProblem<'_>) -> Result<Vec<usize>, SimError> {
        if let Some(w) = self.warm.take() {
            if w.len() == problem.cluster.num_groups() && problem.is_feasible(&w) {
                let keep = w.clone();
                if self.opts.warm_start {
                    self.warm = Some(keep);
                }
                return Ok(w);
            }
        }
        // Fallback: everything at top speed — feasible whenever anything is.
        let full = problem.cluster.full_speed_vector();
        if !problem.is_feasible(&full) {
            return Err(SimError::Overload {
                slot: 0,
                arrival_rate: problem.arrival_rate,
                max_capacity: problem.gamma * problem.cluster.max_capacity(),
            });
        }
        Ok(full)
    }
}

impl P3Solver for GsdSolver {
    fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError> {
        let initial = self.initial_state(problem)?;
        let counts = problem.cluster.choice_counts();
        let gibbs_opts = self.opts.gibbs();
        // The context outlives the chain so the final solution is
        // extracted from the same warm kernel instead of a cold
        // from-scratch dispatch.
        let mut ctx = SlotEvalContext::new(*problem, &initial)?;
        let outcome = {
            let mut oracle = ContextOracle { ctx: &mut ctx };
            run_gibbs_batched(counts, &initial, &mut oracle, &gibbs_opts, &mut self.rng)
                .map_err(SimError::Opt)?
        };
        self.last_trace = outcome.trace;
        self.finish_solve(SolveStats {
            iterations: outcome.iterations_run,
            accepted: outcome.accepted,
            bisection_evals: ctx.stats.bisection_evals,
            batched_candidates: ctx.stats.batched_candidates,
        });

        let levels = outcome.best_state;
        if !problem.is_feasible(&levels) {
            // Can only happen if the initial state was the sole feasible one
            // and even it failed — guarded above, so this is defensive.
            return Err(SimError::InvalidDecision("GSD ended on an infeasible state".into()));
        }
        // One more warm SoA solve: agrees with `optimal_dispatch` to ≤ 1e-9
        // (the shared stopping tolerances) and skips its from-scratch type
        // compression. Cold dispatch remains the fallback for the
        // defensive solver-failure case.
        ctx.sync(&levels);
        let out = match ctx.extract_outcome() {
            Some(out) => out,
            None => optimal_dispatch(problem, &levels)?,
        };
        if self.opts.warm_start {
            self.warm = Some(levels.clone());
        }
        Ok(P3Solution { loads: out.loads.clone(), levels, outcome: out })
    }

    fn reset(&mut self) {
        self.warm = None;
        self.rng = StdRng::seed_from_u64(self.opts.seed);
        self.last_trace.clear();
        self.stats = SolveStats::default();
    }

    fn name(&self) -> &'static str {
        "gsd"
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

/// The cold reference chain, a test oracle for the GSD engines: the chain
/// [`GsdSolver`] walks from `initial` — same options, driver
/// [`run_gibbs_batched`] and RNG stream — with every proposal priced from
/// scratch by [`GsdSolver::state_cost`]. The kernel and distributed-chain
/// tests pin their chains to it, and the `coca-bench` cold engine times it.
///
/// # Errors
/// The driver's error for an `initial` state outside the fleet's choices.
pub fn cold_chain(
    problem: &SlotProblem<'_>,
    initial: &[usize],
    opts: &GsdOptions,
    rng: &mut StdRng,
) -> coca_opt::Result<GibbsOutcome> {
    let counts = problem.cluster.choice_counts();
    let mut oracle = ColdOracle { problem, state: initial.to_vec() };
    run_gibbs_batched(counts, initial, &mut oracle, &opts.gibbs(), rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::ExhaustiveSolver;
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
    fn gsd_matches_exhaustive_on_small_fleet() {
        let cluster = Cluster::homogeneous(3, 4);
        for &(lam, a, w) in &[(10.0, 5.0, 1.0), (50.0, 0.5, 10.0), (90.0, 20.0, 2.0)] {
            let p = problem(&cluster, lam, a, w);
            let exact = ExhaustiveSolver.solve(&p).unwrap();
            let mut gsd = GsdSolver::new(GsdOptions {
                iterations: 4000,
                schedule: TemperatureSchedule::Constant(1e7),
                seed: 42,
                ..Default::default()
            });
            let sol = gsd.solve(&p).unwrap();
            let rel = (sol.outcome.objective - exact.outcome.objective)
                / exact.outcome.objective.max(1e-9);
            assert!(
                rel < 1e-3,
                "GSD {} vs exact {} (λ={lam}, A={a}, W={w})",
                sol.outcome.objective,
                exact.outcome.objective
            );
        }
    }

    #[test]
    fn higher_delta_reaches_lower_cost_in_expectation() {
        // Paper Fig. 4(a): larger δ concentrates on better solutions.
        let cluster = Cluster::homogeneous(4, 4);
        let p = problem(&cluster, 60.0, 10.0, 5.0);
        let avg_final = |delta: f64| -> f64 {
            (0..12)
                .map(|seed| {
                    let mut gsd = GsdSolver::new(GsdOptions {
                        iterations: 250,
                        schedule: TemperatureSchedule::Constant(delta),
                        seed,
                        warm_start: false,
                        ..Default::default()
                    });
                    // final kept cost, not best: measures concentration
                    let _ = gsd.solve(&p).unwrap();
                    *gsd.last_trace.last().unwrap_or(&f64::NAN)
                })
                .sum::<f64>()
                / 12.0
        };
        // record_trace must be on for last_trace; rebuild closure with it.
        let avg_final_traced = |delta: f64| -> f64 {
            (0..12)
                .map(|seed| {
                    let mut gsd = GsdSolver::new(GsdOptions {
                        iterations: 250,
                        schedule: TemperatureSchedule::Constant(delta),
                        seed,
                        warm_start: false,
                        record_trace: true,
                    });
                    let _ = gsd.solve(&p).unwrap();
                    *gsd.last_trace.last().expect("trace recorded")
                })
                .sum::<f64>()
                / 12.0
        };
        let _ = avg_final; // the untraced variant is unusable here
        let lo = avg_final_traced(1.0);
        let hi = avg_final_traced(1e7);
        assert!(
            hi <= lo,
            "high δ should concentrate on lower cost: δ=1e7 → {hi}, δ=1 → {lo}"
        );
    }

    #[test]
    fn warm_start_reuses_previous_solution() {
        let cluster = Cluster::homogeneous(3, 4);
        let p = problem(&cluster, 40.0, 5.0, 5.0);
        let mut gsd = GsdSolver::new(GsdOptions { iterations: 1500, seed: 7, ..Default::default() });
        let first = gsd.solve(&p).unwrap();
        // Second solve on the same instance starts at the previous optimum
        // and can only match or improve it.
        let mut gsd2 = GsdSolver::new(GsdOptions { iterations: 1500, seed: 8, ..Default::default() });
        gsd2.set_initial(first.levels.clone());
        let second = gsd2.solve(&p).unwrap();
        assert!(second.outcome.objective <= first.outcome.objective + 1e-9);
    }

    #[test]
    fn infeasible_states_are_penalized_not_fatal() {
        let cluster = Cluster::homogeneous(2, 4);
        // Load that needs both groups near max: many states infeasible.
        let p = problem(&cluster, 70.0, 1.0, 1.0);
        let mut gsd = GsdSolver::new(GsdOptions { iterations: 2000, seed: 3, ..Default::default() });
        let sol = gsd.solve(&p).unwrap();
        assert!(p.is_feasible(&sol.levels));
        assert!(sol.outcome.objective < INFEASIBLE_COST);
    }

    #[test]
    fn overload_detected() {
        let cluster = Cluster::homogeneous(1, 1);
        let p = problem(&cluster, 1000.0, 1.0, 1.0);
        let mut gsd = GsdSolver::new(GsdOptions::default());
        assert!(matches!(gsd.solve(&p), Err(SimError::Overload { .. })));
    }

    #[test]
    fn trace_is_recorded_when_requested() {
        let cluster = Cluster::homogeneous(2, 4);
        let p = problem(&cluster, 20.0, 1.0, 1.0);
        let mut gsd = GsdSolver::new(GsdOptions {
            iterations: 100,
            record_trace: true,
            ..Default::default()
        });
        let _ = gsd.solve(&p).unwrap();
        assert_eq!(gsd.last_trace.len(), 100);
        assert!(gsd.last_trace.iter().all(|c| c.is_finite()));
    }

    #[test]
    fn kernel_chain_matches_cold_chain() {
        // Same seed, same initial state, agreeing oracles → the kernel
        // walks exactly the cold reference chain.
        let cluster = Cluster::homogeneous(3, 4);
        for &(lam, a, w) in &[(40.0, 5.0, 5.0), (90.0, 20.0, 2.0), (15.0, 0.5, 10.0)] {
            let p = problem(&cluster, lam, a, w);
            let opts =
                GsdOptions { iterations: 400, seed: 21, record_trace: true, ..Default::default() };
            let mut gsd = GsdSolver::new(opts.clone());
            let sol = gsd.solve(&p).unwrap();
            let full = cluster.full_speed_vector();
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let cold = cold_chain(&p, &full, &opts, &mut rng).unwrap();
            let case = format!("λ={lam}, A={a}, W={w}");
            assert_eq!(sol.levels, cold.best_state, "{case}");
            assert_eq!(gsd.stats().accepted, cold.accepted, "{case}");
            assert_eq!(gsd.stats().iterations, cold.iterations_run, "{case}");
            for (k, c) in gsd.last_trace.iter().zip(&cold.trace) {
                assert!((k - c).abs() <= 1e-9 * c.abs().max(1.0), "{case}: trace {k} vs {c}");
            }
            let cold_out = optimal_dispatch(&p, &cold.best_state).unwrap();
            assert!((sol.outcome.objective - cold_out.objective).abs() < 1e-9, "{case}");
            // The kernel reports its work through the candidate counter.
            assert!(gsd.stats().batched_candidates > 0, "{case}");
            assert!(gsd.stats().bisection_evals > 0, "{case}");
        }
    }

    #[test]
    fn reset_restores_determinism() {
        let cluster = Cluster::homogeneous(3, 4);
        let p = problem(&cluster, 40.0, 5.0, 5.0);
        let mut gsd = GsdSolver::new(GsdOptions { iterations: 300, seed: 11, ..Default::default() });
        let a = gsd.solve(&p).unwrap();
        gsd.reset();
        let b = gsd.solve(&p).unwrap();
        assert_eq!(a.levels, b.levels, "same seed after reset → same chain");
    }
}
