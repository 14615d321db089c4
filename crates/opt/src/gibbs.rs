//! Annealed Gibbs-sampling optimizer over product discrete spaces.
//!
//! This is the engine behind **GSD** (paper Algorithm 2), kept generic: a
//! *state* is one discrete choice per site (server / server group), a *cost
//! oracle* ([`CandidateOracle`]) prices single-site moves with strictly
//! positive costs, and each iteration of [`run_gibbs_batched`]
//!
//! 1. picks a site uniformly at random and a uniformly random alternative
//!    choice for it (paper line 7),
//! 2. accepts the mutated state with probability
//!    `u = e^{δ/g_e} / (e^{δ/g_e} + e^{δ/g_*})` (paper lines 4–5), which is
//!    computed as `sigmoid(δ·(1/g_e − 1/g_*))` to avoid overflow.
//!
//! The induced Markov chain is irreducible and aperiodic with stationary law
//! `Ω(x) ∝ exp(δ/g(x))` (paper eq. 25, Theorem 1); as δ → ∞ the mass
//! concentrates on the global minimizers. [`gibbs_stationary`] computes the
//! exact stationary distribution on enumerable spaces, which the test-suite
//! compares against empirical visit frequencies.

// A panic mid-slot aborts the control loop Theorem 2 bounds: return typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use rand::Rng;

use crate::schedule::TemperatureSchedule;
use crate::{sigmoid, OptError, Result};

/// Options for a Gibbs-sampling run.
#[derive(Debug, Clone)]
pub struct GibbsOptions {
    /// Number of proposal iterations.
    pub iterations: usize,
    /// Temperature (δ) schedule.
    pub schedule: TemperatureSchedule,
    /// Record the kept-state cost after every iteration (paper Fig. 4).
    pub record_trace: bool,
}

impl Default for GibbsOptions {
    fn default() -> Self {
        Self {
            iterations: 500,
            schedule: TemperatureSchedule::Constant(1e6),
            record_trace: false,
        }
    }
}

/// Outcome of a Gibbs-sampling run.
#[derive(Debug, Clone)]
#[must_use]
pub struct GibbsOutcome {
    /// Best state observed during the run.
    pub best_state: Vec<usize>,
    /// Cost of [`GibbsOutcome::best_state`].
    pub best_cost: f64,
    /// State kept by the chain when the run stopped.
    pub final_state: Vec<usize>,
    /// Cost of the kept state at the end.
    pub final_cost: f64,
    /// Iterations performed: `options.iterations`, or 1 when no site has
    /// a second choice to propose (0 when `options.iterations` is 0).
    pub iterations_run: usize,
    /// Number of accepted proposals.
    pub accepted: usize,
    /// Kept-state cost after each iteration, if requested.
    pub trace: Vec<f64>,
}

/// Incremental cost oracle for the Gibbs driver.
///
/// A `CandidateOracle` holds the committed state itself and prices
/// single-site deviations directly. This is the contract the
/// struct-of-arrays batched kernel exposes
/// (`SlotEvalContext::evaluate_candidate`): the candidate is scored by
/// delta-adjusting shared multiset aggregates, with no state vector
/// round-trip, no hash probe, and no restore pass on rejection.
///
/// Contract:
/// * [`current_cost`](CandidateOracle::current_cost) prices the committed
///   state; the driver calls it once, before the first iteration. The caller
///   must have synchronized the oracle to the chain's initial state.
/// * [`candidate_cost`](CandidateOracle::candidate_cost) prices the
///   committed state with `site` moved to `level`, **without** committing —
///   the committed state is unchanged when it returns.
/// * [`commit`](CandidateOracle::commit) makes `site = level` the committed
///   state; the driver calls it exactly on acceptance.
///
/// All costs must be strictly positive and finite: the acceptance rule
/// `δ/g` requires `g > 0` (paper Appendix A), so a non-positive or
/// non-finite cost aborts the run with an error.
pub trait CandidateOracle {
    /// Cost of the currently committed state.
    fn current_cost(&mut self) -> f64;
    /// Cost of the committed state with `site` moved to `level`, without
    /// committing the move.
    fn candidate_cost(&mut self, site: usize, level: usize) -> f64;
    /// Commit `site = level` into the oracle's state.
    fn commit(&mut self, site: usize, level: usize);
}

/// Runs the annealed Gibbs sampler against a [`CandidateOracle`].
///
/// * `choice_counts[i]` — number of discrete choices at site `i` (must be
///   ≥ 1; single-choice sites are legal and never mutated).
/// * `initial` — starting state; each entry must index a valid choice, and
///   the oracle must already hold it as its committed state.
///
/// The RNG is consumed in a fixed order — site draw, proposal draw, and an
/// acceptance draw only for non-self proposals — so two runs with the same
/// seed visit the same chain of states whenever their oracles agree on
/// costs. Rejected proposals never touch the committed state, so there is
/// no mutate/restore round-trip per iteration.
pub fn run_gibbs_batched<O, R>(
    choice_counts: &[usize],
    initial: &[usize],
    oracle: &mut O,
    opts: &GibbsOptions,
    rng: &mut R,
) -> Result<GibbsOutcome>
where
    O: CandidateOracle + ?Sized,
    R: Rng + ?Sized,
{
    validate_state(choice_counts, initial)?;
    let mutable_sites: Vec<usize> =
        (0..choice_counts.len()).filter(|&i| choice_counts[i] > 1).collect();

    let mut kept = initial.to_vec();
    let mut kept_cost = check_cost(oracle.current_cost(), "current state")?;
    let mut best = kept.clone();
    let mut best_cost = kept_cost;
    let mut accepted = 0;
    let mut trace = Vec::with_capacity(if opts.record_trace { opts.iterations } else { 0 });
    let mut iterations_run = 0;

    for k in 0..opts.iterations {
        iterations_run = k + 1;
        if mutable_sites.is_empty() {
            break;
        }
        let delta = opts.schedule.delta_at(k, opts.iterations);
        let site = mutable_sites[rng.gen_range(0..mutable_sites.len())];
        let old_choice = kept[site];
        // Uniform proposal over the site's choices, including re-proposing
        // the current one (paper line 7: "randomly selects a processing
        // speed x'ᵢ ∈ Sᵢ"); re-proposals are skipped without an acceptance
        // draw.
        let proposal = rng.gen_range(0..choice_counts[site]);
        if proposal == old_choice {
            if opts.record_trace {
                trace.push(kept_cost);
            }
            continue;
        }
        let explored_cost = check_cost(oracle.candidate_cost(site, proposal), "candidate")?;
        debug_assert!(
            explored_cost > 0.0 && kept_cost > 0.0,
            "check_cost rejects non-positive objectives"
        );
        let u = sigmoid(delta * (1.0 / explored_cost - 1.0 / kept_cost));
        crate::invariant::global().acceptance_probability(u);
        if rng.gen::<f64>() < u {
            oracle.commit(site, proposal);
            kept[site] = proposal;
            kept_cost = explored_cost;
            accepted += 1;
            if kept_cost < best_cost {
                best_cost = kept_cost;
                best.copy_from_slice(&kept);
            }
        }
        if opts.record_trace {
            trace.push(kept_cost);
        }
    }

    Ok(GibbsOutcome {
        best_state: best,
        best_cost,
        final_state: kept,
        final_cost: kept_cost,
        iterations_run,
        accepted,
        trace,
    })
}

fn validate_state(choice_counts: &[usize], state: &[usize]) -> Result<()> {
    if choice_counts.len() != state.len() {
        return Err(OptError::InvalidInput(format!(
            "state length {} != site count {}",
            state.len(),
            choice_counts.len()
        )));
    }
    for (i, (&c, &s)) in choice_counts.iter().zip(state).enumerate() {
        if c == 0 {
            return Err(OptError::InvalidInput(format!("site {i} has zero choices")));
        }
        if s >= c {
            return Err(OptError::InvalidInput(format!(
                "state[{i}] = {s} out of range for {c} choices"
            )));
        }
    }
    Ok(())
}

fn check_cost(g: f64, what: &str) -> Result<f64> {
    if !g.is_finite() {
        return Err(OptError::NonFinite(format!("Gibbs cost of {what} = {g}")));
    }
    if g <= 0.0 {
        return Err(OptError::InvalidInput(format!(
            "Gibbs cost must be strictly positive (got {g} for {what}); shift the objective if needed"
        )));
    }
    Ok(g)
}

/// Exact stationary distribution `Ω(x) ∝ exp(δ/g(x))` of the GSD chain
/// (paper eq. 25) over the full enumerated state space. Intended for small
/// spaces (tests, Theorem-1 validation); cost of enumeration is the product
/// of the choice counts.
pub fn gibbs_stationary<C: FnMut(&[usize]) -> f64>(
    choice_counts: &[usize],
    mut cost: C,
    delta: f64,
) -> Result<Vec<(Vec<usize>, f64)>> {
    let states: Vec<Vec<usize>> = crate::grid::cartesian_states(choice_counts);
    // Stabilize the exponentials by factoring out the maximum exponent.
    let mut exponents = Vec::with_capacity(states.len());
    for s in &states {
        let g = check_cost(cost(s), "an enumerated state")?;
        debug_assert!(g > 0.0, "check_cost rejects non-positive objectives");
        exponents.push(delta / g);
    }
    let m = exponents.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = exponents.iter().map(|e| (e - m).exp()).collect();
    let z: f64 = weights.iter().sum();
    // The maximum exponent contributes exp(0) = 1, so z ≥ 1 > 0.
    debug_assert!(z >= 1.0, "normalizer bounded below by the max-exponent term");
    Ok(states.into_iter().zip(weights.into_iter().map(|w| w / z)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Two sites × {0,1,2} with a unique global optimum at (2, 1).
    fn toy_cost(state: &[usize]) -> f64 {
        let table = [[9.0, 7.0, 8.0], [6.0, 5.0, 7.5], [4.0, 1.0, 3.0]];
        table[state[0]][state[1]]
    }

    /// Table-backed [`CandidateOracle`] over the toy cost surface.
    struct ToyOracle {
        state: Vec<usize>,
        evals: usize,
    }

    impl CandidateOracle for ToyOracle {
        fn current_cost(&mut self) -> f64 {
            toy_cost(&self.state)
        }
        fn candidate_cost(&mut self, site: usize, level: usize) -> f64 {
            self.evals += 1;
            let old = self.state[site];
            self.state[site] = level;
            let c = toy_cost(&self.state);
            self.state[site] = old;
            c
        }
        fn commit(&mut self, site: usize, level: usize) {
            self.state[site] = level;
        }
    }

    /// A chain over the toy surface from `(0, 0)`; returns the oracle too.
    fn toy_chain(opts: &GibbsOptions, seed: u64) -> (GibbsOutcome, ToyOracle) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut oracle = ToyOracle { state: vec![0, 0], evals: 0 };
        let out = run_gibbs_batched(&[3, 3], &[0, 0], &mut oracle, opts, &mut rng).unwrap();
        (out, oracle)
    }

    /// Prices every state at the same cost.
    struct Flat(f64);

    impl CandidateOracle for Flat {
        fn current_cost(&mut self) -> f64 {
            self.0
        }
        fn candidate_cost(&mut self, _site: usize, _level: usize) -> f64 {
            self.0
        }
        fn commit(&mut self, _site: usize, _level: usize) {}
    }

    #[test]
    fn finds_global_optimum_with_high_delta() {
        let opts = GibbsOptions {
            iterations: 3000,
            schedule: TemperatureSchedule::Constant(200.0),
            record_trace: false,
        };
        let (out, _) = toy_chain(&opts, 7);
        assert_eq!(out.best_state, vec![2, 1]);
        assert_eq!(out.best_cost, 1.0);
    }

    #[test]
    fn higher_delta_concentrates_stationary_mass_on_optimum() {
        let lo = gibbs_stationary(&[3, 3], toy_cost, 5.0).unwrap();
        let hi = gibbs_stationary(&[3, 3], toy_cost, 100.0).unwrap();
        let mass = |dist: &[(Vec<usize>, f64)]| {
            dist.iter().find(|(s, _)| s == &vec![2, 1]).map(|(_, p)| *p).unwrap()
        };
        assert!(mass(&hi) > mass(&lo), "mass should grow with δ");
        assert!(mass(&hi) > 0.999, "δ=100 with g*=1 should be nearly deterministic");
    }

    #[test]
    fn stationary_distribution_sums_to_one() {
        let dist = gibbs_stationary(&[3, 3], toy_cost, 10.0).unwrap();
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(dist.len(), 9);
    }

    #[test]
    fn empirical_visits_match_gibbs_law() {
        // Run a long chain at moderate δ and compare visit frequencies of the
        // kept state with the closed-form stationary distribution.
        let delta = 8.0;
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let opts = GibbsOptions {
            iterations: 200_000,
            schedule: TemperatureSchedule::Constant(delta),
            record_trace: false,
        };
        // Count visits through the cost oracle trace of kept states: easier
        // to re-run the chain manually here.
        let mut counts = std::collections::HashMap::<Vec<usize>, usize>::new();
        let mut kept = vec![0usize, 0usize];
        let mut kept_cost = toy_cost(&kept);
        for _ in 0..opts.iterations {
            let site = rng.gen_range(0..2usize);
            let proposal = rng.gen_range(0..3usize);
            let old = kept[site];
            if proposal != old {
                kept[site] = proposal;
                let c = toy_cost(&kept);
                let u = crate::sigmoid(delta * (1.0 / c - 1.0 / kept_cost));
                if rng.gen::<f64>() < u {
                    kept_cost = c;
                } else {
                    kept[site] = old;
                }
            }
            *counts.entry(kept.clone()).or_default() += 1;
        }
        let dist = gibbs_stationary(&[3, 3], toy_cost, delta).unwrap();
        for (state, p) in dist {
            let emp = *counts.get(&state).unwrap_or(&0) as f64 / opts.iterations as f64;
            assert!(
                (emp - p).abs() < 0.02,
                "state {state:?}: empirical {emp:.4} vs stationary {p:.4}"
            );
        }
    }

    #[test]
    fn trace_records_kept_cost() {
        let opts = GibbsOptions {
            iterations: 100,
            schedule: TemperatureSchedule::Constant(50.0),
            record_trace: true,
        };
        let (out, oracle) = toy_chain(&opts, 11);
        assert_eq!(out.trace.len(), 100);
        assert_eq!(*out.trace.last().unwrap(), out.final_cost);
        assert_eq!(oracle.state, out.final_state, "commits track the kept state");
        assert!(oracle.evals <= opts.iterations, "one candidate eval per proposal at most");
    }

    #[test]
    fn batched_driver_rejects_non_positive_candidate() {
        struct BadOracle;
        impl CandidateOracle for BadOracle {
            fn current_cost(&mut self) -> f64 {
                1.0
            }
            fn candidate_cost(&mut self, _site: usize, _level: usize) -> f64 {
                -2.0
            }
            fn commit(&mut self, _site: usize, _level: usize) {}
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let opts = GibbsOptions { iterations: 50, ..GibbsOptions::default() };
        let r = run_gibbs_batched(&[4], &[0], &mut BadOracle, &opts, &mut rng);
        assert!(matches!(r, Err(OptError::InvalidInput(_))));
    }

    #[test]
    fn single_choice_sites_never_mutate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let opts = GibbsOptions::default();
        let out = run_gibbs_batched(&[1, 1], &[0, 0], &mut Flat(2.0), &opts, &mut rng).unwrap();
        assert_eq!(out.final_state, vec![0, 0]);
        assert_eq!(out.accepted, 0);
    }

    #[test]
    fn rejects_invalid_initial_state() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let r = run_gibbs_batched(&[2], &[5], &mut Flat(1.0), &GibbsOptions::default(), &mut rng);
        assert!(matches!(r, Err(OptError::InvalidInput(_))));
    }

    #[test]
    fn rejects_non_positive_cost() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let r = run_gibbs_batched(&[2], &[0], &mut Flat(0.0), &GibbsOptions::default(), &mut rng);
        assert!(matches!(r, Err(OptError::InvalidInput(_))));
    }

    #[test]
    fn acceptance_probability_prefers_lower_cost() {
        // u for an improving move must exceed 1/2; for a worsening move be
        // below 1/2 (this is the sign convention of the paper's rule).
        let delta = 10.0;
        let improving = crate::sigmoid(delta * (1.0 / 1.0 - 1.0 / 2.0));
        let worsening = crate::sigmoid(delta * (1.0 / 2.0 - 1.0 / 1.0));
        assert!(improving > 0.5 && worsening < 0.5);
        assert!((improving + worsening - 1.0).abs() < 1e-12);
    }
}
