//! Empirical validation of Theorem 1: GSD converges to the global optimum
//! of P3 with probability → 1 as the temperature δ → ∞, and its chain's
//! stationary law matches the closed-form Gibbs distribution (eq. 25).

use coca::core::gsd::{GsdOptions, GsdSolver};
use coca::core::solver::{ExhaustiveSolver, P3Solver};
use coca::dcsim::dispatch::SlotProblem;
use coca::dcsim::Cluster;
use coca::opt::gibbs::gibbs_stationary;
use coca::opt::schedule::TemperatureSchedule;

fn problem(cluster: &Cluster) -> SlotProblem<'_> {
    SlotProblem {
        cluster,
        arrival_rate: 0.4 * cluster.max_capacity(),
        onsite: 2.0,
        energy_weight: 30.0,
        delay_weight: 25.0,
        gamma: 0.95,
        pue: 1.0,
    }
}

#[test]
fn probability_of_finding_optimum_increases_with_delta() {
    let cluster = Cluster::homogeneous(3, 6);
    let p = problem(&cluster);
    let exact = ExhaustiveSolver.solve(&p).expect("exhaustive");

    let success_rate = |delta: f64| -> f64 {
        let trials = 20;
        let mut hits = 0;
        for seed in 0..trials {
            let mut gsd = GsdSolver::new(GsdOptions {
                iterations: 400,
                schedule: TemperatureSchedule::Constant(delta),
                warm_start: false,
                record_trace: true,
                seed,
            });
            let _ = gsd.solve(&p).expect("gsd");
            // Theorem 1 is about the *kept* state concentrating on the
            // optimum, not the best-seen state.
            let final_cost = *gsd.last_trace.last().expect("trace");
            if (final_cost - exact.outcome.objective).abs()
                <= exact.outcome.objective * 1e-6 + 1e-6
            {
                hits += 1;
            }
        }
        hits as f64 / trials as f64
    };

    let low = success_rate(1.0);
    let high = success_rate(1e8);
    assert!(
        high >= low,
        "success probability must not decrease with δ: δ→∞ {high} vs δ=1 {low}"
    );
    assert!(high >= 0.9, "at δ=1e8 the kept state should almost surely be optimal, got {high}");
}

#[test]
fn stationary_distribution_matches_gibbs_law_on_p3() {
    // Enumerate a tiny P3 state space and compare the closed-form Ω with
    // the empirical visit frequencies of the GSD chain.
    let cluster = Cluster::homogeneous(2, 4);
    let p = problem(&cluster);
    let counts = cluster.choice_counts();
    let delta = 200.0;

    let cost = |state: &[usize]| GsdSolver::state_cost(&p, state);
    let stationary = gibbs_stationary(counts, cost, delta).expect("stationary");

    // Drive the chain manually (same dynamics as run_gibbs_batched) and count.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let mut kept: Vec<usize> = cluster.full_speed_vector();
    let mut kept_cost = cost(&kept);
    let mut visits = std::collections::HashMap::<Vec<usize>, usize>::new();
    let iters = 120_000;
    for _ in 0..iters {
        let site = rng.gen_range(0..counts.len());
        let proposal = rng.gen_range(0..counts[site]);
        let old = kept[site];
        if proposal != old {
            kept[site] = proposal;
            let c = cost(&kept);
            let u = coca::opt::sigmoid(delta * (1.0 / c - 1.0 / kept_cost));
            if rng.gen::<f64>() < u {
                kept_cost = c;
            } else {
                kept[site] = old;
            }
        }
        *visits.entry(kept.clone()).or_default() += 1;
    }
    for (state, pi) in &stationary {
        let emp = *visits.get(state).unwrap_or(&0) as f64 / iters as f64;
        assert!(
            (emp - pi).abs() < 0.03,
            "state {state:?}: empirical {emp:.4} vs Gibbs law {pi:.4}"
        );
    }
}

#[test]
fn distributed_engine_agrees_with_sequential_quality() {
    use coca::core::gsd_distributed::DistributedGsdSolver;
    let cluster = Cluster::homogeneous(4, 5);
    let p = problem(&cluster);
    let exact = ExhaustiveSolver.solve(&p).expect("exhaustive");
    let opts = GsdOptions {
        iterations: 1500,
        schedule: TemperatureSchedule::Constant(1e8),
        warm_start: false,
        seed: 4,
        ..Default::default()
    };
    let mut seq = GsdSolver::new(opts.clone());
    let mut dist = DistributedGsdSolver::new(opts, 2);
    let a = seq.solve(&p).expect("seq");
    let b = dist.solve(&p).expect("dist");
    for sol in [&a, &b] {
        let rel = (sol.outcome.objective - exact.outcome.objective)
            / exact.outcome.objective.max(1e-9);
        assert!(rel < 5e-3, "GSD engines must reach the optimum: gap {rel}");
    }
}
