//! Property-based cross-checks of the optimization stack on random
//! instances: the exact water-filling solver against the projected-gradient
//! fallback, the symmetric P3 solver against GSD and exhaustive search, and
//! the structural invariants every dispatch must satisfy.

use coca::core::gsd::{GsdOptions, GsdSolver};
use coca::core::solver::{ExhaustiveSolver, P3Solver};
use coca::core::symmetric::SymmetricSolver;
use coca::dcsim::dispatch::{optimal_dispatch, SlotProblem};
use coca::dcsim::Cluster;
use coca::opt::pgd::{solve_pgd, PgdOptions};
use coca::opt::schedule::TemperatureSchedule;
use coca::opt::waterfill::{solve, BankProblem, QueueBank};
use proptest::prelude::*;

/// One single queue: `(capacity, util_cap, energy_slope)`.
fn queue_strategy() -> impl Strategy<Value = (f64, f64, f64)> {
    (1.0..50.0_f64, 0.5..0.99_f64, 0.0..2.0_f64).prop_map(|(cap, gamma, slope)| (cap, gamma * cap, slope))
}

/// A bank of the given queues, each of multiplicity `m`.
fn bank_of(queues: &[(f64, f64, f64)], m: f64) -> QueueBank {
    let mut bank = QueueBank::new();
    for &(x, u, c) in queues {
        bank.push_type(x, u, c, 0.0, m);
    }
    bank
}

fn problem(bank: &QueueBank, load: f64, a: f64, w: f64, base: f64, r: f64) -> BankProblem<'_> {
    BankProblem {
        bank,
        total_load: load,
        energy_weight: a,
        delay_weight: w,
        base_power: base,
        capped_capacity: bank.aggregates().0,
        renewable: r,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn waterfill_agrees_with_pgd(
        queues in proptest::collection::vec(queue_strategy(), 1..6),
        load_frac in 0.0..0.95_f64,
        a in 0.0..20.0_f64,
        w in 0.01..20.0_f64,
        r in 0.0..30.0_f64,
    ) {
        let bank = bank_of(&queues, 1.0);
        let p = problem(&bank, load_frac * bank.aggregates().0, a, w, 0.5, r);
        let (exact, _) = solve(&p).unwrap();
        let approx = solve_pgd(&p, PgdOptions::default()).unwrap();
        let v_pgd = p.objective(&approx);
        // PGD is approximate: it must not beat the exact optimum by more
        // than numerical noise, and must come close to it.
        prop_assert!(exact.objective <= v_pgd + v_pgd.abs() * 1e-4 + 1e-6,
            "exact {} worse than pgd {}", exact.objective, v_pgd);
        prop_assert!(v_pgd <= exact.objective * 1.02 + 1e-4,
            "pgd {} far from exact {}", v_pgd, exact.objective);
    }

    #[test]
    fn waterfill_solution_is_feasible_and_conserving(
        queues in proptest::collection::vec(queue_strategy(), 1..8),
        load_frac in 0.0..0.999_f64,
        a in 0.0..50.0_f64,
        w in 0.0..50.0_f64,
        r in 0.0..100.0_f64,
    ) {
        let bank = bank_of(&queues, 1.0);
        let p = problem(&bank, load_frac * bank.aggregates().0, a, w, 0.0, r);
        let (sol, lambdas) = solve(&p).unwrap();
        let total: f64 = lambdas.iter().sum();
        prop_assert!((total - p.total_load).abs() <= p.total_load * 1e-6 + 1e-9,
            "load not conserved: {} vs {}", total, p.total_load);
        for (l, &(_, u, _)) in lambdas.iter().zip(&queues) {
            prop_assert!(*l >= -1e-12 && *l <= u * (1.0 + 1e-9));
        }
        prop_assert!(sol.objective >= 0.0);
        prop_assert!(sol.power >= 0.0 && sol.delay >= 0.0);
    }

    #[test]
    fn multiplicity_compression_is_lossless(
        cap in 2.0..30.0_f64,
        gamma in 0.5..0.95_f64,
        slope in 0.0..1.0_f64,
        m in 2usize..6,
        load_frac in 0.01..0.9_f64,
        a in 0.0..10.0_f64,
        w in 0.1..10.0_f64,
    ) {
        let queue = (cap, gamma * cap, slope);
        let compact = bank_of(&[queue], m as f64);
        let expanded = bank_of(&vec![queue; m], 1.0);
        let load = load_frac * (m as f64) * gamma * cap;
        let (sc, _) = solve(&problem(&compact, load, a, w, 0.0, 0.0)).unwrap();
        let (se, _) = solve(&problem(&expanded, load, a, w, 0.0, 0.0)).unwrap();
        prop_assert!((sc.objective - se.objective).abs() <= se.objective.abs() * 1e-6 + 1e-9,
            "compression changed the optimum: {} vs {}", sc.objective, se.objective);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn symmetric_solver_close_to_exhaustive(
        groups in 2usize..5,
        servers in 2usize..6,
        load_frac in 0.05..0.9_f64,
        a in 0.1..50.0_f64,
        w in 0.1..50.0_f64,
    ) {
        let cluster = Cluster::homogeneous(groups, servers);
        let p = SlotProblem {
            cluster: &cluster,
            arrival_rate: load_frac * 0.95 * cluster.max_capacity(),
            onsite: 0.0,
            energy_weight: a,
            delay_weight: w,
            gamma: 0.95,
            pue: 1.0,
        };
        let exact = ExhaustiveSolver.solve(&p).unwrap();
        let sym = SymmetricSolver::new().solve(&p).unwrap();
        let rel = (sym.outcome.objective - exact.outcome.objective)
            / exact.outcome.objective.max(1e-9);
        prop_assert!(rel < 0.03, "symmetric gap {} too large (sym {}, exact {})",
            rel, sym.outcome.objective, exact.outcome.objective);
    }

    #[test]
    fn gsd_never_returns_infeasible_or_worse_than_start(
        groups in 2usize..5,
        servers in 2usize..5,
        load_frac in 0.05..0.9_f64,
        seed in 0u64..1000,
    ) {
        let cluster = Cluster::homogeneous(groups, servers);
        let p = SlotProblem {
            cluster: &cluster,
            arrival_rate: load_frac * 0.95 * cluster.max_capacity(),
            onsite: 1.0,
            energy_weight: 5.0,
            delay_weight: 5.0,
            gamma: 0.95,
            pue: 1.0,
        };
        let full = cluster.full_speed_vector();
        let start_cost = optimal_dispatch(&p, &full).unwrap().objective;
        let mut gsd = GsdSolver::new(GsdOptions {
            iterations: 150,
            schedule: TemperatureSchedule::Constant(1e5),
            warm_start: false,
            seed,
            ..Default::default()
        });
        let sol = gsd.solve(&p).unwrap();
        prop_assert!(p.is_feasible(&sol.levels));
        prop_assert!(sol.outcome.objective <= start_cost + 1e-9,
            "best-so-far can never exceed the initial state's cost");
        let total: f64 = sol.loads.iter().sum();
        prop_assert!((total - p.arrival_rate).abs() <= p.arrival_rate * 1e-6 + 1e-9);
    }
}
