//! Property-based tests for the scalar solvers: bisection against random
//! monotone functions, capped-simplex projection, and budget duals against
//! analytically solvable quadratic slot families.

use coca_opt::bisect::{bisect_increasing, BisectOptions};
use coca_opt::dual::{solve_budget_dual, DualOptions};
use coca_opt::simplex::project_capped_simplex;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bisection_finds_roots_of_monotone_cubics(
        root in -50.0..50.0_f64,
        scale in 0.01..10.0_f64,
    ) {
        // f(x) = scale·(x − root)³ + (x − root): strictly increasing.
        let f = |x: f64| {
            let d = x - root;
            scale * d * d * d + d
        };
        let x = bisect_increasing(-100.0, 100.0, f, BisectOptions::default()).unwrap();
        prop_assert!((x - root).abs() < 1e-6, "found {x}, expected {root}");
    }

    #[test]
    fn budget_dual_meets_random_budgets(
        targets in proptest::collection::vec(0.1..10.0_f64, 1..12),
        budget_frac in 0.0..1.2_f64,
    ) {
        // Quadratic slots: y*(μ) = max(aₜ − μ/2, 0).
        let total: f64 = targets.iter().sum();
        let budget = budget_frac * total;
        let out = solve_budget_dual(
            |t, mu| {
                let y = (targets[t] - mu / 2.0).max(0.0);
                ((y - targets[t]).powi(2), y)
            },
            targets.len(),
            budget,
            DualOptions::default(),
        )
        .unwrap();
        prop_assert!(out.total_usage <= budget * (1.0 + 1e-3) + 1e-9,
            "usage {} exceeds budget {budget}", out.total_usage);
        if budget_frac >= 1.0 {
            prop_assert_eq!(out.mu, 0.0, "slack budget needs no multiplier");
        }
    }

    #[test]
    fn simplex_projection_is_idempotent(
        y in proptest::collection::vec(-5.0..5.0_f64, 1..10),
        cap in 0.5..4.0_f64,
        target_frac in 0.0..1.0_f64,
    ) {
        let caps = vec![cap; y.len()];
        let target = target_frac * cap * y.len() as f64;
        let x = project_capped_simplex(&y, &caps, target).unwrap();
        let x2 = project_capped_simplex(&x, &caps, target).unwrap();
        for (a, b) in x.iter().zip(&x2) {
            prop_assert!((a - b).abs() < 1e-7, "projection not idempotent: {a} vs {b}");
        }
        let sum: f64 = x.iter().sum();
        prop_assert!((sum - target).abs() < 1e-6);
    }
}
