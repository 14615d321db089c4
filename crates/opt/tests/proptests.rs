//! Property-based tests for the scalar solvers: bisection against random
//! monotone functions, capped-simplex projection, and the budget-dual
//! driver against quadratic slot families, monotone or not.

use coca_opt::bisect::{bisect_increasing, BisectOptions};
use coca_opt::dual::{solve_budget_dual, DualOptions};
use coca_opt::simplex::project_capped_simplex;
use coca_opt::OptError;
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
        bumpy in proptest::bool::ANY,
        bump_size in 0.1..5.0_f64,
        bump_at in 0.0..20.0_f64,
        max_iter in 1..80_usize,
    ) {
        // Quadratic slots, y*(μ) = max(aₜ − μ/2, 0). When `bumpy`, the
        // total usage rises by `bump_size` on μ ∈ [bump_at, 2·bump_at], a
        // non-monotone usage like the production solver's brown(μ). Few
        // bisection iterations leave the crossing coarse, so every landing
        // branch is taken.
        let total: f64 = targets.iter().sum();
        let budget = budget_frac * total;
        let bump = if bumpy { bump_size } else { 0.0 };
        let usage = |mu: f64| {
            let bumped = if (bump_at..=2.0 * bump_at).contains(&mu) { bump } else { 0.0 };
            targets.iter().map(|a| (a - mu / 2.0).max(0.0)).sum::<f64>() + bumped
        };
        let mut probed = Vec::new();
        let opts = DualOptions { max_iter, ..DualOptions::default() };
        let out = solve_budget_dual(
            |mu| {
                probed.push(mu);
                let cost: f64 = targets.iter().map(|a| (a - mu / 2.0).max(0.0) - a).map(|d| d * d).sum();
                Ok::<_, OptError>((mu, cost, usage(mu)))
            },
            budget,
            1.0,
            opts,
        )
        .unwrap();

        // The driver's contract: no μ probed twice in a row, the returned
        // μ is the last one probed, and every probe is counted.
        for pair in probed.windows(2) {
            prop_assert!(pair[0].to_bits() != pair[1].to_bits(), "μ probed twice in a row: {:?}", probed);
        }
        prop_assert_eq!(probed.last().map(|m| m.to_bits()), Some(out.mu.to_bits()));
        prop_assert_eq!(out.plan.to_bits(), out.mu.to_bits());
        prop_assert_eq!(out.sweeps, probed.len());
        prop_assert!(out.attainable, "usage reaches 0 at large μ");
        prop_assert!(out.total_usage <= budget * (1.0 + 1e-3) + 1e-9,
            "usage {} exceeds budget {budget}", out.total_usage);
        if budget_frac >= 1.0 && !bumpy {
            prop_assert_eq!(out.mu, 0.0, "slack budget needs no multiplier");
        }

        // The landing rule: the first of (μ, μ⁺, μ_hi) within 10·tol, else
        // μ_hi, where μ_hi is the first bracket probe under budget. Landing
        // on μ⁺ follows μ out of tolerance. Landing on μ_hi follows either
        // the bisection's (0, μ_hi) probes, when it returned μ_hi itself,
        // or μ and μ⁺ both out of tolerance.
        if probed.len() > 1 {
            let mu_hi = probed[1..].iter().copied().find(|&m| usage(m) <= budget);
            let within = budget * (1.0 + 10.0 * opts.budget_rel_tol);
            let up = |m: f64| (m * (1.0 + 1e-6) + 1e-12).to_bits();
            let n = probed.len();
            if Some(out.mu) == mu_hi {
                let direct = probed[n - 2].to_bits() == 0;
                prop_assert!(direct || (probed[n - 2].to_bits() == up(probed[n - 3])
                    && usage(probed[n - 3]) > within && usage(probed[n - 2]) > within),
                    "μ or μ⁺ passed over: {:?}", probed);
            } else {
                prop_assert!(usage(out.mu) <= within);
                if out.mu.to_bits() == up(probed[n - 2]) {
                    prop_assert!(usage(probed[n - 2]) > within, "μ passed over: {:?}", probed);
                }
            }
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
