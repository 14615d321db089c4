//! Differential property tests for the P3 evaluation kernel, warm start
//! against cold start: along random single-flip walks over random
//! heterogeneous fleets, the slot-scoped struct-of-arrays context
//! ([`SlotEvalContext`]), whose water-filling solver carries its ν/μ
//! brackets from price to price, must agree with [`optimal_dispatch`], a
//! fresh solver of the same kernel, to ≤ 1e-9 relative error — the
//! current state's cost, every level of a group priced by
//! [`SlotEvalContext::evaluate_candidate`], and the per-group loads
//! of [`SlotEvalContext::extract_outcome`] — and reproduce the cold water
//! level, with warm ν/μ brackets engaged.
//!
//! A deterministic companion walk pins the coverage claim: it crosses all
//! three regimes of the water-filling analysis — electricity-active
//! (p > r), renewable-slack (p < r), and the `[p−r]⁺` boundary — inside a
//! single slot context, so the agreement holds across regime
//! *transitions*, not just within one regime.
//!
//! The same differential covers `SymmetricSolver`, which prices partition
//! states on the kernel: every state a descent prices must match the cold
//! dispatch of its expanded speed vector, in all three regimes, and the
//! chosen per-partition `(level, active)` is pinned on six instances, with
//! the sequence of visited speed vectors and the work each solve spends.
//! Its solve-scoped state memo is held to its contract: a solve prices each
//! distinct state at most once, on fleets of up to six partitions, and
//! spends water-level evaluations exactly when a priced state has two or
//! more live rows.
//!
//! Runs strict: every test calls [`coca_core::invariant::force_strict`]
//! before the first solve, so the load-conservation and KKT checks fire as
//! hard panics on every kernel solve. Strict mode is a process-wide
//! switch, hence this lives in its own integration binary (CI additionally
//! runs it with `COCA_STRICT_INVARIANTS=1`).

use coca_core::invariant;
use coca_core::solver::P3Solver;
use coca_core::symmetric::SymmetricSolver;
use coca_dcsim::dispatch::{optimal_dispatch, SlotProblem};
use coca_dcsim::incremental::SlotEvalContext;
use coca_dcsim::{Cluster, ServerClass};
use proptest::prelude::*;

/// Puts the process-wide invariant checker into strict mode. Every test in
/// this binary calls this first, so whichever runs first wins the
/// `OnceLock` set and the other just observes strict mode.
fn ensure_strict() {
    let _ = invariant::force_strict();
    assert!(invariant::global().is_strict(), "checker initialized non-strict");
}

fn random_cluster(groups: usize, servers: usize, classes: usize) -> Cluster {
    let base = ServerClass::amd_opteron_2380();
    let mut builder = coca_dcsim::ClusterBuilder::new();
    for k in 0..groups {
        let class = base.derived(
            &format!("c{}", k % classes),
            0.8 + 0.1 * (k % classes) as f64,
            0.85 + 0.1 * (k % classes) as f64,
        );
        builder = builder.add_groups(class, 1, servers);
    }
    builder.build().expect("cluster")
}

fn close(kernel: f64, cold: f64) -> bool {
    (kernel - cold).abs() <= cold.abs() * 1e-9 + 1e-9
}

/// Checks the context's current state against the cold dispatch: the
/// current cost, then every level of `group` priced as a candidate
/// (feasible ones against the cold objective of the deviated state,
/// infeasible ones priced `INFINITY`), then the extracted outcome's objective, per-group
/// loads and water level.
fn check_state(
    ctx: &mut SlotEvalContext<'_>,
    group: usize,
    costs: &mut Vec<f64>,
) -> Result<(), String> {
    let p = *ctx.problem();
    let state = ctx.levels().to_vec();
    let current = ctx.evaluate_current();
    let cold = if p.is_feasible(&state) { optimal_dispatch(&p, &state).ok() } else { None };
    match &cold {
        Some(c) if !close(current, c.objective) => {
            return Err(format!("current cost: kernel {current} vs cold {}", c.objective));
        }
        None if current.is_finite() => return Err(format!("infeasible state priced {current}")),
        _ => {}
    }

    costs.clear();
    let choices = p.cluster.groups()[group].num_choices();
    costs.extend((0..choices).map(|level| ctx.evaluate_candidate(group, level)));
    let mut cand = state.clone();
    for (level, &kernel) in costs.iter().enumerate() {
        cand[group] = level;
        if p.is_feasible(&cand) {
            let c = optimal_dispatch(&p, &cand).map_err(|e| e.to_string())?.objective;
            if !close(kernel, c) {
                let at = format!("candidate (g={group}, level={level})");
                return Err(format!("{at}: kernel {kernel} vs cold {c}"));
            }
        } else if kernel.is_finite() {
            return Err(format!("infeasible candidate (g={group}, level={level}) priced {kernel}"));
        }
    }
    if ctx.levels() != &state[..] {
        return Err("candidate sweep committed a flip".into());
    }

    let out = ctx.extract_outcome();
    let (out, cold) = match (out, cold) {
        (None, None) => return Ok(()),
        (Some(out), Some(cold)) => (out, cold),
        (out, cold) => {
            return Err(format!(
                "extract_outcome feasible={} vs cold feasible={}",
                out.is_some(),
                cold.is_some()
            ))
        }
    };
    if !close(out.objective, cold.objective) {
        let (k, c) = (out.objective, cold.objective);
        return Err(format!("outcome objective: kernel {k} vs cold {c}"));
    }
    let lam = p.arrival_rate;
    for (g, (&lk, &lc)) in out.loads.iter().zip(&cold.loads).enumerate() {
        if (lk - lc).abs() > lc.abs() * 1e-9 + lam.max(1.0) * 1e-9 {
            return Err(format!("load[{g}]: kernel {lk} vs cold {lc}"));
        }
    }
    if let (Some(nk), Some(nc)) = (out.water_level, cold.water_level) {
        // Warm and cold searches stop at the same |Σλᵢ(ν) − λ| tolerance;
        // ν itself is pinned slightly less tightly than the objective.
        if (nk - nc).abs() > nc.abs().max(1.0) * 1e-6 {
            return Err(format!("water level: kernel {nk} vs cold {nc}"));
        }
    }
    Ok(())
}

/// Water-filling regime of a feasible speed vector's cold optimum:
/// 0 electricity-active (p > r), 1 renewable-slack (p < r), 2 the `[p−r]⁺`
/// boundary.
fn regime(p: &SlotProblem<'_>, facility_power: f64) -> usize {
    if facility_power > p.onsite * (1.0 + 1e-6) {
        0
    } else if facility_power < p.onsite * (1.0 - 1e-6) {
        1
    } else {
        2
    }
}

/// Solves `p` with `solver`, checking every partition state the descent
/// prices against the cold dispatch of its expanded speed vector. Returns
/// which regimes the priced states' cold optima fell in.
fn check_symmetric_solve(
    solver: &mut SymmetricSolver,
    p: &SlotProblem<'_>,
) -> Result<[bool; 3], String> {
    let mut seen = [false; 3];
    let mut priced = 0usize;
    let mut failure: Option<String> = None;
    let _ = solver
        .solve_visiting(p, &mut |levels, cost| {
            priced += 1;
            let cold = if p.is_feasible(levels) { optimal_dispatch(p, levels).ok() } else { None };
            let err = match &cold {
                Some(c) if !close(cost, c.objective) => {
                    Some(format!("kernel {cost} vs cold {} at {levels:?}", c.objective))
                }
                None if cost.is_finite() => Some(format!("infeasible {levels:?} priced {cost}")),
                _ => None,
            };
            if let Some(c) = cold {
                seen[regime(p, c.facility_power)] = true;
            }
            if failure.is_none() {
                failure = err;
            }
        })
        .map_err(|e| e.to_string())?;
    match failure {
        Some(msg) => Err(msg),
        None if priced == 0 => Err("the descent priced no state".into()),
        None => Ok(seen),
    }
}

/// Queue types a speed vector runs: the distinct (capacity, slope) bit
/// patterns of its active groups, the rows the dispatch bank gets.
fn live_rows(cluster: &Cluster, levels: &[usize]) -> usize {
    let mut rows = std::collections::HashSet::new();
    for (g, &level) in cluster.groups().iter().zip(levels).filter(|(_, &l)| l > 0) {
        rows.insert((g.capacity(level).to_bits(), g.energy_slope(level).to_bits()));
    }
    rows.len()
}

/// Solves `p` and fails if the solve priced one speed vector twice, if
/// its stats count a different number of kernel prices than it visited,
/// or if it counts water-level evaluations other than exactly when it
/// priced a feasible state with two or more live rows (one live row is
/// priced in closed form).
fn check_prices_once(solver: &mut SymmetricSolver, p: &SlotProblem<'_>) -> Result<(), String> {
    let mut seen = std::collections::HashSet::new();
    let mut repeat: Option<Vec<usize>> = None;
    let mut searched = false;
    let _ = solver
        .solve_visiting(p, &mut |levels, cost| {
            if !seen.insert(levels.to_vec()) && repeat.is_none() {
                repeat = Some(levels.to_vec());
            }
            searched |= cost.is_finite() && live_rows(p.cluster, levels) >= 2;
        })
        .map_err(|e| e.to_string())?;
    if let Some(levels) = repeat {
        return Err(format!("state {levels:?} priced twice in one solve"));
    }
    let prices = solver.stats().batched_candidates;
    if prices != seen.len() as u64 {
        return Err(format!("stats count {prices} prices, the solve visited {}", seen.len()));
    }
    match (searched, solver.stats().bisection_evals) {
        (true, 0) => Err("multi-row states spent no water-level evaluations".into()),
        (false, evals @ 1..) => Err(format!("{evals} water-level evaluations on one-row states")),
        _ => Ok(()),
    }
}

#[test]
fn symmetric_prices_each_state_once_on_many_partitions() {
    ensure_strict();
    // Six partitions: the memo key must hold any number of partitions,
    // not a fixed-width packing of a few.
    let cluster = random_cluster(12, 300, 6);
    let full = cluster.full_speed_vector();
    let mut solver = SymmetricSolver::new();
    for frac in [0.6, 0.2, 0.45, 0.45] {
        let p = SlotProblem {
            cluster: &cluster,
            arrival_rate: frac * 0.95 * cluster.capacity_of(&full),
            onsite: 0.0,
            energy_weight: 20.0,
            delay_weight: 5.0,
            gamma: 0.95,
            pue: 1.2,
        };
        check_prices_once(&mut solver, &p).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn symmetric_prices_each_state_once_per_solve(
        groups in 2usize..14,
        servers in 1usize..25,
        classes in 1usize..7,
        fracs in proptest::collection::vec(0.05..0.9_f64, 1..4),
        onsite_frac in 0.0..1.4_f64,
        a in 0.0..80.0_f64,
        w in 0.01..50.0_f64,
    ) {
        ensure_strict();
        let cluster = random_cluster(groups, servers, classes);
        let full = cluster.full_speed_vector();
        let gamma = 0.95;
        let ref_power = optimal_dispatch(
            &SlotProblem {
                cluster: &cluster,
                arrival_rate: 0.5 * gamma * cluster.capacity_of(&full),
                onsite: 0.0,
                energy_weight: a,
                delay_weight: w,
                gamma,
                pue: 1.0,
            },
            &full,
        )
        .unwrap()
        .facility_power;
        // Later slots on the same solver run the warm two-start descent.
        let mut solver = SymmetricSolver::new();
        for frac in fracs {
            let p = SlotProblem {
                cluster: &cluster,
                arrival_rate: frac * gamma * cluster.capacity_of(&full),
                onsite: onsite_frac * ref_power,
                energy_weight: a,
                delay_weight: w,
                gamma,
                pue: 1.0,
            };
            if let Err(msg) = check_prices_once(&mut solver, &p) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    #[test]
    fn symmetric_pricing_matches_cold_dispatch(
        groups in 2usize..10,
        servers in 1usize..25,
        classes in 1usize..4,
        load_frac in 0.05..0.9_f64,
        next_frac in 0.05..0.9_f64,
        onsite_frac in 0.0..1.4_f64,
        a in 0.0..80.0_f64,
        w in 0.01..50.0_f64,
        pue in 1.0..1.5_f64,
    ) {
        ensure_strict();
        let cluster = random_cluster(groups, servers, classes);
        let full = cluster.full_speed_vector();
        let gamma = 0.95;
        let probe = SlotProblem {
            cluster: &cluster,
            arrival_rate: load_frac * gamma * cluster.capacity_of(&full),
            onsite: 0.0,
            energy_weight: a,
            delay_weight: w,
            gamma,
            pue,
        };
        let ref_power = optimal_dispatch(&probe, &full).unwrap().facility_power;
        let p = SlotProblem { onsite: onsite_frac * ref_power, ..probe };
        // A second slot on the same solver runs the warm two-start descent.
        let next = SlotProblem { arrival_rate: next_frac * gamma * cluster.capacity_of(&full), ..p };
        let mut solver = SymmetricSolver::new();
        for slot in [&p, &next] {
            if let Err(msg) = check_symmetric_solve(&mut solver, slot) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    #[test]
    fn kernel_matches_cold_along_random_flip_walks(
        groups in 2usize..8,
        servers in 1usize..25,
        classes in 1usize..4,
        load_frac in 0.05..0.9_f64,
        onsite_frac in 0.0..1.4_f64,
        a in 0.0..80.0_f64,
        w in 0.01..50.0_f64,
        pue in 1.0..1.5_f64,
        flips in proptest::collection::vec((0usize..64, 0usize..8), 1..24),
    ) {
        ensure_strict();
        let cluster = random_cluster(groups, servers, classes);
        let full = cluster.full_speed_vector();
        let gamma = 0.95;
        let lam = load_frac * gamma * cluster.capacity_of(&full);
        // Calibrate r to the full-speed facility power so random walks land
        // on both sides of the [p−r]⁺ kink instead of in one fixed regime.
        let probe = SlotProblem {
            cluster: &cluster,
            arrival_rate: lam,
            onsite: 0.0,
            energy_weight: a,
            delay_weight: w,
            gamma,
            pue,
        };
        let ref_power = optimal_dispatch(&probe, &full).unwrap().facility_power;
        let p = SlotProblem { onsite: onsite_frac * ref_power, ..probe };

        let mut ctx = SlotEvalContext::new(p, &full).unwrap();
        let mut costs = Vec::new();
        for &(gsel, lsel) in &flips {
            let g = gsel % full.len();
            ctx.set_level(g, lsel % cluster.groups()[g].num_choices());
            if let Err(msg) = check_state(&mut ctx, g, &mut costs) {
                return Err(TestCaseError::fail(format!("{msg} at state {:?}", ctx.levels())));
            }
        }
        // The walk must actually have priced candidates on the kernel.
        prop_assert!(ctx.stats.batched_candidates > 0);
    }
}

#[test]
fn flip_walk_crosses_all_three_regimes() {
    ensure_strict();
    let cluster = random_cluster(6, 12, 3);
    let full = cluster.full_speed_vector();
    let gamma = 0.95;
    let lam = 0.35 * gamma * cluster.capacity_of(&full);
    let a = 40.0;
    let w = 2.0;

    // Shutdown ladder: slow one group-level at a time from full speed, as a
    // single Gibbs-style flip sequence, keeping every state feasible.
    let mut ladder = vec![full.clone()];
    let mut s = full.clone();
    'outer: for g in 0..s.len() {
        loop {
            let next = s[g] - 1;
            let mut cand = s.clone();
            cand[g] = next;
            if next == 0 || lam > gamma * cluster.capacity_of(&cand) {
                break;
            }
            s = cand;
            ladder.push(s.clone());
            if ladder.len() > 60 {
                break 'outer;
            }
        }
    }
    assert!(ladder.len() >= 8, "ladder too short to cross regimes");

    // Pick r inside the [p_active, p_slack] band of a mid-ladder state:
    // that state is then pinned to the kink. Facility power *rises* down
    // the ladder (slower servers burn more energy per request at fixed
    // load), so the full-speed end sits in the renewable-slack regime
    // (p < r) and the slowed-down end in the electricity-active regime
    // (p > r).
    let power_at = |levels: &[usize], energy_weight: f64| -> f64 {
        let p = SlotProblem {
            cluster: &cluster,
            arrival_rate: lam,
            onsite: 0.0,
            energy_weight,
            delay_weight: w,
            gamma,
            pue: 1.2,
        };
        optimal_dispatch(&p, levels).unwrap().facility_power
    };
    let mid = &ladder[ladder.len() / 2];
    let p_active = power_at(mid, a);
    let p_slack = power_at(mid, 0.0);
    assert!(p_active < p_slack, "kink band must have width: {p_active} vs {p_slack}");
    let r = 0.5 * (p_active + p_slack);
    assert!(power_at(&full, 0.0) < r, "full speed must be renewable-slack");
    assert!(
        power_at(ladder.last().unwrap(), a) > r,
        "ladder end must be electricity-active"
    );

    let p = SlotProblem {
        cluster: &cluster,
        arrival_rate: lam,
        onsite: r,
        energy_weight: a,
        delay_weight: w,
        gamma,
        pue: 1.2,
    };
    let mut ctx = SlotEvalContext::new(p, &full).unwrap();
    let mut costs = Vec::new();
    let mut seen = [false; 3];
    for state in &ladder {
        // Sweep the group this rung flipped (group 0 on the first rung).
        let group = (0..state.len()).find(|&g| state[g] != ctx.levels()[g]).unwrap_or(0);
        ctx.sync(state);
        check_state(&mut ctx, group, &mut costs).unwrap();
        let cold = optimal_dispatch(&p, state).unwrap();
        let regime = if cold.facility_power > r * (1.0 + 1e-6) {
            0 // electricity-active: p > r
        } else if cold.facility_power < r * (1.0 - 1e-6) {
            1 // renewable-slack: p < r
        } else {
            2 // boundary: power pinned to r by the μ-bisection
        };
        seen[regime] = true;
    }
    assert!(seen[0], "walk never hit the electricity-active regime");
    assert!(seen[1], "walk never hit the renewable-slack regime");
    assert!(seen[2], "walk never hit the [p−r]⁺ boundary regime");
}

/// The heterogeneous fleet and slot of the regime cases, with the renewable
/// supply of each regime: none (electricity-active), twice the peak
/// facility power (renewable-slack), and the middle of the full-speed
/// state's `[p_active, p_slack]` band, so the descent's first state sits on
/// the kink.
fn regime_cases(cluster: &Cluster) -> [SlotProblem<'_>; 3] {
    let full = cluster.full_speed_vector();
    let p = SlotProblem {
        cluster,
        arrival_rate: 0.35 * 0.95 * cluster.capacity_of(&full),
        onsite: 0.0,
        energy_weight: 40.0,
        delay_weight: 2.0,
        gamma: 0.95,
        pue: 1.2,
    };
    let p_active = optimal_dispatch(&p, &full).unwrap().facility_power;
    let p_slack =
        optimal_dispatch(&SlotProblem { energy_weight: 0.0, ..p }, &full).unwrap().facility_power;
    assert!(p_active < p_slack, "kink band must have width: {p_active} vs {p_slack}");
    [
        p,
        SlotProblem { onsite: 2.0 * p.pue * cluster.peak_power(), ..p },
        SlotProblem { onsite: 0.5 * (p_active + p_slack), ..p },
    ]
}

#[test]
fn symmetric_pricing_covers_all_three_regimes() {
    ensure_strict();
    let cluster = random_cluster(12, 40, 3);
    for (want, p) in regime_cases(&cluster).iter().enumerate() {
        let seen = check_symmetric_solve(&mut SymmetricSolver::new(), p).unwrap();
        assert!(seen[want], "regime {want} never priced: {seen:?}");
    }
}

/// The chosen `(level, active)` per partition, as the solver snapshots it.
fn chosen(solver: &mut SymmetricSolver, p: &SlotProblem<'_>) -> Vec<[i64; 2]> {
    let _ = solver.solve(p).unwrap();
    let snap = solver.snapshot_state().unwrap();
    snap.as_seq()
        .unwrap()
        .iter()
        .map(|pair| match pair.as_seq().unwrap() {
            [serde::Value::Int(level), serde::Value::Int(active)] => [*level, *active],
            other => panic!("malformed snapshot pair {other:?}"),
        })
        .collect()
}

/// The paper-scale slot of `p3_smoke` and the `p3_paper_scale` benches.
fn paper_slot(cluster: &Cluster) -> SlotProblem<'_> {
    SlotProblem {
        cluster,
        arrival_rate: 0.5 * cluster.max_capacity(),
        onsite: 0.05 * cluster.peak_power(),
        energy_weight: 300.0,
        delay_weight: 1000.0,
        gamma: 0.95,
        pue: 1.0,
    }
}

#[test]
fn symmetric_choices_are_pinned() {
    ensure_strict();
    // Expected values are the choices of the cold-evaluator solver this
    // kernel replaced; the kernel must not move a single decision.
    let homogeneous = Cluster::homogeneous(200, 1080);
    assert_eq!(chosen(&mut SymmetricSolver::new(), &paper_slot(&homogeneous)), [[4, 115]]);

    let paper = Cluster::paper_datacenter();
    let mut solver = SymmetricSolver::new();
    assert_eq!(chosen(&mut solver, &paper_slot(&paper)), [[4, 9], [1, 0], [4, 50], [4, 50]]);
    // A second, lighter slot on the same solver: the warm two-start path.
    let lighter = SlotProblem {
        arrival_rate: 0.3 * paper.max_capacity(),
        onsite: 0.0,
        ..paper_slot(&paper)
    };
    assert_eq!(chosen(&mut solver, &lighter), [[1, 0], [1, 0], [4, 20], [4, 50]]);

    let cluster = random_cluster(12, 40, 3);
    let [active, slack, kink] = regime_cases(&cluster);
    assert_eq!(chosen(&mut SymmetricSolver::new(), &active), [[1, 0], [1, 0], [4, 4]]);
    assert_eq!(chosen(&mut SymmetricSolver::new(), &slack), [[4, 4], [4, 4], [4, 4]]);
    assert_eq!(chosen(&mut SymmetricSolver::new(), &kink), [[4, 4], [4, 4], [4, 4]]);
}

/// One solve's visit sequence and work counters: the number of visits,
/// an FNV-1a digest over every visited speed vector, the same digest with
/// the bits of each visit's cost mixed in after its vector, then the
/// descent rounds, kernel prices and water-level evaluations.
fn visits_and_work(solver: &mut SymmetricSolver, p: &SlotProblem<'_>) -> [u64; 6] {
    let fnv = |digest: &mut u64, word: u64| {
        for byte in word.to_le_bytes() {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let mut visits = 0u64;
    let (mut states, mut costs) = (0xcbf2_9ce4_8422_2325_u64, 0xcbf2_9ce4_8422_2325_u64);
    let _ = solver
        .solve_visiting(p, &mut |levels, cost| {
            visits += 1;
            for &level in levels {
                fnv(&mut states, level as u64);
                fnv(&mut costs, level as u64);
            }
            fnv(&mut costs, cost.to_bits());
        })
        .unwrap();
    let s = solver.stats();
    [visits, states, costs, s.iterations as u64, s.batched_candidates, s.bisection_evals]
}

/// [`visits_and_work`] on the instances of `symmetric_choices_are_pinned`,
/// in that order.
fn pinned_work() -> [[u64; 6]; 6] {
    let homogeneous = Cluster::homogeneous(200, 1080);
    let paper = Cluster::paper_datacenter();
    let lighter = SlotProblem {
        arrival_rate: 0.3 * paper.max_capacity(),
        onsite: 0.0,
        ..paper_slot(&paper)
    };
    let cluster = random_cluster(12, 40, 3);
    let [active, slack, kink] = regime_cases(&cluster);
    let mut warm = SymmetricSolver::new();
    [
        visits_and_work(&mut SymmetricSolver::new(), &paper_slot(&homogeneous)),
        visits_and_work(&mut warm, &paper_slot(&paper)),
        visits_and_work(&mut warm, &lighter),
        visits_and_work(&mut SymmetricSolver::new(), &active),
        visits_and_work(&mut SymmetricSolver::new(), &slack),
        visits_and_work(&mut SymmetricSolver::new(), &kink),
    ]
}

#[test]
fn symmetric_visited_states_are_pinned() {
    ensure_strict();
    // A faster kernel or descent must visit the same speed vectors in the
    // same order, in the same descent rounds, and price the same number of
    // distinct states: per instance the visit count, the digest of the
    // visited vectors, the rounds and the kernel prices.
    let got = pinned_work().map(|[visits, states, _, rounds, prices, _]| {
        [visits, states, rounds, prices]
    });
    let want: [[u64; 4]; 6] = [
        [27, 0x49fe89531c7bd301, 2, 27],
        [494, 0xef04bce77468dbe0, 6, 494],
        [259, 0xb31e68e5715fb300, 4, 259],
        [39, 0xb0a3007335ff3a25, 2, 39],
        [47, 0x14ea0536dc689da5, 1, 47],
        [47, 0x14ea0536dc689da5, 1, 47],
    ];
    assert_eq!(got, want);
}

#[test]
fn symmetric_visits_and_work_are_pinned() {
    ensure_strict();
    // Each visited state's cost bits and the water-level evaluations the
    // prices spent, on the instances of `symmetric_visited_states_are_pinned`:
    // per instance the visit count, the digest of the visited vectors and
    // their cost bits, the rounds, kernel prices and evaluations.
    //
    // A state with one live row is priced in closed form (λ/m, no water
    // level search). On the homogeneous fleet every state has one live
    // row: 5 of its 27 costs moved, by at most 3 ulps, from the searched
    // value, and its evaluations fell from 252 to 0. The `active` case
    // prices some single-row states too: same cost bits, evaluations
    // 279 → 273. The other rows are those recorded before the live-row
    // kernel passes, the per-line price reuse and the reused solver.
    let got = pinned_work().map(|[visits, _, costs, rounds, prices, evals]| {
        [visits, costs, rounds, prices, evals]
    });
    let want: [[u64; 5]; 6] = [
        [27, 0xbe2b7c863d06ead0, 2, 27, 0],
        [494, 0x3be58d5161f7ad34, 6, 494, 3400],
        [259, 0x1075327f024e12ad, 4, 259, 1169],
        [39, 0x6c8a5d9b61eb30a1, 2, 39, 273],
        [47, 0x2c89c746115c1b3f, 1, 47, 355],
        [47, 0x2e7c6e2e8691b263, 1, 47, 594],
    ];
    assert_eq!(got, want);
}
