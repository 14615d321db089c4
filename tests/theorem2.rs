//! Empirical validation of Theorem 2: the Lyapunov performance bounds of
//! COCA hold on simulated runs, and the qualitative V trade-off matches.

use coca::core::lyapunov::{
    cost_upper_bound, neutrality_slack_bound, queue_length_bound, DriftConstants, EnvBounds,
};
use coca::core::symmetric::SymmetricSolver;
use coca::core::{CocaConfig, CocaController, VSchedule};
use coca::baselines::OfflineOpt;
use coca::dcsim::{run_lockstep, PassMemo};
use coca::traces::WorkloadKind;
use coca_experiments::setup::{ExperimentScale, PaperSetup};

fn setup() -> PaperSetup {
    PaperSetup::build(ExperimentScale::small(), WorkloadKind::Fiu, 0.92).expect("setup")
}

fn env_bounds(s: &PaperSetup) -> EnvBounds {
    let y_max = s.cluster.peak_power() * s.cost.pue;
    let f_max = s.trace.offsite.iter().cloned().fold(0.0_f64, f64::max);
    let z = s.rec_total / s.trace.len() as f64;
    let r_max = s.trace.onsite.iter().cloned().fold(0.0_f64, f64::max);
    EnvBounds { y_max, z_max: f_max + z, r_max }
}

/// Runs COCA with a given (V, T) and returns (avg cost, avg brown, max q).
fn run(s: &PaperSetup, v: f64, frame: usize) -> (f64, f64, f64) {
    let cfg = CocaConfig {
        v: VSchedule::Constant(v),
        frame_length: frame,
        horizon: s.trace.len(),
        alpha: 1.0,
        rec_total: s.rec_total,
    };
    let mut coca =
        CocaController::new(std::sync::Arc::clone(&s.cluster), s.cost, cfg, SymmetricSolver::new());
    let out = run_lockstep(
        std::sync::Arc::clone(&s.cluster),
        &s.trace,
        s.cost,
        s.rec_total,
        vec![Box::new(&mut coca)],
    )
    .expect("run")
    .remove(0);
    (
        out.avg_hourly_cost(),
        out.total_brown_energy() / out.len() as f64,
        coca.max_deficit(),
    )
}

#[test]
fn cost_bound_20_holds() {
    let s = setup();
    let t = s.trace.len(); // single frame: R = 1, T = J
    let consts = DriftConstants::from_bounds(&env_bounds(&s));
    let c_t = consts.c_of(t);

    // G* for the single frame: the optimal T-step lookahead cost.
    let mut solver = SymmetricSolver::new();
    let memo = PassMemo::new();
    let opt = OfflineOpt::plan(&s.cluster, s.cost, &s.trace, s.budget_kwh, &mut solver, &memo)
        .expect("lookahead");
    let g_star = opt.total_planned_cost() / t as f64;

    for v in [s.characteristic_v() * 0.1, s.characteristic_v(), s.characteristic_v() * 10.0] {
        let (avg_cost, _, _) = run(&s, v, t);
        let bound = cost_upper_bound(c_t, &[g_star], &[v]);
        assert!(
            avg_cost <= bound,
            "bound (20) violated at V={v}: cost {avg_cost} > bound {bound}"
        );
    }
}

#[test]
fn neutrality_bound_19_holds() {
    let s = setup();
    let t = s.trace.len();
    let consts = DriftConstants::from_bounds(&env_bounds(&s));
    let c_t = consts.c_of(t);
    let mut solver = SymmetricSolver::new();
    let memo = PassMemo::new();
    let opt = OfflineOpt::plan(&s.cluster, s.cost, &s.trace, s.budget_kwh, &mut solver, &memo)
        .expect("lookahead");
    let g_star = opt.total_planned_cost() / t as f64;
    // g_min: the cheapest feasible hourly cost over the period (0 is always
    // a sound lower bound; use the unaware minimum for a tighter one).
    let unaware = coca_experiments::setup::unaware_reference(&s.cluster, s.cost, &s.trace, s.rec_total)
        .expect("unaware");
    let g_min = unaware.min_hourly_cost().min(g_star);

    let allowance_avg = (s.trace.total_offsite() + s.rec_total) / t as f64;
    for v in [s.characteristic_v(), s.characteristic_v() * 10.0] {
        let (_, avg_brown, max_q) = run(&s, v, t);
        let slack = neutrality_slack_bound(c_t, &[g_star], &[v], g_min, t);
        assert!(
            avg_brown <= allowance_avg + slack,
            "bound (19) violated at V={v}: brown {avg_brown} > allowance {allowance_avg} + slack {slack}"
        );
        // Queue-length bound (31).
        let qb = queue_length_bound(&consts, v, g_star, g_min, t);
        assert!(
            max_q <= qb,
            "queue bound (31) violated at V={v}: max q {max_q} > {qb}"
        );
    }
}

#[test]
fn v_tradeoff_is_monotone_in_the_large() {
    // Theorem 2's qualitative content: cost is non-increasing and brown
    // usage non-decreasing as V grows (checked on a geometric V grid with
    // small tolerance for solver noise).
    let s = setup();
    let v0 = s.characteristic_v();
    let t = s.trace.len();
    let mut last_cost = f64::INFINITY;
    let mut last_brown = 0.0;
    for mult in [0.01, 0.1, 1.0, 10.0, 100.0] {
        let (cost, brown, _) = run(&s, v0 * mult, t);
        assert!(
            cost <= last_cost * 1.02,
            "cost should trend down with V: {cost} after {last_cost}"
        );
        assert!(
            brown >= last_brown * 0.98,
            "brown energy should trend up with V: {brown} after {last_brown}"
        );
        last_cost = cost;
        last_brown = brown;
    }
}

#[test]
fn frame_resets_bound_each_frame_independently() {
    // With R > 1 frames the queue is reset; the per-frame deviation is then
    // bounded by the per-frame inequality (27): within each frame,
    // Σy − Σ(f + z) ≤ q(end-of-frame).
    let s = setup();
    let t = s.trace.len() / 4;
    let rec_per_slot = s.rec_total / s.trace.len() as f64;
    let cfg = CocaConfig {
        v: VSchedule::quarterly(
            s.characteristic_v() * 0.1,
            s.characteristic_v() * 0.3,
            s.characteristic_v(),
            s.characteristic_v() * 3.0,
        ),
        frame_length: t,
        horizon: t * 4,
        alpha: 1.0,
        rec_total: rec_per_slot * (t * 4) as f64,
    };
    let trace = s.trace.window(0, t * 4);
    let mut coca =
        CocaController::new(std::sync::Arc::clone(&s.cluster), s.cost, cfg, SymmetricSolver::new());
    let out = run_lockstep(
        std::sync::Arc::clone(&s.cluster),
        &trace,
        s.cost,
        rec_per_slot * (t * 4) as f64,
        vec![Box::new(&mut coca)],
    )
    .expect("run")
    .remove(0);
    // Reconstruct per-frame totals and verify the telescoped inequality
    // using the recorded queue history (q at each decision epoch).
    for r in 0..4 {
        let lo = r * t;
        let hi = lo + t;
        let used: f64 = out.records[lo..hi].iter().map(|x| x.brown_energy).sum();
        let allowed: f64 = out.records[lo..hi]
            .iter()
            .map(|x| x.offsite + coca.config().alpha * rec_per_slot)
            .sum();
        // q at the last decision of the frame plus the final update bound:
        // conservative check with the max queue over the run.
        assert!(
            used - allowed <= coca.max_deficit() + 1e-6,
            "frame {r}: overage {} exceeds peak queue {}",
            used - allowed,
            coca.max_deficit()
        );
    }
}
