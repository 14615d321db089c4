//! End-to-end pipeline tests: the calibrated paper scenario at small scale,
//! all four policies, and the cost/neutrality orderings the paper's
//! evaluation relies on.

use std::sync::Arc;

use coca::baselines::{OfflineOpt, PerfectHp};
use coca::core::symmetric::SymmetricSolver;
use coca::dcsim::{run_lockstep, PassMemo};
use coca::traces::WorkloadKind;
use coca_experiments::figures::calibrate_v;
use coca_experiments::setup::{unaware_reference, ExperimentScale, PaperSetup};

fn small_setup() -> PaperSetup {
    PaperSetup::build(ExperimentScale::small(), WorkloadKind::Fiu, 0.92).expect("setup")
}

#[test]
fn calibrated_coca_is_carbon_neutral_and_near_unaware_cost() {
    let setup = small_setup();
    let (_, coca) = calibrate_v(&setup, 6, &PassMemo::new()).expect("calibration");
    assert!(
        coca.total_brown_energy() <= setup.budget_kwh * 1.01,
        "COCA must satisfy the budget: {} vs {}",
        coca.total_brown_energy(),
        setup.budget_kwh
    );
    let unaware = unaware_reference(&setup.cluster, setup.cost, &setup.trace, setup.rec_total)
        .expect("unaware");
    // Unconstrained minimization lower-bounds every constrained policy.
    assert!(coca.avg_hourly_cost() >= unaware.avg_hourly_cost() - 1e-9);
    // Paper Fig. 5(a): at a 92% budget the cost premium is a few percent.
    assert!(
        coca.avg_hourly_cost() <= unaware.avg_hourly_cost() * 1.25,
        "COCA premium too large: {} vs {}",
        coca.avg_hourly_cost(),
        unaware.avg_hourly_cost()
    );
}

#[test]
fn policy_cost_ordering_holds() {
    let setup = small_setup();
    // Unaware ≤ OPT ≤ (any online policy meeting the same budget, roughly).
    let unaware = unaware_reference(&setup.cluster, setup.cost, &setup.trace, setup.rec_total)
        .expect("unaware");
    let mut solver = SymmetricSolver::new();
    let memo = PassMemo::new();
    let opt = OfflineOpt::plan(&setup.cluster, setup.cost, &setup.trace, setup.budget_kwh, &mut solver, &memo)
        .expect("opt plan");
    assert!(opt.total_planned_brown() <= setup.budget_kwh * 1.01, "OPT meets the budget");
    assert!(
        opt.total_planned_cost() >= unaware.total_cost() - 1e-6,
        "constrained OPT cannot beat the unconstrained minimum"
    );

    let (_, coca) = calibrate_v(&setup, 6, &PassMemo::new()).expect("calibration");
    // OPT has full future knowledge; COCA is online. Allow a small slack for
    // the dual's budget tolerance.
    assert!(
        coca.total_cost() >= opt.total_planned_cost() * 0.98,
        "online COCA should not beat offline OPT: {} vs {}",
        coca.total_cost(),
        opt.total_planned_cost()
    );
}

#[test]
fn coca_beats_perfect_hp_while_being_more_neutral() {
    let setup = small_setup();
    let (_, coca) = calibrate_v(&setup, 6, &PassMemo::new()).expect("calibration");
    let mut hp: PerfectHp<SymmetricSolver> =
        PerfectHp::new(Arc::clone(&setup.cluster), setup.cost, &setup.trace, setup.rec_total, 48)
            .expect("perfect-hp");
    let hp_out = run_lockstep(
        Arc::clone(&setup.cluster),
        &setup.trace,
        setup.cost,
        setup.rec_total,
        vec![Box::new(&mut hp)],
    )
    .expect("hp run")
    .remove(0);
    // The paper's headline: COCA is cheaper (Fig. 3(a)) — at this reduced
    // scale we only require a strict win, the magnitude is recorded in
    // EXPERIMENTS.md at the full scale.
    assert!(
        coca.avg_hourly_cost() < hp_out.avg_hourly_cost(),
        "COCA {} should beat PerfectHP {}",
        coca.avg_hourly_cost(),
        hp_out.avg_hourly_cost()
    );
    // ... while tracking the budget at least as closely (Fig. 3(b)).
    let coca_gap = (coca.total_brown_energy() - setup.budget_kwh).abs();
    let hp_gap = (hp_out.total_brown_energy() - setup.budget_kwh).abs();
    assert!(
        coca_gap <= hp_gap * 1.05 + 1e-6,
        "COCA budget gap {} should not exceed PerfectHP's {}",
        coca_gap,
        hp_gap
    );
}

#[test]
fn msr_workload_pipeline_works() {
    let setup = PaperSetup::build(ExperimentScale::small(), WorkloadKind::Msr, 0.9).expect("setup");
    let (_, coca) = calibrate_v(&setup, 5, &PassMemo::new()).expect("calibration");
    assert!(coca.total_brown_energy() <= setup.budget_kwh * 1.02);
    assert!(coca.avg_hourly_cost().is_finite());
}
