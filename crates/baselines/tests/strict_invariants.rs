//! The `--strict` invariant run: promote every runtime paper-invariant
//! check to an unconditional panic, drive the COCA controller and the three
//! baselines through the simulator, and then assert that every check
//! actually fired at least once.
//!
//! This lives in its own integration-test binary because strict mode is a
//! process-wide switch ([`coca_core::invariant::force_strict`] /
//! `COCA_STRICT_INVARIANTS=1`) that must be set before the first check runs;
//! a shared test binary would race its unit tests against the switch.


use std::sync::Arc;

use coca_baselines::budgeted::solve_penalized;
use coca_baselines::{CarbonUnaware, OfflineOpt, PerfectHp};
use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_core::invariant;
use coca_core::symmetric::SymmetricSolver;
use coca_core::{CocaConfig, CocaController, VSchedule};
use coca_dcsim::{run_lockstep, Cluster, CostParams, PassMemo, SlotObservation};
use coca_opt::schedule::TemperatureSchedule;
use coca_traces::{EnvironmentTrace, TraceConfig, WorkloadKind};

fn trace(hours: usize) -> EnvironmentTrace {
    TraceConfig {
        hours,
        workload_kind: WorkloadKind::Fiu,
        peak_arrival_rate: 400.0,
        onsite_energy_kwh: 20.0 * hours as f64 / 100.0,
        offsite_energy_kwh: 80.0 * hours as f64 / 100.0,
        ..Default::default()
    }
    .generate()
}

#[test]
fn strict_run_exercises_every_invariant_check() {
    assert!(invariant::force_strict(), "must run before any invariant check");
    assert!(invariant::global().is_strict());

    let cluster = Arc::new(Cluster::homogeneous(4, 20));
    let cost = CostParams::default();
    let env = trace(48);

    // COCA over two frames: deficit non-negativity, frame resets, and (via
    // the symmetric solver's water-filling) conservation + KKT residuals.
    let cfg = CocaConfig {
        v: VSchedule::PerFrame(vec![50.0, 200.0]),
        frame_length: 24,
        horizon: 48,
        alpha: 1.0,
        rec_total: 10.0,
    };
    let coca = CocaController::new(Arc::clone(&cluster), cost, cfg, SymmetricSolver::new());
    let _ = run_lockstep(Arc::clone(&cluster), &env, cost, 10.0, vec![Box::new(coca)])
        .expect("strict COCA run");

    // A GSD-backed controller: Gibbs acceptance probabilities.
    let short = trace(6);
    let gsd_cfg = CocaConfig {
        v: VSchedule::Constant(100.0),
        frame_length: 6,
        horizon: 6,
        alpha: 1.0,
        rec_total: 5.0,
    };
    let gsd = GsdSolver::new(GsdOptions {
        iterations: 200,
        schedule: TemperatureSchedule::Constant(1e6),
        seed: 17,
        ..Default::default()
    });
    let gsd_coca = CocaController::new(Arc::clone(&cluster), cost, gsd_cfg, gsd);
    let _ = run_lockstep(Arc::clone(&cluster), &short, cost, 5.0, vec![Box::new(gsd_coca)])
        .expect("strict GSD run");

    // The three baselines, carbon-unaware, PerfectHP and OPT, then the
    // penalized slot solve PerfectHP and OPT share. The carbon-unaware reference consumption now
    // comes from a plain engine run (the bespoke `annual_consumption`
    // shortcut was removed with the `SimEngine` refactor).
    let unaware = CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new());
    let unaware_out =
        run_lockstep(Arc::clone(&cluster), &env, cost, 10.0, vec![Box::new(unaware)])
            .expect("strict carbon-unaware run");
    let brown = unaware_out[0].total_brown_energy();

    let hp =
        PerfectHp::<SymmetricSolver>::new(Arc::clone(&cluster), cost, &env, brown * 0.8, 48)
            .expect("PerfectHP plans");
    let _ = run_lockstep(Arc::clone(&cluster), &env, cost, 10.0, vec![Box::new(hp)])
        .expect("strict PerfectHP run");

    let mut solver = SymmetricSolver::new();
    let opt =
        OfflineOpt::plan(&cluster, cost, &env, brown * 0.9, &mut solver, &PassMemo::new())
            .expect("OPT plans");
    let _ = run_lockstep(Arc::clone(&cluster), &env, cost, 10.0, vec![Box::new(opt)])
        .expect("strict OPT run");

    let obs = SlotObservation { t: 0, arrival_rate: 300.0, onsite: 2.0, price: 0.08 };
    let (_, g, y) = solve_penalized(&mut solver, &cluster, &cost, &obs, 0.5)
        .expect("budgeted primitive solves");
    assert!(g.is_finite() && y.is_finite());

    // Every paper-invariant check must have fired at least once.
    for (name, count) in invariant::counts() {
        assert!(count > 0, "invariant check {name:?} was never exercised");
    }
}
