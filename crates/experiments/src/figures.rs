//! The primitives the scenario runner (`coca-scenarios`) composes into the
//! paper's figures: the COCA policy and its V\* calibration, horizon
//! trimming into frames, one GSD convergence trace, one budget-sweep point,
//! and the setup variants of Fig. 5(d) and the portfolio study. Each
//! figure itself is a committed spec under `scenarios/`; [`Figure`] is the
//! assembled result `repro` prints and writes.

use std::sync::Arc;

use coca_baselines::OfflineOpt;
use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_core::solver::P3Solver;
use coca_core::symmetric::SymmetricSolver;
use coca_core::{CocaConfig, CocaController, VSchedule};
use coca_dcsim::dispatch::SlotProblem;
use coca_dcsim::{run_lockstep, CocaPass, PassMemo, Policy, RunSummary, SimError};
use coca_opt::schedule::TemperatureSchedule;

use crate::report::Series;
use crate::setup::PaperSetup;

/// A figure: a title, an x-axis label, and one or more curves.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Title matching the paper artifact ("Fig. 2(a) ...").
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// The curves.
    pub series: Vec<Series>,
}

/// Moving-average window scaled to the horizon (paper: 45 days of 365).
pub fn movavg_window(hours: usize) -> usize {
    (hours * 45 / 365).max(4)
}

/// Builds a symmetric-solver COCA controller for the setup's scenario.
pub fn coca_policy(
    setup: &PaperSetup,
    v: VSchedule,
    frame_length: usize,
) -> CocaController<SymmetricSolver> {
    let cfg = CocaConfig {
        v,
        frame_length,
        horizon: setup.trace.len(),
        alpha: 1.0,
        rec_total: setup.rec_total,
    };
    CocaController::new(Arc::clone(&setup.cluster), setup.cost, cfg, SymmetricSolver::new())
}

/// COCA at constant `v` over the setup's whole trace as one frame, run
/// through `memo`: simulated only when no earlier call of the memo ran the
/// same inputs. Returns what the searches and reports read of the run.
fn coca_pass(setup: &PaperSetup, v: f64, memo: &PassMemo) -> Result<RunSummary, SimError> {
    let frame = setup.trace.len();
    let pass = CocaPass {
        cluster: &setup.cluster,
        cost: setup.cost,
        trace: &setup.trace,
        rec_total: setup.rec_total,
        v,
        frame,
        phi: 1.0,
    };
    let (summary, _) = memo.coca_run(pass, || {
        let mut coca = coca_policy(setup, VSchedule::Constant(v), frame);
        // Borrowed, so the peak deficit stays readable after the run.
        let out = run_lockstep(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            vec![Box::new(&mut coca) as Box<dyn Policy + '_>],
        )?
        .pop()
        .ok_or_else(|| SimError::Internal("engine produced no outcome".into()))?;
        Ok::<_, SimError>(RunSummary::of(&out, Some(coca.max_deficit())))
    })?;
    Ok(summary)
}

/// Finds the largest constant V whose COCA run stays within the carbon
/// budget — the paper's "we appropriately choose V such that carbon
/// neutrality is satisfied". Larger V means lower cost (Theorem 2b), so
/// the least conservative neutral V is the one to use.
///
/// The search is a log-scale bisection over `[V₀/300, V₀·300]` around the
/// scenario's characteristic V. If even the top of the range stays within
/// budget (the queue can enforce neutrality for any V on a long horizon),
/// the top is returned.
///
/// Every probe is a whole-horizon COCA run through `memo`, so a probe some
/// earlier search of the memo made is not simulated again. Returns the V
/// together with the summary of the probe made at it, so a caller that
/// wants COCA at V\* need not simulate it again.
pub fn calibrate_v(
    setup: &PaperSetup,
    probes: usize,
    memo: &PassMemo,
) -> Result<(f64, RunSummary), SimError> {
    let run_at = |v: f64| coca_pass(setup, v, memo);
    let v0 = setup.characteristic_v();
    let mut lo = v0 / 300.0;
    let mut hi = v0 * 300.0;
    let mut lo_out = run_at(lo)?;
    if lo_out.total_brown_energy() > setup.budget_kwh {
        return Ok((lo, lo_out)); // best effort: maximally conservative
    }
    let hi_out = run_at(hi)?;
    if hi_out.total_brown_energy() <= setup.budget_kwh {
        return Ok((hi, hi_out));
    }
    for _ in 0..probes {
        let mid = (lo * hi).sqrt();
        let mid_out = run_at(mid)?;
        if mid_out.total_brown_energy() <= setup.budget_kwh {
            lo = mid;
            lo_out = mid_out;
        } else {
            hi = mid;
        }
        if hi / lo < 1.1 {
            break;
        }
    }
    Ok((lo, lo_out))
}

/// Trims the setup's trace to `frames` whole frames (J = R·T like the
/// paper) and returns the trimmed setup plus the frame length `T`.
/// `rec_total` is left untouched; every frame count the committed specs
/// use divides the horizon of every scale, so nothing is trimmed there.
pub fn trim_to_frames(setup: &PaperSetup, frames: usize) -> (PaperSetup, usize) {
    assert!(frames >= 1);
    let horizon = setup.trace.len();
    let frame = (horizon / frames).max(1);
    let trimmed = frame * frames;
    let s = if trimmed == horizon {
        setup.clone()
    } else {
        let mut s = setup.clone();
        s.trace = s.trace.window(0, trimmed);
        s
    };
    (s, frame)
}

/// One GSD convergence trace on the P3 snapshot of `slot`: the kept-state
/// objective per iteration at temperature `delta`, optionally from a fixed
/// initial point. Returns `None` when the requested initial point is
/// infeasible for the snapshot (Fig. 4(b) skips those), `Some(trace)`
/// otherwise. Seeded like the paper figures (1500, cold start).
pub fn gsd_trace_point(
    setup: &PaperSetup,
    slot: usize,
    v: f64,
    delta: f64,
    iterations: usize,
    initial: Option<Vec<usize>>,
) -> Result<Option<Vec<f64>>, SimError> {
    let problem = snapshot_problem(setup, slot, v);
    if let Some(init) = &initial {
        if !problem.is_feasible(init) {
            return Ok(None);
        }
    }
    let mut gsd = GsdSolver::new(GsdOptions {
        iterations,
        schedule: TemperatureSchedule::Constant(delta),
        record_trace: true,
        warm_start: false,
        seed: 1500,
    });
    if let Some(init) = initial {
        gsd.set_initial(init);
    }
    // Only the recorded trace matters here; the solution is discarded.
    let _ = gsd.solve(&problem)?;
    Ok(Some(gsd.last_trace.clone()))
}

/// The named GSD initial-point presets of Fig. 4(b), as speed-level
/// vectors for the setup's cluster. Unknown names return `None`.
pub fn gsd_initial_levels(setup: &PaperSetup, name: &str) -> Option<Vec<usize>> {
    let n = setup.cluster.num_groups();
    let top = setup.cluster.full_speed_vector();
    match name {
        "full-speed" => Some(top),
        "slowest-on" => Some(vec![1; n]),
        "mixed" => {
            Some((0..n).map(|i| 1 + (i % (setup.cluster.choice_counts()[i] - 1))).collect())
        }
        "half-top" => Some((0..n).map(|i| if i % 2 == 0 { top[i] } else { 1 }).collect()),
        _ => None,
    }
}

/// The P3 objective of the all-full-speed configuration at a snapshot slot
/// — a scale reference for choosing GSD temperatures (the acceptance rule
/// depends on δ/g̃, so meaningful δ values are multiples of typical g̃).
pub fn typical_slot_objective(setup: &PaperSetup, slot: usize, v: f64) -> Result<f64, SimError> {
    let problem = snapshot_problem(setup, slot, v);
    let levels = setup.cluster.full_speed_vector();
    Ok(coca_dcsim::dispatch::optimal_dispatch(&problem, &levels)?.objective)
}

fn snapshot_problem<'a>(setup: &'a PaperSetup, slot: usize, v: f64) -> SlotProblem<'a> {
    let t = slot % setup.trace.len();
    let env = setup.trace.slot(t);
    SlotProblem {
        cluster: &setup.cluster,
        arrival_rate: env.arrival_rate,
        onsite: env.onsite,
        energy_weight: v * env.price, // q excluded, as in the paper's Fig. 4
        delay_weight: v * setup.cost.beta,
        gamma: setup.cost.gamma,
        pue: setup.cost.pue,
    }
}

/// One row of the Fig. 5(a)/(b) budget sweep.
#[derive(Debug, Clone, Copy)]
pub struct BudgetSweepRow {
    /// Budget as a fraction of the carbon-unaware consumption.
    pub budget_fraction: f64,
    /// COCA normalized cost (vs carbon-unaware).
    pub coca: f64,
    /// OPT normalized cost.
    pub opt: f64,
    /// Whether COCA met the budget.
    pub coca_neutral: bool,
    /// V used by COCA.
    pub v_used: f64,
}

/// One Fig. 5(a)/(b) budget point: re-calibrates V against the rescaled
/// budget, takes COCA's run at that V from the calibration, plans OPT,
/// and normalizes both by the base setup's carbon-unaware reference cost
/// ([`PaperSetup::unaware_hourly_cost`]). The calibration's COCA runs and
/// OPT's μ-sweeps go through `memo`, so the points of one sweep share the
/// passes they have in common; the row does not depend on what the memo
/// already holds.
pub fn budget_point(
    base: &PaperSetup,
    frac: f64,
    calib_probes: usize,
    memo: &PassMemo,
) -> Result<BudgetSweepRow, SimError> {
    let setup = base.with_budget_fraction(frac);
    let (v, coca_out) = calibrate_v(&setup, calib_probes, memo)?;
    let mut solver = SymmetricSolver::new();
    let opt = OfflineOpt::plan(
        &setup.cluster,
        setup.cost,
        &setup.trace,
        setup.budget_kwh,
        &mut solver,
        memo,
    )?;
    let opt_cost = opt.total_planned_cost() / setup.trace.len() as f64;
    let unaware_cost = setup.unaware_hourly_cost;
    Ok(BudgetSweepRow {
        budget_fraction: frac,
        coca: coca_out.avg_hourly_cost() / unaware_cost,
        opt: opt_cost / unaware_cost,
        coca_neutral: coca_out.total_brown_energy() <= setup.budget_kwh * 1.005,
        v_used: v,
    })
}

/// The setup with the per-server switching energy overridden — engine and
/// controller both see the modified cost (Fig. 5(d)).
pub fn switching_setup(setup: &PaperSetup, switch_kwh: f64) -> PaperSetup {
    let mut s = setup.clone();
    s.cost.switch_energy_kwh = switch_kwh;
    s
}

/// The setup with the renewable portfolio re-split: `share` of the budget
/// as regenerated off-site supply, the rest as RECs (Sec. 5.2.4 remark).
pub fn portfolio_setup(setup: &PaperSetup, share: f64) -> PaperSetup {
    let mut s = setup.clone();
    s.trace.offsite = coca_traces::renewable::generate(
        &coca_traces::renewable::RenewableConfig {
            solar_share: 0.4,
            annual_energy_kwh: share * s.budget_kwh,
            seed: s.scale.seed.wrapping_add(2),
        },
        s.trace.len(),
    );
    s.rec_total = (1.0 - share) * s.budget_kwh;
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::ExperimentScale;
    use coca_traces::WorkloadKind;

    fn small_setup() -> PaperSetup {
        PaperSetup::build(ExperimentScale::small(), WorkloadKind::Fiu, 0.92).unwrap()
    }

    #[test]
    fn calibrated_v_meets_budget() {
        let setup = small_setup();
        let (_, out) = calibrate_v(&setup, 6, &PassMemo::new()).unwrap();
        assert!(
            out.total_brown_energy() <= setup.budget_kwh * 1.01,
            "brown {} vs budget {}",
            out.total_brown_energy(),
            setup.budget_kwh
        );
    }

    /// The kept summary must be the run at the returned V, not the run of
    /// the last probe or of a bracket end: budget points report it as
    /// COCA's run. At small scale the Fiu bisection at 92% accepts its
    /// last probe, the one at 90% rejects its last two, and at 100% the
    /// top of the range is returned.
    #[test]
    fn calibration_hands_back_the_run_at_its_v() {
        let base = small_setup();
        for (frac, probes) in [(0.92, 7), (0.9, 5), (1.0, 3)] {
            let setup = base.with_budget_fraction(frac);
            let (v, kept) = calibrate_v(&setup, probes, &PassMemo::new()).unwrap();
            let fresh = coca_pass(&setup, v, &PassMemo::new()).unwrap();
            assert_eq!(format!("{kept:?}"), format!("{fresh:?}"), "{frac}");
            assert_eq!(
                kept.total_brown_energy().to_bits(),
                fresh.total_brown_energy().to_bits(),
                "{frac}: total brown"
            );
        }
    }
}
