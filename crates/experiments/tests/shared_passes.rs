//! Sharing passes through one [`PassMemo`] changes no number. Budget points
//! through one memo give the rows that budget points through empty memos
//! give, called in order and from two threads at once, and a budget
//! point's calibration reuses the runs of the context's V\* bisection.

use coca_dcsim::PassMemo;
use coca_experiments::figures::{budget_point, calibrate_v, BudgetSweepRow};
use coca_experiments::setup::{ExperimentScale, PaperSetup};
use coca_traces::WorkloadKind;

/// The committed Fig. 5(a)/(b) budget fractions and probe count.
const FRACTIONS: [f64; 5] = [0.85, 0.9, 0.92, 1.0, 1.05];
const PROBES: usize = 5;

fn base(workload: WorkloadKind) -> PaperSetup {
    PaperSetup::build(ExperimentScale::small(), workload, 0.92).expect("setup")
}

fn bits(row: &BudgetSweepRow) -> (u64, u64, u64, bool, u64) {
    (
        row.budget_fraction.to_bits(),
        row.coca.to_bits(),
        row.opt.to_bits(),
        row.coca_neutral,
        row.v_used.to_bits(),
    )
}

#[test]
fn budget_points_through_one_memo_match_unshared_ones_bit_for_bit() {
    for workload in [WorkloadKind::Fiu, WorkloadKind::Msr] {
        let base = base(workload);
        let point = |frac: f64, memo: &PassMemo| {
            bits(&budget_point(&base, frac, PROBES, memo).expect("budget point"))
        };
        let alone: Vec<_> = FRACTIONS.iter().map(|&f| point(f, &PassMemo::new())).collect();

        let memo = PassMemo::new();
        let in_order: Vec<_> = FRACTIONS.iter().map(|&f| point(f, &memo)).collect();
        assert_eq!(in_order, alone, "{workload:?}: in order");
        assert!(memo.opt_sweeps().shared.get() > 0, "{workload:?}: the points share sweeps");

        let memo = PassMemo::new();
        let (even, odd) = std::thread::scope(|s| {
            let run = |parity: usize| {
                let memo = &memo;
                s.spawn(move || {
                    FRACTIONS
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| i % 2 == parity)
                        .map(|(_, &f)| point(f, memo))
                        .collect::<Vec<_>>()
                })
            };
            let (even, odd) = (run(0), run(1));
            (even.join().expect("thread"), odd.join().expect("thread"))
        });
        let together: Vec<_> = (0..FRACTIONS.len())
            .map(|i| if i % 2 == 0 { even[i / 2] } else { odd[i / 2] })
            .collect();
        assert_eq!(together, alone, "{workload:?}: two threads at once");
    }
}

/// A slack budget point lands on its μ = 0 sweep. After another point
/// made that sweep from the same warm state, it is shared, and the point
/// rebuilds its plan from it: one sweep shared and one executed.
#[test]
fn a_point_landing_on_a_shared_sweep_rebuilds_its_plan() {
    let base = base(WorkloadKind::Fiu);
    let alone = budget_point(&base, 1.0, PROBES, &PassMemo::new()).expect("alone");
    let memo = PassMemo::new();
    budget_point(&base, 0.85, PROBES, &memo).expect("binding point");
    let sweeps = memo.opt_sweeps();
    let before = (sweeps.executed.get(), sweeps.shared.get());
    let shared = budget_point(&base, 1.0, PROBES, &memo).expect("slack point");
    assert_eq!((sweeps.executed.get(), sweeps.shared.get()), (before.0 + 1, before.1 + 1));
    assert_eq!(bits(&shared), bits(&alone));
}

/// Bisections of one setup open alike: after the probes-7 V* calibration,
/// a probes-5 one (the budget point at the context's own fraction
/// included) runs no COCA pass of its own.
#[test]
fn calibration_reuses_the_context_v_star_bisection() {
    let base = base(WorkloadKind::Fiu);
    let memo = PassMemo::new();
    calibrate_v(&base, 7, &memo).expect("V* calibration");
    let runs = memo.coca_runs();
    let executed = runs.executed.get();
    let (v, at_v) = calibrate_v(&base, PROBES, &memo).expect("probes-5 calibration");
    assert_eq!(runs.executed.get(), executed, "no new COCA pass");
    assert_eq!(runs.shared.get(), PROBES as u64 + 2, "both bracket ends and every probe");
    let (fresh_v, fresh) = calibrate_v(&base, PROBES, &PassMemo::new()).expect("alone");
    assert_eq!((v.to_bits(), format!("{at_v:?}")), (fresh_v.to_bits(), format!("{fresh:?}")));

    let row = budget_point(&base, 0.92, PROBES, &memo).expect("budget point");
    assert_eq!(runs.executed.get(), executed, "the 92% point's calibration is shared too");
    let alone = budget_point(&base, 0.92, PROBES, &PassMemo::new()).expect("alone");
    assert_eq!(bits(&row), bits(&alone));
}
