//! Every committed scenario spec, run at small scale through the batch
//! pipeline (materialize → one `BatchRunner::batch` queue over all specs →
//! `assemble` → `write_csv`), must
//! reproduce the committed figure CSVs in `perfbench/refs/batch_small/`,
//! the same references the benchmark checks its `repro batch` output
//! against. The comparison follows `perfbench/verify.py::compare_csv`:
//! headers and row counts exactly, every cell equal as text or within
//! 1e-9 relative (1e-12 absolute floor) as floats.
//!
//! The specs run once per test binary; the paper-shape tests below assert
//! on the same figures.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use coca_dcsim::PassMemo;
use coca_experiments::figures::{self, Figure};
use coca_experiments::report::write_csv;
use coca_experiments::setup::PaperSetup;
use coca_experiments::ExperimentScale;
use coca_scenarios::{assemble, manifest, spec, BatchOptions, BatchRunner, Manifest, Spec};
use coca_traces::{WorkloadKind, HOURS_PER_WEEK, HOURS_PER_YEAR};
use serde::Value;

const REL_TOL: f64 = 1e-9;
const ABS_FLOOR: f64 = 1e-12;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel)
}

/// What the committed specs produce at small scale: each figure with the
/// CSV text `repro` would write for it, and the run results by spec name.
struct Outputs {
    figures: BTreeMap<String, (Figure, String)>,
    results: HashMap<String, HashMap<String, Value>>,
}

fn outputs() -> &'static Outputs {
    static OUT: OnceLock<Outputs> = OnceLock::new();
    OUT.get_or_init(run_all_specs)
}

fn run_all_specs() -> Outputs {
    let root = std::env::temp_dir().join(format!("coca_spec_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let specs: Vec<(Spec, Manifest)> = spec::discover(&repo_path("scenarios"))
        .expect("scenarios dir lists")
        .iter()
        .map(|path| {
            let spec = Spec::load(path).expect("spec parses");
            let m = manifest::materialize(&spec, ExperimentScale::small()).expect("materialize");
            (spec, m)
        })
        .collect();
    // One queue over every spec, as `repro batch` runs them.
    let runner = BatchRunner::batch(
        specs.iter().map(|(_, m)| m),
        BatchOptions { dir: root.join("batch"), ..Default::default() },
    );
    let summaries = runner.run_each().expect("batch runs");
    let mut figures = BTreeMap::new();
    let mut results = HashMap::new();
    for (k, ((spec, m), summary)) in specs.iter().zip(&summaries).enumerate() {
        assert!(summary.is_complete(), "{}: batch incomplete: {summary:?}", spec.name);
        let run_results = runner.spec_results(k).expect("results load");
        for (stem, fig) in assemble::assemble(spec, m, &run_results).expect("figures assemble") {
            let csv = root.join(format!("{stem}.csv"));
            write_csv(&csv, &fig.x_label, &fig.series).expect("csv written");
            let text = std::fs::read_to_string(&csv).expect("csv reads back");
            assert!(
                figures.insert(stem.clone(), (fig, text)).is_none(),
                "two specs write {stem}.csv"
            );
        }
        results.insert(spec.name.clone(), run_results);
    }
    let _ = std::fs::remove_dir_all(&root);
    Outputs { figures, results }
}

fn figure(stem: &str) -> &'static Figure {
    &outputs().figures.get(stem).unwrap_or_else(|| panic!("no spec produces {stem}")).0
}

fn series<'f>(fig: &'f Figure, name: &str) -> &'f [f64] {
    &fig.series.iter().find(|s| s.name == name).unwrap_or_else(|| panic!("no series {name}")).y
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= (REL_TOL * a.abs().max(b.abs())).max(ABS_FLOOR)
}

fn cell_ok(a: &str, b: &str) -> bool {
    a == b
        || match (a.parse::<f64>(), b.parse::<f64>()) {
            (Ok(x), Ok(y)) => close(x, y),
            _ => false,
        }
}

/// The first difference between a figure CSV and its reference, if any.
fn compare_csv(text: &str, reference: &str) -> Option<String> {
    let rows: Vec<&str> = text.lines().collect();
    let want: Vec<&str> = reference.lines().collect();
    if rows.len() != want.len() {
        return Some(format!("{} rows, reference has {}", rows.len(), want.len()));
    }
    for (i, (row, want_row)) in rows.iter().zip(&want).enumerate() {
        let cells: Vec<&str> = row.split(',').collect();
        let want_cells: Vec<&str> = want_row.split(',').collect();
        if cells.len() != want_cells.len() || (i == 0 && row != want_row) {
            return Some(format!("row {i}: {row:?} != {want_row:?}"));
        }
        if let Some((a, b)) = cells.iter().zip(&want_cells).find(|(a, b)| !cell_ok(a, b)) {
            return Some(format!("row {i}: {a} != {b}"));
        }
    }
    None
}

#[test]
fn every_spec_reproduces_its_committed_golden_csv() {
    let refs = repo_path("perfbench/refs/batch_small");
    let golden: BTreeSet<String> = std::fs::read_dir(&refs)
        .expect("golden dir lists")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    let produced: BTreeSet<String> = outputs().figures.keys().cloned().collect();
    assert_eq!(produced, golden, "the specs' figure stems must be exactly the golden files");

    let mismatches: Vec<String> = outputs()
        .figures
        .iter()
        .filter_map(|(stem, (_, text))| {
            let reference = std::fs::read_to_string(refs.join(format!("{stem}.csv")))
                .unwrap_or_else(|e| panic!("read golden {stem}.csv: {e}"));
            compare_csv(text, &reference).map(|why| format!("{stem}.csv: {why}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "figures differ from the goldens:\n{}", mismatches.join("\n"));
}

#[test]
fn fig1_traces_span_a_year_and_a_week() {
    assert_eq!(series(figure("fig1a_fiu_workload"), "fiu").len(), HOURS_PER_YEAR);
    assert_eq!(series(figure("fig1b_msr_workload"), "msr").len(), HOURS_PER_WEEK);
}

#[test]
fn fig2_cost_falls_and_deficit_rises_with_v() {
    // Theorem 2: larger V trades neutrality for cost.
    let cost = series(figure("fig2a_cost_vs_v"), "coca");
    let deficit = series(figure("fig2b_deficit_vs_v"), "coca");
    assert!(cost[cost.len() - 1] <= cost[0] + 1e-9, "cost decreases with V: {cost:?}");
    assert!(deficit[deficit.len() - 1] >= deficit[0] - 1e-9, "deficit grows with V: {deficit:?}");
}

#[test]
fn fig4_traces_have_the_requested_length() {
    // fig4_gsd.json asks for 500 GSD iterations per curve.
    let a = figure("fig4a_gsd_delta");
    assert_eq!(a.series.len(), 4, "one curve per temperature");
    assert!(a.series.iter().all(|s| s.y.len() == 500));
    let b = figure("fig4b_gsd_initials");
    assert!(b.series.len() >= 2, "at least two feasible initial points");
    assert!(b.series.iter().all(|s| s.y.len() == 500));
}

#[test]
fn more_frames_give_weaker_neutrality() {
    // Each frame reset forgives the accumulated deficit, so brown usage
    // cannot fall as the frame count rises (x = 1, 2, 4, 12 frames).
    let fig = figure("ablation_frame_reset");
    let frames = &fig.series[0].x;
    let brown = series(fig, "brown-over-budget");
    let at = |f: f64| brown[frames.iter().position(|&x| x == f).expect("frame count swept")];
    assert!(at(4.0) >= at(1.0) - 0.02, "4 frames {} vs 1 frame {}", at(4.0), at(1.0));
    assert!(series(fig, "avg-cost").iter().all(|c| c.is_finite()));
    assert!(series(fig, "peak-queue").iter().all(|&q| q >= 0.0));
}

#[test]
fn portfolio_mix_is_insensitive() {
    // Paper Sec. 5.2.4: re-splitting the same total budget between
    // off-site supply and RECs moves the cost by well under a few percent.
    let y = series(figure("portfolio_sensitivity"), "coca");
    assert!(y.iter().all(|c| (c - 1.0).abs() < 0.05), "portfolio sensitivity too high: {y:?}");
}

#[test]
fn overestimation_and_switching_cost_stay_modest() {
    // Paper Fig. 5(c): ≤2.5% cost increase at 20% overestimation;
    // Fig. 5(d): ≤5% at 0.0231 kWh switching. The bounds are looser at
    // the reduced scale, but the "modest" qualitative claim must hold.
    let c = figure("fig5c_overestimation");
    let y = series(c, "coca");
    assert_eq!(c.series[0].x.last(), Some(&1.2));
    assert!((y[0] - 1.0).abs() < 1e-12, "normalized to phi = 1: {y:?}");
    assert!(y[y.len() - 1] < 1.2, "20% overestimation must cost far less than 20%: {y:?}");
    assert!(y[y.len() - 1] <= 1.10, "20% overestimation should cost <10%, got {y:?}");

    let d = figure("fig5d_switching");
    let y = series(d, "coca");
    assert_eq!(d.series[0].x.last(), Some(&0.0231));
    assert!(y[y.len() - 1] <= 1.15, "switching cost impact should be modest, got {y:?}");
}

#[test]
fn summary_headline_matches_fig3_saving() {
    // `repro` prints the headline summary from Fig. 3's duel.
    let results = &outputs().results["fig3_perfect_hp"];
    assert_eq!(results.len(), 1, "Fig. 3 is one duel");
    let lanes = results.values().next().and_then(|r| r.get_field("lanes")?.as_seq());
    let lanes = lanes.expect("lanes");
    let scalar = |label: &str, name: &str| -> f64 {
        let lane = lanes
            .iter()
            .find(|l| l.get_field("label").and_then(spec::str_of) == Some(label))
            .unwrap_or_else(|| panic!("lane {label} present"));
        lane.get_field("scalars")
            .and_then(|s| s.get_field(name))
            .and_then(spec::num)
            .unwrap_or_else(|| panic!("scalar {name} missing"))
    };
    // The last row of the Fig. 3(a) golden (hour, coca, perfect-hp) holds
    // the whole-horizon average hourly costs.
    let golden_path = repo_path("perfbench/refs/batch_small/fig3a_cumavg_cost.csv");
    let golden = std::fs::read_to_string(golden_path).expect("fig3a golden reads");
    let last: Vec<f64> = golden
        .lines()
        .last()
        .expect("fig3a golden has rows")
        .split(',')
        .map(|c| c.parse().expect("numeric cell"))
        .collect();
    let fig3_saving = 1.0 - last[1] / last[2];
    let saving = 1.0 - scalar("coca", "avg_hourly_cost") / scalar("perfect-hp", "avg_hourly_cost");
    assert!(close(saving, fig3_saving), "summary saving {saving} vs fig3 {fig3_saving}");

    let setup =
        PaperSetup::build(ExperimentScale::small(), WorkloadKind::Fiu, 0.92).expect("setup");
    let (vstar, _) = figures::calibrate_v(&setup, 7, &PassMemo::new()).expect("calibration");
    assert_eq!(scalar("coca", "v_used"), vstar);
}
