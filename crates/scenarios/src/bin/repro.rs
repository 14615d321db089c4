//! `repro` — regenerates every table and figure of the COCA paper by
//! executing declarative scenario specs through the resumable batch
//! orchestrator.
//!
//! ```text
//! repro [--scale small|medium|paper] [--out DIR] [--strict] [--resume]
//!       [--workers N] [--quiet] [--metrics PATH]
//!       [--kill-after N] [--abort-at-slot T] <command>
//!
//! commands:
//!   run <spec.json>...    materialize + execute specs, emit their figures
//!   batch [dir]           run every spec of a directory (default scenarios/)
//!   list-scenarios [dir]  list specs with expanded run counts
//! ```
//!
//! All runs of all the specs named on one command line go through one
//! batch queue (costliest first, one shared setup and V\* per scale,
//! workload and budget); each spec keeps its state in `<out>/batch/<name>/`
//! (manifest, per-run results, checkpoints, status). Once the queue
//! drains, figures are assembled spec by spec and land at
//! `<out>/<stem>.csv`; at small scale each one matches its committed
//! reference under `perfbench/refs/batch_small/` (the `spec_equivalence`
//! test checks all of them). `--resume` skips completed runs and restores
//! in-flight lockstep runs from their last frame checkpoint.
//! `--kill-after N` stops after N completed runs, counted across the whole
//! invocation rather than per spec (the CI crash-resume smoke gate);
//! `--abort-at-slot T` injects a simulated crash into every lockstep run
//! at slot T.
//!
//! `--metrics PATH` runs the instrumented engine/GSD probe plus a small
//! crash-and-resume batch and a small batch that shares passes, so the
//! snapshot carries every batch counter family, and writes the registry
//! snapshot (JSON) to PATH — CI validates it against
//! `schemas/metrics.schema.json`. The command's own batch tallies into the
//! same snapshot.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_core::{CocaConfig, CocaController, VSchedule};
use coca_dcsim::{EngineBuilder, StepStatus};
use coca_experiments::figures::Figure;
use coca_experiments::report::{print_table, write_csv};
use coca_experiments::setup::{ExperimentScale, PaperSetup};
use coca_obs::logger::{self, Level, Span};
use coca_obs::{MetricsObserver, MetricsRegistry};
use coca_scenarios::runner::BatchOptions;
use coca_scenarios::{assemble, manifest, spec, BatchRunner, Spec};
use coca_traces::WorkloadKind;
use serde::Value;

struct Args {
    scale: ExperimentScale,
    scale_name: String,
    out: PathBuf,
    resume: bool,
    workers: usize,
    kill_after: Option<usize>,
    abort_at_slot: Option<usize>,
    metrics: Option<PathBuf>,
    command: String,
    operands: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut scale = ExperimentScale::medium();
    let mut scale_name = "medium".to_string();
    let mut out = PathBuf::from("results");
    let mut resume = false;
    let mut workers = 0usize;
    let mut kill_after = None;
    let mut abort_at_slot = None;
    let mut metrics = None;
    let mut command = None;
    let mut operands = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = manifest::scale_by_name(&v)?;
                scale_name = v;
            }
            "--out" => out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--strict" => {
                if !coca_core::invariant::force_strict() {
                    return Err("--strict must come before invariant checks run".into());
                }
            }
            "--resume" => resume = true,
            "--workers" => {
                let v = it.next().ok_or("--workers needs a value")?;
                let n: usize =
                    v.parse().map_err(|_| format!("--workers expects a number, got {v:?}"))?;
                if n == 0 {
                    return Err("--workers must be >= 1 (omit the flag for all cores)".into());
                }
                workers = n;
            }
            "--kill-after" => {
                let v = it.next().ok_or("--kill-after needs a value")?;
                kill_after = Some(
                    v.parse().map_err(|_| format!("--kill-after expects a number, got {v:?}"))?,
                );
            }
            "--abort-at-slot" => {
                let v = it.next().ok_or("--abort-at-slot needs a value")?;
                abort_at_slot = Some(
                    v.parse()
                        .map_err(|_| format!("--abort-at-slot expects a number, got {v:?}"))?,
                );
            }
            "--metrics" => {
                metrics = Some(PathBuf::from(it.next().ok_or("--metrics needs a value")?));
            }
            "--quiet" => logger::set_level(Level::Error),
            "--help" | "-h" => return Err("help".into()),
            op if command.is_some() && !op.starts_with('-') => operands.push(op.to_string()),
            cmd if command.is_none() && !cmd.starts_with('-') => command = Some(cmd.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Args {
        scale,
        scale_name,
        out,
        resume,
        workers,
        kill_after,
        abort_at_slot,
        metrics,
        command: command.ok_or("missing command (run|batch|list-scenarios)")?,
        operands,
    })
}

fn emit(args: &Args, stem: &str, fig: &Figure) {
    let mut stdout = std::io::stdout().lock();
    let thinned: Vec<_> = fig.series.iter().map(|s| s.thinned(24)).collect();
    // Ignore stdout errors (e.g. broken pipe when piped into `head`).
    print_table(&fig.title, &fig.x_label, &thinned, &mut stdout).ok();
    let path = args.out.join(format!("{stem}.csv"));
    if let Err(e) = write_csv(&path, &fig.x_label, &fig.series) {
        logger::error(&Span::new("csv"), &format!("could not write {}: {e}", path.display()));
    } else {
        writeln!(stdout, "(full series -> {})", path.display()).ok();
    }
}

fn lane<'r>(result: &'r Value, label: &str) -> Option<&'r Value> {
    result
        .get_field("lanes")?
        .as_seq()?
        .iter()
        .find(|l| l.get_field("label").and_then(spec::str_of) == Some(label))
}

fn lane_scalar(result: &Value, label: &str, scalar: &str) -> Option<f64> {
    spec::num(lane(result, label)?.get_field("scalars")?.get_field(scalar)?)
}

/// `value` with `prec` decimals, or `n/a` when the result lacks it.
fn fixed(value: Option<f64>, prec: usize) -> String {
    value.map_or_else(|| "n/a".to_string(), |v| format!("{v:.prec$}"))
}

/// A 0/1 flag scalar as `true`/`false`, or `n/a` when the result lacks it.
fn flag(value: Option<f64>) -> String {
    // audit:allow(float-eq) boolean scalar serialized as exactly 0.0/1.0
    value.map_or_else(|| "n/a".to_string(), |v| (v != 0.0).to_string())
}

/// Prints the narrative lines that accompany a spec's figures: a row per
/// budget point, and the paper's headline block for every lockstep run
/// with a `coca` and a `perfect-hp` lane (Fig. 3's duel): V\*, both
/// lanes' carbon outcome and cost, and COCA's saving. A scalar the result
/// lacks prints as `n/a`.
fn print_narratives(
    out: &mut impl Write,
    m: &manifest::Manifest,
    results: &HashMap<String, Value>,
    scale_name: &str,
) -> std::io::Result<()> {
    for (run, result) in m.runs.iter().filter_map(|r| Some((r, results.get(&r.id)?))) {
        match run.kind.as_str() {
            "budget_point" => {
                let g = |s| lane_scalar(result, "point", s);
                writeln!(
                    out,
                    "  budget {}: coca {} (neutral: {}, V={}) opt {}",
                    fixed(g("budget_frac"), 2),
                    fixed(g("coca_norm"), 4),
                    flag(g("coca_neutral")),
                    fixed(g("v_used"), 1),
                    fixed(g("opt_norm"), 4),
                )?;
            }
            "lockstep" if ["coca", "perfect-hp"].iter().all(|l| lane(result, l).is_some()) => {
                let coca = |s| lane_scalar(result, "coca", s);
                let hp = |s| lane_scalar(result, "perfect-hp", s);
                let saving = coca("avg_hourly_cost")
                    .zip(hp("avg_hourly_cost"))
                    .map(|(coca, hp)| 100.0 * (1.0 - coca / hp));
                writeln!(
                    out,
                    "\n## Summary (scale = {scale_name}, budget = {:.0}%)",
                    m.budget_fraction * 100.0
                )?;
                writeln!(out, "calibrated V*            : {}", fixed(coca("v_used"), 1))?;
                let pair = |s, prec| (fixed(coca(s), prec), fixed(hp(s), prec));
                let rows = [
                    ("brown energy / budget", pair("brown_over_budget", 4)),
                    ("carbon neutral", (flag(coca("carbon_neutral")), flag(hp("carbon_neutral")))),
                    ("avg hourly cost", pair("avg_hourly_cost", 3)),
                ];
                writeln!(out, "{:<27}{:<12}PerfectHP", "", "COCA")?;
                for (name, (c, h)) in rows {
                    writeln!(out, "{name:<25}: {c:<12}{h}")?;
                }
                writeln!(out, "cost saving vs PerfectHP : {}%  (paper: >25%)", fixed(saving, 1))?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Materializes every spec, executes all their runs through one batch
/// queue, then — spec by spec, in the given order — assembles and emits the
/// figures of each complete spec. Returns `true` when every run completed.
fn run_specs(
    args: &Args,
    paths: &[PathBuf],
    registry: Option<&Arc<MetricsRegistry>>,
) -> Result<bool, String> {
    let mut specs = Vec::with_capacity(paths.len());
    for path in paths {
        let sp = Spec::load(path)?;
        let m = manifest::materialize(&sp, args.scale)?;
        logger::info(
            &Span::new("batch").lane(&sp.name),
            &format!("{} runs ({} groups)", m.runs.len(), sp.groups.len()),
        );
        specs.push((sp, m));
    }
    let runner = BatchRunner::batch(
        specs.iter().map(|(_, m)| m),
        BatchOptions {
            dir: args.out.join("batch"),
            workers: args.workers,
            resume: args.resume,
            kill_after: args.kill_after,
            abort_runs_at_slot: args.abort_at_slot,
            registry: registry.cloned(),
        },
    );
    let t0 = Instant::now();
    let summaries = runner.run_each()?;
    logger::info(
        &Span::new("batch"),
        &format!(
            "{} specs, {} runs in {:.1?}",
            specs.len(),
            summaries.iter().map(|s| s.total).sum::<usize>(),
            t0.elapsed()
        ),
    );
    let mut all_complete = true;
    for (idx, ((sp, m), summary)) in specs.iter().zip(&summaries).enumerate() {
        let span = Span::new("batch").lane(&sp.name);
        logger::info(
            &span,
            &format!(
                "completed {} (resumed {}, skipped {}, failed {}, pending {})",
                summary.completed,
                summary.resumed,
                summary.skipped,
                summary.failures.len(),
                summary.pending,
            ),
        );
        for (id, err) in &summary.failures {
            logger::error(&span, &format!("{id}: {err}"));
        }
        if !summary.is_complete() {
            logger::error(
                &span,
                &format!(
                    "{}: batch incomplete ({} failed, {} pending) — rerun with --resume",
                    sp.name,
                    summary.failures.len(),
                    summary.pending
                ),
            );
            all_complete = false;
            continue;
        }
        // One spec's results at a time: they are dropped before the next
        // spec's load.
        let results = runner.spec_results(idx)?;
        for (stem, fig) in assemble::assemble(sp, m, &results)? {
            emit(args, &stem, &fig);
        }
        // Ignore stdout errors, as `emit` does.
        print_narratives(&mut std::io::stdout().lock(), m, &results, &args.scale_name).ok();
    }
    Ok(all_complete)
}

fn list_scenarios(args: &Args, dir: &Path) -> Result<(), String> {
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "{:<24} {:>6} {:>8}  title", "spec", "runs", "figures").ok();
    for path in spec::discover(dir)? {
        let sp = Spec::load(&path)?;
        let m = manifest::materialize(&sp, args.scale)?;
        writeln!(
            stdout,
            "{:<24} {:>6} {:>8}  {}",
            sp.name,
            m.runs.len(),
            sp.figures.len(),
            sp.title
        )
        .ok();
    }
    Ok(())
}

/// The instrumented probe behind `--metrics`: a GSD-backed COCA run over a
/// short window of the scenario, with one [`MetricsObserver`] watching the
/// engine (slots, checkpoints, phase timers), the GSD solver (kernel work
/// and acceptance statistics) and the controller (deficit queue, frame
/// resets), plus a crash-and-resume mini batch and a mini batch that
/// shares passes, so the snapshot also carries every batch counter family
/// the checked-in schema requires.
fn metrics_probe(
    args: &Args,
    setup: &PaperSetup,
    registry: &Arc<MetricsRegistry>,
    path: &Path,
) -> Result<(), String> {
    let observer = Arc::new(MetricsObserver::new(Arc::clone(registry)));
    let hours = setup.trace.len().min(72);
    let frame = 24.min(hours).max(1);
    let trace = setup.trace.window(0, hours);
    let rec_total = setup.rec_total * hours as f64 / setup.trace.len() as f64;
    let mut gsd = GsdSolver::new(GsdOptions { iterations: 200, seed: 1500, ..Default::default() });
    gsd.set_observer(Arc::clone(&observer) as _);
    let cfg = CocaConfig {
        v: VSchedule::Constant(setup.characteristic_v()),
        frame_length: frame,
        horizon: hours,
        alpha: 1.0,
        rec_total,
    };
    let mut coca = CocaController::new(Arc::clone(&setup.cluster), setup.cost, cfg, gsd);
    coca.set_observer(Arc::clone(&observer) as _);
    let mut engine = EngineBuilder::new(Arc::clone(&setup.cluster), setup.cost)
        .rec_total(rec_total)
        .observer(Arc::clone(&observer) as _)
        .policy(Box::new(coca))
        .build(&trace)
        .map_err(|e| format!("probe engine: {e}"))?;
    while engine.step().map_err(|e| format!("probe step: {e}"))? == StepStatus::Advanced {
        let t = engine.t();
        if t % frame == 0 {
            logger::info(
                &Span::new("metrics").slot(t).frame(t / frame).lane("coca-gsd"),
                &format!("probe progress: {t}/{hours} slots"),
            );
        }
    }
    // Exercise the batch orchestrator end to end: crash a one-run batch
    // mid-flight (after earlier checkpoints have landed, so the resume has
    // something to restore), resume it, then rerun it — touching the
    // `batch_runs_total` / failed / resumed / completed / skipped counters
    // and the `batch_run_seconds` histogram.
    {
        let sp = Spec::from_json(
            r#"{"name": "metrics_probe", "groups": [
                {"id": "g", "kind": "lockstep",
                 "lanes": [{"label": "coca", "policy": "coca", "v_mode": "mult"}]}
            ]}"#,
        )?;
        let m = manifest::materialize(&sp, ExperimentScale::small())?;
        let dir = args.out.join("batch").join("_metrics_probe");
        // Stale artifacts from a previous probe would turn the crash pass
        // into a skip; start clean.
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("probe cleanup: {e}"))?;
        }
        let opts = |resume: bool, abort: Option<usize>| BatchOptions {
            dir: dir.clone(),
            workers: 1,
            resume,
            kill_after: None,
            abort_runs_at_slot: abort,
            registry: Some(Arc::clone(registry)),
        };
        let crashed = BatchRunner::new(&m, opts(false, Some(100))).run()?;
        if crashed.failures.is_empty() {
            return Err("probe batch: simulated crash did not fail the run".into());
        }
        let resumed = BatchRunner::new(&m, opts(true, None)).run()?;
        if resumed.completed != 1 || resumed.resumed != 1 {
            return Err(format!("probe batch: unexpected resume summary {resumed:?}"));
        }
        let skipped = BatchRunner::new(&m, opts(true, None)).run()?;
        if skipped.skipped != 1 {
            return Err(format!("probe batch: unexpected skip summary {skipped:?}"));
        }
    }
    // Exercise the context's pass memo: the two budget points share their
    // μ = 0 OPT sweep, and the COCA lane at V* is the calibration's run.
    {
        let sp = Spec::from_json(
            r#"{"name": "metrics_probe_passes", "groups": [
                {"id": "b", "kind": "budget_point", "params": {"calib_probes": 1},
                 "sweep": {"budget_frac": [1.0, 1.05]}},
                {"id": "c", "kind": "lockstep",
                 "lanes": [{"label": "coca", "policy": "coca", "v_mode": "calibrated",
                            "calib_probes": 1}]}
            ]}"#,
        )?;
        let m = manifest::materialize(&sp, ExperimentScale::small())?;
        let dir = args.out.join("batch").join("_metrics_probe_passes");
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("probe cleanup: {e}"))?;
        }
        let opts = BatchOptions {
            dir,
            workers: 1,
            registry: Some(Arc::clone(registry)),
            ..BatchOptions::default()
        };
        let summary = BatchRunner::new(&m, opts).run()?;
        if !summary.is_complete() {
            return Err(format!("probe passes batch: incomplete {summary:?}"));
        }
    }
    let json = registry.snapshot().to_json()?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    std::fs::write(path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    logger::info(&Span::new("metrics"), &format!("snapshot -> {}", path.display()));
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let t0 = Instant::now();
    // With --metrics, the command's own batch tallies into the snapshot too.
    let registry = args.metrics.as_ref().map(|_| Arc::new(MetricsRegistry::new()));
    let mut all_complete = true;
    match args.command.as_str() {
        "run" => {
            if args.operands.is_empty() {
                return Err("run needs at least one spec file".into());
            }
            let paths: Vec<PathBuf> = args.operands.iter().map(PathBuf::from).collect();
            all_complete = run_specs(args, &paths, registry.as_ref())?;
        }
        "batch" => {
            let dir = args.operands.first().map_or_else(|| Path::new("scenarios"), Path::new);
            let specs = spec::discover(dir)?;
            if specs.is_empty() {
                return Err(format!("no spec files in {}", dir.display()));
            }
            all_complete = run_specs(args, &specs, registry.as_ref())?;
        }
        "list-scenarios" => {
            let dir = args.operands.first().map_or_else(|| Path::new("scenarios"), Path::new);
            list_scenarios(args, dir)?;
        }
        other => return Err(format!("unknown command {other:?}")),
    }
    if let (Some(path), Some(registry)) = (&args.metrics, &registry) {
        let setup = PaperSetup::build(args.scale, WorkloadKind::Fiu, 0.92)
            .map_err(|e| format!("setup: {e}"))?;
        metrics_probe(args, &setup, registry, path)?;
    }
    logger::info(&Span::new("repro"), &format!("done in {:.1?}", t0.elapsed()));
    Ok(all_complete)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if e != "help" {
                logger::error(&Span::new("args"), &e);
            }
            eprintln!(
                "usage: repro [--scale small|medium|paper] [--out DIR] [--strict] [--resume] \
                 [--workers N] [--quiet] [--metrics PATH] [--kill-after N] [--abort-at-slot T] \
                 <run SPEC...|batch [DIR]|list-scenarios [DIR]>"
            );
            return if e == "help" { ExitCode::SUCCESS } else { ExitCode::from(2) };
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            logger::error(&Span::new("repro"), &e);
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What `print_narratives` writes for the one run of a spec whose only
    /// group is `group`, given that run's result file `result`.
    fn narrate(group: &str, result: &str) -> String {
        let json = format!(r#"{{"name": "narrate", "budget_fraction": 0.9, "groups": [{group}]}}"#);
        let sp = Spec::from_json(&json).expect("spec parses");
        let m = manifest::materialize(&sp, ExperimentScale::small()).expect("materialize");
        let result: Value = serde_json::from_str(result).expect("result parses");
        let results = HashMap::from([(m.runs[0].id.clone(), result)]);
        let mut out = Vec::new();
        print_narratives(&mut out, &m, &results, "small").expect("writes to a Vec");
        String::from_utf8(out).expect("utf-8")
    }

    #[test]
    fn duel_prints_both_lanes_and_a_missing_flag_as_na() {
        let duel = r#"{"id": "duel", "kind": "lockstep", "lanes": [
            {"label": "coca", "policy": "coca"},
            {"label": "perfect-hp", "policy": "perfect_hp"}]}"#;
        let result = r#"{"id": "r", "kind": "lockstep", "lanes": [
            {"label": "coca", "skipped": false, "series": {},
             "scalars": {"avg_hourly_cost": 30.0, "brown_over_budget": 0.99936, "v_used": 385.42}},
            {"label": "perfect-hp", "skipped": false, "series": {},
             "scalars": {"avg_hourly_cost": 40.0, "brown_over_budget": 1.05,
                         "carbon_neutral": 0.0}}]}"#;
        let want = "\n## Summary (scale = small, budget = 90%)\n\
                    calibrated V*            : 385.4\n\
                    \x20                          COCA        PerfectHP\n\
                    brown energy / budget    : 0.9994      1.0500\n\
                    carbon neutral           : n/a         false\n\
                    avg hourly cost          : 30.000      40.000\n\
                    cost saving vs PerfectHP : 25.0%  (paper: >25%)\n";
        assert_eq!(narrate(duel, result), want);

        // A lockstep run without both lanes is no duel.
        let solo = r#"{"id": "solo", "kind": "lockstep", "lanes": [
            {"label": "coca", "policy": "coca"}]}"#;
        let result = r#"{"id": "r", "kind": "lockstep", "lanes": [
            {"label": "coca", "skipped": false, "series": {},
             "scalars": {"avg_hourly_cost": 30.0}}]}"#;
        assert_eq!(narrate(solo, result), "");
    }

    #[test]
    fn budget_point_prints_a_missing_flag_as_na() {
        let group = r#"{"id": "b", "kind": "budget_point", "params": {"budget_frac": 0.85}}"#;
        let point = |neutral: &str| {
            format!(
                r#"{{"id": "r", "kind": "budget_point", "lanes": [
                {{"label": "point", "skipped": false, "series": {{}},
                  "scalars": {{"budget_frac": 0.85, "coca_norm": 1.048, {neutral}
                              "opt_norm": 1.027, "v_used": 120.0}}}}]}}"#
            )
        };
        assert_eq!(
            narrate(group, &point(r#""coca_neutral": 1.0,"#)),
            "  budget 0.85: coca 1.0480 (neutral: true, V=120.0) opt 1.0270\n"
        );
        assert_eq!(
            narrate(group, &point("")),
            "  budget 0.85: coca 1.0480 (neutral: n/a, V=120.0) opt 1.0270\n"
        );
    }
}
