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

fn lane_scalar(result: &Value, label: &str, scalar: &str) -> Option<f64> {
    let lane = result
        .get_field("lanes")?
        .as_seq()?
        .iter()
        .find(|l| l.get_field("label").and_then(spec::str_of) == Some(label))?;
    spec::num(lane.get_field("scalars")?.get_field(scalar)?)
}

/// Prints the old harness's narrative lines for run kinds that used to
/// accompany their figures: budget rows and the COCA-vs-PerfectHP
/// saving/summary block.
fn print_narratives(
    sp: &Spec,
    m: &manifest::Manifest,
    results: &std::collections::HashMap<String, Value>,
    args: &Args,
) {
    let mut stdout = std::io::stdout().lock();
    for group in &sp.groups {
        let runs: Vec<&Value> = m
            .runs
            .iter()
            .filter(|r| r.group == group.id)
            .filter_map(|r| results.get(&r.id))
            .collect();
        match group.kind.as_str() {
            "budget_point" => {
                for result in &runs {
                    let g = |s| lane_scalar(result, "point", s).unwrap_or(f64::NAN);
                    writeln!(
                        stdout,
                        "  budget {:.2}: coca {:.4} (neutral: {}, V={:.1}) opt {:.4}",
                        g("budget_frac"),
                        g("coca_norm"),
                        // audit:allow(float-eq) boolean scalar serialized as exactly 0.0/1.0
                        g("coca_neutral") != 0.0,
                        g("v_used"),
                        g("opt_norm"),
                    )
                    .ok();
                }
            }
            "lockstep" => {
                // A coca + perfect-hp duel carries the paper's headline
                // numbers; print them like the old fig3/summary commands.
                for result in &runs {
                    let (Some(coca), Some(hp)) = (
                        lane_scalar(result, "coca", "avg_hourly_cost"),
                        lane_scalar(result, "perfect-hp", "avg_hourly_cost"),
                    ) else {
                        continue;
                    };
                    let saving = 1.0 - coca / hp;
                    if sp.name == "summary" {
                        let g = |s| lane_scalar(result, "coca", s).unwrap_or(f64::NAN);
                        writeln!(
                            stdout,
                            "\n## Summary (scale = {}, budget = {:.0}%)",
                            args.scale_name,
                            sp.budget_fraction * 100.0
                        )
                        .ok();
                        writeln!(stdout, "calibrated V*                 : {:.1}", g("v_used"))
                            .ok();
                        writeln!(
                            stdout,
                            "COCA brown energy / budget    : {:.4} (neutral: {})",
                            g("brown_over_budget"),
                            // audit:allow(float-eq) boolean scalar serialized as exactly 0.0/1.0
                            g("carbon_neutral") != 0.0
                        )
                        .ok();
                        writeln!(stdout, "COCA avg hourly cost          : {coca:.3}").ok();
                        writeln!(
                            stdout,
                            "cost saving vs PerfectHP      : {:.1}%  (paper: >25%)",
                            saving * 100.0
                        )
                        .ok();
                    } else {
                        writeln!(
                            stdout,
                            "\nCOCA cost saving vs PerfectHP: {:.1}% (paper: >25%)",
                            saving * 100.0
                        )
                        .ok();
                    }
                }
            }
            _ => {}
        }
    }
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
        print_narratives(sp, m, &results, args);
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
