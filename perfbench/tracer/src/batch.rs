//! The figure batch: set-up timing and the traced `repro batch` equivalent.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use coca_experiments::report::write_csv;
use coca_experiments::setup::ExperimentScale;
use coca_obs::MetricsRegistry;
use coca_scenarios::runner::BatchOptions;
use coca_scenarios::{assemble, manifest, spec, BatchRunner, Spec};
use serde::Value;

use crate::timing::Timer;
use crate::{count, floats, invariant_checks, object, Flags};

fn load_all(dir: &Path, scale: ExperimentScale) -> Result<Vec<(Spec, manifest::Manifest)>, String> {
    spec::discover(dir)?
        .iter()
        .map(|path| {
            let sp = Spec::load(path)?;
            let m = manifest::materialize(&sp, scale)?;
            Ok((sp, m))
        })
        .collect()
}

/// `materialize`: times `--reps` passes of spec load + manifest
/// materialisation over every spec in `--scenarios` (the batch set-up).
pub fn materialize(flags: &Flags) -> Result<Value, String> {
    let dir = PathBuf::from(flags.str("scenarios")?);
    let scale = manifest::scale_by_name(flags.str("scale")?)?;
    let reps: usize = flags.get("reps")?;
    let mut samples = Vec::with_capacity(reps);
    let mut shape = (0, 0);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let all = std::hint::black_box(load_all(&dir, scale)?);
        samples.push(start.elapsed().as_secs_f64());
        shape = (
            all.len(),
            all.iter().map(|(_, m)| m.runs.len()).sum::<usize>(),
        );
    }
    Ok(object([
        ("specs", count(shape.0 as u64)),
        ("runs", count(shape.1 as u64)),
        ("samples_s", floats(&samples)),
    ]))
}

/// `batch`: runs every spec through the same library calls as
/// `repro batch` (materialise, `BatchRunner::run`, assemble, write CSVs),
/// timing each call and attaching a registry for the runner's
/// `batch_run_*` families.
pub fn traced(flags: &Flags) -> Result<Value, String> {
    let dir = PathBuf::from(flags.str("scenarios")?);
    let scale = manifest::scale_by_name(flags.str("scale")?)?;
    let workers: usize = flags.get("workers")?;
    let out = PathBuf::from(flags.str("out")?);
    coca_experiments::parallel::set_default_workers(workers);
    let registry = Arc::new(MetricsRegistry::new());

    let materialize_t = Timer::total();
    let runner_t = Timer::total();
    let assemble_t = Timer::total();
    let csv_t = Timer::total();
    let mut kinds = Vec::new();
    let mut failed = 0u64;
    let mut figures = 0u64;

    let start = Instant::now();
    for path in spec::discover(&dir)? {
        let (sp, m) = materialize_t.time(|| -> Result<_, String> {
            let sp = Spec::load(&path)?;
            let m = manifest::materialize(&sp, scale)?;
            Ok((sp, m))
        })?;
        kinds.extend(
            m.runs
                .iter()
                .map(|run| (run.id.clone(), Value::Str(run.kind.clone()))),
        );
        let runner = BatchRunner::new(
            &m,
            BatchOptions {
                dir: out.join("batch").join(&sp.name),
                workers,
                registry: Some(Arc::clone(&registry)),
                ..BatchOptions::default()
            },
        );
        let summary = runner_t.time(|| runner.run())?;
        failed += (summary.failures.len() + summary.pending) as u64;
        if !summary.is_complete() {
            continue;
        }
        let figs = assemble_t.time(|| -> Result<_, String> {
            let results = runner.load_results()?;
            assemble::assemble(&sp, &m, &results)
        })?;
        for (stem, fig) in figs {
            let path = out.join(format!("{stem}.csv"));
            csv_t
                .time(|| write_csv(&path, &fig.x_label, &fig.series))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            figures += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();

    let snap = registry.snapshot();
    let (busy, runs) = snap
        .histogram("batch_run_seconds")
        .map_or((0.0, 0), |h| (h.sum, h.count));
    Ok(object([
        ("wall_s", Value::Float(wall)),
        ("materialize_s", Value::Float(materialize_t.secs())),
        ("runner_s", Value::Float(runner_t.secs())),
        ("assemble_s", Value::Float(assemble_t.secs())),
        ("csv_s", Value::Float(csv_t.secs())),
        ("run_busy_s", Value::Float(busy)),
        ("runs_timed", count(runs)),
        ("runs_failed", count(failed)),
        ("figures", count(figures)),
        ("workers", count(workers as u64)),
        ("invariant_checks", invariant_checks()),
        ("run_kinds", Value::Map(kinds)),
    ]))
}
