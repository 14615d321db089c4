//! [`BatchMetrics`] — canonical metric names for batch orchestration.
//!
//! The scenario batch runner (`coca-scenarios`) reports manifest progress
//! through these handles so `repro --metrics` snapshots carry the batch
//! families CI pins in `schemas/metrics.schema.json`:
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `batch_runs_total` | counter | manifest runs scheduled |
//! | `batch_runs_completed_total` | counter | runs finished this invocation |
//! | `batch_runs_failed_total` | counter | runs that returned an error |
//! | `batch_runs_resumed_total` | counter | runs restored from a checkpoint |
//! | `batch_runs_skipped_total` | counter | runs already completed on disk |
//! | `batch_run_seconds` | histogram | wall-clock per executed run, observed when it completes |
//! | `batch_coca_runs_executed_total` | counter | whole COCA runs a context's pass memo simulated |
//! | `batch_coca_runs_shared_total` | counter | COCA runs it answered from an earlier run |
//! | `batch_opt_sweeps_executed_total` | counter | OPT μ-sweeps it ran, plan rebuilds included |
//! | `batch_opt_sweeps_shared_total` | counter | OPT μ-sweeps it answered from an earlier sweep |
//!
//! Like [`MetricsObserver`](crate::MetricsObserver), handles are resolved
//! once at construction; updates afterwards are lock-free atomics.

use std::sync::Arc;

use crate::metrics::{Counter, Histogram, MetricsRegistry};

/// Per-run wall-clock buckets: 1 ms … 1000 s, roughly ×3 apart — batch
/// runs span quick spec points (milliseconds at small scale) to full
/// paper-scale years (minutes).
const RUN_SECONDS_BOUNDS: &[f64] =
    &[1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0];

/// Handles for the canonical batch-orchestration metrics (see the module
/// docs for the name table).
#[derive(Debug)]
pub struct BatchMetrics {
    /// Manifest runs scheduled (`batch_runs_total`).
    pub runs: Arc<Counter>,
    /// Runs finished this invocation (`batch_runs_completed_total`).
    pub completed: Arc<Counter>,
    /// Runs that returned an error (`batch_runs_failed_total`).
    pub failed: Arc<Counter>,
    /// Runs restored from an in-flight checkpoint (`batch_runs_resumed_total`).
    pub resumed: Arc<Counter>,
    /// Runs already completed on disk and skipped (`batch_runs_skipped_total`).
    pub skipped: Arc<Counter>,
    /// Wall-clock seconds per executed run, observed when it completes
    /// (`batch_run_seconds`).
    pub run_seconds: Arc<Histogram>,
    /// COCA runs a context's pass memo simulated
    /// (`batch_coca_runs_executed_total`).
    pub coca_runs_executed: Arc<Counter>,
    /// COCA runs answered from an earlier run of the same inputs
    /// (`batch_coca_runs_shared_total`).
    pub coca_runs_shared: Arc<Counter>,
    /// OPT μ-sweeps run (`batch_opt_sweeps_executed_total`).
    pub opt_sweeps_executed: Arc<Counter>,
    /// OPT μ-sweeps answered from an earlier sweep of the same frame, μ and
    /// solver warm state (`batch_opt_sweeps_shared_total`).
    pub opt_sweeps_shared: Arc<Counter>,
}

impl BatchMetrics {
    /// Creates the handle set, registering (or re-using) every canonical
    /// batch metric in `registry`.
    pub fn new(registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            runs: registry.counter("batch_runs_total"),
            completed: registry.counter("batch_runs_completed_total"),
            failed: registry.counter("batch_runs_failed_total"),
            resumed: registry.counter("batch_runs_resumed_total"),
            skipped: registry.counter("batch_runs_skipped_total"),
            run_seconds: registry
                .histogram("batch_run_seconds", RUN_SECONDS_BOUNDS)
                .expect("static bucket bounds are valid"),
            coca_runs_executed: registry.counter("batch_coca_runs_executed_total"),
            coca_runs_shared: registry.counter("batch_coca_runs_shared_total"),
            opt_sweeps_executed: registry.counter("batch_opt_sweeps_executed_total"),
            opt_sweeps_shared: registry.counter("batch_opt_sweeps_shared_total"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_names_appear_in_snapshot() {
        let registry = Arc::new(MetricsRegistry::new());
        let m = BatchMetrics::new(&registry);
        m.runs.add(4);
        m.completed.add(2);
        m.resumed.inc();
        m.skipped.inc();
        m.run_seconds.observe(0.02);
        m.run_seconds.observe(7.5);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("batch_runs_total"), Some(4));
        assert_eq!(snap.counter("batch_runs_completed_total"), Some(2));
        assert_eq!(snap.counter("batch_runs_failed_total"), Some(0));
        assert_eq!(snap.counter("batch_runs_resumed_total"), Some(1));
        assert_eq!(snap.counter("batch_runs_skipped_total"), Some(1));
        m.coca_runs_shared.add(3);
        assert_eq!(registry.snapshot().counter("batch_coca_runs_shared_total"), Some(3));
        assert_eq!(registry.snapshot().counter("batch_opt_sweeps_executed_total"), Some(0));
        let hist = snap.histogram("batch_run_seconds").expect("run timer");
        assert_eq!(hist.count, 2);
        assert!(hist.sum > 7.5);
    }

    #[test]
    fn snapshot_json_round_trips_batch_families() {
        let registry = Arc::new(MetricsRegistry::new());
        let m = BatchMetrics::new(&registry);
        m.runs.inc();
        m.run_seconds.observe(0.5);
        let snap = registry.snapshot();
        let json = snap.to_json().expect("snapshot serializes");
        let back = crate::MetricsSnapshot::from_json(&json).expect("snapshot parses");
        assert_eq!(back.counter("batch_runs_total"), Some(1));
        assert_eq!(back.histogram("batch_run_seconds").map(|h| h.count), Some(1));
    }
}
