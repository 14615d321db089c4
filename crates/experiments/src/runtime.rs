//! Checkpointed lockstep runs for long reproductions.
//!
//! Drives a [`SimEngine`](coca_dcsim::SimEngine) slot by slot and persists its serializable
//! [`EngineState`](coca_dcsim::EngineState) to disk every `every` slots (the caller passes a frame
//! length), so an interrupted `repro` invocation can restart from the last
//! frame boundary with `--resume` instead of recomputing the whole year.
//!
//! The checkpoint file is [`coca_dcsim::checkpoint`]'s versioned codec
//! over the engine's `EngineState`, written durably (temp file, `fsync`,
//! rename) and deleted on successful completion. Batch lanes use the
//! default `VecSink`, so their checkpoints carry the record history a
//! resumed run needs to rebuild its `SimOutcome`. A checkpoint that fails
//! to parse, is of another format version, or does not match the engine's
//! configuration (lane count, policy names, `rec_total`, history length)
//! is ignored with a logged error — the run then starts from slot 0.

use std::path::Path;
use std::sync::Arc;

use coca_dcsim::{
    read_checkpoint, write_checkpoint, Cluster, CostParams, EngineBuilder, Policy, SimError,
    SimOutcome, StepStatus,
};
use coca_obs::logger::{self, Span};
use coca_obs::EngineObserver;
use coca_traces::EnvironmentTrace;

/// Where and how often to checkpoint a [`run_lockstep_checkpointed`] call.
#[derive(Debug, Clone, Copy)]
pub struct Checkpointing<'a> {
    /// Checkpoint file path (created on the first boundary, removed on
    /// successful completion).
    pub path: &'a Path,
    /// Slots between checkpoints — pass the run's frame length so snapshots
    /// land on frame boundaries. Clamped to ≥ 1.
    pub every: usize,
    /// Restore from `path` if a compatible checkpoint exists there.
    pub resume: bool,
    /// Simulated-crash hook for resume tests and the CI batch smoke gate:
    /// once the engine reaches this slot the run aborts with
    /// [`SIMULATED_CRASH`], leaving the checkpoint from the last boundary
    /// on disk exactly as a real crash would. `None` (the default) runs to
    /// completion.
    pub abort_at_slot: Option<usize>,
}

impl<'a> Checkpointing<'a> {
    /// Checkpointing at `path` every `every` slots, optionally resuming —
    /// the common case, with no simulated crash.
    pub fn new(path: &'a Path, every: usize, resume: bool) -> Self {
        Self { path, every, resume, abort_at_slot: None }
    }
}

/// Error message carried by the [`Checkpointing::abort_at_slot`] simulated
/// crash (callers match on it to tell a drill from a real failure).
pub const SIMULATED_CRASH: &str = "simulated crash: abort_at_slot reached";

/// Optional knobs for [`run_lockstep_checkpointed`]: checkpoint policy,
/// engine observer, and the workload overestimation factor φ (Fig. 5(c));
/// `RunOptions::default()` means no checkpointing, no observer, φ = 1.
pub struct RunOptions<'a> {
    /// Checkpoint location/cadence, or `None` to run unpersisted.
    pub ckpt: Option<Checkpointing<'a>>,
    /// Engine observer (e.g. a [`coca_obs::MetricsObserver`]).
    pub observer: Option<Arc<dyn EngineObserver + Send + Sync>>,
    /// Workload overestimation factor φ ≥ 1 applied to the shared env prep.
    pub overestimation: f64,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        Self { ckpt: None, observer: None, overestimation: 1.0 }
    }
}

/// Runs `policies` in lockstep over `trace`, checkpointing at frame
/// boundaries when `ckpt` is given. Semantically identical to
/// [`coca_dcsim::run_lockstep`] — same outcomes, slot for slot — plus the
/// persistence side effects described in the module docs.
///
/// Resume/checkpoint diagnostics go through [`coca_obs::logger`] (so
/// `repro --quiet` silences the informational ones), and an optional
/// [`EngineObserver`] — e.g. a [`coca_obs::MetricsObserver`] — can watch
/// the run's slots, phases and checkpoints.
pub fn run_lockstep_checkpointed<'p>(
    cluster: Arc<Cluster>,
    trace: &EnvironmentTrace,
    cost: CostParams,
    rec_total: f64,
    policies: Vec<Box<dyn Policy + 'p>>,
    opts: RunOptions<'_>,
) -> Result<Vec<SimOutcome>, SimError> {
    let RunOptions { ckpt, observer, overestimation } = opts;
    let mut builder =
        EngineBuilder::new(cluster, cost).rec_total(rec_total).overestimation(overestimation);
    if let Some(obs) = observer {
        builder = builder.observer(obs);
    }
    for policy in policies {
        builder = builder.policy(policy);
    }
    let mut engine = builder.build(trace)?;
    if let Some(c) = &ckpt {
        if c.resume && c.path.exists() {
            let every = c.every.max(1);
            match read_checkpoint(c.path).map_err(SimError::from).and_then(|state| {
                engine.restore(&state)?;
                Ok(state.t)
            }) {
                Ok(t) => logger::info(
                    &Span::new("resume").slot(t).frame(t / every),
                    &format!("continuing from checkpoint {}", c.path.display()),
                ),
                Err(e) => logger::error(
                    &Span::new("resume"),
                    &format!("ignoring checkpoint {}: {e}", c.path.display()),
                ),
            }
        }
    }
    while engine.step()? == StepStatus::Advanced {
        if let Some(c) = &ckpt {
            let every = c.every.max(1);
            if engine.t() % every == 0 {
                write_checkpoint(c.path, &engine.checkpoint()?)?;
                logger::debug(
                    &Span::new("checkpoint").slot(engine.t()).frame(engine.t() / every),
                    &format!("state written to {}", c.path.display()),
                );
            }
            if c.abort_at_slot.is_some_and(|at| engine.t() >= at) {
                // Leave the last boundary checkpoint in place, like a crash.
                return Err(SimError::Internal(SIMULATED_CRASH.into()));
            }
        }
    }
    if let Some(c) = &ckpt {
        // The run completed; a stale checkpoint would hijack the next one.
        let _ = std::fs::remove_file(c.path);
    }
    engine.into_outcomes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::coca_policy;
    use crate::setup::{ExperimentScale, PaperSetup};
    use coca_core::VSchedule;
    use coca_dcsim::{run_lockstep, SimEngine};
    use coca_traces::WorkloadKind;

    fn small_setup() -> PaperSetup {
        let mut scale = ExperimentScale::small();
        scale.hours = 72;
        PaperSetup::build(scale, WorkloadKind::Fiu, 0.92).unwrap()
    }

    fn lanes(setup: &PaperSetup) -> Vec<Box<dyn Policy + '_>> {
        vec![Box::new(coca_policy(setup, VSchedule::Constant(50.0), 24))]
    }

    #[test]
    fn checkpointed_run_matches_plain_and_cleans_up() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_clean");
        let path = dir.join("ckpt.json");
        let ckpt = Checkpointing::new(&path, 24, false);
        let out = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions { ckpt: Some(ckpt), ..RunOptions::default() },
        )
        .unwrap();
        let reference = run_lockstep(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
        )
        .unwrap();
        assert_eq!(out, reference, "checkpointing must not change results");
        assert!(!path.exists(), "checkpoint removed after completion");
    }

    #[test]
    fn resume_from_frame_boundary_reproduces_uninterrupted_run() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_resume");
        let path = dir.join("ckpt.json");

        // Simulate an interrupted run: advance 24 slots (one frame), write
        // the checkpoint exactly as the runner would, then drop the engine.
        let mut engine = SimEngine::new(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
        )
        .unwrap();
        for policy in lanes(&setup) {
            let _ = engine.add_policy(policy);
        }
        for _ in 0..24 {
            assert_eq!(engine.step().unwrap(), StepStatus::Advanced);
        }
        write_checkpoint(&path, &engine.checkpoint().unwrap()).unwrap();
        drop(engine);

        let resumed = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions {
                ckpt: Some(Checkpointing::new(&path, 24, true)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let uninterrupted = run_lockstep(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
        )
        .unwrap();
        assert_eq!(resumed, uninterrupted, "resume must reproduce the full run exactly");
        assert!(!path.exists());
    }

    #[test]
    fn observer_sees_checkpointed_run() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_observer");
        let path = dir.join("ckpt.json");
        let registry = Arc::new(coca_obs::MetricsRegistry::new());
        let observer = Arc::new(coca_obs::MetricsObserver::new(Arc::clone(&registry)));
        let _ = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions {
                ckpt: Some(Checkpointing::new(&path, 24, false)),
                observer: Some(observer),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine_slots_total"), Some(72));
        // 72 slots / every=24 → boundaries at t=24, 48, 72.
        assert_eq!(snap.counter("engine_checkpoints_total"), Some(3));
        let timers = snap.histogram("engine_phase_solve_seconds").expect("solve timer");
        assert_eq!(timers.count, 72);
    }

    #[test]
    fn simulated_crash_leaves_checkpoint_and_resume_completes() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_crash");
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);
        let crash = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions {
                ckpt: Some(Checkpointing {
                    path: &path,
                    every: 24,
                    resume: false,
                    abort_at_slot: Some(36),
                }),
                ..RunOptions::default()
            },
        );
        match crash {
            Err(SimError::Internal(msg)) => assert_eq!(msg, SIMULATED_CRASH),
            other => panic!("expected a simulated crash, got {other:?}"),
        }
        assert!(path.exists(), "crash leaves the boundary checkpoint behind");
        let resumed = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions {
                ckpt: Some(Checkpointing::new(&path, 24, true)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let uninterrupted = run_lockstep(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
        )
        .unwrap();
        assert_eq!(resumed, uninterrupted, "post-crash resume must be exact");
        assert!(!path.exists());
    }

    #[test]
    fn overestimation_option_matches_engine_setting() {
        let setup = small_setup();
        let with_opts = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions { overestimation: 1.2, ..RunOptions::default() },
        )
        .unwrap();
        let mut engine = SimEngine::new(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
        )
        .unwrap();
        engine.set_overestimation(1.2).unwrap();
        for policy in lanes(&setup) {
            let _ = engine.add_policy(policy);
        }
        let _ = engine.run_to_end().unwrap();
        let reference = engine.into_outcomes().unwrap();
        assert_eq!(with_opts, reference, "RunOptions φ must equal set_overestimation");
    }

    #[test]
    fn incompatible_checkpoint_is_ignored() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_incompat");
        let path = dir.join("ckpt.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        let out = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions {
                ckpt: Some(Checkpointing::new(&path, 24, true)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_eq!(out.len(), 1, "run falls back to a fresh start");
    }

    #[test]
    fn pre_marker_checkpoint_is_ignored_and_the_run_starts_fresh() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_old_format");
        let path = dir.join("ckpt.json");
        std::fs::create_dir_all(&dir).unwrap();
        // The unmarked format: a bare EngineState, here taken at slot 24.
        let mut engine = SimEngine::new(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
        )
        .unwrap();
        for policy in lanes(&setup) {
            let _ = engine.add_policy(policy);
        }
        for _ in 0..24 {
            assert_eq!(engine.step().unwrap(), StepStatus::Advanced);
        }
        std::fs::write(&path, serde_json::to_string(&engine.checkpoint().unwrap()).unwrap())
            .unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(coca_dcsim::CheckpointError::UnsupportedVersion { found: None, expected: 2 })
        ));
        let out = run_lockstep_checkpointed(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
            RunOptions {
                ckpt: Some(Checkpointing::new(&path, 24, true)),
                ..RunOptions::default()
            },
        )
        .unwrap();
        let fresh = run_lockstep(
            Arc::clone(&setup.cluster),
            &setup.trace,
            setup.cost,
            setup.rec_total,
            lanes(&setup),
        )
        .unwrap();
        assert_eq!(out, fresh, "the fallback is a full fresh run");
        assert!(!path.exists());
    }
}
