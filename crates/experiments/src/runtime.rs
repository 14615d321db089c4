//! Checkpointed lockstep runs for long reproductions.
//!
//! Builds a [`SimEngine`](coca_dcsim::SimEngine) from the run's
//! [`EngineBuilder`] (lanes, RECs, φ, observer), drives it slot by slot
//! and persists its serializable [`EngineState`](coca_dcsim::EngineState)
//! to disk every `every` slots (the caller passes a frame length), so an
//! interrupted `repro` invocation can restart from the last frame boundary
//! with `--resume` instead of recomputing the whole year.
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

use coca_dcsim::{
    read_checkpoint, write_checkpoint, EngineBuilder, SimError, SimOutcome, StepStatus,
};
use coca_obs::logger::{self, Span};
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

/// What a [`run_lockstep_checkpointed`] call finished with.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// One outcome per lane, the same as an uninterrupted run's.
    pub outcomes: Vec<SimOutcome>,
    /// True when the run continued from a restored checkpoint; false when
    /// it simulated from slot 0, including after ignoring an unreadable one.
    pub resumed: bool,
}

/// Builds the engine `builder` describes over `trace` and runs it to the
/// end, checkpointing every `ckpt.every` slots. Semantically identical to
/// `builder.build(trace)?.run_and_finish()` — same outcomes, slot for
/// slot — plus the persistence side effects described in the module docs.
///
/// Resume/checkpoint diagnostics go through [`coca_obs::logger`] (so
/// `repro --quiet` silences the informational ones); an observer set on
/// the builder sees the run's slots, phases and checkpoints.
pub fn run_lockstep_checkpointed(
    builder: EngineBuilder<'_>,
    trace: &EnvironmentTrace,
    ckpt: Checkpointing<'_>,
) -> Result<CheckpointedRun, SimError> {
    let every = ckpt.every.max(1);
    let mut engine = builder.build(trace)?;
    let mut resumed = false;
    if ckpt.resume && ckpt.path.exists() {
        match read_checkpoint(ckpt.path).map_err(SimError::from).and_then(|state| {
            engine.restore(&state)?;
            Ok(state.t)
        }) {
            Ok(t) => {
                resumed = true;
                logger::info(
                    &Span::new("resume").slot(t).frame(t / every),
                    &format!("continuing from checkpoint {}", ckpt.path.display()),
                );
            }
            Err(e) => logger::error(
                &Span::new("resume"),
                &format!("ignoring checkpoint {}: {e}", ckpt.path.display()),
            ),
        }
    }
    while engine.step()? == StepStatus::Advanced {
        if engine.t() % every == 0 {
            write_checkpoint(ckpt.path, &engine.checkpoint()?)?;
            logger::debug(
                &Span::new("checkpoint").slot(engine.t()).frame(engine.t() / every),
                &format!("state written to {}", ckpt.path.display()),
            );
        }
        if ckpt.abort_at_slot.is_some_and(|at| engine.t() >= at) {
            // Leave the last boundary checkpoint in place, like a crash.
            return Err(SimError::Internal(SIMULATED_CRASH.into()));
        }
    }
    // The run completed; a stale checkpoint would hijack the next one.
    let _ = std::fs::remove_file(ckpt.path);
    Ok(CheckpointedRun { outcomes: engine.into_outcomes()?, resumed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::coca_policy;
    use crate::setup::{ExperimentScale, PaperSetup};
    use coca_core::VSchedule;
    use coca_traces::WorkloadKind;
    use std::sync::Arc;

    fn small_setup() -> PaperSetup {
        let mut scale = ExperimentScale::small();
        scale.hours = 72;
        PaperSetup::build(scale, WorkloadKind::Fiu, 0.92).unwrap()
    }

    /// One COCA lane over the setup's fleet and RECs.
    fn builder(setup: &PaperSetup) -> EngineBuilder<'_> {
        EngineBuilder::new(Arc::clone(&setup.cluster), setup.cost)
            .rec_total(setup.rec_total)
            .policy(Box::new(coca_policy(setup, VSchedule::Constant(50.0), 24)))
    }

    /// The same run without checkpointing.
    fn uninterrupted(builder: EngineBuilder<'_>, setup: &PaperSetup) -> Vec<SimOutcome> {
        builder.build(&setup.trace).unwrap().run_and_finish().unwrap()
    }

    #[test]
    fn checkpointed_run_matches_plain_and_cleans_up() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_clean");
        let path = dir.join("ckpt.json");
        let ckpt = Checkpointing::new(&path, 24, false);
        let out = run_lockstep_checkpointed(builder(&setup), &setup.trace, ckpt).unwrap();
        let reference = uninterrupted(builder(&setup), &setup);
        assert_eq!(out.outcomes, reference, "checkpointing must not change results");
        assert!(!out.resumed);
        assert!(!path.exists(), "checkpoint removed after completion");
    }

    #[test]
    fn resume_from_frame_boundary_reproduces_uninterrupted_run() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_resume");
        let path = dir.join("ckpt.json");

        // Simulate an interrupted run: advance 24 slots (one frame), write
        // the checkpoint exactly as the runner would, then drop the engine.
        let mut engine = builder(&setup).build(&setup.trace).unwrap();
        for _ in 0..24 {
            assert_eq!(engine.step().unwrap(), StepStatus::Advanced);
        }
        write_checkpoint(&path, &engine.checkpoint().unwrap()).unwrap();
        drop(engine);

        let ckpt = Checkpointing::new(&path, 24, true);
        let resumed = run_lockstep_checkpointed(builder(&setup), &setup.trace, ckpt).unwrap();
        let reference = uninterrupted(builder(&setup), &setup);
        assert!(resumed.resumed);
        assert_eq!(resumed.outcomes, reference, "resume must reproduce the full run exactly");
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
            builder(&setup).observer(observer),
            &setup.trace,
            Checkpointing::new(&path, 24, false),
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
            builder(&setup),
            &setup.trace,
            Checkpointing { path: &path, every: 24, resume: false, abort_at_slot: Some(36) },
        );
        match crash {
            Err(SimError::Internal(msg)) => assert_eq!(msg, SIMULATED_CRASH),
            other => panic!("expected a simulated crash, got {other:?}"),
        }
        assert!(path.exists(), "crash leaves the boundary checkpoint behind");
        let ckpt = Checkpointing::new(&path, 24, true);
        let resumed = run_lockstep_checkpointed(builder(&setup), &setup.trace, ckpt).unwrap();
        let reference = uninterrupted(builder(&setup), &setup);
        assert!(resumed.resumed);
        assert_eq!(resumed.outcomes, reference, "post-crash resume must be exact");
        assert!(!path.exists());
    }

    /// φ rides in the builder and in the checkpoint: a crashed φ = 1.2 run
    /// resumes into the uninterrupted φ = 1.2 run, not the φ = 1 one.
    #[test]
    fn resumed_run_keeps_the_builders_overestimation() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_phi");
        let path = dir.join("ckpt.json");
        let _ = std::fs::remove_file(&path);
        let phi = || builder(&setup).overestimation(1.2);
        let crash = run_lockstep_checkpointed(
            phi(),
            &setup.trace,
            Checkpointing { path: &path, every: 24, resume: false, abort_at_slot: Some(36) },
        );
        assert!(crash.is_err());
        let ckpt = Checkpointing::new(&path, 24, true);
        let resumed = run_lockstep_checkpointed(phi(), &setup.trace, ckpt).unwrap().outcomes;
        assert_eq!(resumed, uninterrupted(phi(), &setup));
        assert_ne!(resumed, uninterrupted(builder(&setup), &setup), "φ changes the run");
    }

    #[test]
    fn incompatible_checkpoint_is_ignored() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_incompat");
        let path = dir.join("ckpt.json");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(&path, "{not json").unwrap();
        let ckpt = Checkpointing::new(&path, 24, true);
        let out = run_lockstep_checkpointed(builder(&setup), &setup.trace, ckpt).unwrap();
        assert_eq!(out.outcomes.len(), 1);
        assert!(!out.resumed, "run falls back to a fresh start");
    }

    #[test]
    fn pre_marker_checkpoint_is_ignored_and_the_run_starts_fresh() {
        let setup = small_setup();
        let dir = std::env::temp_dir().join("coca_runtime_test_old_format");
        let path = dir.join("ckpt.json");
        std::fs::create_dir_all(&dir).unwrap();
        // The unmarked format: a bare EngineState, here taken at slot 24.
        let mut engine = builder(&setup).build(&setup.trace).unwrap();
        for _ in 0..24 {
            assert_eq!(engine.step().unwrap(), StepStatus::Advanced);
        }
        std::fs::write(&path, serde_json::to_string(&engine.checkpoint().unwrap()).unwrap())
            .unwrap();
        assert!(matches!(
            read_checkpoint(&path),
            Err(coca_dcsim::CheckpointError::UnsupportedVersion { found: None, expected: 2 })
        ));
        let ckpt = Checkpointing::new(&path, 24, true);
        let out = run_lockstep_checkpointed(builder(&setup), &setup.trace, ckpt).unwrap();
        let fresh = uninterrupted(builder(&setup), &setup);
        assert!(!out.resumed);
        assert_eq!(out.outcomes, fresh, "the fallback is a full fresh run");
        assert!(!path.exists());
    }
}
