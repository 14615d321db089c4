//! [`MetricsObserver`] — the bridge from observer events to the registry.

use std::sync::Arc;
use std::time::Duration;

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::observer::{EngineObserver, Phase, SolveEvent, SolverObserver};

/// Seconds-scale timer buckets: 1 µs … 10 s, roughly ×3 apart.
const TIMER_BOUNDS: &[f64] =
    &[1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0];

/// Acceptance-ratio buckets over [0, 1].
const RATIO_BOUNDS: &[f64] = &[0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// One observer implementing both [`EngineObserver`] and
/// [`SolverObserver`], routing every event into a shared
/// [`MetricsRegistry`] under the canonical metric names:
///
/// | metric | kind | source event |
/// |---|---|---|
/// | `engine_slots_total` | counter | `on_slot_end` |
/// | `engine_checkpoints_total` | counter | `on_checkpoint` |
/// | `engine_phase_env_prep_seconds` | histogram | `on_phase(EnvPrep)` |
/// | `engine_phase_solve_seconds` | histogram | `on_phase(Solve)` |
/// | `engine_phase_record_seconds` | histogram | `on_phase(Record)` |
/// | `solver_solves_total` | counter | `on_solve` |
/// | `gsd_bisection_evals_total` | counter | `on_solve` |
/// | `gsd_batched_candidates_total` | counter | `on_solve` |
/// | `gsd_acceptance_ratio` | histogram | `on_solve` (accepted/iterations) |
/// | `coca_deficit_queue_kwh` | gauge + trajectory | `on_deficit` |
/// | `coca_frame_resets_total` | counter | `on_frame_reset` |
///
/// The acceptance-ratio histogram only records events from chain-based
/// solvers (`iterations > 0` with a sampling solver name), so the
/// deterministic symmetric solver does not dilute it with zeros.
///
/// Handles are resolved once at construction; every event afterwards is a
/// handful of relaxed atomic operations (plus one short mutex push per
/// deficit sample for the trajectory).
#[derive(Debug)]
pub struct MetricsObserver {
    registry: Arc<MetricsRegistry>,
    slots: Arc<Counter>,
    checkpoints: Arc<Counter>,
    solves: Arc<Counter>,
    bisection_evals: Arc<Counter>,
    batched_candidates: Arc<Counter>,
    frame_resets: Arc<Counter>,
    acceptance: Arc<Histogram>,
    deficit: Arc<Gauge>,
    phase_env: Arc<Histogram>,
    phase_solve: Arc<Histogram>,
    phase_record: Arc<Histogram>,
}

impl MetricsObserver {
    /// Creates the observer, registering (or re-using) every canonical
    /// metric in `registry`.
    pub fn new(registry: Arc<MetricsRegistry>) -> Self {
        // The static bounds above are sorted and finite, so registration
        // cannot fail; `expect` documents the invariant.
        let hist = |name: &str, bounds: &[f64]| {
            registry.histogram(name, bounds).expect("static bucket bounds are valid")
        };
        Self {
            slots: registry.counter("engine_slots_total"),
            checkpoints: registry.counter("engine_checkpoints_total"),
            solves: registry.counter("solver_solves_total"),
            bisection_evals: registry.counter("gsd_bisection_evals_total"),
            batched_candidates: registry.counter("gsd_batched_candidates_total"),
            frame_resets: registry.counter("coca_frame_resets_total"),
            acceptance: hist("gsd_acceptance_ratio", RATIO_BOUNDS),
            deficit: registry.gauge("coca_deficit_queue_kwh"),
            phase_env: hist("engine_phase_env_prep_seconds", TIMER_BOUNDS),
            phase_solve: hist("engine_phase_solve_seconds", TIMER_BOUNDS),
            phase_record: hist("engine_phase_record_seconds", TIMER_BOUNDS),
            registry,
        }
    }

    /// The registry this observer writes into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }
}

impl EngineObserver for MetricsObserver {
    fn on_slot_end(&self, _t: usize, _lanes: usize) {
        self.slots.inc();
    }

    fn on_phase(&self, phase: Phase, elapsed: Duration) {
        let h = match phase {
            Phase::EnvPrep => &self.phase_env,
            Phase::Solve => &self.phase_solve,
            Phase::Record => &self.phase_record,
        };
        h.observe(elapsed.as_secs_f64());
    }

    fn on_checkpoint(&self, _t: usize) {
        self.checkpoints.inc();
    }

    fn timing_enabled(&self) -> bool {
        true
    }
}

impl SolverObserver for MetricsObserver {
    fn on_solve(&self, ev: &SolveEvent) {
        self.solves.inc();
        self.bisection_evals.add(ev.bisection_evals);
        self.batched_candidates.add(ev.batched_candidates);
        // Acceptance ratios are a Markov-chain concept; only sampling
        // solvers report non-degenerate (accepted, iterations) pairs.
        if ev.iterations > 0 && ev.solver.starts_with("gsd") {
            self.acceptance.observe(ev.accepted as f64 / ev.iterations as f64);
        }
    }

    fn on_deficit(&self, t: usize, q: f64) {
        self.deficit.record(t, q);
    }

    fn on_frame_reset(&self, _t: usize) {
        self.frame_resets.inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_the_expected_metrics() {
        let reg = Arc::new(MetricsRegistry::new());
        let obs = MetricsObserver::new(Arc::clone(&reg));
        assert!(EngineObserver::timing_enabled(&obs));

        obs.on_slot_start(0);
        obs.on_phase(Phase::EnvPrep, Duration::from_micros(2));
        obs.on_phase(Phase::Solve, Duration::from_millis(2));
        obs.on_phase(Phase::Record, Duration::from_micros(20));
        obs.on_slot_end(0, 2);
        obs.on_checkpoint(1);

        obs.on_solve(&SolveEvent {
            solver: "gsd",
            iterations: 500,
            accepted: 125,
            bisection_evals: 2000,
            batched_candidates: 420,
        });
        obs.on_solve(&SolveEvent {
            solver: "gsd",
            iterations: 400,
            accepted: 100,
            bisection_evals: 1600,
            batched_candidates: 380,
        });
        obs.on_solve(&SolveEvent {
            solver: "symmetric",
            iterations: 3,
            accepted: 0,
            bisection_evals: 0,
            batched_candidates: 0,
        });
        obs.on_deficit(0, 0.0);
        obs.on_deficit(1, 4.5);
        obs.on_frame_reset(24);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("engine_slots_total"), Some(1));
        assert_eq!(snap.counter("engine_checkpoints_total"), Some(1));
        assert_eq!(snap.counter("solver_solves_total"), Some(3));
        assert_eq!(snap.counter("gsd_bisection_evals_total"), Some(3600));
        assert_eq!(snap.counter("gsd_batched_candidates_total"), Some(800));
        assert_eq!(snap.counter("coca_frame_resets_total"), Some(1));
        // Only the GSD solves contribute acceptance ratios (0.25 each).
        let acc = snap.histogram("gsd_acceptance_ratio").unwrap();
        assert_eq!(acc.count, 2);
        assert!((acc.sum - 0.5).abs() < 1e-12);
        assert_eq!(snap.gauge("coca_deficit_queue_kwh").unwrap().trajectory.len(), 2);
        for name in [
            "engine_phase_env_prep_seconds",
            "engine_phase_solve_seconds",
            "engine_phase_record_seconds",
        ] {
            assert_eq!(snap.histogram(name).unwrap().count, 1, "{name}");
        }
    }
}
