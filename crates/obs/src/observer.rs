//! The observer trait family: hook points the engine and the solvers call.
//!
//! Both traits take `&self` and are attached as
//! `Arc<dyn … + Send + Sync>`, so one observer instance can watch every
//! lane of a lockstep run (and every worker of a parallel sweep) at once.
//! Implementations must therefore use interior mutability — the provided
//! [`MetricsObserver`](crate::MetricsObserver) uses atomics throughout.
//!
//! Every method has an empty default so implementors subscribe only to the
//! events they care about, and [`NoopObserver`] is the canonical
//! "unobserved" attachment: all of its methods compile to immediate
//! returns, and [`EngineObserver::timing_enabled`] stays `false`, which
//! tells the engine to skip its `Instant::now()` bracketing entirely.

use std::time::Duration;

/// An instrumented phase of `SimEngine::step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Pulling the slot from the source, overload check, observation build.
    EnvPrep,
    /// The per-lane policy decisions (for COCA lanes: the P3 solve).
    Solve,
    /// Dispatch evaluation, energy accounting, sink routing, feedback.
    Record,
}

impl Phase {
    /// Stable lowercase identifier, used as a metric-name suffix.
    pub fn name(self) -> &'static str {
        match self {
            Phase::EnvPrep => "env_prep",
            Phase::Solve => "solve",
            Phase::Record => "record",
        }
    }
}

/// Summary of one P3 solve, emitted by a solver to its
/// [`SolverObserver`] right after the solve completes.
///
/// The counter fields mirror `coca_core::SolveStats` (the solver's
/// own by-reference stats view); GSD chains report proposal/acceptance and
/// kernel work, the symmetric solver reports its descent rounds as
/// `iterations` and leaves the chain-specific fields zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveEvent {
    /// Solver identifier (`"gsd"`, `"gsd-distributed"`, `"symmetric"`, …).
    pub solver: &'static str,
    /// Proposal iterations run (GSD) or descent rounds (symmetric).
    pub iterations: usize,
    /// Accepted proposals (GSD chains; 0 for deterministic solvers).
    pub accepted: usize,
    /// Water-level evaluations spent inside bisections.
    pub bisection_evals: u64,
    /// Candidate batches priced by the struct-of-arrays kernel (0 for
    /// solvers that do not run it).
    pub candidate_batches: u64,
    /// Individual candidates priced across those batches.
    pub batched_candidates: u64,
}

/// Observer of the simulation engine's slot loop.
///
/// Called by `SimEngine::step` (and `checkpoint`). The call order per slot
/// is fixed: `on_slot_start`, then `on_phase(EnvPrep)`, `on_phase(Solve)`,
/// `on_phase(Record)` (only when [`Self::timing_enabled`] returns `true`),
/// then `on_slot_end`.
pub trait EngineObserver: std::fmt::Debug {
    /// Slot `t` is about to be simulated across all lanes.
    fn on_slot_start(&self, _t: usize) {}

    /// Slot `t` finished across `lanes` lanes.
    fn on_slot_end(&self, _t: usize, _lanes: usize) {}

    /// A step phase took `elapsed` wall-clock (summed over lanes for the
    /// per-lane phases). Only called when [`Self::timing_enabled`].
    fn on_phase(&self, _phase: Phase, _elapsed: Duration) {}

    /// The engine serialized a checkpoint at slot boundary `t`.
    fn on_checkpoint(&self, _t: usize) {}

    /// Whether the engine should pay for `Instant::now()` bracketing to
    /// feed [`Self::on_phase`]. Defaults to `false` so a no-op observer
    /// keeps the hot path timer-free.
    fn timing_enabled(&self) -> bool {
        false
    }
}

/// Observer of the COCA controller and its P3 solvers.
pub trait SolverObserver: std::fmt::Debug {
    /// A P3 solve completed.
    fn on_solve(&self, _ev: &SolveEvent) {}

    /// The controller observed carbon-deficit queue length `q` (kWh) at
    /// decision epoch `t` (paper eq. 17).
    fn on_deficit(&self, _t: usize, _q: f64) {}

    /// The controller reset the deficit queue at the frame boundary `t`
    /// (Algorithm 1 lines 2–4).
    fn on_frame_reset(&self, _t: usize) {}
}

/// The do-nothing observer: both traits, all defaults. Attaching it is
/// behaviorally and allocation-wise identical to attaching nothing (the
/// zero-allocation engine test pins this).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl EngineObserver for NoopObserver {}
impl SolverObserver for NoopObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_stable() {
        assert_eq!(Phase::EnvPrep.name(), "env_prep");
        assert_eq!(Phase::Solve.name(), "solve");
        assert_eq!(Phase::Record.name(), "record");
    }

    #[test]
    fn noop_observer_defaults_are_callable() {
        let o = NoopObserver;
        EngineObserver::on_slot_start(&o, 0);
        EngineObserver::on_slot_end(&o, 0, 2);
        EngineObserver::on_phase(&o, Phase::Solve, Duration::from_micros(1));
        EngineObserver::on_checkpoint(&o, 0);
        assert!(!EngineObserver::timing_enabled(&o));
        let ev = SolveEvent {
            solver: "gsd",
            iterations: 10,
            accepted: 3,
            bisection_evals: 40,
            candidate_batches: 0,
            batched_candidates: 0,
        };
        SolverObserver::on_solve(&o, &ev);
        SolverObserver::on_deficit(&o, 1, 2.5);
        SolverObserver::on_frame_reset(&o, 24);
    }
}
