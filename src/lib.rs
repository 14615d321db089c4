//! # coca — facade crate for the COCA (SC'13) reproduction
//!
//! Re-exports the workspace crates under one roof so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`core`] — the COCA online controller (Algorithm 1), the GSD
//!   distributed optimizer (Algorithm 2), the carbon-deficit queue and the
//!   Lyapunov performance bounds (Theorem 2).
//! * [`dcsim`] — the data-center model (heterogeneous servers, DVFS ladders,
//!   M/G/1/PS delay costs, power/PUE accounting) plus the streaming
//!   [`SimEngine`](coca_dcsim::SimEngine) (lockstep multi-policy runs,
//!   checkpoint/resume) and the discrete-event simulator.
//! * [`traces`] — synthetic environment traces: FIU/MSR-style workloads,
//!   solar and wind generation, hourly electricity prices; CSV round-trip.
//! * [`obs`] — the structured observability layer: engine/solver observer
//!   traits, the lock-free metrics registry (JSON + Prometheus exporters),
//!   and the span-style logger behind `repro`'s diagnostics.
//! * [`opt`] — optimization primitives (water-filling, bisection, Gibbs
//!   sampling, Lagrangian duals).
//! * [`baselines`] — PerfectHP, the carbon-unaware minimizer and the offline
//!   OPT benchmarks from the paper's evaluation.
//! * [`serve`] — the resident control service: NDJSON wire protocol,
//!   stream ingestion over the push-capable source, decision publishing,
//!   Prometheus-over-HTTP, and SIGTERM-safe checkpoint/resume.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced figure.

#![deny(missing_docs, unsafe_code)]

pub use coca_baselines as baselines;
pub use coca_core as core;
pub use coca_dcsim as dcsim;
pub use coca_obs as obs;
pub use coca_opt as opt;
pub use coca_serve as serve;
pub use coca_traces as traces;

/// Commonly used items, importable with `use coca::prelude::*`.
///
/// The canonical run surface is the streaming engine —
/// [`EngineBuilder`](coca_dcsim::EngineBuilder), its only constructor, →
/// [`SimEngine`](coca_dcsim::SimEngine) → [`SimOutcome`](coca_dcsim::SimOutcome)
/// — driven either from a batch trace
/// ([`run_lockstep`](coca_dcsim::run_lockstep) for one or many policies) or
/// from a live stream through the push-capable source API ([`push_source`](coca_dcsim::push_source) →
/// [`PollSlot`](coca_dcsim::PollSlot) →
/// [`SimEngine::run_service`](coca_dcsim::SimEngine::run_service)).
/// Observability attaches through the [`coca_obs`] metrics types; solver-level
/// tracing hooks (`SolverObserver` and friends) stay out of the prelude —
/// import them from [`coca_obs`] directly.
pub mod prelude {
    pub use coca_baselines::{CarbonUnaware, OfflineOpt, PerfectHp};
    pub use coca_core::{
        CocaConfig, CocaController, DeficitQueue, GsdOptions, GsdSolver, P3Solver, SolveStats,
        SymmetricSolver, VSchedule,
    };
    pub use coca_dcsim::{
        push_source, run_lockstep, Cluster, ClusterBuilder, CostParams, DecisionContext,
        EngineBuilder, EngineState, PassMemo, Policy, PolicyTelemetry, PollSlot, PushError,
        PushHandle, PushSource, RecordSink, ServerClass, ServiceConfig, ServiceExit, SimEngine,
        SimOutcome, SlotObservation, SlotRecord, SlotSource, StepStatus, SummarySink, VecSink,
    };
    pub use coca_obs::{
        EngineObserver, MetricsObserver, MetricsRegistry, MetricsSnapshot, NoopObserver,
    };
    pub use coca_serve::{DecisionMsg, InMsg, OutMsg, ServeConfig, ServeReport, WireSink};
    pub use coca_traces::{EnvironmentTrace, SlotEnv, TraceConfig};
}
