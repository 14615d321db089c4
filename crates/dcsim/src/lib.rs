//! # coca-dcsim — data-center model and simulators for the COCA reproduction
//!
//! This crate is the substrate that the COCA controller (and every baseline)
//! manages. It implements the model of Sec. 2 of the paper:
//!
//! * [`server`] — DVFS speed ladders and the two-part power model
//!   `p(λ, x) = p_s + p_c(x)·λ/x` (eq. 1), calibrated to the paper's
//!   Powerpack-measured AMD Opteron 2380 numbers.
//! * [`group`] — homogeneous server groups modeled as pooled M/G/1/PS
//!   queues — the paper's own complexity-reduction device for GSD
//!   ("changing speed selections for a whole group of servers in batch").
//! * [`cluster`] — heterogeneous fleets; includes a builder for the paper's
//!   216 K-server / 50 MW / 200-group data center, and each fleet's
//!   queue-type table, built once with the cluster.
//! * [`queueing`] — M/G/1/PS delay-cost formulas (eq. 4) and their validity
//!   conditions.
//! * [`dispatch`] — the bridge to `coca-opt`: optimal load distribution and
//!   P3-objective evaluation for a fixed speed vector.
//! * [`incremental`] — the slot-scoped P3 evaluation kernel behind GSD:
//!   a delta-maintained queue-type multiset in struct-of-arrays lanes and
//!   warm-started water levels.
//! * [`policy`] — the [`Policy`] trait implemented by COCA and all
//!   baselines, plus the per-slot observation/feedback types and the
//!   snapshot/restore hooks behind engine checkpoints.
//! * [`engine`] — the unified simulation runtime: [`SimEngine`] advances
//!   slot-by-slot from a [`SlotSource`] (typed [`PollSlot`] outcomes:
//!   ready / pending / closed), drives N policies in lockstep over one
//!   pass, streams records into [`RecordSink`]s, checkpoints/restores via
//!   a serializable [`EngineState`], and runs resident via
//!   [`SimEngine::run_service`].
//! * [`checkpoint`] — the one versioned, durable on-disk codec for
//!   [`EngineState`], shared by batch resume and the resident service.
//! * [`push`] — the push-capable slot channel behind live ingestion:
//!   bounded queue, blocking backpressure, in-order validation, typed
//!   close semantics.
//! * [`cost`] — the shared [`CostParams`] model (β, γ, PUE, switching).
//! * [`eventsim`] — a discrete-event M/G/1/PS simulator (virtual-time
//!   processor sharing) used to validate the analytic delay model at small
//!   scale; this is the "event-based simulation" of Sec. 5.1.
//! * [`memo`] — the memo of deterministic passes (COCA runs, OPT μ-sweeps)
//!   that one batch context runs once and shares.
//! * [`metrics`] — per-slot records, totals, and the derived series
//!   (cumulative / moving averages) the figures plot.

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod checkpoint;
pub mod cluster;
pub mod cost;
pub mod dispatch;
pub mod engine;
pub mod eventsim;
pub mod group;
pub mod incremental;
pub mod memo;
pub mod metrics;
pub mod policy;
pub mod push;
pub mod queueing;
pub mod server;

mod error;

pub use checkpoint::{read_checkpoint, write_checkpoint, CheckpointError};
pub use cluster::{Cluster, ClusterBuilder, QueueType, QueueTypes};
pub use dispatch::{optimal_dispatch, DispatchOutcome, SlotProblem};
pub use cost::CostParams;
pub use engine::{
    run_lockstep, EngineBuilder, EngineState, LaneState, PollSlot, ServiceConfig, ServiceExit,
    SimEngine, SlotSource, StepStatus,
};
pub use error::SimError;
pub use group::ServerGroup;
pub use incremental::{EvalStats, SlotEvalContext};
pub use memo::{CocaPass, OnceMap, PassCounts, PassMemo, RunSummary, SweepFrame, SweepSummary};
pub use metrics::{DecisionContext, RecordSink, SimOutcome, SlotRecord, SummarySink, VecSink};
pub use policy::{Decision, Policy, PolicyTelemetry, SlotFeedback, SlotObservation, StaticLevels};
pub use push::{push_source, push_source_at, PushError, PushHandle, PushSource};
pub use server::{ServerClass, SpeedLevel};

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SimError>;
