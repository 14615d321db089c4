//! The unified simulation runtime: a streaming slot engine that drives N
//! policies in lockstep over a single slot stream and checkpoints at any
//! slot boundary.
//!
//! Three composable pieces:
//!
//! * [`SlotSource`] — where slots come from. A materialized
//!   [`EnvironmentTrace`] is one impl; [`FnSource`] generates slots on the
//!   fly so unbounded synthetic traces never have to be materialized; a
//!   [`PushSource`](crate::push::PushSource) receives slots pushed by
//!   ingestion threads (sockets, replay drivers). Sources answer a poll
//!   with a typed [`PollSlot`]: `Ready` (here is slot `t`), `Pending` (not
//!   arrived *yet*), or `Closed` (the stream has ended) — so "no more
//!   slots" and "not yet available" are distinct outcomes.
//! * [`SimEngine`] — advances slot-by-slot via [`SimEngine::step`] (or
//!   [`SimEngine::step_wait`], which parks on the source instead of
//!   busy-waiting). Each step prepares the slot environment once
//!   (overestimation, overload check, observation) and then runs every
//!   registered policy lane over it, so an N-policy comparison costs one
//!   pass. For resident processes, [`SimEngine::run_service`] is the
//!   run-forever loop: it drains the source until closed, honors an
//!   external stop flag (e.g. a SIGTERM handler), and emits checkpoints on
//!   a slot cadence and at shutdown.
//! * [`RecordSink`] — where per-slot records go (one stream per lane).
//!   Sinks that need the control decision itself — the wire protocol
//!   served by `coca-serve` — implement
//!   [`RecordSink::record_decision`] and also see the speed vector, the
//!   dispatched load split, and the policy's
//!   [`PolicyTelemetry`](crate::policy::PolicyTelemetry).
//!
//! ## Checkpoint format
//!
//! [`SimEngine::checkpoint`] captures an [`EngineState`]: the next slot
//! index, the run configuration scalars, and one [`LaneState`] per lane
//! (policy name, previous speed vector for switching-energy accounting,
//! and the policy's own [`Policy::snapshot`] value). That is the
//! controller state, O(1) in `t`. A lane's record history rides along only
//! when its sink asks for it through [`RecordSink::collected`]: batch
//! lanes on the default [`VecSink`] do, so a resumed run can still build
//! its [`SimOutcome`]; sinks whose history already left the process (the
//! wire, a running summary) do not, and their checkpoints stay the same
//! size however long the run has been going. [`SimEngine::restore`] is the
//! inverse; the engine/policy contract is that a restored run continues
//! byte-identical to the uninterrupted one. Policies whose solvers carry
//! warm-start state must include it in their snapshot (see
//! `SymmetricSolver`), because warm starts change solve results. The
//! on-disk form is [`crate::checkpoint`]'s versioned codec.
//!
//! ## Observability
//!
//! An [`EngineObserver`] can be attached — via
//! [`EngineBuilder::observer`] or [`SimEngine::set_observer`] — to watch
//! the slot loop: `on_slot_start` / `on_slot_end` around every step,
//! per-phase wall-clock (`EnvPrep` / `Solve` / `Record`) when the observer
//! opts into timing, and `on_checkpoint` at serialization points. The
//! default observer is [`NoopObserver`] and the
//! engine gates every `Instant::now()` on
//! [`timing_enabled`](coca_obs::EngineObserver::timing_enabled), so the
//! unobserved hot path pays only a virtual call to an empty method per
//! event (the zero-allocation test pins that it allocates nothing).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coca_obs::{EngineObserver, NoopObserver, Phase};
use coca_traces::{EnvironmentTrace, SlotEnv};
use serde::{Deserialize, Serialize, Value};

use crate::checkpoint::CheckpointError;
use crate::cluster::Cluster;
use crate::cost::CostParams;
use crate::dispatch::{evaluate_dispatch, SlotProblem};
use crate::metrics::{DecisionContext, RecordSink, SimOutcome, SlotRecord, VecSink};
use crate::policy::{Policy, SlotFeedback, SlotObservation};
use crate::SimError;

/// Outcome of asking a [`SlotSource`] for slot `t`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PollSlot {
    /// The environment for slot `t`.
    Ready(SlotEnv),
    /// Slot `t` has not arrived yet; the stream is still open. Poll (or
    /// [`wait`](SlotSource::wait_slot)) again later.
    Pending,
    /// The stream has ended; slot `t` (and everything after it) will never
    /// arrive.
    Closed,
}

/// A stream of slot environments, addressed by slot index.
///
/// The engine polls slots strictly in order (`0, 1, 2, …`). Pull-style
/// sources (traces, generators) answer `Ready` or `Closed` immediately;
/// push-style sources may answer [`PollSlot::Pending`] while the slot is
/// in flight. The engine never busy-waits on `Pending`: blocking callers
/// go through [`wait_slot`](SlotSource::wait_slot), which a push source
/// overrides to park on its queue.
pub trait SlotSource {
    /// Non-blocking: the current status of slot `t`.
    fn poll_slot(&mut self, t: usize) -> PollSlot;

    /// Blocking poll: waits until slot `t` is `Ready` or `Closed`, or
    /// until `timeout` lapses (then `Pending`). `None` waits indefinitely.
    ///
    /// Default: a single [`poll_slot`](Self::poll_slot) — correct for
    /// pull-style sources, which never answer `Pending`.
    fn wait_slot(&mut self, t: usize, timeout: Option<Duration>) -> PollSlot {
        let _ = timeout;
        self.poll_slot(t)
    }

    /// Number of slots, when known up front (used only for preallocation).
    fn len_hint(&self) -> Option<usize> {
        None
    }

    /// Validates the source before the run starts. Default: nothing to
    /// check (generator sources validate per-slot instead).
    fn validate(&self) -> crate::Result<()> {
        Ok(())
    }
}

impl SlotSource for &EnvironmentTrace {
    fn poll_slot(&mut self, t: usize) -> PollSlot {
        if t < self.len() {
            PollSlot::Ready(EnvironmentTrace::slot(self, t))
        } else {
            PollSlot::Closed
        }
    }
    fn len_hint(&self) -> Option<usize> {
        Some(self.len())
    }
    fn validate(&self) -> crate::Result<()> {
        EnvironmentTrace::validate(self).map_err(SimError::InvalidConfig)
    }
}

/// An owned, shareable materialized trace source.
#[derive(Debug, Clone)]
pub struct TraceSource {
    trace: Arc<EnvironmentTrace>,
}

impl TraceSource {
    /// Wraps a shared trace.
    pub fn new(trace: Arc<EnvironmentTrace>) -> Self {
        Self { trace }
    }
}

impl SlotSource for TraceSource {
    fn poll_slot(&mut self, t: usize) -> PollSlot {
        if t < self.trace.len() {
            PollSlot::Ready(self.trace.slot(t))
        } else {
            PollSlot::Closed
        }
    }
    fn len_hint(&self) -> Option<usize> {
        Some(self.trace.len())
    }
    fn validate(&self) -> crate::Result<()> {
        self.trace.validate().map_err(SimError::InvalidConfig)
    }
}

/// A generator-backed source: slots are produced on demand by a closure,
/// so arbitrarily long synthetic traces run in O(1) memory (pair with
/// [`crate::metrics::SummarySink`] to keep the whole run O(1)).
///
/// The closure returns `Option<SlotEnv>`; `None` maps to the *typed*
/// end-of-stream outcome [`PollSlot::Closed`]. A generator that needs to
/// signal "not yet available" should instead return [`PollSlot`] directly
/// via [`PollFnSource`].
pub struct FnSource<F> {
    generate: F,
    len: Option<usize>,
}

impl<F: FnMut(usize) -> Option<SlotEnv>> FnSource<F> {
    /// Unbounded source; the closure signals the end by returning `None`.
    pub fn new(generate: F) -> Self {
        Self { generate, len: None }
    }

    /// Source truncated to `len` slots (the closure is still consulted and
    /// may end the stream earlier).
    pub fn with_len(generate: F, len: usize) -> Self {
        Self { generate, len: Some(len) }
    }
}

impl<F: FnMut(usize) -> Option<SlotEnv>> SlotSource for FnSource<F> {
    fn poll_slot(&mut self, t: usize) -> PollSlot {
        if self.len.is_some_and(|n| t >= n) {
            return PollSlot::Closed;
        }
        match (self.generate)(t) {
            Some(env) => PollSlot::Ready(env),
            None => PollSlot::Closed,
        }
    }
    fn len_hint(&self) -> Option<usize> {
        self.len
    }
}

/// A generator source whose closure answers with the full typed
/// [`PollSlot`] — for generators that distinguish "not yet available"
/// from "ended" (e.g. adapters over a partially-downloaded feed).
pub struct PollFnSource<F> {
    generate: F,
}

impl<F: FnMut(usize) -> PollSlot> PollFnSource<F> {
    /// Wraps the generator closure.
    pub fn new(generate: F) -> Self {
        Self { generate }
    }
}

impl<F: FnMut(usize) -> PollSlot> SlotSource for PollFnSource<F> {
    fn poll_slot(&mut self, t: usize) -> PollSlot {
        (self.generate)(t)
    }
}

/// Result of one [`SimEngine::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// One slot was simulated across all lanes.
    Advanced,
    /// The next slot has not arrived yet (the source answered
    /// [`PollSlot::Pending`]); nothing was simulated and the engine did
    /// not advance. Try again, or use [`SimEngine::step_wait`].
    Pending,
    /// The source has ended; nothing was simulated.
    Finished,
}

/// One policy lane: the policy, its switching-energy memory, and its
/// record stream.
struct Lane<'p> {
    policy: Box<dyn Policy + 'p>,
    prev_levels: Vec<usize>,
    sink: Box<dyn RecordSink + 'p>,
}

/// Serializable checkpoint of one lane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LaneState {
    /// Policy name at checkpoint time (checked on restore).
    pub policy: String,
    /// Speed vector of the previous slot (switching-energy accounting).
    pub prev_levels: Vec<usize>,
    /// The policy's own [`Policy::snapshot`] value.
    pub policy_state: Value,
    /// The lane's record history since slot 0 when its sink persists one
    /// ([`RecordSink::collected`]); empty otherwise.
    pub records: Vec<SlotRecord>,
}

/// Serializable checkpoint of a whole engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineState {
    /// Next slot index to simulate.
    pub t: usize,
    /// Total RECs Z for the period (kWh) — sanity-checked on restore.
    pub rec_total: f64,
    /// Workload overestimation factor φ.
    pub overestimation: f64,
    /// One state per registered lane, in lane order.
    pub lanes: Vec<LaneState>,
}

/// Configuration for [`SimEngine::run_service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Emit a checkpoint every `n` simulated slots (`None`: only at
    /// shutdown). Must be nonzero.
    pub checkpoint_every: Option<usize>,
    /// How long one [`SimEngine::step_wait`] parks on a quiet source
    /// before the loop rechecks the stop flag. Bounds shutdown latency.
    pub poll_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self { checkpoint_every: None, poll_timeout: Duration::from_millis(100) }
    }
}

/// Why [`SimEngine::run_service`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceExit {
    /// The slot source closed; every delivered slot was simulated.
    Closed,
    /// The stop flag was raised (e.g. SIGTERM); the run halted at a slot
    /// boundary after a final checkpoint.
    Stopped,
}

/// The streaming multi-policy slot engine.
///
/// Construction fixes the fleet, the source, and the cost model; lanes are
/// then added with [`SimEngine::add_policy`] and the run advances with
/// [`SimEngine::step`] / [`SimEngine::run_to_end`] (batch) or
/// [`SimEngine::run_service`] (resident). Lanes see identical
/// observations, so one engine pass replaces N single-policy passes.
pub struct SimEngine<'p, Src> {
    cluster: Arc<Cluster>,
    // audit:transient(slot stream handle; resume re-attaches a source positioned at the restored t)
    source: Src,
    // audit:transient(immutable cost model, part of the construction config)
    cost: CostParams,
    rec_total: f64,
    overestimation: f64,
    // audit:transient(derived once from the cluster at construction)
    max_servable: f64,
    // audit:transient(derived once from the cluster at construction)
    choice_counts: Vec<usize>,
    t: usize,
    lanes: Vec<Lane<'p>>,
    observer: Arc<dyn EngineObserver + Send + Sync>,
    /// Cached `observer.timing_enabled()` so the hot path checks a bool
    /// instead of making a virtual call before every `Instant::now()`.
    // audit:transient(cache of an observer flag; recomputed when the observer is attached)
    timing: bool,
}

impl<'p, Src: SlotSource> SimEngine<'p, Src> {
    /// Creates an engine with no lanes and φ = 1.
    pub fn new(
        cluster: Arc<Cluster>,
        source: Src,
        cost: CostParams,
        rec_total: f64,
    ) -> crate::Result<Self> {
        cost.validate()?;
        if !(rec_total.is_finite() && rec_total >= 0.0) {
            return Err(SimError::InvalidConfig(format!("rec_total {rec_total} invalid")));
        }
        source.validate()?;
        let max_servable = cost.gamma * cluster.max_capacity();
        let choice_counts = cluster.choice_counts();
        Ok(Self {
            cluster,
            source,
            cost,
            rec_total,
            overestimation: 1.0,
            max_servable,
            choice_counts,
            t: 0,
            lanes: Vec::new(),
            observer: Arc::new(NoopObserver),
            timing: false,
        })
    }

    /// Attaches an engine observer (replacing the default no-op one). The
    /// observer's [`timing_enabled`](EngineObserver::timing_enabled)
    /// answer is cached here, so it must be constant per observer.
    pub fn set_observer(&mut self, observer: Arc<dyn EngineObserver + Send + Sync>) {
        self.timing = observer.timing_enabled();
        self.observer = observer;
    }

    /// Sets the workload overestimation factor φ ≥ 1 (paper Fig. 5(c)).
    pub fn set_overestimation(&mut self, phi: f64) -> crate::Result<()> {
        if !(phi.is_finite() && phi >= 1.0) {
            return Err(SimError::InvalidConfig(format!(
                "overestimation factor {phi} must be ≥ 1"
            )));
        }
        self.overestimation = phi;
        Ok(())
    }

    /// Registers a policy lane with the default materializing sink.
    /// Returns the lane index.
    pub fn add_policy(&mut self, policy: Box<dyn Policy + 'p>) -> usize {
        self.add_policy_with_sink(policy, Box::new(VecSink::new()))
    }

    /// Registers a policy lane with a custom record sink.
    pub fn add_policy_with_sink(
        &mut self,
        policy: Box<dyn Policy + 'p>,
        sink: Box<dyn RecordSink + 'p>,
    ) -> usize {
        let prev_levels = self.cluster.all_off_vector();
        self.lanes.push(Lane { policy, prev_levels, sink });
        self.lanes.len() - 1
    }

    /// Next slot index to be simulated.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Number of registered lanes.
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The managed fleet.
    pub fn cluster(&self) -> &Arc<Cluster> {
        &self.cluster
    }

    /// Simulates the next slot across all lanes, without blocking.
    ///
    /// Per slot the engine prepares the environment once — applies φ to
    /// the observed arrival rate, rejects overload against `γ·Σ capacity`
    /// — and then, per lane: asks the policy, validates the decision
    /// (constraints 7–9 plus the paper-invariant hooks), re-dispatches the
    /// planned shares onto the realized rate, accounts energy/switching/
    /// cost into a [`SlotRecord`], and feeds realized values back to the
    /// policy.
    ///
    /// If the source answers [`PollSlot::Pending`], nothing is simulated
    /// and [`StepStatus::Pending`] is returned; the engine position is
    /// unchanged. Use [`step_wait`](Self::step_wait) to park instead.
    pub fn step(&mut self) -> crate::Result<StepStatus> {
        let t = self.t;
        // Timing is opt-in (observer.timing_enabled()): unobserved runs
        // never touch Instant. The source poll below is part of env prep,
        // so its timer starts before on_slot_start fires.
        // audit:ordered(timing-only: durations feed observer timing stats, never decisions or serialized state)
        let env_start = if self.timing { Some(Instant::now()) } else { None };
        match self.source.poll_slot(t) {
            PollSlot::Ready(env) => {
                self.advance_slot(env, env_start)?;
                Ok(StepStatus::Advanced)
            }
            PollSlot::Pending => Ok(StepStatus::Pending),
            PollSlot::Closed => Ok(StepStatus::Finished),
        }
    }

    /// Like [`step`](Self::step), but parks on the source until the next
    /// slot is ready, the stream closes, or `timeout` lapses (then
    /// [`StepStatus::Pending`]). `None` waits indefinitely.
    pub fn step_wait(&mut self, timeout: Option<Duration>) -> crate::Result<StepStatus> {
        let t = self.t;
        // audit:ordered(timing-only: durations feed observer timing stats, never decisions or serialized state)
        let env_start = if self.timing { Some(Instant::now()) } else { None };
        match self.source.wait_slot(t, timeout) {
            PollSlot::Ready(env) => {
                self.advance_slot(env, env_start)?;
                Ok(StepStatus::Advanced)
            }
            PollSlot::Pending => Ok(StepStatus::Pending),
            PollSlot::Closed => Ok(StepStatus::Finished),
        }
    }

    fn advance_slot(&mut self, env: SlotEnv, env_start: Option<Instant>) -> crate::Result<()> {
        let t = self.t;
        self.observer.on_slot_start(t);
        let planned_rate = env.arrival_rate * self.overestimation;
        if planned_rate > self.max_servable {
            return Err(SimError::Overload {
                slot: t,
                arrival_rate: planned_rate,
                max_capacity: self.max_servable,
            });
        }
        let obs = SlotObservation {
            t,
            arrival_rate: planned_rate,
            onsite: env.onsite,
            price: env.price,
        };
        // Re-dispatch scale: planned shares onto the realized arrival rate.
        // φ ≥ 1 only ever scales loads down, so caps stay satisfied.
        let scale = if planned_rate > 0.0 { env.arrival_rate / planned_rate } else { 0.0 };
        if let Some(start) = env_start {
            self.observer.on_phase(Phase::EnvPrep, start.elapsed());
        }

        let mut solve_time = Duration::ZERO;
        let mut record_time = Duration::ZERO;
        for lane in &mut self.lanes {
            let decision = if self.timing {
                // audit:ordered(timing-only: durations feed observer timing stats, never decisions or serialized state)
                let start = Instant::now();
                let d = lane.policy.decide(&obs)?;
                solve_time += start.elapsed();
                d
            } else {
                lane.policy.decide(&obs)?
            };
            // audit:ordered(timing-only: durations feed observer timing stats, never decisions or serialized state)
            let record_start = if self.timing { Some(Instant::now()) } else { None };
            self.cluster.validate_levels(&decision.levels)?;
            decision.validate_totals(planned_rate)?;
            // Paper-invariant hooks: constraints (8) and (9) on what the
            // policy actually returned, independent of the hard validation
            // above (strict mode turns these into unconditional panics).
            coca_opt::invariant::global().decision(
                &decision.levels,
                &decision.loads,
                &self.choice_counts,
                planned_rate,
            );

            let actual_loads: Vec<f64> = decision.loads.iter().map(|l| l * scale).collect();
            let problem = SlotProblem {
                cluster: &self.cluster,
                arrival_rate: env.arrival_rate,
                onsite: env.onsite,
                energy_weight: env.price,
                delay_weight: self.cost.beta,
                gamma: self.cost.gamma,
                pue: self.cost.pue,
            };
            let outcome = evaluate_dispatch(&problem, &decision.levels, &actual_loads)?;

            // Switching energy: servers transitioning off → on.
            let turned_on: usize = self
                .cluster
                .groups()
                .iter()
                .zip(lane.prev_levels.iter().zip(&decision.levels))
                .map(|(g, (&prev, &cur))| if prev == 0 && cur > 0 { g.count } else { 0 })
                .sum();
            let switching_energy = turned_on as f64 * self.cost.switch_energy_kwh;

            // Slot energy (kWh) equals power (kW) over the 1-hour slot;
            // switching draw cannot be offset by the on-site supply that
            // was already netted in `outcome.brown`.
            let facility_energy = outcome.facility_power + switching_energy;
            let brown_energy = outcome.brown + switching_energy;
            let electricity_cost = env.price * brown_energy;
            let delay_cost = self.cost.beta * outcome.delay;
            let total_cost = electricity_cost + delay_cost;

            let record = SlotRecord {
                t,
                arrival_rate: env.arrival_rate,
                price: env.price,
                onsite: env.onsite,
                offsite: env.offsite,
                facility_energy,
                brown_energy,
                switching_energy,
                electricity_cost,
                delay_cost,
                total_cost,
                delay: outcome.delay,
                servers_on: self.cluster.servers_on(&decision.levels),
            };
            let ctx = DecisionContext {
                levels: &decision.levels,
                loads: &actual_loads,
                telemetry: lane.policy.telemetry(),
            };
            lane.sink.record_decision(&record, &ctx).map_err(SimError::Internal)?;

            lane.policy.feedback(&SlotFeedback {
                t,
                offsite: env.offsite,
                brown_energy,
                facility_energy,
                cost: total_cost,
            });
            lane.prev_levels = decision.levels;
            if let Some(start) = record_start {
                record_time += start.elapsed();
            }
        }
        if self.timing {
            self.observer.on_phase(Phase::Solve, solve_time);
            self.observer.on_phase(Phase::Record, record_time);
        }
        self.t += 1;
        self.observer.on_slot_end(t, self.lanes.len());
        Ok(())
    }

    /// Steps until the source closes; returns the number of slots
    /// simulated by this call. Blocks (via [`SlotSource::wait_slot`] with
    /// no timeout) while slots are in flight; a source that answers
    /// `Pending` from an unbounded wait cannot make progress and is
    /// reported as a configuration error rather than spun on.
    pub fn run_to_end(&mut self) -> crate::Result<usize> {
        let mut advanced = 0;
        loop {
            match self.step_wait(None)? {
                StepStatus::Advanced => advanced += 1,
                StepStatus::Pending => {
                    return Err(SimError::InvalidConfig(
                        "slot source answered Pending from an unbounded wait; \
                         drive this source with step_wait(timeout) or run_service"
                            .to_string(),
                    ))
                }
                StepStatus::Finished => return Ok(advanced),
            }
        }
    }

    /// The resident-process loop: drains the source until it closes,
    /// checkpointing every [`ServiceConfig::checkpoint_every`] slots and
    /// once more at shutdown, and halting at the next slot boundary when
    /// `stop` is raised (a SIGTERM handler flips that flag).
    ///
    /// `on_checkpoint` receives every emitted [`EngineState`]; persist it
    /// with [`crate::checkpoint::write_checkpoint`] (durable write +
    /// rename) to make restarts crash-consistent.
    pub fn run_service(
        &mut self,
        cfg: &ServiceConfig,
        stop: &AtomicBool,
        mut on_checkpoint: impl FnMut(&EngineState) -> crate::Result<()>,
    ) -> crate::Result<ServiceExit> {
        if cfg.checkpoint_every == Some(0) {
            return Err(SimError::InvalidConfig(
                "checkpoint_every must be nonzero".to_string(),
            ));
        }
        loop {
            // audit:atomic(signal-handler flag; SeqCst read pairs with the handler's store)
            if stop.load(Ordering::SeqCst) {
                on_checkpoint(&self.checkpoint()?)?;
                return Ok(ServiceExit::Stopped);
            }
            match self.step_wait(Some(cfg.poll_timeout))? {
                StepStatus::Advanced => {
                    if let Some(n) = cfg.checkpoint_every {
                        if self.t.is_multiple_of(n) {
                            on_checkpoint(&self.checkpoint()?)?;
                        }
                    }
                }
                StepStatus::Pending => {}
                StepStatus::Finished => {
                    on_checkpoint(&self.checkpoint()?)?;
                    return Ok(ServiceExit::Closed);
                }
            }
        }
    }

    /// Runs to the end of the source and returns one [`SimOutcome`] per
    /// lane ([`run_to_end`](Self::run_to_end) +
    /// [`into_outcomes`](Self::into_outcomes)).
    pub fn run_and_finish(mut self) -> crate::Result<Vec<SimOutcome>> {
        self.run_to_end()?;
        self.into_outcomes()
    }

    /// Finishes the run and produces one [`SimOutcome`] per lane, in lane
    /// order, from each sink's [`RecordSink::take_records`]. Errors if any
    /// lane's sink keeps no records at all. An outcome covers exactly the
    /// records its sink kept: the whole run for a [`VecSink`], only the
    /// slots decided since the process started for a sink whose history is
    /// not checkpointed.
    pub fn into_outcomes(self) -> crate::Result<Vec<SimOutcome>> {
        let rec_total = self.rec_total;
        self.lanes
            .into_iter()
            .map(|mut lane| {
                let records = lane.sink.take_records().ok_or_else(|| {
                    SimError::InvalidConfig(format!(
                        "lane `{}` uses a non-materializing sink; read the sink instead",
                        lane.policy.name()
                    ))
                })?;
                Ok(SimOutcome { policy: lane.policy.name().to_string(), records, rec_total })
            })
            .collect()
    }

    /// Serializes the run state at the current slot boundary.
    ///
    /// Each lane contributes its controller state, plus its record history
    /// when the sink persists one ([`RecordSink::collected`]). Call between
    /// steps — typically at frame boundaries (`t % frame_length == 0`) so
    /// COCA's deficit queue is at a natural reset point, though any
    /// boundary is exact.
    pub fn checkpoint(&self) -> crate::Result<EngineState> {
        let lanes = self
            .lanes
            .iter()
            .map(|lane| {
                Ok(LaneState {
                    policy: lane.policy.name().to_string(),
                    prev_levels: lane.prev_levels.clone(),
                    policy_state: lane.policy.snapshot()?,
                    records: lane.sink.collected().map_or_else(Vec::new, <[SlotRecord]>::to_vec),
                })
            })
            .collect::<crate::Result<Vec<_>>>()?;
        self.observer.on_checkpoint(self.t);
        Ok(EngineState {
            t: self.t,
            rec_total: self.rec_total,
            overestimation: self.overestimation,
            lanes,
        })
    }

    /// Restores a checkpoint into this engine. The engine must have been
    /// constructed with the same cluster/source/cost configuration and the
    /// same lanes (same policies, same order) as the checkpointed one.
    ///
    /// Lanes whose sink persists its history ([`RecordSink::collected`])
    /// get it back through [`RecordSink::restore_records`], and must find
    /// exactly one record per slot before `state.t` — otherwise the state
    /// is rejected with [`CheckpointError::HistoryLength`] rather than
    /// resumed with a silently missing prefix. Every shape check runs
    /// before any lane is touched.
    // audit:allow(snapshot-complete) checkpoint only *notifies* self.observer; it is injected at construction, not restored state
    pub fn restore(&mut self, state: &EngineState) -> crate::Result<()> {
        if state.lanes.len() != self.lanes.len() {
            return Err(SimError::InvalidConfig(format!(
                "checkpoint has {} lanes, engine has {}",
                state.lanes.len(),
                self.lanes.len()
            )));
        }
        if (state.rec_total - self.rec_total).abs() > 1e-9 {
            return Err(SimError::InvalidConfig(format!(
                "checkpoint rec_total {} does not match engine {}",
                state.rec_total, self.rec_total
            )));
        }
        for (lane, ls) in self.lanes.iter().zip(&state.lanes) {
            if lane.policy.name() != ls.policy {
                return Err(SimError::InvalidConfig(format!(
                    "checkpoint lane `{}` does not match engine lane `{}`",
                    ls.policy,
                    lane.policy.name()
                )));
            }
            if ls.prev_levels.len() != self.cluster.num_groups() {
                return Err(SimError::InvalidConfig(format!(
                    "checkpoint prev_levels has {} groups, cluster has {}",
                    ls.prev_levels.len(),
                    self.cluster.num_groups()
                )));
            }
            if lane.sink.collected().is_some() && ls.records.len() != state.t {
                return Err(CheckpointError::HistoryLength {
                    lane: ls.policy.clone(),
                    records: ls.records.len(),
                    t: state.t,
                }
                .into());
            }
        }
        for (lane, ls) in self.lanes.iter_mut().zip(&state.lanes) {
            lane.policy.restore(&ls.policy_state)?;
            if lane.sink.collected().is_some() {
                lane.sink.restore_records(&ls.records).map_err(SimError::Internal)?;
            }
            lane.prev_levels = ls.prev_levels.clone();
        }
        self.overestimation = state.overestimation;
        self.t = state.t;
        Ok(())
    }
}

/// Fluent constructor for [`SimEngine`]: collects the run configuration
/// (φ, RECs, observer, lanes) and assembles the engine in one
/// [`build`](EngineBuilder::build) call, so adding a knob never grows the
/// positional `SimEngine::new` signature again. The same builder serves
/// batch runs (`build(&trace)` + `run_to_end`) and resident services
/// (`build(push_source)` + `run_service`).
///
/// ```
/// # use std::sync::Arc;
/// # use coca_dcsim::{CostParams, EngineBuilder, StaticLevels};
/// # use coca_dcsim::cluster::Cluster;
/// # use coca_traces::TraceConfig;
/// let cluster = Arc::new(Cluster::homogeneous(2, 10));
/// let trace = TraceConfig { hours: 4, peak_arrival_rate: 50.0, ..Default::default() }.generate();
/// let cost = CostParams::default();
/// let mut engine = EngineBuilder::new(Arc::clone(&cluster), cost)
///     .rec_total(5.0)
///     .overestimation(1.1)
///     .policy(Box::new(StaticLevels::full_speed(cluster, cost)))
///     .build(&trace)
///     .unwrap();
/// engine.run_to_end().unwrap();
/// ```
#[must_use = "a builder does nothing until `build` is called"]
pub struct EngineBuilder<'p> {
    cluster: Arc<Cluster>,
    cost: CostParams,
    rec_total: f64,
    overestimation: f64,
    observer: Option<Arc<dyn EngineObserver + Send + Sync>>,
    lanes: Vec<(Box<dyn Policy + 'p>, Box<dyn RecordSink + 'p>)>,
}

impl<'p> EngineBuilder<'p> {
    /// Starts a builder for `cluster` under `cost`; defaults are
    /// `rec_total = 0`, `φ = 1`, no observer, no lanes.
    pub fn new(cluster: Arc<Cluster>, cost: CostParams) -> Self {
        Self {
            cluster,
            cost,
            rec_total: 0.0,
            overestimation: 1.0,
            observer: None,
            lanes: Vec::new(),
        }
    }

    /// Total RECs Z for the period (kWh); validated by `build`.
    pub fn rec_total(mut self, z: f64) -> Self {
        self.rec_total = z;
        self
    }

    /// Workload overestimation factor φ ≥ 1; validated by `build`.
    pub fn overestimation(mut self, phi: f64) -> Self {
        self.overestimation = phi;
        self
    }

    /// Attaches an engine observer (see [`SimEngine::set_observer`]).
    pub fn observer(mut self, observer: Arc<dyn EngineObserver + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Adds a policy lane with the default materializing [`VecSink`].
    pub fn policy(self, policy: Box<dyn Policy + 'p>) -> Self {
        self.policy_with_sink(policy, Box::new(VecSink::new()))
    }

    /// Adds a policy lane with a custom record sink.
    pub fn policy_with_sink(
        mut self,
        policy: Box<dyn Policy + 'p>,
        sink: Box<dyn RecordSink + 'p>,
    ) -> Self {
        self.lanes.push((policy, sink));
        self
    }

    /// Validates the configuration and assembles the engine over `source`.
    pub fn build<Src: SlotSource>(self, source: Src) -> crate::Result<SimEngine<'p, Src>> {
        let mut engine = SimEngine::new(self.cluster, source, self.cost, self.rec_total)?;
        engine.set_overestimation(self.overestimation)?;
        if let Some(observer) = self.observer {
            engine.set_observer(observer);
        }
        for (policy, sink) in self.lanes {
            engine.add_policy_with_sink(policy, sink);
        }
        Ok(engine)
    }
}

/// Convenience: runs `policies` in lockstep over a materialized trace and
/// returns one [`SimOutcome`] per policy, in input order.
pub fn run_lockstep<'p>(
    cluster: Arc<Cluster>,
    trace: &EnvironmentTrace,
    cost: CostParams,
    rec_total: f64,
    policies: Vec<Box<dyn Policy + 'p>>,
) -> crate::Result<Vec<SimOutcome>> {
    let mut engine = SimEngine::new(cluster, trace, cost, rec_total)?;
    for p in policies {
        engine.add_policy(p);
    }
    engine.run_to_end()?;
    engine.into_outcomes()
}

/// Convenience: runs one policy over a trace with an overestimation factor
/// and returns its outcome (the old single-policy simulator's semantics).
pub fn run_single<'p>(
    cluster: Arc<Cluster>,
    trace: &EnvironmentTrace,
    cost: CostParams,
    rec_total: f64,
    overestimation: f64,
    policy: Box<dyn Policy + 'p>,
) -> crate::Result<SimOutcome> {
    let mut engine = SimEngine::new(cluster, trace, cost, rec_total)?;
    engine.set_overestimation(overestimation)?;
    engine.add_policy(policy);
    engine.run_to_end()?;
    engine
        .into_outcomes()?
        .pop()
        .ok_or_else(|| SimError::Internal("engine produced no outcome".to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SummarySink;
    use crate::policy::{Decision, StaticLevels};
    use crate::push::push_source;
    use coca_traces::TraceConfig;

    fn small() -> (Arc<Cluster>, EnvironmentTrace, CostParams) {
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = TraceConfig {
            hours: 48,
            peak_arrival_rate: 400.0,
            onsite_energy_kwh: 50.0,
            offsite_energy_kwh: 100.0,
            ..Default::default()
        }
        .generate();
        (cluster, trace, CostParams::default())
    }

    #[test]
    fn lockstep_matches_sequential_passes() {
        let (cluster, trace, cost) = small();
        let mk = |levels: Vec<usize>| {
            Box::new(StaticLevels::new(Arc::clone(&cluster), cost, levels).unwrap())
                as Box<dyn Policy>
        };
        let full = cluster.full_speed_vector();
        // Second lane: one group powered off (capacity still covers peak).
        let mut partial = full.clone();
        partial[0] = 0;

        let lockstep = run_lockstep(
            Arc::clone(&cluster),
            &trace,
            cost,
            10.0,
            vec![mk(full.clone()), mk(partial.clone())],
        )
        .unwrap();

        for (levels, got) in [full, partial].into_iter().zip(&lockstep) {
            let solo =
                run_lockstep(Arc::clone(&cluster), &trace, cost, 10.0, vec![mk(levels)]).unwrap();
            assert_eq!(&solo[0], got, "lockstep lane must equal its solo pass");
        }
    }

    #[test]
    fn step_reports_finished_at_end() {
        let (cluster, trace, cost) = small();
        let mut engine =
            SimEngine::new(Arc::clone(&cluster), &trace, cost, 0.0).unwrap();
        engine.add_policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)));
        let n = engine.run_to_end().unwrap();
        assert_eq!(n, 48);
        assert_eq!(engine.t(), 48);
        assert_eq!(engine.step().unwrap(), StepStatus::Finished);
        let outs = engine.into_outcomes().unwrap();
        assert_eq!(outs[0].len(), 48);
    }

    #[test]
    fn generator_source_streams_without_materialization() {
        let (cluster, _, cost) = small();
        let source = || {
            FnSource::with_len(
                |t| {
                    Some(SlotEnv {
                        t,
                        arrival_rate: 200.0 + 100.0 * (t as f64 * 0.3).sin(),
                        onsite: 20.0,
                        price: 0.05,
                        offsite: 30.0,
                    })
                },
                1000,
            )
        };
        let mut engine = SimEngine::new(Arc::clone(&cluster), source(), cost, 0.0).unwrap();
        engine.add_policy_with_sink(
            Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)),
            Box::new(SummarySink::new()),
        );
        assert_eq!(engine.run_to_end().unwrap(), 1000);
        // A summary lane checkpoints its controller state only, and the
        // state restores into a fresh summary lane.
        let state = engine.checkpoint().unwrap();
        assert!(state.lanes[0].records.is_empty());
        let mut resumed = SimEngine::new(Arc::clone(&cluster), source(), cost, 0.0).unwrap();
        resumed.add_policy_with_sink(
            Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)),
            Box::new(SummarySink::new()),
        );
        resumed.restore(&state).unwrap();
        assert_eq!(resumed.t(), 1000);
        assert_eq!(resumed.checkpoint().unwrap(), state);
        // It still cannot produce a SimOutcome.
        assert!(engine.into_outcomes().is_err());
    }

    /// A state without history must not resume into a lane that keeps
    /// one: the lane would silently lose the run's prefix.
    #[test]
    fn collecting_lane_rejects_a_records_less_state() {
        let (cluster, trace, cost) = small();
        let mk = || Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost));
        let mut summary = SimEngine::new(Arc::clone(&cluster), &trace, cost, 0.0).unwrap();
        summary.add_policy_with_sink(mk(), Box::new(SummarySink::new()));
        for _ in 0..10 {
            assert_eq!(summary.step().unwrap(), StepStatus::Advanced);
        }
        let state = summary.checkpoint().unwrap();

        let mut batch = SimEngine::new(Arc::clone(&cluster), &trace, cost, 0.0).unwrap();
        batch.add_policy(mk());
        match batch.restore(&state) {
            Err(SimError::Checkpoint(CheckpointError::HistoryLength { records, t, .. })) => {
                assert_eq!((records, t), (0, 10));
            }
            other => panic!("expected a HistoryLength error, got {other:?}"),
        }
        assert_eq!(batch.t(), 0, "a rejected state leaves the engine untouched");
    }

    /// Regression for the old `Option<SlotEnv>` API, which conflated "no
    /// more slots" with "not yet available": a pending push stream must
    /// *not* finish the run, and the engine must not advance past it.
    #[test]
    fn pending_source_is_not_end_of_stream() {
        let (cluster, trace, cost) = small();
        let (handle, source) = push_source(8);
        let mut engine = SimEngine::new(Arc::clone(&cluster), source, cost, 0.0).unwrap();
        engine.add_policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)));

        // Empty-but-open: Pending, no advance — repeatedly.
        assert_eq!(engine.step().unwrap(), StepStatus::Pending);
        assert_eq!(engine.step().unwrap(), StepStatus::Pending);
        assert_eq!(engine.t(), 0);

        handle.push(trace.slot(0)).unwrap();
        assert_eq!(engine.step().unwrap(), StepStatus::Advanced);
        assert_eq!(engine.t(), 1);
        assert_eq!(engine.step().unwrap(), StepStatus::Pending, "drained but open");

        // Only an explicit close ends the stream.
        handle.close();
        assert_eq!(engine.step().unwrap(), StepStatus::Finished);
        assert_eq!(engine.t(), 1);
    }

    #[test]
    fn pushed_slots_match_batch_run_bit_exact() {
        let (cluster, trace, cost) = small();
        let reference = run_lockstep(
            Arc::clone(&cluster),
            &trace,
            cost,
            10.0,
            vec![Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost))],
        )
        .unwrap();

        let (handle, source) = push_source(4);
        let mut engine = SimEngine::new(Arc::clone(&cluster), source, cost, 10.0).unwrap();
        engine.add_policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)));
        let feeder = {
            let trace = trace.clone();
            std::thread::spawn(move || {
                for t in 0..trace.len() {
                    handle.push(trace.slot(t)).unwrap();
                }
                // Dropping the handle closes the stream.
            })
        };
        engine.run_to_end().unwrap();
        feeder.join().unwrap();
        let outs = engine.into_outcomes().unwrap();
        assert_eq!(outs[0], reference[0], "pushed run must equal the batch run");
    }

    #[test]
    fn run_service_checkpoints_on_cadence_and_exits_on_close() {
        let (cluster, trace, cost) = small();
        let (handle, source) = push_source(64);
        let mut engine = SimEngine::new(Arc::clone(&cluster), source, cost, 0.0).unwrap();
        engine.add_policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)));
        for t in 0..10 {
            handle.push(trace.slot(t)).unwrap();
        }
        handle.close();

        let stop = AtomicBool::new(false);
        let mut checkpoints = Vec::new();
        let cfg = ServiceConfig { checkpoint_every: Some(4), ..Default::default() };
        let exit = engine
            .run_service(&cfg, &stop, |st| {
                checkpoints.push(st.t);
                Ok(())
            })
            .unwrap();
        assert_eq!(exit, ServiceExit::Closed);
        assert_eq!(engine.t(), 10);
        // Cadence at t = 4, 8, plus the final checkpoint at close.
        assert_eq!(checkpoints, vec![4, 8, 10]);

        // Zero cadence is rejected.
        let bad = ServiceConfig { checkpoint_every: Some(0), ..Default::default() };
        let (_h, source) = push_source(1);
        let mut engine = SimEngine::new(Arc::clone(&cluster), source, cost, 0.0).unwrap();
        assert!(engine.run_service(&bad, &stop, |_| Ok(())).is_err());
    }

    #[test]
    fn run_service_stop_flag_halts_at_boundary_with_checkpoint() {
        let (cluster, trace, cost) = small();
        let (handle, source) = push_source(64);
        let mut engine = SimEngine::new(Arc::clone(&cluster), source, cost, 0.0).unwrap();
        engine.add_policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)));
        for t in 0..5 {
            handle.push(trace.slot(t)).unwrap();
        }
        // Stream stays open: without the stop flag the loop would park
        // forever on the quiet source.
        let stop = AtomicBool::new(false);
        let mut final_state = None;
        let cfg = ServiceConfig {
            poll_timeout: Duration::from_millis(5),
            ..Default::default()
        };
        let exit = std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(50));
                stop.store(true, Ordering::SeqCst);
            });
            engine.run_service(&cfg, &stop, |st| {
                final_state = Some(st.clone());
                Ok(())
            })
        })
        .unwrap();
        assert_eq!(exit, ServiceExit::Stopped);
        let st = final_state.expect("stop must emit a final checkpoint");
        assert_eq!(st.t, 5, "all queued slots drained before the stop");
        assert_eq!(st.lanes[0].records.len(), 5);
        drop(handle);
    }

    #[test]
    fn run_to_end_rejects_nonblocking_pending_source() {
        let (cluster, _, cost) = small();
        // A PollFnSource that answers Pending cannot block, so an
        // unbounded wait would spin; the engine reports it instead.
        let source = PollFnSource::new(|_| PollSlot::Pending);
        let mut engine = SimEngine::new(Arc::clone(&cluster), source, cost, 0.0).unwrap();
        engine.add_policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)));
        assert!(matches!(engine.run_to_end(), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn checkpoint_restore_is_exact() {
        let (cluster, trace, cost) = small();
        let cost = CostParams { switch_energy_kwh: 0.0231, ..cost };
        let mk = || {
            Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)) as Box<dyn Policy>
        };

        // Uninterrupted reference run.
        let reference =
            run_lockstep(Arc::clone(&cluster), &trace, cost, 5.0, vec![mk()]).unwrap();

        // Run to slot 20, checkpoint, round-trip through JSON, resume in a
        // brand-new engine.
        let mut engine = SimEngine::new(Arc::clone(&cluster), &trace, cost, 5.0).unwrap();
        engine.add_policy(mk());
        for _ in 0..20 {
            assert_eq!(engine.step().unwrap(), StepStatus::Advanced);
        }
        let json = serde_json::to_string(&engine.checkpoint().unwrap()).unwrap();
        drop(engine);

        let state: EngineState = serde_json::from_str(&json).unwrap();
        let mut resumed = SimEngine::new(Arc::clone(&cluster), &trace, cost, 5.0).unwrap();
        resumed.add_policy(mk());
        resumed.restore(&state).unwrap();
        assert_eq!(resumed.t(), 20);
        resumed.run_to_end().unwrap();
        let outs = resumed.into_outcomes().unwrap();
        assert_eq!(outs[0], reference[0], "resumed run must be byte-identical");
    }

    #[test]
    fn restore_rejects_mismatched_shapes() {
        let (cluster, trace, cost) = small();
        let mut engine = SimEngine::new(Arc::clone(&cluster), &trace, cost, 0.0).unwrap();
        engine.add_policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)));
        let mut state = engine.checkpoint().unwrap();
        state.lanes.clear();
        assert!(engine.restore(&state).is_err(), "lane-count mismatch");
        let mut state = engine.checkpoint().unwrap();
        state.lanes[0].policy = "someone-else".into();
        assert!(engine.restore(&state).is_err(), "policy-name mismatch");
        let mut state = engine.checkpoint().unwrap();
        state.rec_total = 99.0;
        assert!(engine.restore(&state).is_err(), "rec_total mismatch");
    }

    #[test]
    fn builder_assembles_a_configured_engine() {
        let (cluster, trace, cost) = small();
        let built = EngineBuilder::new(Arc::clone(&cluster), cost)
            .rec_total(10.0)
            .policy(Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)))
            .build(&trace)
            .unwrap()
            .run_and_finish()
            .unwrap();
        let direct = run_lockstep(
            Arc::clone(&cluster),
            &trace,
            cost,
            10.0,
            vec![Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost))],
        )
        .unwrap();
        assert_eq!(built, direct);

        // Builder validation mirrors the setters'.
        assert!(EngineBuilder::new(Arc::clone(&cluster), cost)
            .overestimation(0.5)
            .build(&trace)
            .is_err());
    }

    #[test]
    fn engine_validates_configuration() {
        let (cluster, trace, _) = small();
        let bad = CostParams { gamma: 1.5, ..Default::default() };
        assert!(SimEngine::new(Arc::clone(&cluster), &trace, bad, 0.0).is_err());
        assert!(
            SimEngine::new(Arc::clone(&cluster), &trace, CostParams::default(), -1.0).is_err()
        );
        let mut ok =
            SimEngine::new(Arc::clone(&cluster), &trace, CostParams::default(), 0.0).unwrap();
        assert!(ok.set_overestimation(0.5).is_err());
        assert!(ok.set_overestimation(1.2).is_ok());
    }

    // ——— ported from the retired `SlotSimulator` facade ———

    #[test]
    fn run_produces_one_record_per_slot() {
        let (cluster, trace, cost) = small();
        let out = run_single(
            Arc::clone(&cluster),
            &trace,
            cost,
            10.0,
            1.0,
            Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)),
        )
        .unwrap();
        assert_eq!(out.len(), 48);
        assert_eq!(out.policy, "static-levels");
        for r in &out.records {
            assert!(r.total_cost > 0.0);
            assert!(r.facility_energy > 0.0);
            assert!((r.total_cost - r.electricity_cost - r.delay_cost).abs() < 1e-9);
            assert_eq!(r.servers_on, 80);
        }
    }

    #[test]
    fn switching_cost_charged_on_power_up() {
        let (cluster, trace, _) = small();
        let cost = CostParams { switch_energy_kwh: 0.0231, ..Default::default() };
        let out = run_single(
            Arc::clone(&cluster),
            &trace,
            cost,
            10.0,
            1.0,
            Box::new(StaticLevels::full_speed(Arc::clone(&cluster), cost)),
        )
        .unwrap();
        // All 80 servers power on in slot 0, then stay on.
        assert!((out.records[0].switching_energy - 80.0 * 0.0231).abs() < 1e-9);
        assert_eq!(out.records[1].switching_energy, 0.0);
    }

    #[test]
    fn overestimation_scales_observation_not_reality() {
        let (cluster, trace, cost) = small();
        /// Wraps the canonical static-levels policy and records what it saw.
        struct Probe {
            inner: StaticLevels,
            seen: Vec<f64>,
        }
        impl Policy for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn decide(&mut self, obs: &SlotObservation) -> crate::Result<Decision> {
                self.seen.push(obs.arrival_rate);
                self.inner.decide(obs)
            }
        }
        let mut policy =
            Probe { inner: StaticLevels::full_speed(Arc::clone(&cluster), cost), seen: vec![] };
        let out = run_single(
            Arc::clone(&cluster),
            &trace,
            cost,
            10.0,
            1.2,
            Box::new(&mut policy as &mut dyn Policy),
        )
        .unwrap();
        for (seen, r) in policy.seen.iter().zip(&out.records) {
            assert!((seen - r.arrival_rate * 1.2).abs() < 1e-6, "observation inflated by φ");
        }
    }

    #[test]
    fn invalid_decisions_are_rejected() {
        let (cluster, trace, cost) = small();
        struct Dropper;
        impl Policy for Dropper {
            fn name(&self) -> &str {
                "dropper"
            }
            fn decide(&mut self, obs: &SlotObservation) -> crate::Result<Decision> {
                // Drops half the workload: forbidden by constraint (8).
                Ok(Decision { levels: vec![4; 4], loads: vec![obs.arrival_rate / 8.0; 4] })
            }
        }
        let got = run_single(Arc::clone(&cluster), &trace, cost, 10.0, 1.0, Box::new(Dropper));
        assert!(matches!(got, Err(SimError::InvalidDecision(_))));
    }

    #[test]
    fn overload_detected_upfront() {
        let cluster = Arc::new(Cluster::homogeneous(1, 1)); // 10 req/s max
        let trace = TraceConfig {
            hours: 4,
            peak_arrival_rate: 100.0,
            onsite_energy_kwh: 0.0,
            offsite_energy_kwh: 0.0,
            ..Default::default()
        }
        .generate();
        struct Any;
        impl Policy for Any {
            fn name(&self) -> &str {
                "any"
            }
            fn decide(&mut self, _: &SlotObservation) -> crate::Result<Decision> {
                unreachable!("engine must detect overload before asking")
            }
        }
        let got = run_single(
            Arc::clone(&cluster),
            &trace,
            CostParams::default(),
            0.0,
            1.0,
            Box::new(Any),
        );
        assert!(matches!(got, Err(SimError::Overload { .. })));
    }
}
