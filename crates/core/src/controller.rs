//! COCA — Algorithm 1 of the paper.
//!
//! Per slot `t`, with carbon-deficit queue length `q(t)` and frame parameter
//! `V_r`:
//!
//! 1. at frame boundaries (`t ≡ 0 mod T`), reset `q` and switch to `V_r`
//!    (lines 2–4);
//! 2. solve **P3**: minimize `V·g(λ⃗, x⃗) + q(t)·[p(λ⃗, x⃗) − r(t)]⁺`
//!    subject to (7)(8)(9) — equivalently a water-filled speed search with
//!    electricity weight `A = V·w(t) + q(t)` and delay weight `W = V·β`
//!    (line 5);
//! 3. after the slot, update the queue with the realized brown energy and
//!    the revealed off-site supply `f(t)` (line 6 / eq. 17).
//!
//! The controller is generic over the [`P3Solver`]: GSD (sequential or
//! distributed) for fidelity, the symmetric solver for speed.

use std::sync::Arc;

use coca_dcsim::dispatch::SlotProblem;
use coca_dcsim::{
    CheckpointError, Cluster, CostParams, Decision, Policy, PolicyTelemetry, SimError,
    SlotFeedback, SlotObservation,
};
use coca_obs::SolverObserver;
use serde::{Deserialize, Serialize, Value};

use crate::deficit::DeficitQueue;
use crate::solver::P3Solver;
use crate::vschedule::VSchedule;

/// Configuration of the COCA controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CocaConfig {
    /// Cost-carbon parameter schedule (one value per frame).
    pub v: VSchedule,
    /// Frame length T in slots; the deficit queue resets every T slots.
    /// Use `horizon` for a single frame (constant V, never reset).
    pub frame_length: usize,
    /// Budgeting-period length J in slots.
    pub horizon: usize,
    /// Capping aggressiveness α (paper eq. 10); α = 1 targets exactly the
    /// off-site renewables + RECs.
    pub alpha: f64,
    /// Total RECs Z purchased for the period (kWh).
    pub rec_total: f64,
}

impl CocaConfig {
    /// Validates ranges and divisibility (J = R·T).
    pub fn validate(&self) -> Result<(), String> {
        self.v.validate()?;
        if self.horizon == 0 {
            return Err("horizon must be positive".into());
        }
        if self.frame_length == 0 || self.frame_length > self.horizon {
            return Err(format!(
                "frame length {} must be in 1..={}",
                self.frame_length, self.horizon
            ));
        }
        if !self.horizon.is_multiple_of(self.frame_length) {
            return Err(format!(
                "horizon {} must be a multiple of the frame length {} (J = R·T)",
                self.horizon, self.frame_length
            ));
        }
        if !(self.alpha > 0.0 && self.alpha.is_finite()) {
            return Err(format!("alpha {} must be positive", self.alpha));
        }
        if !(self.rec_total >= 0.0 && self.rec_total.is_finite()) {
            return Err(format!("rec_total {} must be non-negative", self.rec_total));
        }
        Ok(())
    }

    /// Number of frames R = J/T.
    pub fn num_frames(&self) -> usize {
        self.horizon / self.frame_length
    }
}

/// The COCA online controller (implements [`Policy`]).
///
/// Holds the fleet by `Arc` so it is `Send + 'static` — lockstep engine
/// lanes and sweep workers share the cluster instead of re-borrowing
/// per-run setup state.
pub struct CocaController<S> {
    // audit:transient(fixed at construction; the host rebuilds the controller before restore)
    cluster: Arc<Cluster>,
    // audit:transient(immutable cost model, part of the construction config)
    cost: CostParams,
    // audit:transient(immutable COCA config, part of the construction config)
    cfg: CocaConfig,
    solver: S,
    deficit: DeficitQueue,
    // audit:transient(host-injected callback, re-attached via with_observer)
    observer: Option<Arc<dyn SolverObserver + Send + Sync>>,
    /// Slot index of the most recent decision (backs [`Policy::telemetry`]).
    // audit:transient(overwritten by the next observe() before any read)
    last_t: usize,
    /// Set by `restore` until a decision has checked the restored queue
    /// against the slot the run resumes at.
    resumed: bool,
}

impl<S: P3Solver> CocaController<S> {
    /// Creates a controller. Panics on invalid configuration (constructing
    /// a controller is a programming-time decision; use
    /// [`CocaConfig::validate`] for user-supplied configs).
    pub fn new(cluster: Arc<Cluster>, cost: CostParams, cfg: CocaConfig, solver: S) -> Self {
        cfg.validate().expect("valid CocaConfig");
        cost.validate().expect("valid CostParams");
        let deficit = DeficitQueue::new(cfg.alpha, cfg.rec_total, cfg.horizon);
        Self { cluster, cost, cfg, solver, deficit, observer: None, last_t: 0, resumed: false }
    }

    /// Attaches a solver observer: the controller reports frame resets and
    /// the deficit-queue trajectory (eq. 17) — q(t) at every decision, via
    /// [`SolverObserver::on_deficit`]; a `MetricsObserver` keeps it as the
    /// `coca_deficit_queue_kwh` gauge trajectory. Per-solve events come from
    /// the solver itself — attach the same observer there too (via
    /// [`Self::solver_mut`] or before construction).
    pub fn set_observer(&mut self, observer: Arc<dyn SolverObserver + Send + Sync>) {
        self.observer = Some(observer);
    }

    /// Current carbon-deficit queue length.
    pub fn deficit_len(&self) -> f64 {
        self.deficit.len()
    }

    /// Largest deficit observed so far.
    pub fn max_deficit(&self) -> f64 {
        self.deficit.max_len()
    }

    /// The V in effect for slot `t`.
    pub fn v_at(&self, t: usize) -> f64 {
        self.cfg.v.v_for_frame(t / self.cfg.frame_length)
    }

    /// Borrow the underlying solver (e.g. to read GSD traces).
    pub fn solver(&self) -> &S {
        &self.solver
    }

    /// Mutably borrow the underlying solver (e.g. to attach an observer
    /// after construction).
    pub fn solver_mut(&mut self) -> &mut S {
        &mut self.solver
    }

    /// Configuration accessor.
    pub fn config(&self) -> &CocaConfig {
        &self.cfg
    }
}

impl<S: P3Solver> Policy for CocaController<S> {
    fn name(&self) -> &str {
        "coca"
    }

    fn decide(&mut self, obs: &SlotObservation) -> coca_dcsim::Result<Decision> {
        if self.resumed {
            // A checkpoint is taken between slots, so a restored queue has
            // absorbed every slot of the current frame before `t`. One that
            // disagrees came with a damaged or foreign slot index.
            let (frame, seen) = (self.cfg.frame_length, self.deficit.updates_since_reset());
            let want = if obs.t == 0 { 0 } else { (obs.t - 1) % frame + 1 };
            if seen != want {
                return Err(CheckpointError::Malformed(format!(
                    "restored deficit queue has absorbed {seen} slots of its frame, \
                     but resuming at slot {} needs {want}",
                    obs.t
                ))
                .into());
            }
            self.resumed = false;
        }
        self.last_t = obs.t;
        // Frame boundary: reset the queue so V can be retuned without the
        // previous frame's deficit bleeding over (Algorithm 1 lines 2–4).
        if obs.t.is_multiple_of(self.cfg.frame_length) {
            self.deficit.reset();
            if let Some(o) = &self.observer {
                o.on_frame_reset(obs.t);
            }
        }
        let v = self.v_at(obs.t);
        // audit:unit(usd) — w(t): electricity spot price (USD per kWh; the lint tracks the numerator)
        let w = obs.price;
        let q = self.deficit.len(); // audit:unit(kwh)
        // Paper-invariant hooks: eq. 17 clamping and the Algorithm-1
        // frame-boundary reset discipline.
        let inv = crate::invariant::global();
        inv.deficit_nonnegative(q);
        inv.frame_reset(obs.t, self.cfg.frame_length, self.deficit.updates_since_reset());
        if let Some(o) = &self.observer {
            o.on_deficit(obs.t, q);
        }

        let problem = SlotProblem {
            cluster: &self.cluster,
            arrival_rate: obs.arrival_rate,
            onsite: obs.onsite,
            // audit:allow(unit-flow) — eq. (10): A = V·w + q deliberately adds a price to a kWh queue; the Lyapunov weight is unit-free by construction
            energy_weight: v * w + q,
            delay_weight: v * self.cost.beta,
            gamma: self.cost.gamma,
            pue: self.cost.pue,
        };
        let sol = self.solver.solve(&problem)?;
        // Constraints (8)–(9) on the solver's output before it leaves the
        // controller.
        inv.decision(&sol.levels, &sol.loads, self.cluster.choice_counts(), obs.arrival_rate);
        Ok(Decision { levels: sol.levels, loads: sol.loads })
    }

    fn feedback(&mut self, fb: &SlotFeedback) {
        self.deficit.update(fb.brown_energy, fb.offsite);
    }

    fn reset(&mut self) {
        self.deficit = DeficitQueue::new(self.cfg.alpha, self.cfg.rec_total, self.cfg.horizon);
        self.last_t = 0;
        self.resumed = false;
        self.solver.reset();
    }

    /// COCA's controller internals at the most recent decision: the
    /// deficit-queue length q(t) the solve used (the post-slot feedback
    /// update has not been applied yet when the engine reads this), the
    /// position within the current frame, and the V in effect.
    fn telemetry(&self) -> Option<PolicyTelemetry> {
        Some(PolicyTelemetry {
            deficit_kwh: self.deficit.len(),
            frame_pos: self.last_t % self.cfg.frame_length,
            v: self.v_at(self.last_t),
        })
    }

    /// Captures everything decision-relevant — the carbon-deficit queue and
    /// the solver's warm-start state (via [`P3Solver::snapshot_state`]) —
    /// and nothing that grows with `t`. With a snapshot-capable solver the
    /// restored controller continues bit-identically.
    fn snapshot(&self) -> coca_dcsim::Result<Value> {
        let deficit = self
            .deficit
            .serialize_value()
            .map_err(|e| SimError::Internal(format!("deficit snapshot: {e}")))?;
        Ok(Value::Map(vec![
            ("deficit".to_string(), deficit),
            ("solver".to_string(), self.solver.snapshot_state()?),
        ]))
    }

    fn restore(&mut self, state: &Value) -> coca_dcsim::Result<()> {
        let field = |name: &str| {
            state.get_field(name).ok_or_else(|| {
                SimError::InvalidConfig(format!("coca snapshot missing field `{name}`"))
            })
        };
        let deficit = DeficitQueue::deserialize_value(field("deficit")?)
            .map_err(|e| SimError::InvalidConfig(format!("coca snapshot deficit: {e}")))?;
        self.solver.restore_state(field("solver")?)?;
        self.deficit = deficit;
        self.resumed = true;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetric::SymmetricSolver;
    use coca_dcsim::{run_lockstep, Policy, SimOutcome};
    use coca_traces::{TraceConfig, WorkloadKind};

    /// The q(t) trajectory a `MetricsObserver` recorded, one value per
    /// decision.
    fn deficit_trajectory(registry: &coca_obs::MetricsRegistry) -> Vec<f64> {
        registry
            .snapshot()
            .gauge("coca_deficit_queue_kwh")
            .map(|g| g.trajectory.iter().map(|&(_, q)| q).collect())
            .unwrap_or_default()
    }

    /// A controller reporting to a fresh metrics registry.
    fn observed(
        cluster: &Arc<Cluster>,
        cost: CostParams,
        cfg: CocaConfig,
    ) -> (CocaController<SymmetricSolver>, Arc<coca_obs::MetricsRegistry>) {
        let registry = Arc::new(coca_obs::MetricsRegistry::new());
        let mut coca = CocaController::new(Arc::clone(cluster), cost, cfg, SymmetricSolver::new());
        coca.set_observer(Arc::new(coca_obs::MetricsObserver::new(Arc::clone(&registry))));
        (coca, registry)
    }

    /// Single-lane engine pass.
    fn run_sim(
        cluster: &Arc<Cluster>,
        trace: &coca_traces::EnvironmentTrace,
        cost: CostParams,
        rec_total: f64,
        policy: Box<dyn Policy + '_>,
    ) -> SimOutcome {
        run_lockstep(Arc::clone(cluster), trace, cost, rec_total, vec![policy])
            .unwrap()
            .pop()
            .unwrap()
    }

    fn config(horizon: usize, v: f64, rec: f64) -> CocaConfig {
        CocaConfig {
            v: VSchedule::Constant(v),
            frame_length: horizon,
            horizon,
            alpha: 1.0,
            rec_total: rec,
        }
    }

    fn small_trace(hours: usize) -> coca_traces::EnvironmentTrace {
        TraceConfig {
            hours,
            workload_kind: WorkloadKind::Fiu,
            peak_arrival_rate: 400.0,
            onsite_energy_kwh: 20.0 * hours as f64 / 100.0,
            offsite_energy_kwh: 100.0 * hours as f64 / 100.0,
            ..Default::default()
        }
        .generate()
    }

    #[test]
    fn config_validation() {
        assert!(config(100, 240.0, 0.0).validate().is_ok());
        let mut c = config(100, 240.0, 0.0);
        c.frame_length = 33; // 100 % 33 != 0
        assert!(c.validate().is_err());
        c.frame_length = 0;
        assert!(c.validate().is_err());
        let mut c = config(100, 240.0, 0.0);
        c.alpha = 0.0;
        assert!(c.validate().is_err());
        let mut c = config(100, 240.0, 0.0);
        c.rec_total = -1.0;
        assert!(c.validate().is_err());
        assert_eq!(config(100, 1.0, 0.0).num_frames(), 1);
    }

    #[test]
    fn runs_over_a_trace_and_tracks_deficit() {
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = small_trace(72);
        let cost = CostParams::default();
        let cfg = config(72, 100.0, 50.0);
        let (coca, registry) = observed(&cluster, cost, cfg);
        let out = run_sim(&cluster, &trace, cost, 50.0, Box::new(coca));
        assert_eq!(out.len(), 72);
        let q = deficit_trajectory(&registry);
        assert_eq!(q.len(), 72);
        assert!(q[0] == 0.0, "queue starts empty");
        assert!(out.records.iter().all(|r| r.total_cost.is_finite()));
    }

    #[test]
    fn frame_reset_zeroes_queue() {
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = small_trace(48);
        let cost = CostParams::default();
        // Two frames of 24 slots; near-zero allowance to force a deficit.
        let cfg = CocaConfig {
            v: VSchedule::PerFrame(vec![50.0, 200.0]),
            frame_length: 24,
            horizon: 48,
            alpha: 1.0,
            rec_total: 0.0,
        };
        let (mut coca, registry) = observed(&cluster, cost, cfg);
        let _ = run_sim(&cluster, &trace, cost, 0.0, Box::new(&mut coca));
        let q = deficit_trajectory(&registry);
        // The queue accumulated during frame 0 (tiny allowance)…
        assert!(q[1..24].iter().any(|&q| q > 0.0));
        // …and was reset at the frame boundary (slot 24 decision sees q=0).
        assert_eq!(q[24], 0.0);
        // V switches per frame.
        assert_eq!(coca.v_at(0), 50.0);
        assert_eq!(coca.v_at(24), 200.0);
    }

    #[test]
    fn larger_v_uses_more_electricity() {
        // Fig. 2 qualitative check at small scale: larger V → less weight on
        // the deficit queue → (weakly) more brown energy, lower cost.
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = small_trace(96);
        let cost = CostParams::default();
        let run = |v: f64| {
            let cfg = config(96, v, 10.0);
            let coca = CocaController::new(Arc::clone(&cluster), cost, cfg, SymmetricSolver::new());
            run_sim(&cluster, &trace, cost, 10.0, Box::new(coca))
        };
        let small_v = run(0.05);
        let large_v = run(5000.0);
        assert!(
            large_v.total_brown_energy() >= small_v.total_brown_energy() - 1e-6,
            "V=5000 brown {} < V=0.05 brown {}",
            large_v.total_brown_energy(),
            small_v.total_brown_energy()
        );
        assert!(
            large_v.avg_hourly_cost() <= small_v.avg_hourly_cost() + 1e-9,
            "V=5000 cost {} > V=0.05 cost {}",
            large_v.avg_hourly_cost(),
            small_v.avg_hourly_cost()
        );
    }

    #[test]
    fn gsd_backed_controller_tracks_symmetric_quality() {
        // The controller is solver-generic: a GSD-backed run over a short
        // trace must land within a few percent of the symmetric solver.
        use crate::gsd::{GsdOptions, GsdSolver};
        use coca_opt::schedule::TemperatureSchedule;
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = small_trace(36);
        let cost = CostParams::default();
        let run_with = |use_gsd: bool| -> f64 {
            let cfg = config(36, 200.0, 20.0);
            if use_gsd {
                let solver = GsdSolver::new(GsdOptions {
                    iterations: 600,
                    schedule: TemperatureSchedule::Constant(1e7),
                    seed: 3,
                    ..Default::default()
                });
                let coca = CocaController::new(Arc::clone(&cluster), cost, cfg, solver);
                run_sim(&cluster, &trace, cost, 20.0, Box::new(coca)).avg_hourly_cost()
            } else {
                let coca =
                    CocaController::new(Arc::clone(&cluster), cost, cfg, SymmetricSolver::new());
                run_sim(&cluster, &trace, cost, 20.0, Box::new(coca)).avg_hourly_cost()
            }
        };
        let gsd_cost = run_with(true);
        let sym_cost = run_with(false);
        let rel = (gsd_cost - sym_cost).abs() / sym_cost;
        assert!(rel < 0.05, "gsd {gsd_cost} vs symmetric {sym_cost}");
    }

    #[test]
    fn observer_sees_deficit_frame_and_solve_events() {
        use coca_obs::{MetricsObserver, MetricsRegistry};
        let registry = Arc::new(MetricsRegistry::new());
        let observer = Arc::new(MetricsObserver::new(Arc::clone(&registry)));

        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = small_trace(48);
        let cost = CostParams::default();
        let cfg = CocaConfig {
            v: VSchedule::PerFrame(vec![50.0, 200.0]),
            frame_length: 24,
            horizon: 48,
            alpha: 1.0,
            rec_total: 0.0,
        };
        let mut solver = SymmetricSolver::new();
        solver.set_observer(Arc::clone(&observer) as _);
        let mut coca = CocaController::new(Arc::clone(&cluster), cost, cfg, solver);
        coca.set_observer(Arc::clone(&observer) as _);
        let _ = run_sim(&cluster, &trace, cost, 0.0, Box::new(&mut coca));

        let snap = registry.snapshot();
        assert_eq!(snap.counter("coca_frame_resets_total"), Some(2), "t=0 and t=24");
        assert_eq!(snap.counter("solver_solves_total"), Some(48), "one solve per slot");
        let q = snap.gauge("coca_deficit_queue_kwh").unwrap();
        assert_eq!(q.trajectory.len(), 48, "one deficit sample per decision");
        assert!(
            q.trajectory.iter().enumerate().all(|(t, &(slot, _))| slot == t as u64),
            "one sample per slot, in slot order"
        );
        assert_eq!(q.trajectory[24].1, 0.0, "frame reset before the slot-24 decision");
        // Deterministic solver: no acceptance-ratio samples.
        assert_eq!(snap.histogram("gsd_acceptance_ratio").unwrap().count, 0);
        assert!(coca.solver().stats().iterations > 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let cluster = Arc::new(Cluster::homogeneous(2, 10));
        let cost = CostParams::default();
        let cfg = config(24, 100.0, 5.0);
        let mut coca = CocaController::new(Arc::clone(&cluster), cost, cfg, SymmetricSolver::new());
        coca.feedback(&SlotFeedback {
            t: 0,
            offsite: 0.0,
            brown_energy: 50.0,
            facility_energy: 50.0,
            cost: 1.0,
        });
        assert!(coca.deficit_len() > 0.0);
        Policy::reset(&mut coca);
        assert_eq!(coca.deficit_len(), 0.0);
        assert_eq!(coca.max_deficit(), 0.0);
    }
}
