//! PerfectHP — the prediction-based heuristic of the paper's Fig. 3.
//!
//! From Sec. 5.2.2: *"The data center operator leverages 48-hour-ahead
//! prediction of hourly workloads and allocates the carbon budget (RECs
//! plus offsite renewables, but not including the on-site renewables) in
//! proportion to the hourly workloads. The operator minimizes the cost
//! subject to the allocated hourly carbon budget; if no feasible solution
//! exists for a particular hour (e.g., workload burst), the operator will
//! minimize the cost without considering the hourly carbon budget."*
//!
//! Interpretation (documented in DESIGN.md): the horizon is tiled with
//! 48-hour windows; each window is granted the off-site renewable energy
//! realized within it plus an even share of the RECs (`Z·48/J`), and the
//! window's budget is split across its hours proportionally to the
//! (perfectly predicted) workloads. The prediction really is perfect —
//! that's the paper's point: even with oracle short-term forecasts, myopic
//! budget allocation loses to COCA's deficit-queue feedback.

use std::sync::Arc;

use coca_core::solver::{P3Solution, P3Solver};
use coca_dcsim::{Cluster, CostParams, Decision, Policy, SimError, SlotObservation};
use coca_opt::dual::{solve_budget_dual, DualOptions, DualOutcome};
use coca_traces::EnvironmentTrace;
use serde::{Deserialize as _, Serialize as _, Value};

use crate::budgeted::solve_penalized;

/// The PerfectHP policy.
pub struct PerfectHp<S> {
    // audit:transient(fixed at construction; the host rebuilds the policy before restore)
    cluster: Arc<Cluster>,
    // audit:transient(immutable cost model, part of the construction config)
    cost: CostParams,
    solver: S,
    /// Per-hour carbon budgets, precomputed for the whole horizon.
    // audit:transient(precomputed from the trace at construction, never mutated)
    hourly_budget: Vec<f64>,
    /// Hours whose budget had to be abandoned (diagnostics).
    pub abandoned_hours: usize,
}

impl<S: P3Solver> PerfectHp<S> {
    /// Builds the policy from the full trace (used as the oracle predictor)
    /// and the REC total `Z`. `window` is the prediction horizon in slots
    /// (the paper uses 48).
    pub fn new(
        cluster: Arc<Cluster>,
        cost: CostParams,
        trace: &EnvironmentTrace,
        rec_total: f64,
        window: usize,
    ) -> Result<Self, SimError>
    where
        S: Default,
    {
        Self::with_solver(cluster, cost, trace, rec_total, window, S::default())
    }

    /// Same as [`PerfectHp::new`] with an explicit solver.
    pub fn with_solver(
        cluster: Arc<Cluster>,
        cost: CostParams,
        trace: &EnvironmentTrace,
        rec_total: f64,
        window: usize,
        solver: S,
    ) -> Result<Self, SimError> {
        cost.validate()?;
        if window == 0 {
            return Err(SimError::InvalidConfig("window must be positive".into()));
        }
        if trace.is_empty() {
            return Err(SimError::InvalidConfig("empty trace".into()));
        }
        let j = trace.len();
        let mut hourly_budget = vec![0.0; j];
        let mut start = 0;
        while start < j {
            let end = (start + window).min(j);
            let offsite: f64 = trace.offsite[start..end].iter().sum();
            let recs = rec_total * (end - start) as f64 / j as f64;
            let budget = offsite + recs;
            let workload: f64 = trace.workload[start..end].iter().sum();
            for (b, w) in hourly_budget[start..end].iter_mut().zip(&trace.workload[start..end]) {
                *b = if workload > 0.0 { budget * w / workload } else { budget / (end - start) as f64 };
            }
            start = end;
        }
        Ok(Self { cluster, cost, solver, hourly_budget, abandoned_hours: 0 })
    }

    /// The hourly budget series (kWh).
    pub fn budgets(&self) -> &[f64] {
        &self.hourly_budget
    }
}

/// Minimizes the hour's cost subject to its brown-energy budget; an
/// unattainable budget comes back flagged with the μ = 0 (uncapped)
/// solution, the paper's rule for an hour with no feasible solution.
fn cap_hour<S: P3Solver>(
    solver: &mut S,
    cluster: &Cluster,
    cost: &CostParams,
    obs: &SlotObservation,
    budget: f64,
) -> Result<DualOutcome<P3Solution>, SimError> {
    solve_budget_dual(
        |mu| solve_penalized(solver, cluster, cost, obs, mu),
        budget.max(0.0),
        obs.price.max(1e-3),
        DualOptions { budget_rel_tol: 1e-6, max_iter: 60, max_doublings: 60 },
    )
}

impl<S: P3Solver> Policy for PerfectHp<S> {
    fn name(&self) -> &str {
        "perfect-hp"
    }

    fn decide(&mut self, obs: &SlotObservation) -> coca_dcsim::Result<Decision> {
        let budget = *self.hourly_budget.get(obs.t).ok_or_else(|| {
            SimError::InvalidConfig(format!(
                "slot {} beyond the planned horizon {}",
                obs.t,
                self.hourly_budget.len()
            ))
        })?;
        let DualOutcome { plan, attainable, .. } =
            cap_hour(&mut self.solver, &self.cluster, &self.cost, obs, budget)?;
        if !attainable {
            self.abandoned_hours += 1;
        }
        // Paper-invariant hooks: constraints (8)–(9) hold for baselines too.
        coca_core::invariant::global().decision(
            &plan.levels,
            &plan.loads,
            self.cluster.choice_counts(),
            obs.arrival_rate,
        );
        Ok(Decision { levels: plan.levels, loads: plan.loads })
    }

    fn reset(&mut self) {
        self.abandoned_hours = 0;
        self.solver.reset();
    }

    /// The budget schedule is immutable after construction; only the
    /// abandoned-hour diagnostic and the solver's warm state evolve.
    fn snapshot(&self) -> coca_dcsim::Result<Value> {
        let abandoned = self
            .abandoned_hours
            .serialize_value()
            .map_err(|e| SimError::Internal(format!("perfect-hp snapshot: {e}")))?;
        Ok(Value::Map(vec![
            ("abandoned_hours".to_string(), abandoned),
            ("solver".to_string(), self.solver.snapshot_state()?),
        ]))
    }

    fn restore(&mut self, state: &Value) -> coca_dcsim::Result<()> {
        let field = |name: &str| {
            state.get_field(name).ok_or_else(|| {
                SimError::InvalidConfig(format!("perfect-hp snapshot missing field `{name}`"))
            })
        };
        let abandoned = usize::deserialize_value(field("abandoned_hours")?)
            .map_err(|e| SimError::InvalidConfig(format!("perfect-hp snapshot: {e}")))?;
        self.solver.restore_state(field("solver")?)?;
        self.abandoned_hours = abandoned;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::symmetric::SymmetricSolver;
    use coca_dcsim::dispatch::SlotProblem;
    use coca_dcsim::run_lockstep;
    use coca_traces::TraceConfig;

    fn setup(hours: usize) -> (Arc<Cluster>, EnvironmentTrace) {
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = TraceConfig {
            hours,
            peak_arrival_rate: 400.0,
            onsite_energy_kwh: 0.1 * hours as f64,
            offsite_energy_kwh: 1.5 * hours as f64,
            ..Default::default()
        }
        .generate();
        (cluster, trace)
    }

    #[test]
    fn budgets_sum_to_total_allowance() {
        let (cluster, trace) = setup(96);
        let rec = 50.0;
        let hp: PerfectHp<SymmetricSolver> =
            PerfectHp::new(Arc::clone(&cluster), CostParams::default(), &trace, rec, 48).unwrap();
        let total: f64 = hp.budgets().iter().sum();
        let allowance = trace.total_offsite() + rec;
        assert!((total - allowance).abs() < 1e-6, "{total} vs {allowance}");
    }

    #[test]
    fn budgets_track_workload_within_window() {
        let (cluster, trace) = setup(96);
        let hp: PerfectHp<SymmetricSolver> =
            PerfectHp::new(Arc::clone(&cluster), CostParams::default(), &trace, 10.0, 48).unwrap();
        // Within the first window, the ratio budget/workload is constant.
        let k0 = hp.budgets()[0] / trace.workload[0];
        for t in 1..48 {
            let k = hp.budgets()[t] / trace.workload[t];
            assert!((k - k0).abs() < 1e-9 * k0.abs().max(1.0), "proportional allocation");
        }
    }

    #[test]
    fn runs_over_trace() {
        let (cluster, trace) = setup(96);
        let cost = CostParams::default();
        let hp: PerfectHp<SymmetricSolver> =
            PerfectHp::new(Arc::clone(&cluster), cost, &trace, 30.0, 48).unwrap();
        let out = run_lockstep(Arc::clone(&cluster), &trace, cost, 30.0, vec![Box::new(hp)])
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(out.len(), 96);
        assert!(out.avg_hourly_cost() > 0.0);
    }

    #[test]
    fn generous_budget_behaves_like_carbon_unaware() {
        let (cluster, mut trace) = setup(72);
        // Inflate the off-site series so every hourly budget is slack.
        for f in trace.offsite.iter_mut() {
            *f *= 1e6;
        }
        let cost = CostParams::default();
        let mut hp: PerfectHp<SymmetricSolver> =
            PerfectHp::new(Arc::clone(&cluster), cost, &trace, 0.0, 48).unwrap();
        let cu = crate::carbon_unaware::CarbonUnaware::new(
            Arc::clone(&cluster),
            cost,
            SymmetricSolver::new(),
        );
        // One lockstep engine pass: both lanes see identical observations.
        let mut outs = run_lockstep(
            Arc::clone(&cluster),
            &trace,
            cost,
            0.0,
            vec![Box::new(&mut hp), Box::new(cu)],
        )
        .unwrap();
        let cu_out = outs.pop().unwrap();
        let hp_out = outs.pop().unwrap();
        assert!(
            (hp_out.avg_hourly_cost() - cu_out.avg_hourly_cost()).abs()
                < 1e-6 * cu_out.avg_hourly_cost(),
            "slack budget ⇒ unconstrained behaviour"
        );
        assert_eq!(hp.abandoned_hours, 0);
    }

    fn cap(onsite: f64, budget: f64) -> DualOutcome<P3Solution> {
        let cluster = Cluster::homogeneous(6, 10);
        let obs = SlotObservation { t: 0, arrival_rate: 200.0, onsite, price: 0.05 };
        cap_hour(&mut SymmetricSolver::new(), &cluster, &CostParams::default(), &obs, budget).unwrap()
    }

    #[test]
    fn hour_caps_bind_when_attainable_and_drop_when_not() {
        let free = cap(0.0, 1e9);
        assert_eq!((free.mu, free.sweeps, free.attainable), (0.0, 1, true));
        // A tight cap binds; discrete speeds allow a 5% quantization overshoot.
        let budget = free.total_usage * 0.7;
        let tight = cap(0.0, budget);
        assert!(tight.attainable && tight.mu > 0.0);
        assert!(tight.total_usage <= budget * 1.05, "brown {} over {budget}", tight.total_usage);
        assert!(tight.total_cost >= free.total_cost - 1e-9, "capping cannot reduce cost");
        // Serving 200 req/s needs servers on; their static power floor can
        // never fit a near-zero budget, so the hour runs uncapped.
        let floor = cap(0.0, 1e-6);
        assert!(!floor.attainable);
        assert_eq!((floor.mu, floor.total_usage.to_bits()), (0.0, free.total_usage.to_bits()));
        // On-site renewables that cover everything make a zero budget attainable.
        let covered = cap(1e6, 0.0);
        assert!(covered.attainable);
        assert_eq!(covered.total_usage, 0.0);
    }

    /// A [`SymmetricSolver`] that records the energy weight (price + μ) of
    /// every solve, and fails every solve above `fail_above` when set.
    #[derive(Default)]
    struct Recording {
        inner: SymmetricSolver,
        weights: Vec<f64>,
        fail_above: Option<f64>,
    }

    impl P3Solver for Recording {
        fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError> {
            self.weights.push(problem.energy_weight);
            match self.fail_above {
                Some(w) if problem.energy_weight > w => Err(SimError::Internal("no solve".into())),
                _ => self.inner.solve(problem),
            }
        }
        fn name(&self) -> &'static str {
            "recording"
        }
    }

    #[test]
    fn no_two_consecutive_solves_share_a_multiplier() {
        // On this fleet and load the μ bisection of each budget below stops
        // on a probe (or lands on `mu_hi`), so the landing asks for a μ the
        // solver has just solved.
        let cluster = Cluster::scaled_paper_datacenter(8, 200);
        let cost = CostParams::default();
        let obs =
            SlotObservation { t: 0, arrival_rate: 0.6 * cluster.max_capacity(), onsite: 0.0, price: 0.05 };
        let free = cap_hour(&mut SymmetricSolver::new(), &cluster, &cost, &obs, 1e9).unwrap();
        for share in [0.88, 0.8, 0.72] {
            let mut solver = Recording::default();
            let capped = cap_hour(&mut solver, &cluster, &cost, &obs, share * free.total_usage).unwrap();
            let weights = &solver.weights;
            assert!(capped.attainable);
            assert_eq!(capped.sweeps, weights.len());
            for pair in weights.windows(2) {
                assert_ne!(pair[0].to_bits(), pair[1].to_bits(), "μ solved twice in a row: {weights:?}");
            }
        }
    }

    #[test]
    fn a_failing_solve_is_returned_not_taken_for_an_abandoned_hour() {
        let (cluster, trace) = setup(24);
        let price = trace.price[0];
        let solver = Recording { fail_above: Some(price), ..Recording::default() };
        let mut hp = PerfectHp::with_solver(cluster, CostParams::default(), &trace, 0.0, 24, solver)
            .unwrap();
        // The μ = 0 solve exceeds a zero budget, so the search probes μ > 0.
        hp.hourly_budget[0] = 0.0;
        let obs = SlotObservation { t: 0, arrival_rate: trace.workload[0], onsite: 0.0, price };
        let err = hp.decide(&obs).unwrap_err();
        assert!(matches!(&err, SimError::Internal(msg) if msg == "no solve"), "{err}");
        assert_eq!((hp.abandoned_hours, hp.solver.weights.len()), (0, 2));
    }

    #[test]
    fn zero_window_rejected() {
        let (cluster, trace) = setup(24);
        let r: Result<PerfectHp<SymmetricSolver>, _> =
            PerfectHp::new(Arc::clone(&cluster), CostParams::default(), &trace, 0.0, 0);
        assert!(r.is_err());
    }

    #[test]
    fn partial_final_window_handled() {
        let (cluster, trace) = setup(50); // 48 + 2
        let hp: PerfectHp<SymmetricSolver> =
            PerfectHp::new(Arc::clone(&cluster), CostParams::default(), &trace, 100.0, 48).unwrap();
        assert_eq!(hp.budgets().len(), 50);
        let total: f64 = hp.budgets().iter().sum();
        assert!((total - (trace.total_offsite() + 100.0)).abs() < 1e-6);
    }
}
