//! The carbon-unaware cost minimizer.
//!
//! Minimizes the instantaneous cost `g(t) = e(t) + β·d(t)` every slot with
//! no long-term constraint — the `V → ∞` limit of COCA (paper Sec. 5.2.1).
//! The paper uses this policy's annual electricity consumption
//! (1.55×10⁵ MWh in their setup) as the normalization for all energy
//! budgets; run it through the engine like any other policy to obtain that
//! reference quantity (`SimOutcome::total_brown_energy`). The bespoke
//! `simulate`/`annual_consumption` shortcuts were removed with the
//! `SimEngine` refactor — all five controllers run exclusively through the
//! [`Policy`] trait.

use std::sync::Arc;

use coca_core::solver::P3Solver;
use coca_dcsim::dispatch::SlotProblem;
use coca_dcsim::{Cluster, CostParams, Decision, Policy, SimError, SlotObservation};
use serde::Value;

/// Per-slot cost minimizer without carbon awareness.
pub struct CarbonUnaware<S> {
    // audit:transient(fixed at construction; the host rebuilds the policy before restore)
    cluster: Arc<Cluster>,
    // audit:transient(immutable cost model, part of the construction config)
    cost: CostParams,
    solver: S,
}

impl<S: P3Solver> CarbonUnaware<S> {
    /// Creates the policy.
    pub fn new(cluster: Arc<Cluster>, cost: CostParams, solver: S) -> Self {
        cost.validate().expect("valid CostParams");
        Self { cluster, cost, solver }
    }
}

impl<S: P3Solver> Policy for CarbonUnaware<S> {
    fn name(&self) -> &str {
        "carbon-unaware"
    }

    fn decide(&mut self, obs: &SlotObservation) -> coca_dcsim::Result<Decision> {
        let problem = SlotProblem {
            cluster: &self.cluster,
            arrival_rate: obs.arrival_rate,
            onsite: obs.onsite,
            energy_weight: obs.price,
            delay_weight: self.cost.beta,
            gamma: self.cost.gamma,
            pue: self.cost.pue,
        };
        let sol = self.solver.solve(&problem)?;
        // Paper-invariant hooks: constraints (8)–(9) hold for baselines too.
        coca_core::invariant::global().decision(
            &sol.levels,
            &sol.loads,
            self.cluster.choice_counts(),
            obs.arrival_rate,
        );
        Ok(Decision { levels: sol.levels, loads: sol.loads })
    }

    fn reset(&mut self) {
        self.solver.reset();
    }

    /// Only the solver carries evolving state (warm starts).
    fn snapshot(&self) -> coca_dcsim::Result<Value> {
        Ok(Value::Map(vec![("solver".to_string(), self.solver.snapshot_state()?)]))
    }

    fn restore(&mut self, state: &Value) -> coca_dcsim::Result<()> {
        let solver = state.get_field("solver").ok_or_else(|| {
            SimError::InvalidConfig("carbon-unaware snapshot missing field `solver`".into())
        })?;
        self.solver.restore_state(solver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_core::symmetric::SymmetricSolver;
    use coca_dcsim::run_lockstep;
    use coca_traces::{EnvironmentTrace, TraceConfig};

    fn setup() -> (Arc<Cluster>, EnvironmentTrace) {
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = TraceConfig {
            hours: 96,
            peak_arrival_rate: 400.0,
            onsite_energy_kwh: 30.0,
            offsite_energy_kwh: 60.0,
            ..Default::default()
        }
        .generate();
        (cluster, trace)
    }

    fn run(
        cluster: &Arc<Cluster>,
        trace: &EnvironmentTrace,
        rec_total: f64,
    ) -> coca_dcsim::SimOutcome {
        let cost = CostParams::default();
        let policy = CarbonUnaware::new(Arc::clone(cluster), cost, SymmetricSolver::new());
        run_lockstep(Arc::clone(cluster), trace, cost, rec_total, vec![Box::new(policy)])
            .unwrap()
            .pop()
            .unwrap()
    }

    #[test]
    fn simulates_cleanly() {
        let (cluster, trace) = setup();
        let out = run(&cluster, &trace, 0.0);
        assert_eq!(out.len(), 96);
        assert!(out.avg_hourly_cost() > 0.0);
        assert_eq!(out.policy, "carbon-unaware");
    }

    #[test]
    fn consumption_positive_and_stable() {
        let (cluster, trace) = setup();
        let a = run(&cluster, &trace, 0.0).total_brown_energy();
        let b = run(&cluster, &trace, 0.0).total_brown_energy();
        assert!(a > 0.0);
        assert!((a - b).abs() < 1e-9, "deterministic");
    }

    #[test]
    fn ignores_rec_total_for_decisions() {
        let (cluster, trace) = setup();
        let lo = run(&cluster, &trace, 0.0);
        let hi = run(&cluster, &trace, 1e9);
        assert_eq!(lo.cost_series(), hi.cost_series());
        assert!(lo.avg_hourly_deficit() > hi.avg_hourly_deficit(), "only reporting differs");
    }

    #[test]
    fn snapshot_carries_solver_warm_state() {
        let (cluster, _) = setup();
        let cost = CostParams::default();
        let mut p = CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new());
        let obs = SlotObservation { t: 0, arrival_rate: 200.0, onsite: 0.0, price: 0.05 };
        let _ = p.decide(&obs).unwrap();
        let snap = p.snapshot().unwrap();
        assert!(snap.get_field("solver").is_some());
        let mut q = CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new());
        q.restore(&snap).unwrap();
        assert_eq!(
            p.decide(&obs).unwrap().levels,
            q.decide(&obs).unwrap().levels,
            "restored policy decides identically"
        );
        assert!(q.restore(&Value::Null).is_err(), "malformed snapshot rejected");
    }
}
