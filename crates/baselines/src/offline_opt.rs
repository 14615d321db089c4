//! OPT — the offline benchmark with complete future knowledge.
//!
//! Fig. 5 compares COCA against "the optimal offline algorithm (OPT), which
//! has the complete offline information and minimizes the operational cost
//! under carbon neutrality". The long-term constraint
//! `Σ y(t) ≤ budget` is dualized with a multiplier μ ≥ 0; the horizon then
//! decouples into per-slot problems `min g(t) + μ·y(t)` with exactly the
//! P3 shape, and the optimal μ is found by bisection
//! ([`coca_opt::dual::solve_budget_dual`]). For the continuous relaxation
//! this is the exact optimum; with discrete speed ladders the duality gap
//! is tiny (one slot's quantization at the crossover), and the solution is
//! feasible by construction.
//!
//! [`OfflineOpt::plan_lookahead`] plans each frame of `T` slots separately
//! against the frame budget `Σ_frame f(t) + Z/R` — the paper's **P2**
//! family of T-step lookahead benchmarks used in Theorem 2.

use coca_core::solver::P3Solver;
use coca_dcsim::{Cluster, CostParams, Decision, Policy, SimError, SlotObservation};
use coca_opt::dual::{solve_budget_dual, DualOptions};
use coca_traces::EnvironmentTrace;
use serde::{Deserialize as _, Serialize as _, Value};

use crate::budgeted::solve_penalized;

/// A precomputed offline-optimal schedule, replayable as a [`Policy`].
pub struct OfflineOpt {
    // audit:transient(immutable precomputed plan; only the replay cursor is run state)
    decisions: Vec<Decision>,
    /// Speed-set sizes of the cluster the plan was made for (constraint-9
    /// invariant checks at replay time).
    // audit:transient(immutable precomputed plan; only the replay cursor is run state)
    choice_counts: Vec<usize>,
    /// The multiplier(s) found by the dual search, one per planned frame.
    // audit:transient(immutable precomputed plan; only the replay cursor is run state)
    pub multipliers: Vec<f64>,
    /// Plain cost of every planned slot.
    // audit:transient(immutable precomputed plan; only the replay cursor is run state)
    pub planned_costs: Vec<f64>,
    /// Brown energy of every planned slot.
    // audit:transient(immutable precomputed plan; only the replay cursor is run state)
    pub planned_brown: Vec<f64>,
    cursor: usize,
}

impl OfflineOpt {
    /// Plans the whole horizon against a single long-term brown-energy
    /// budget (kWh).
    pub fn plan<S: P3Solver>(
        cluster: &Cluster,
        cost: CostParams,
        trace: &EnvironmentTrace,
        budget: f64,
        solver: &mut S,
    ) -> Result<Self, SimError> {
        Self::plan_lookahead(cluster, cost, trace, budget, trace.len(), solver)
    }

    /// Plans frame-by-frame: each frame of `frame_len` slots gets the
    /// budget share `Σ_frame f(t) + budget_recs/R` where `budget_recs` is
    /// the REC part of the budget. Here the caller passes the *total*
    /// budget; it is apportioned as `budget · frame_hours / J` plus the
    /// difference between the frame's off-site share and the average —
    /// i.e. exactly `Σ_frame f(t) + (budget − Σ f)·frame_hours/J`.
    pub fn plan_lookahead<S: P3Solver>(
        cluster: &Cluster,
        cost: CostParams,
        trace: &EnvironmentTrace,
        budget: f64,
        frame_len: usize,
        solver: &mut S,
    ) -> Result<Self, SimError> {
        cost.validate()?;
        if trace.is_empty() {
            return Err(SimError::InvalidConfig("empty trace".into()));
        }
        if frame_len == 0 {
            return Err(SimError::InvalidConfig("frame length must be positive".into()));
        }
        if !(budget.is_finite() && budget >= 0.0) {
            return Err(SimError::InvalidConfig(format!("budget {budget} invalid")));
        }
        let j = trace.len();
        let total_offsite = trace.total_offsite();
        let rec_part = (budget - total_offsite).max(0.0);

        let mut decisions: Vec<Option<Decision>> = vec![None; j];
        let mut planned_costs = vec![0.0; j];
        let mut planned_brown = vec![0.0; j];
        let mut multipliers = Vec::new();

        let mut start = 0;
        while start < j {
            let end = (start + frame_len).min(j);
            let frame_offsite: f64 = trace.offsite[start..end].iter().sum();
            let frame_budget = if frame_len >= j {
                budget
            } else {
                frame_offsite + rec_part * (end - start) as f64 / j as f64
            };

            // Per-slot dual subproblem: minimize g + μ·y.
            let mut err: Option<SimError> = None;
            let outcome = {
                let mut slot_fn = |slot: usize, mu: f64| -> (f64, f64) {
                    let t = start + slot;
                    let obs = SlotObservation {
                        t,
                        arrival_rate: trace.workload[t],
                        onsite: trace.onsite[t],
                        price: trace.price[t],
                    };
                    match solve_penalized(solver, cluster, &cost, &obs, mu) {
                        Ok((sol, g, y)) => {
                            decisions[t] = Some(Decision { levels: sol.levels, loads: sol.loads });
                            planned_costs[t] = g;
                            planned_brown[t] = y;
                            (g, y)
                        }
                        Err(e) => {
                            err = Some(e);
                            (f64::NAN, f64::NAN)
                        }
                    }
                };
                // Each dual sweep re-solves the whole frame; a per-mille
                // budget tolerance keeps the sweep count near 10 (6–11 per
                // binding budget point at small scale) while staying far
                // below the discrete-speed quantization error.
                let opts = DualOptions { budget_rel_tol: 2e-3, max_iter: 22, max_doublings: 40 };
                solve_budget_dual(&mut slot_fn, end - start, frame_budget, opts)
            };
            if let Some(e) = err {
                return Err(e);
            }
            let outcome = outcome.map_err(SimError::Opt)?;
            multipliers.push(outcome.mu);
            start = end;
        }

        // The final dual sweep plans every slot; a gap would be a solver
        // bug, surfaced as a typed error rather than a panic.
        let decisions = decisions
            .into_iter()
            .enumerate()
            .map(|(t, d)| {
                d.ok_or_else(|| {
                    SimError::Internal(format!("slot {t} left unplanned by the final dual sweep"))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            decisions,
            choice_counts: cluster.choice_counts(),
            multipliers,
            planned_costs,
            planned_brown,
            cursor: 0,
        })
    }

    /// Total planned cost `Σ g(t)`.
    pub fn total_planned_cost(&self) -> f64 {
        self.planned_costs.iter().sum()
    }

    /// Total planned brown energy `Σ y(t)`.
    pub fn total_planned_brown(&self) -> f64 {
        self.planned_brown.iter().sum()
    }

    /// Number of planned slots.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }

    /// True when no slots were planned.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }
}

impl Policy for OfflineOpt {
    fn name(&self) -> &str {
        "offline-opt"
    }

    fn decide(&mut self, obs: &SlotObservation) -> coca_dcsim::Result<Decision> {
        let d = self.decisions.get(obs.t).cloned().ok_or_else(|| {
            SimError::InvalidConfig(format!("slot {} beyond planned horizon {}", obs.t, self.decisions.len()))
        })?;
        self.cursor = obs.t + 1;
        // Paper-invariant hooks: the replayed plan must still satisfy
        // constraints (8)–(9) for the observed slot.
        coca_core::invariant::global().decision(&d.levels, &d.loads, &self.choice_counts, obs.arrival_rate);
        Ok(d)
    }

    fn reset(&mut self) {
        self.cursor = 0;
    }

    /// The plan itself is immutable; only the replay cursor evolves.
    fn snapshot(&self) -> coca_dcsim::Result<Value> {
        let cursor = self
            .cursor
            .serialize_value()
            .map_err(|e| SimError::Internal(format!("offline-opt snapshot: {e}")))?;
        Ok(Value::Map(vec![("cursor".to_string(), cursor)]))
    }

    fn restore(&mut self, state: &Value) -> coca_dcsim::Result<()> {
        let cursor = state.get_field("cursor").ok_or_else(|| {
            SimError::InvalidConfig("offline-opt snapshot missing field `cursor`".into())
        })?;
        self.cursor = usize::deserialize_value(cursor)
            .map_err(|e| SimError::InvalidConfig(format!("offline-opt snapshot: {e}")))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::carbon_unaware::CarbonUnaware;
    use coca_core::symmetric::SymmetricSolver;
    use coca_dcsim::{run_lockstep, SimOutcome};
    use coca_traces::TraceConfig;
    use std::sync::Arc;

    fn setup(hours: usize) -> (Arc<Cluster>, EnvironmentTrace) {
        let cluster = Arc::new(Cluster::homogeneous(4, 20));
        let trace = TraceConfig {
            hours,
            peak_arrival_rate: 400.0,
            onsite_energy_kwh: 0.1 * hours as f64,
            offsite_energy_kwh: 1.0 * hours as f64,
            ..Default::default()
        }
        .generate();
        (cluster, trace)
    }

    /// Carbon-unaware reference run through the engine (the budget
    /// normalization the paper derives from this policy's consumption).
    fn unaware_run(cluster: &Arc<Cluster>, cost: CostParams, trace: &EnvironmentTrace) -> SimOutcome {
        let cu = CarbonUnaware::new(Arc::clone(cluster), cost, SymmetricSolver::new());
        run_lockstep(Arc::clone(cluster), trace, cost, 0.0, vec![Box::new(cu)])
            .unwrap()
            .pop()
            .unwrap()
    }

    fn unaware_consumption(cluster: &Arc<Cluster>, cost: CostParams, trace: &EnvironmentTrace) -> f64 {
        unaware_run(cluster, cost, trace).total_brown_energy()
    }

    #[test]
    fn meets_the_budget() {
        let (cluster, trace) = setup(96);
        let cost = CostParams::default();
        let unaware = unaware_consumption(&cluster, cost, &trace);
        let budget = unaware * 0.85;
        let mut solver = SymmetricSolver::new();
        let opt = OfflineOpt::plan(&cluster, cost, &trace, budget, &mut solver).unwrap();
        assert!(
            opt.total_planned_brown() <= budget * 1.01,
            "planned brown {} vs budget {budget}",
            opt.total_planned_brown()
        );
        assert_eq!(opt.multipliers.len(), 1);
        assert!(opt.multipliers[0] > 0.0, "tight budget needs a positive multiplier");
    }

    #[test]
    fn slack_budget_matches_carbon_unaware() {
        let (cluster, trace) = setup(72);
        let cost = CostParams::default();
        let mut solver = SymmetricSolver::new();
        let opt = OfflineOpt::plan(&cluster, cost, &trace, 1e12, &mut solver).unwrap();
        assert_eq!(opt.multipliers, vec![0.0]);
        let cu = unaware_run(&cluster, cost, &trace);
        assert!(
            (opt.total_planned_cost() - cu.total_cost()).abs() < 1e-6 * cu.total_cost(),
            "μ=0 plan equals carbon-unaware: {} vs {}",
            opt.total_planned_cost(),
            cu.total_cost()
        );
    }

    #[test]
    fn replay_through_simulator_matches_plan() {
        let (cluster, trace) = setup(72);
        let cost = CostParams::default();
        let mut solver = SymmetricSolver::new();
        let budget = unaware_consumption(&cluster, cost, &trace) * 0.9;
        let mut opt = OfflineOpt::plan(&cluster, cost, &trace, budget, &mut solver).unwrap();
        let out = run_lockstep(Arc::clone(&cluster), &trace, cost, 0.0, vec![Box::new(&mut opt)])
            .unwrap()
            .pop()
            .unwrap();
        assert!((out.total_cost() - opt.total_planned_cost()).abs() < 1e-6 * out.total_cost());
        assert!(
            (out.total_brown_energy() - opt.total_planned_brown()).abs()
                < 1e-6 * out.total_brown_energy().max(1.0)
        );
    }

    #[test]
    fn tighter_budget_costs_more() {
        let (cluster, trace) = setup(72);
        let cost = CostParams::default();
        let unaware = unaware_consumption(&cluster, cost, &trace);
        let mut last = -1.0;
        for frac in [1.0, 0.92, 0.85] {
            let mut solver = SymmetricSolver::new();
            let opt =
                OfflineOpt::plan(&cluster, cost, &trace, unaware * frac, &mut solver).unwrap();
            assert!(
                opt.total_planned_cost() >= last - 1e-6,
                "cost must grow as budget tightens"
            );
            last = opt.total_planned_cost();
        }
    }

    #[test]
    fn lookahead_frames_cover_horizon() {
        let (cluster, trace) = setup(96);
        let cost = CostParams::default();
        let unaware = unaware_consumption(&cluster, cost, &trace);
        let mut solver = SymmetricSolver::new();
        let opt = OfflineOpt::plan_lookahead(&cluster, cost, &trace, unaware * 0.9, 24, &mut solver)
            .unwrap();
        assert_eq!(opt.len(), 96);
        assert_eq!(opt.multipliers.len(), 4, "one multiplier per 24-slot frame");
    }

    #[test]
    fn whole_horizon_opt_at_most_lookahead_cost() {
        // More lookahead can only help (paper: T-step family approaches P1).
        let (cluster, trace) = setup(96);
        let cost = CostParams::default();
        let unaware = unaware_consumption(&cluster, cost, &trace);
        let budget = unaware * 0.88;
        let mut s1 = SymmetricSolver::new();
        let full = OfflineOpt::plan(&cluster, cost, &trace, budget, &mut s1).unwrap();
        let mut s2 = SymmetricSolver::new();
        let framed =
            OfflineOpt::plan_lookahead(&cluster, cost, &trace, budget, 24, &mut s2).unwrap();
        assert!(
            full.total_planned_cost() <= framed.total_planned_cost() * 1.02,
            "full-horizon OPT {} should not lose to 24-slot lookahead {}",
            full.total_planned_cost(),
            framed.total_planned_cost()
        );
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (cluster, trace) = setup(24);
        let cost = CostParams::default();
        let mut solver = SymmetricSolver::new();
        assert!(OfflineOpt::plan(&cluster, cost, &trace, f64::NAN, &mut solver).is_err());
        assert!(
            OfflineOpt::plan_lookahead(&cluster, cost, &trace, 10.0, 0, &mut solver).is_err()
        );
        let empty = EnvironmentTrace {
            workload: vec![],
            onsite: vec![],
            offsite: vec![],
            price: vec![],
        };
        assert!(OfflineOpt::plan(&cluster, cost, &empty, 10.0, &mut solver).is_err());
    }
}
