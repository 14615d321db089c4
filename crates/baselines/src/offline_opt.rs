//! OPT — the offline benchmark with complete future knowledge.
//!
//! Fig. 5 compares COCA against "the optimal offline algorithm (OPT), which
//! has the complete offline information and minimizes the operational cost
//! under carbon neutrality". The long-term constraint
//! `Σ y(t) ≤ budget` is dualized with a multiplier μ ≥ 0; the horizon then
//! decouples into per-slot problems `min g(t) + μ·y(t)` with exactly the
//! P3 shape, and the multiplier is found by bisection
//! ([`coca_opt::dual::solve_budget_dual`], the search PerfectHP runs per
//! hour). For the continuous relaxation this is the exact optimum. With
//! discrete speed ladders the duality gap is one slot's quantization at the
//! crossover, and the plan is not feasible by construction: the search
//! takes the first multiplier within 10× its budget tolerance, else the top
//! of its bracket, and the P3 solver's brown energy is not monotone in μ,
//! so a re-solve there can come back above the budget.
//! [`OfflineOpt::total_planned_brown`] reports what the plan uses; a budget
//! that no multiplier meets is an `Infeasible` error.
//!
//! Every probe of the search, one μ-sweep of the frame, goes through a
//! [`PassMemo`] keyed by the frame's inputs, μ and the solver's warm state,
//! so plans that share a memo run each repeated sweep once and answer the
//! same; a caller with nothing to share passes an empty memo.
//!
//! [`OfflineOpt::plan_lookahead`] plans each frame of `T` slots separately
//! against the frame budget `Σ_frame f(t) + Z/R` — the paper's **P2**
//! family of T-step lookahead benchmarks used in Theorem 2.

use coca_core::solver::P3Solver;
use coca_dcsim::{
    Cluster, CostParams, Decision, PassMemo, Policy, SimError, SlotObservation, SweepFrame,
    SweepSummary,
};
use coca_opt::dual::{solve_budget_dual, DualOptions};
use coca_opt::OptError;
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
        memo: &PassMemo,
    ) -> Result<Self, SimError> {
        Self::plan_lookahead(cluster, cost, trace, budget, trace.len(), solver, memo)
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
        memo: &PassMemo,
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

        let mut decisions = Vec::with_capacity(j);
        let mut planned_costs = Vec::with_capacity(j);
        let mut planned_brown = Vec::with_capacity(j);
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

            // One probe sweeps the frame: every slot minimizes g + μ·y.
            let sweep = |solver: &mut S, mu: f64| -> Result<_, SimError> {
                let mut plan = Vec::with_capacity(end - start);
                let (mut frame_cost, mut frame_brown) = (0.0, 0.0);
                for t in start..end {
                    let obs = SlotObservation {
                        t,
                        arrival_rate: trace.workload[t],
                        onsite: trace.onsite[t],
                        price: trace.price[t],
                    };
                    let (sol, g, y) = solve_penalized(solver, cluster, &cost, &obs, mu)?;
                    plan.push((Decision { levels: sol.levels, loads: sol.loads }, g, y));
                    frame_cost += g;
                    frame_brown += y;
                }
                Ok((plan, frame_cost, frame_brown))
            };
            let frame = SweepFrame {
                cluster,
                cost,
                workload: &trace.workload[start..end],
                onsite: &trace.onsite[start..end],
                price: &trace.price[start..end],
            };
            // Each probe goes through the memo. A sweep this search runs
            // keeps its plan; a shared one keeps the warm state it started
            // from, and the solver takes the warm state it left.
            let probe = |mu: f64| -> Result<_, SimError> {
                let warm_before = solver.snapshot_state()?;
                let mut plan = None;
                let (swept, executed) = memo.opt_sweep(frame, mu, &warm_before, || {
                    let (p, cost, brown) = sweep(solver, mu)?;
                    plan = Some(p);
                    let warm_after = solver.snapshot_state()?;
                    Ok::<_, SimError>(SweepSummary { cost, brown, warm_after })
                })?;
                if !executed {
                    solver.restore_state(&swept.warm_after)?;
                }
                Ok(((plan, warm_before), swept.cost, swept.brown))
            };
            // Each probe re-solves the whole frame; a per-mille budget
            // tolerance keeps the probe count near 10 (6–11 per binding
            // budget point at small scale) while staying far below the
            // discrete-speed quantization error.
            let opts = DualOptions { budget_rel_tol: 2e-3, max_iter: 22, max_doublings: 40 };
            let outcome = solve_budget_dual(probe, frame_budget, 1.0, opts)?;
            if !outcome.attainable {
                return Err(SimError::Opt(OptError::Infeasible(format!(
                    "budget unattainable even at extreme multiplier (slots {start}..{end}, \
                     budget {frame_budget:.3e} kWh); the mandatory static/processing power \
                     exceeds the budget"
                ))));
            }
            // The search landed on its last probe, so rebuilding a shared
            // sweep from its starting warm state also leaves the solver as
            // the sweep did.
            let plan = match outcome.plan {
                (Some(plan), _) => plan,
                (None, warm_before) => {
                    memo.opt_sweeps().executed.inc();
                    solver.restore_state(&warm_before)?;
                    let (plan, cost, brown) = sweep(solver, outcome.mu)?;
                    if (cost.to_bits(), brown.to_bits())
                        != (outcome.total_cost.to_bits(), outcome.total_usage.to_bits())
                    {
                        return Err(SimError::Internal(format!(
                            "OPT sweep at μ = {} rebuilt to a different plan",
                            outcome.mu
                        )));
                    }
                    plan
                }
            };
            multipliers.push(outcome.mu);
            for (decision, g, y) in plan {
                decisions.push(decision);
                planned_costs.push(g);
                planned_brown.push(y);
            }
            start = end;
        }

        Ok(Self {
            decisions,
            choice_counts: cluster.choice_counts().to_vec(),
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
        let memo = PassMemo::new();
        let opt = OfflineOpt::plan(&cluster, cost, &trace, budget, &mut solver, &memo).unwrap();
        assert!(
            opt.total_planned_brown() <= budget * 1.01,
            "planned brown {} vs budget {budget}",
            opt.total_planned_brown()
        );
        assert_eq!(opt.multipliers.len(), 1);
        assert!(opt.multipliers[0] > 0.0, "tight budget needs a positive multiplier");
    }

    #[test]
    fn overload_names_the_slot_that_exceeds_the_fleet() {
        let (cluster, mut trace) = setup(12);
        let cost = CostParams::default();
        trace.workload[5] = 1.01 * cost.gamma * cluster.max_capacity();
        let mut solver = SymmetricSolver::new();
        let err = OfflineOpt::plan(&cluster, cost, &trace, 1e9, &mut solver, &PassMemo::new())
            .err()
            .expect("slot 5 is overloaded");
        assert!(matches!(err, SimError::Overload { slot: 5, .. }), "{err}");
    }

    /// A search shares a sweep only from the same solver warm state: the
    /// same search from a cold solver shares every sweep, one from a
    /// warmed solver runs its own, and both plan what they plan alone.
    #[test]
    fn sweeps_are_shared_only_from_the_same_warm_state() {
        let (cluster, trace) = setup(96);
        let cost = CostParams::default();
        let budget = unaware_consumption(&cluster, cost, &trace) * 0.85;
        let plan = |solver: &mut SymmetricSolver, memo: &PassMemo| {
            let opt = OfflineOpt::plan(&cluster, cost, &trace, budget, solver, memo).unwrap();
            let both = opt.planned_costs.iter().chain(&opt.planned_brown);
            both.map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        let warmed = || {
            let mut solver = SymmetricSolver::new();
            let obs = SlotObservation { t: 0, arrival_rate: 50.0, onsite: 0.0, price: 0.05 };
            let _ = solve_penalized(&mut solver, &cluster, &cost, &obs, 3.0).unwrap();
            solver
        };
        let memo = PassMemo::new();
        let cold = plan(&mut SymmetricSolver::new(), &memo);
        let sweeps = memo.opt_sweeps();
        let (executed, shared) = (sweeps.executed.get(), sweeps.shared.get());
        assert!(shared > 0, "a search repeats some of its own sweeps");
        // Every probe shared; the landing sweep is rebuilt for its plan.
        assert_eq!(plan(&mut SymmetricSolver::new(), &memo), cold);
        let probes = executed + shared;
        assert_eq!((sweeps.executed.get(), sweeps.shared.get()), (executed + 1, shared + probes));

        let alone = plan(&mut warmed(), &PassMemo::new());
        let shared = sweeps.shared.get();
        assert_eq!(plan(&mut warmed(), &memo), alone);
        assert!(sweeps.shared.get() - shared < probes, "a warmed solver's first sweep is its own");
    }

    #[test]
    fn slack_budget_matches_carbon_unaware() {
        let (cluster, trace) = setup(72);
        let cost = CostParams::default();
        let mut solver = SymmetricSolver::new();
        let opt =
            OfflineOpt::plan(&cluster, cost, &trace, 1e12, &mut solver, &PassMemo::new()).unwrap();
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
        let memo = PassMemo::new();
        let mut opt = OfflineOpt::plan(&cluster, cost, &trace, budget, &mut solver, &memo).unwrap();
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
            let (mut solver, memo) = (SymmetricSolver::new(), PassMemo::new());
            let opt =
                OfflineOpt::plan(&cluster, cost, &trace, unaware * frac, &mut solver, &memo).unwrap();
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
        let memo = PassMemo::new();
        let budget = unaware * 0.9;
        let opt =
            OfflineOpt::plan_lookahead(&cluster, cost, &trace, budget, 24, &mut solver, &memo).unwrap();
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
        let memo = PassMemo::new();
        let full = OfflineOpt::plan(&cluster, cost, &trace, budget, &mut s1, &memo).unwrap();
        let mut s2 = SymmetricSolver::new();
        let framed =
            OfflineOpt::plan_lookahead(&cluster, cost, &trace, budget, 24, &mut s2, &memo).unwrap();
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
        let memo = PassMemo::new();
        assert!(OfflineOpt::plan(&cluster, cost, &trace, f64::NAN, &mut solver, &memo).is_err());
        assert!(
            OfflineOpt::plan_lookahead(&cluster, cost, &trace, 10.0, 0, &mut solver, &memo).is_err()
        );
        let empty = EnvironmentTrace {
            workload: vec![],
            onsite: vec![],
            offsite: vec![],
            price: vec![],
        };
        assert!(OfflineOpt::plan(&cluster, cost, &empty, 10.0, &mut solver, &memo).is_err());
    }
}
