//! Slot-scoped P3 evaluation kernel — the per-slot cost oracle behind both
//! GSD engines.
//!
//! COCA's per-slot decision (paper Algorithm 2) runs hundreds of Gibbs
//! proposals, and each proposal flips exactly **one** group's speed level.
//! Evaluating a proposal cold ([`crate::dispatch::optimal_dispatch`])
//! re-collapses all groups into queue types and re-runs the three-regime
//! bisection from scratch; [`SlotEvalContext`] amortizes all of that across
//! the proposal stream:
//!
//! * It borrows the cluster's queue-type table
//!   ([`crate::cluster::QueueTypes`], built once with the cluster: the
//!   distinct raw `(capacity, energy_slope, static_power)` rows and each
//!   `(group, level)`'s row id) and keeps the multiset of active types as
//!   integer counts under single-group delta updates — O(1) per flip
//!   instead of O(groups) re-aggregation. Counts are integers, so a
//!   million flips cannot accumulate floating-point drift.
//! * The multiset is mirrored into a struct-of-arrays
//!   [`coca_opt::waterfill::QueueBank`] (parallel capacity / util_cap /
//!   energy_slope / static_power / multiplicity lanes), and
//!   [`SlotEvalContext::evaluate_candidate`] prices a proposal as a ±1.0
//!   multiplicity delta on two bank rows (exact on integer-valued lanes)
//!   plus a [`coca_opt::waterfill::SoaWaterfill`] solve whose ν/μ brackets
//!   are warm-started from the previous proposal.
//!
//! There is no state-cost cache: Gibbs chains rarely re-propose an exact
//! earlier state (3 hits per 404 lookups on a 500-iteration paper-scale
//! chain), so hashing the full speed vector cost more than it saved.
//!
//! **Scope:** a context is *slot-scoped*. Its warm brackets are tuned to
//! fixed slot parameters — the arrival rate `λ(t)`, the renewable supply
//! `r(t)`, and the weights `A = V·w(t) + q(t)` / `W = V·β` — so the engines
//! build a fresh context per `solve()` call and drop it with the slot.
//!
//! Correctness: [`crate::dispatch::optimal_dispatch`] solves the *same*
//! water-filling problems — a [`BankProblem`] over a [`QueueBank`] — on the
//! same kernel from a cold start, and warm starts change only where a
//! search begins, never its stopping rule, so the two agree to ≤ 1e-9
//! relative error (pinned by the differential property test in
//! `coca-core`). Their banks differ in layout: this context keeps one row
//! per queue type, γ- and PUE-scaled, with static power in the lane; the
//! cold dispatch one row per active `(capacity, PUE-scaled slope)` with
//! `P₀` summed per group. The `coca_opt::invariant` hooks (load
//! conservation, plus the bank's KKT certificate in debug and strict
//! builds) fire on every solve.

use coca_opt::waterfill::{BankProblem, QueueBank, SoaWaterfill};

use crate::cluster::QueueTypes;
use crate::dispatch::{DispatchOutcome, SlotProblem};

/// Work counters accumulated over a context's lifetime (one slot).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EvalStats {
    /// Water-level function evaluations spent inside bisections (each is
    /// an O(#types) pass — the dominant arithmetic of a solve).
    pub bisection_evals: u64,
    /// Candidates priced by [`SlotEvalContext::evaluate_candidate`] (each
    /// is a ±1.0 multiplicity delta plus one SoA water-filling solve).
    pub batched_candidates: u64,
}

/// Slot-scoped evaluator for the P3 cost oracle.
///
/// Build once per slot with the initial speed vector, then price proposals
/// with [`Self::evaluate_candidate`] and commit the accepted ones with
/// [`Self::set_level`]. See the module docs
/// for the scope rules.
#[derive(Debug)]
pub struct SlotEvalContext<'a> {
    problem: SlotProblem<'a>,
    /// The cluster's `(group, level) → type` table; bank row `t` is type `t`.
    types: &'a QueueTypes,
    /// Active-queue count per type. Integers: delta updates cannot drift.
    counts: Vec<u32>,
    /// Mirror of the speed vector the counts currently describe.
    levels: Vec<usize>,
    /// SoA mirror of the type multiset: one bank row per type, the
    /// multiplicity lane tracking `counts` (set from the integer counts on
    /// every flip, so it cannot drift).
    bank: QueueBank,
    /// Running `Σ m·u` over the bank rows, maintained by exact per-unit
    /// deltas in [`Self::set_level`] so a candidate reads its aggregates in
    /// O(1) instead of re-walking the lanes per proposal. Each flip
    /// adds/subtracts one row's `util_cap` verbatim, so the only deviation
    /// from a fresh [`QueueBank::aggregates`] walk is summation-order
    /// rounding — ≤ ~1e-15 relative over a context lifetime (contexts are
    /// slot-scoped), far inside the 1e-12 feasibility-guard band and the
    /// 1e-9 differential band.
    agg_cap: f64,
    /// Running `Σ m·s` (static power), same maintenance as `agg_cap`.
    agg_base: f64,
    /// Chunked solver over `bank` (its own warm ν/μ state, carried across
    /// candidates and sweeps).
    soa: SoaWaterfill,
    /// Work counters, exported by the engines as solve statistics.
    pub stats: EvalStats,
}

impl<'a> SlotEvalContext<'a> {
    /// Builds the bank over the cluster's queue types for `problem` and
    /// seeds the multiset with `initial`.
    ///
    /// # Errors
    /// Propagates invalid slot parameters or an out-of-range level vector.
    pub fn new(problem: SlotProblem<'a>, initial: &[usize]) -> crate::Result<Self> {
        problem.validate()?;
        problem.cluster.validate_levels(initial)?;
        let types: &'a QueueTypes = problem.cluster.queue_types();
        // One bank row per type, all retracted (m = 0) until the seeding
        // below raises the counts. Rows are validated once here — the SoA
        // solver relies on that instead of per-solve re-validation.
        let mut bank = QueueBank::new();
        for t in types.rows() {
            let (capacity, util_cap, slope, static_power) = t.scaled(problem.gamma, problem.pue);
            bank.push_type(capacity, util_cap, slope, static_power, 0.0);
        }
        debug_assert!(bank.validate().is_ok(), "cluster-derived rows satisfy the bank contract");
        let mut ctx = Self {
            problem,
            types,
            counts: vec![0; types.rows().len()],
            levels: vec![0; initial.len()],
            bank,
            agg_cap: 0.0,
            agg_base: 0.0,
            soa: SoaWaterfill::new(),
            stats: EvalStats::default(),
        };
        for (g, &c) in initial.iter().enumerate() {
            ctx.set_level(g, c);
        }
        Ok(ctx)
    }

    /// The slot problem this context was built for.
    pub fn problem(&self) -> &SlotProblem<'a> {
        &self.problem
    }

    /// The speed vector the multiset currently describes.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    // The two functions below are the per-proposal delta-update path: they
    // run on every Gibbs proposal and must stay allocation-free.
    // audit:hot-path: begin

    /// Applies a single-group flip to the type multiset — O(1).
    ///
    /// `level` must be a valid choice for `group` (guaranteed for vectors
    /// that passed `validate_levels`, which the Gibbs driver enforces).
    pub fn set_level(&mut self, group: usize, level: usize) {
        let old = self.levels[group];
        if old == level {
            return;
        }
        if old > 0 {
            let t = self.types.type_of(group, old);
            self.counts[t] -= 1;
            // u32 → f64 is exact, so the lane always equals the count.
            self.bank.set_multiplicity(t, f64::from(self.counts[t]));
            self.agg_cap -= self.bank.util_cap_of(t);
            self.agg_base -= self.bank.static_power_of(t);
        }
        if level > 0 {
            let t = self.types.type_of(group, level);
            self.counts[t] += 1;
            self.bank.set_multiplicity(t, f64::from(self.counts[t]));
            self.agg_cap += self.bank.util_cap_of(t);
            self.agg_base += self.bank.static_power_of(t);
        }
        self.levels[group] = level;
    }

    /// Diff-syncs the multiset to `levels`: one O(1) [`Self::set_level`]
    /// per coordinate that changed since the previous call.
    pub fn sync(&mut self, levels: &[usize]) {
        debug_assert_eq!(levels.len(), self.levels.len());
        for (group, &level) in levels.iter().enumerate() {
            if self.levels[group] != level {
                self.set_level(group, level);
            }
        }
    }

    // audit:hot-path: end

    /// Cost of the state the multiset currently describes: the P3 objective
    /// at the optimal load distribution (callers add their own shift), or
    /// `f64::INFINITY` when the state is infeasible.
    pub fn evaluate_current(&mut self) -> f64 {
        let (cap, base_power) = (self.agg_cap, self.agg_base);
        self.bank_cost(cap, base_power)
    }

    /// Cost of flipping `group` to `level` (`f64::INFINITY` when
    /// infeasible), without committing the flip — the Gibbs driver's
    /// proposal oracle. `level` may be the current level, which prices the
    /// current state.
    ///
    /// The candidate delta-adjusts the shared multiset aggregates — two
    /// ±1.0 multiplicity-lane writes plus capped-capacity / base-power
    /// deltas — runs a warm [`SoaWaterfill`] solve, and restores the lanes.
    /// Costs agree with the cold dispatch to the water-filling stopping
    /// tolerance (≤ 1e-9 relative — pinned by the differential property
    /// test in `coca-core`), though not bit-for-bit: the two banks hold
    /// different rows and the warm search starts elsewhere.
    pub fn evaluate_candidate(&mut self, group: usize, level: usize) -> f64 {
        let (cap, base_power) = (self.agg_cap, self.agg_base);
        self.stats.batched_candidates += 1;
        self.candidate_cost(group, level, cap, base_power)
    }

    /// Candidate scoring core: ±1.0 multiplicity deltas on the (≤ 2) bank
    /// rows the flip touches, aggregate deltas on top of the committed
    /// `(cap, base_power)`, one SoA solve, then an exact restore.
    fn candidate_cost(&mut self, group: usize, level: usize, cap: f64, base_power: f64) -> f64 {
        let old = self.levels[group];
        if level == old {
            return self.bank_cost(cap, base_power);
        }
        let t_old = (old > 0).then(|| self.types.type_of(group, old));
        let t_new = (level > 0).then(|| self.types.type_of(group, level));
        // The candidate delta path runs per proposal and must stay
        // allocation-free (±1.0 on integer-valued f64 lanes is exact, so
        // apply + restore round-trips bit-for-bit).
        // audit:hot-path: begin
        let mut cand_cap = cap;
        let mut cand_base = base_power;
        if let Some(t) = t_old {
            self.bank.add_multiplicity(t, -1.0);
            cand_cap -= self.bank.util_cap_of(t);
            cand_base -= self.bank.static_power_of(t);
        }
        if let Some(t) = t_new {
            self.bank.add_multiplicity(t, 1.0);
            cand_cap += self.bank.util_cap_of(t);
            cand_base += self.bank.static_power_of(t);
        }
        // audit:hot-path: end
        let cost = self.bank_cost(cand_cap, cand_base);
        // audit:hot-path: begin
        if let Some(t) = t_old {
            self.bank.add_multiplicity(t, 1.0);
        }
        if let Some(t) = t_new {
            self.bank.add_multiplicity(t, -1.0);
        }
        // audit:hot-path: end
        cost
    }

    /// Prices the bank's current multiset: Algorithm 2's feasibility guard
    /// (same tolerance as [`SlotProblem::is_feasible`]), then a warm SoA
    /// solve. Infeasible or failed solves price to `f64::INFINITY`.
    fn bank_cost(&mut self, cap: f64, base_power: f64) -> f64 {
        let lam = self.problem.arrival_rate;
        if lam > cap * (1.0 + 1e-12) {
            return f64::INFINITY;
        }
        let bp = BankProblem {
            bank: &self.bank,
            total_load: lam,
            energy_weight: self.problem.energy_weight,
            delay_weight: self.problem.delay_weight,
            base_power,
            capped_capacity: cap,
            renewable: self.problem.onsite,
        };
        let res = self.soa.solve(&bp);
        self.stats.bisection_evals += self.soa.last_evals;
        match res {
            Ok(out) => out.objective,
            Err(_) => f64::INFINITY,
        }
    }

    /// Full [`DispatchOutcome`] extraction for the state the multiset
    /// currently describes: one warm SoA solve, with the per-row loads
    /// expanded back to per-group loads. This is the GSD engine's
    /// final-solution path — it replaces the cold
    /// [`crate::dispatch::optimal_dispatch`] exit solve, whose from-scratch
    /// type compression costs more than the whole extraction. Agrees with
    /// the cold dispatch to the shared stopping tolerances (≤ 1e-9
    /// relative, pinned by the differential property test in `coca-core`).
    /// Returns `None` when the state is infeasible or the solve fails
    /// (both priced `INFINITY` on the proposal path).
    pub fn extract_outcome(&mut self) -> Option<DispatchOutcome> {
        let (cap, base_power) = (self.agg_cap, self.agg_base);
        let lam = self.problem.arrival_rate;
        if lam > cap * (1.0 + 1e-12) {
            return None;
        }
        let bp = BankProblem {
            bank: &self.bank,
            total_load: lam,
            energy_weight: self.problem.energy_weight,
            delay_weight: self.problem.delay_weight,
            base_power,
            capped_capacity: cap,
            renewable: self.problem.onsite,
        };
        let out = self.soa.solve(&bp).ok()?;
        self.stats.bisection_evals += self.soa.last_evals;
        let mut loads = vec![0.0; self.levels.len()];
        let lambdas = self.soa.lambdas();
        for (g, &c) in self.levels.iter().enumerate() {
            if c > 0 {
                loads[g] = lambdas[self.types.type_of(g, c)];
            }
        }
        // Mirrors `optimal_dispatch`'s outcome assembly: the bank rows are
        // PUE-pre-scaled, so the solver's power is facility power.
        let facility_power = out.power;
        Some(DispatchOutcome {
            loads,
            objective: out.objective,
            it_power: facility_power / self.problem.pue,
            facility_power,
            delay: out.delay,
            brown: (facility_power - self.problem.onsite).max(0.0),
            water_level: out.water_level,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::dispatch::optimal_dispatch;

    fn slot(cluster: &Cluster) -> SlotProblem<'_> {
        SlotProblem {
            cluster,
            arrival_rate: 100.0,
            onsite: 20.0,
            energy_weight: 10.0,
            delay_weight: 10.0,
            gamma: 0.95,
            pue: 1.2,
        }
    }

    fn assert_close(kernel: f64, cold: f64, what: &str) {
        let scale = cold.abs().max(1.0);
        assert!((kernel - cold).abs() <= 1e-9 * scale, "{what}: kernel {kernel} vs cold {cold}");
    }

    #[test]
    fn matches_cold_dispatch_on_flip_sequence() {
        let cluster = Cluster::scaled_paper_datacenter(4, 6);
        let p = slot(&cluster);
        let mut levels = cluster.full_speed_vector();
        let mut ctx = SlotEvalContext::new(p, &levels).unwrap();
        // Deterministic flip walk touching every group and the off level.
        for step in 0..40 {
            let g = step % levels.len();
            let choices = cluster.groups()[g].num_choices();
            levels[g] = (levels[g] + 1 + step / levels.len()) % choices;
            ctx.sync(&levels);
            let cost = ctx.evaluate_current();
            match ctx.extract_outcome() {
                None => {
                    assert!(cost.is_infinite(), "step {step}");
                    assert!(!p.is_feasible(&levels) || optimal_dispatch(&p, &levels).is_err());
                }
                Some(out) => {
                    let cold = optimal_dispatch(&p, &levels).unwrap();
                    assert_close(cost, cold.objective, &format!("step {step} cost"));
                    assert_close(out.objective, cold.objective, &format!("step {step} outcome"));
                    for (a, b) in out.loads.iter().zip(&cold.loads) {
                        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "{a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn infeasible_states_price_to_infinity() {
        let cluster = Cluster::homogeneous(2, 3);
        let mut p = slot(&cluster);
        p.arrival_rate = 1e6;
        let all_off = vec![0; 2];
        let mut ctx = SlotEvalContext::new(p, &all_off).unwrap();
        assert!(ctx.evaluate_current().is_infinite());
        ctx.sync(&cluster.full_speed_vector());
        assert!(ctx.evaluate_current().is_infinite(), "overloaded even at full speed");
        assert!(ctx.extract_outcome().is_none());
    }

    #[test]
    fn rejects_invalid_initial_vector() {
        let cluster = Cluster::homogeneous(2, 3);
        let p = slot(&cluster);
        assert!(SlotEvalContext::new(p, &[9, 9]).is_err());
        assert!(SlotEvalContext::new(p, &[1]).is_err());
    }

    #[test]
    fn candidates_match_cold_dispatch() {
        let cluster = Cluster::scaled_paper_datacenter(4, 6);
        let p = slot(&cluster);
        let levels = cluster.full_speed_vector();
        let mut ctx = SlotEvalContext::new(p, &levels).unwrap();
        let mut priced = 0;
        for group in 0..levels.len() {
            for level in 0..cluster.groups()[group].num_choices() {
                let kernel = ctx.evaluate_candidate(group, level);
                priced += 1;
                let mut probe = levels.clone();
                probe[group] = level;
                if p.is_feasible(&probe) {
                    let cold = optimal_dispatch(&p, &probe).unwrap().objective;
                    assert_close(kernel, cold, &format!("group {group} level {level}"));
                } else {
                    assert!(kernel.is_infinite(), "group {group} level {level}");
                }
            }
            // Pricing must not commit anything.
            assert_eq!(ctx.levels(), &levels[..]);
        }
        assert_eq!(ctx.stats.batched_candidates, priced);
    }

    #[test]
    fn current_state_matches_cold_dispatch() {
        let cluster = Cluster::homogeneous(3, 5);
        let p = slot(&cluster);
        let levels = cluster.full_speed_vector();
        let mut ctx = SlotEvalContext::new(p, &levels).unwrap();
        let cold = optimal_dispatch(&p, &levels).unwrap().objective;
        assert_close(ctx.evaluate_current(), cold, "current state");
        // The current level re-scored through the candidate API agrees too.
        assert_close(ctx.evaluate_candidate(0, levels[0]), cold, "self-candidate");
    }

    #[test]
    fn candidates_price_infeasible_levels() {
        let cluster = Cluster::homogeneous(2, 3);
        let full = cluster.full_speed_vector();
        let mut p = slot(&cluster);
        // Load sized so both groups at full speed are feasible (75% of the
        // capped capacity) but a single group alone is overloaded (150%).
        p.arrival_rate = 1.5 * p.gamma * cluster.groups()[0].capacity(full[0]);
        let mut ctx = SlotEvalContext::new(p, &full).unwrap();
        assert!(ctx.evaluate_current().is_finite());
        assert!(ctx.evaluate_candidate(0, 0).is_infinite(), "turning group 0 off must overload");
        assert!(ctx.evaluate_candidate(0, full[0]).is_finite(), "keeping full speed stays feasible");
    }
}
