//! Deterministic P3 solver exploiting class symmetry.
//!
//! In the paper's fleet, groups within a server class are interchangeable,
//! so P3 has an optimal solution that is symmetric per class: some number
//! `n_c` of a class's groups run at a common level `ℓ_c`, the rest are off
//! (a consequence of the convexity of the inner problem; a split across two
//! adjacent levels can shave a sliver more, which GSD can find, but the gap
//! is negligible — the test-suite quantifies it against the exhaustive
//! solver). The search space collapses from `K^G` to
//! `Π_c (K_c · G_c)`, which coordinate descent with integer ternary search
//! explores in a few hundred cost evaluations.
//!
//! Every descent step prices its partition state on the same
//! struct-of-arrays kernel as GSD (DESIGN §10). A [`QueueBank`] holds one
//! row per (partition, speed level ≥ 1) — capacity, γ·capacity, slope·PUE,
//! static·PUE — and is built once per fleet. A state `(ℓ, n)` sets the
//! multiplicity of its partition's row `ℓ` to `n` and zeroes the
//! partition's other rows; capped capacity and base power are summed from
//! the state (`active · static · pue`), and one warm-started
//! [`SoaWaterfill`] solve prices it. The water-filling and its ν/μ brackets
//! live for one descent, so no slot-dependent state outlives a solve or
//! enters a checkpoint. The chosen levels are dispatched by the cold
//! [`optimal_dispatch`], so published loads and costs do not carry the
//! kernel's ≤ 1e-9 tolerance.
//!
//! Each distinct state is priced once per solve. The warm and full-speed
//! descents and their confirming last rounds revisit many states; a
//! solve-scoped memo keyed by the exact per-partition `(ℓ, n)` vector
//! (with every "all off" spelling written `(0, 0)`) answers those from the
//! first price. It is cleared by every solve, so it never carries a cost
//! across slots or problems and never enters a checkpoint (DESIGN §10.3).
//!
//! This solver is the workhorse for the year-long experiment sweeps and
//! `coca-serve`; GSD remains the reference algorithm (and the subject of
//! Fig. 4).

use std::sync::Arc;

use coca_dcsim::dispatch::{optimal_dispatch, SlotProblem};
use coca_dcsim::incremental::SlotContextSeed;
use coca_dcsim::SimError;
use coca_obs::SolverObserver;
use coca_opt::waterfill::{BankProblem, QueueBank, SoaWaterfill};

use crate::solver::{P3Solution, P3Solver, SolveStats};

/// Coordinate-descent rounds per descent (each round sweeps all
/// partitions).
const MAX_ROUNDS: usize = 6;

/// Per-partition decision: `active` groups at speed `level`, rest off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct PartState {
    level: usize,
    active: usize,
}

impl PartState {
    /// The state with every "all off" spelling (`active == 0` at any
    /// level, or level 0) written as `(0, 0)`: equal exactly when the
    /// states run the same groups at the same speeds.
    fn canonical(self) -> Self {
        if self.level == 0 || self.active == 0 {
            Self::default()
        } else {
            self
        }
    }
}

/// A set of interchangeable groups.
#[derive(Debug, Clone)]
struct Partition {
    /// Indices of member groups in cluster order.
    members: Vec<usize>,
    /// Number of speed choices (off + ladder).
    choices: usize,
    /// Pooled capacity of one member group per positive level
    /// (`cap_at[ℓ-1]`).
    cap_at: Vec<f64>,
    /// Static power of one member group when on (kW, before PUE).
    static_power: f64,
    /// Bank row of level 1; level `ℓ ≥ 1` is row `row0 + ℓ − 1`.
    row0: usize,
}

/// Receives each priced state, expanded to a per-group speed vector, with
/// its cost (see [`SymmetricSolver::solve_visiting`]).
type Visitor<'v> = Option<&'v mut dyn FnMut(&[usize], f64)>;

/// Kernel costs of the states priced in the current solve, keyed by the
/// exact per-partition state vector in canonical form (any number of
/// partitions), so states that run the same speed vector share an entry.
///
/// An open-addressed table over flat entry arrays: the hash only picks the
/// slot to probe, and an entry matches when its stored key equals the state
/// element by element. Capacity is kept across solves, so lookups and
/// inserts allocate nothing once the table has grown to a solve's size.
#[derive(Debug, Default)]
struct StateMemo {
    /// States per key (the partition count of the solve).
    stride: usize,
    /// Power-of-two slot table: 0 is empty, `i + 1` names entry `i`.
    slots: Vec<u32>,
    /// Per entry: the key's hash, checked before the key itself.
    hashes: Vec<u64>,
    /// Per entry: the canonical key, `stride` states each.
    keys: Vec<PartState>,
    /// Per entry: the priced cost (`f64::INFINITY` when infeasible).
    costs: Vec<f64>,
}

impl StateMemo {
    /// Forgets every entry; keys of the next solve have `stride` states.
    fn clear(&mut self, stride: usize) {
        self.stride = stride;
        self.slots.fill(0);
        self.hashes.clear();
        self.keys.clear();
        self.costs.clear();
    }

    fn hash(state: &[PartState]) -> u64 {
        state.iter().fold(0, |h: u64, s| {
            let s = s.canonical();
            (h.rotate_left(5) ^ ((s.level as u64) << 32 | s.active as u64))
                .wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    }

    /// The slot holding `state`, or the empty slot where it would go.
    /// Requires a non-empty table with at least one empty slot.
    fn slot_of(&self, state: &[PartState], hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = (hash >> 32) as usize & mask;
        loop {
            let entry = self.slots[i] as usize;
            if entry == 0 {
                return i;
            }
            let e = entry - 1;
            if self.hashes[e] == hash
                && self.keys[e * self.stride..(e + 1) * self.stride]
                    .iter()
                    .zip(state)
                    .all(|(k, s)| *k == s.canonical())
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn get(&self, state: &[PartState], hash: u64) -> Option<f64> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.slot_of(state, hash)] as usize {
            0 => None,
            entry => Some(self.costs[entry - 1]),
        }
    }

    /// Records the cost of a state that [`Self::get`] just missed.
    fn insert(&mut self, state: &[PartState], hash: u64, cost: f64) {
        debug_assert_eq!(state.len(), self.stride);
        // Keep the load factor at or below one half.
        if 2 * (self.costs.len() + 1) > self.slots.len() {
            let len = (2 * self.slots.len()).max(64);
            self.slots.clear();
            self.slots.resize(len, 0);
            for e in 0..self.costs.len() {
                let i = self.slot_of(&self.keys[e * self.stride..(e + 1) * self.stride], self.hashes[e]);
                self.slots[i] = e as u32 + 1;
            }
        }
        let i = self.slot_of(state, hash);
        self.hashes.push(hash);
        self.keys.extend(state.iter().map(|s| s.canonical()));
        self.costs.push(cost);
        self.slots[i] = self.costs.len() as u32;
    }
}

/// The partitions and bank rows of one fleet, reused across solves while
/// the fleet stays the same.
#[derive(Debug, Default)]
struct FleetTables {
    /// The GSD kernel's fleet key. Groups with equal per-level type ids
    /// form a partition, and its exact key compare detects a changed fleet,
    /// γ, or PUE-scaled row.
    seed: SlotContextSeed,
    /// PUE bits the base power is scaled by.
    pue: u64,
    parts: Vec<Partition>,
    /// One row per (partition, level ≥ 1). Between prices the
    /// multiplicities encode the last priced state, `applied`.
    bank: QueueBank,
    applied: Vec<PartState>,
    /// Costs of the states the current solve has priced.
    memo: StateMemo,
    /// Kernel prices (memo misses) in the current solve.
    prices: u64,
    /// Water-level evaluations those prices spent.
    evals: u64,
}

impl FleetTables {
    /// Rebuilds the tables unless they were built for `problem`'s fleet,
    /// γ and PUE. The seed pins capacities and the PUE-scaled rows bit for
    /// bit; the raw static power the base power is summed from is checked
    /// on each partition's first member.
    fn refresh(&mut self, problem: &SlotProblem<'_>) {
        let groups = problem.cluster.groups();
        let current = !self.seed.refresh(problem)
            && self.pue == problem.pue.to_bits()
            && self
                .parts
                .iter()
                .all(|p| groups[p.members[0]].static_power(1).to_bits() == p.static_power.to_bits());
        if current {
            return;
        }
        self.pue = problem.pue.to_bits();
        self.parts.clear();
        self.bank.clear();
        'groups: for (i, g) in groups.iter().enumerate() {
            for part in self.parts.iter_mut() {
                if self.seed.group_types(part.members[0]) == self.seed.group_types(i) {
                    part.members.push(i);
                    continue 'groups;
                }
            }
            self.parts.push(Partition {
                members: vec![i],
                choices: g.num_choices(),
                cap_at: (1..g.num_choices()).map(|c| g.capacity(c)).collect(),
                static_power: g.static_power(1),
                row0: 0,
            });
        }
        for part in &mut self.parts {
            let g = &groups[part.members[0]];
            part.row0 = self.bank.len();
            for c in 1..part.choices {
                let capacity = g.capacity(c);
                self.bank.push_type(
                    capacity,
                    problem.gamma * capacity,
                    g.energy_slope(c) * problem.pue,
                    g.static_power(c) * problem.pue,
                    0.0,
                );
            }
        }
        debug_assert!(self.bank.validate().is_ok(), "cluster-derived rows satisfy the bank contract");
        self.applied.clear();
        self.applied.resize(self.parts.len(), PartState::default());
    }

    /// Forgets the previous solve's priced states and work counters.
    fn begin_solve(&mut self) {
        self.memo.clear(self.parts.len());
        self.prices = 0;
        self.evals = 0;
    }

    fn levels_of(&self, state: &[PartState], n_groups: usize) -> Vec<usize> {
        let mut levels = vec![0usize; n_groups];
        for (p, s) in self.parts.iter().zip(state) {
            for &gi in p.members.iter().take(s.active) {
                levels[gi] = s.level;
            }
        }
        levels
    }

    /// P3 objective of `state` at its optimal load distribution, or
    /// `f64::INFINITY` when the state cannot carry the load. A state this
    /// solve already priced is answered from the memo, without a kernel
    /// solve or a visit.
    fn price(
        &mut self,
        problem: &SlotProblem<'_>,
        soa: &mut SoaWaterfill,
        state: &[PartState],
        visit: &mut Visitor<'_>,
    ) -> f64 {
        let mut cap = 0.0;
        let mut base_power = 0.0;
        // Runs once per descent step and must stay allocation-free.
        // audit:hot-path: begin
        let hash = StateMemo::hash(state);
        if let Some(cost) = self.memo.get(state, hash) {
            return cost;
        }
        for ((p, s), applied) in self.parts.iter().zip(state).zip(&mut self.applied) {
            if applied != s {
                if applied.level > 0 {
                    self.bank.set_multiplicity(p.row0 + applied.level - 1, 0.0);
                }
                if s.level > 0 {
                    self.bank.set_multiplicity(p.row0 + s.level - 1, s.active as f64);
                }
                *applied = *s;
            }
            if s.active == 0 || s.level == 0 {
                continue;
            }
            cap += s.active as f64 * self.bank.util_cap_of(p.row0 + s.level - 1);
            base_power += s.active as f64 * p.static_power * problem.pue;
        }
        // audit:hot-path: end
        let bp = BankProblem {
            bank: &self.bank,
            total_load: problem.arrival_rate,
            energy_weight: problem.energy_weight,
            delay_weight: problem.delay_weight,
            base_power,
            capped_capacity: cap,
            renewable: problem.onsite,
        };
        let cost = soa.solve(&bp).map_or(f64::INFINITY, |out| out.objective);
        // audit:hot-path: begin
        self.prices += 1;
        self.evals += soa.last_evals;
        self.memo.insert(state, hash, cost);
        // audit:hot-path: end
        if let Some(v) = visit {
            v(&self.levels_of(state, problem.cluster.num_groups()), cost);
        }
        cost
    }
}

/// Deterministic coordinate-descent solver over per-class (level, count).
#[derive(Debug, Default)]
pub struct SymmetricSolver {
    warm: Option<Vec<PartState>>,
    // audit:transient(fleet-derived cache, rebuilt whenever it no longer matches the problem)
    tables: FleetTables,
    // audit:transient(per-solve diagnostics, overwritten by the next solve)
    stats: SolveStats,
    // audit:transient(host-injected callback, re-attached via with_observer)
    observer: Option<Arc<dyn SolverObserver + Send + Sync>>,
}

impl SymmetricSolver {
    /// Creates the solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Work counters of the most recent solve: `iterations` counts descent
    /// rounds across both starts, `batched_candidates` the states priced on
    /// the kernel (each distinct state once), and `bisection_evals` the
    /// water-level evaluations those prices spent. `accepted` and
    /// `candidate_batches` stay zero.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Attaches a solver observer; [`coca_obs::SolveEvent`]s are emitted
    /// after every solve.
    pub fn set_observer(&mut self, observer: Arc<dyn SolverObserver + Send + Sync>) {
        self.observer = Some(observer);
    }

    /// [`P3Solver::solve`] that also hands each distinct partition state
    /// the solve prices to `visit`, once per solve, expanded to a
    /// per-group speed vector, with the kernel's cost for it
    /// (`f64::INFINITY` when infeasible). The differential tests check
    /// each one against the cold [`optimal_dispatch`].
    ///
    /// # Errors
    /// Same as [`P3Solver::solve`].
    pub fn solve_visiting(
        &mut self,
        problem: &SlotProblem<'_>,
        visit: &mut dyn FnMut(&[usize], f64),
    ) -> Result<P3Solution, SimError> {
        self.solve_with(problem, &mut Some(visit))
    }

    /// Capacity contributed by a partition in a given state.
    fn part_capacity(p: &Partition, s: PartState) -> f64 {
        if s.active == 0 || s.level == 0 {
            0.0
        } else {
            s.active as f64 * p.cap_at[s.level - 1]
        }
    }

    fn solve_with(
        &mut self,
        problem: &SlotProblem<'_>,
        visit: &mut Visitor<'_>,
    ) -> Result<P3Solution, SimError> {
        problem.validate()?;
        let cluster = problem.cluster;
        let n_groups = cluster.num_groups();
        self.tables.refresh(problem);
        self.tables.begin_solve();
        let parts = &self.tables.parts;
        let full: Vec<PartState> =
            parts.iter().map(|p| PartState { level: p.choices - 1, active: p.members.len() }).collect();

        // Overload check against the all-max configuration.
        if !problem.is_feasible(&self.tables.levels_of(&full, n_groups)) {
            return Err(SimError::Overload {
                slot: 0,
                arrival_rate: problem.arrival_rate,
                max_capacity: problem.gamma * cluster.max_capacity(),
            });
        }

        let warm_state = match self.warm.take() {
            Some(w) if w.len() == parts.len() => {
                let ok = w.iter().zip(parts).all(|(s, p)| {
                    s.level < p.choices && s.active <= p.members.len()
                });
                if ok && problem.is_feasible(&self.tables.levels_of(&w, n_groups)) {
                    Some(w)
                } else {
                    None
                }
            }
            _ => None,
        };

        // Two-start descent: the warm start tracks slowly-varying
        // environments across slots, but can drag the search into a stale
        // basin when the instance changes abruptly (e.g. multiplier probes
        // in the budgeted solvers). A second descent from the full-speed
        // state keeps the solver honest; the better result wins.
        let (state, _cost, rounds) = match warm_state {
            Some(w) => {
                let a = self.descend(problem, w, visit);
                let b = self.descend(problem, full, visit);
                let rounds = a.2 + b.2;
                let (s, c, _) = if a.1 <= b.1 { a } else { b };
                (s, c, rounds)
            }
            None => self.descend(problem, full, visit),
        };

        let levels = self.tables.levels_of(&state, n_groups);
        let out = optimal_dispatch(problem, &levels)?;
        self.warm = Some(state);
        self.stats = SolveStats {
            iterations: rounds,
            bisection_evals: self.tables.evals,
            batched_candidates: self.tables.prices,
            ..SolveStats::default()
        };
        if let Some(o) = &self.observer {
            o.on_solve(&self.stats.to_event("symmetric"));
        }
        Ok(P3Solution { loads: out.loads.clone(), levels, outcome: out })
    }
}

impl P3Solver for SymmetricSolver {
    fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError> {
        self.solve_with(problem, &mut None)
    }

    fn reset(&mut self) {
        self.warm = None;
        self.stats = SolveStats::default();
    }

    fn name(&self) -> &'static str {
        "symmetric"
    }

    /// The warm start is decision-relevant (two-start descent keeps the
    /// better of warm vs full-speed), so exact checkpoint/resume must
    /// carry it: each per-partition state serializes as `[level, active]`.
    fn snapshot_state(&self) -> Result<serde::Value, SimError> {
        Ok(match &self.warm {
            None => serde::Value::Null,
            Some(w) => serde::Value::Seq(
                w.iter()
                    .map(|s| {
                        serde::Value::Seq(vec![
                            serde::Value::Int(s.level as i64),
                            serde::Value::Int(s.active as i64),
                        ])
                    })
                    .collect(),
            ),
        })
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), SimError> {
        let parse_usize = |v: &serde::Value| -> Result<usize, SimError> {
            match v {
                serde::Value::Int(i) => usize::try_from(*i).map_err(|_| {
                    SimError::InvalidConfig(format!("negative value {i} in symmetric snapshot"))
                }),
                _ => Err(SimError::InvalidConfig(
                    "expected integer in symmetric solver snapshot".into(),
                )),
            }
        };
        self.warm = match state {
            serde::Value::Null => None,
            serde::Value::Seq(items) => Some(
                items
                    .iter()
                    .map(|item| {
                        let pair = item.as_seq().filter(|s| s.len() == 2).ok_or_else(|| {
                            SimError::InvalidConfig(
                                "expected [level, active] pair in symmetric snapshot".into(),
                            )
                        })?;
                        Ok(PartState {
                            level: parse_usize(&pair[0])?,
                            active: parse_usize(&pair[1])?,
                        })
                    })
                    .collect::<Result<Vec<_>, SimError>>()?,
            ),
            _ => {
                return Err(SimError::InvalidConfig(
                    "malformed symmetric solver snapshot".into(),
                ))
            }
        };
        Ok(())
    }
}

impl SymmetricSolver {
    /// Coordinate descent from a feasible starting state; returns the final
    /// state, its objective, and the number of rounds executed.
    fn descend(
        &mut self,
        problem: &SlotProblem<'_>,
        mut state: Vec<PartState>,
        visit: &mut Visitor<'_>,
    ) -> (Vec<PartState>, f64, usize) {
        let tables = &mut self.tables;
        let mut soa = SoaWaterfill::new();
        let mut best_cost = tables.price(problem, &mut soa, &state, visit);
        debug_assert!(best_cost.is_finite());

        debug_assert!(problem.gamma > 0.0, "gamma validated by SlotProblem::validate");
        let required_capacity = problem.arrival_rate / problem.gamma;
        let mut rounds = 0;
        for _round in 0..MAX_ROUNDS {
            rounds += 1;
            let mut improved = false;
            for pi in 0..tables.parts.len() {
                let others_capacity: f64 = state
                    .iter()
                    .zip(&tables.parts)
                    .enumerate()
                    .filter(|(j, _)| *j != pi)
                    .map(|(_, (s, q))| Self::part_capacity(q, *s))
                    .sum();
                let (choices, n_max) = (tables.parts[pi].choices, tables.parts[pi].members.len());
                let mut local_best = state[pi];
                let mut local_cost = best_cost;
                for level in 1..choices {
                    let cap1 = tables.parts[pi].cap_at[level - 1];
                    debug_assert!(cap1 > 0.0, "speed ladder capacities are positive");
                    let deficit = required_capacity - others_capacity;
                    let n_min = if deficit <= 0.0 {
                        0
                    } else {
                        (deficit / cap1).ceil() as usize
                    };
                    if n_min > n_max {
                        continue;
                    }
                    let mut cost_at = |n: usize, state: &mut Vec<PartState>| -> f64 {
                        let saved = state[pi];
                        state[pi] = PartState { level, active: n };
                        let c = tables.price(problem, &mut soa, state, visit);
                        state[pi] = saved;
                        c
                    };
                    // Integer ternary search on the (practically unimodal)
                    // count dimension, then a ±2 refinement scan.
                    let (mut lo, mut hi) = (n_min, n_max);
                    while hi - lo > 2 {
                        let m1 = lo + (hi - lo) / 3;
                        let m2 = hi - (hi - lo) / 3;
                        if cost_at(m1, &mut state) < cost_at(m2, &mut state) {
                            hi = m2 - 1;
                        } else {
                            lo = m1 + 1;
                        }
                    }
                    let center = (lo..=hi)
                        .min_by(|&a, &b| cost_at(a, &mut state).total_cmp(&cost_at(b, &mut state)))
                        .unwrap_or(lo);
                    let scan_lo = center.saturating_sub(2).max(n_min);
                    let scan_hi = (center + 2).min(n_max);
                    for n in scan_lo..=scan_hi {
                        let c = cost_at(n, &mut state);
                        if c < local_cost * (1.0 - 1e-12) {
                            local_cost = c;
                            local_best = PartState { level, active: n };
                        }
                    }
                }
                if local_best != state[pi] {
                    state[pi] = local_best;
                    best_cost = local_cost;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        (state, best_cost, rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coca_dcsim::Cluster;
    use crate::solver::ExhaustiveSolver;

    fn problem(cluster: &Cluster, lam: f64, a: f64, w: f64) -> SlotProblem<'_> {
        SlotProblem {
            cluster,
            arrival_rate: lam,
            onsite: 0.0,
            energy_weight: a,
            delay_weight: w,
            gamma: 0.95,
            pue: 1.0,
        }
    }

    #[test]
    fn near_exhaustive_on_homogeneous_fleet() {
        let cluster = Cluster::homogeneous(4, 4);
        for &(lam, a, w) in &[
            (5.0, 5.0, 1.0),
            (40.0, 1.0, 10.0),
            (100.0, 10.0, 2.0),
            (140.0, 0.2, 1.0),
        ] {
            let p = problem(&cluster, lam, a, w);
            let exact = ExhaustiveSolver.solve(&p).unwrap();
            let sol = SymmetricSolver::new().solve(&p).unwrap();
            let rel = (sol.outcome.objective - exact.outcome.objective)
                / exact.outcome.objective.max(1e-9);
            assert!(
                rel < 0.02,
                "symmetric {} vs exact {} at (λ={lam}, A={a}, W={w})",
                sol.outcome.objective,
                exact.outcome.objective
            );
        }
    }

    fn tables_for(p: &SlotProblem<'_>) -> FleetTables {
        let mut tables = FleetTables::default();
        tables.refresh(p);
        tables
    }

    #[test]
    fn partitions_group_identical_classes() {
        let cluster = Cluster::scaled_paper_datacenter(8, 3);
        let tables = tables_for(&problem(&cluster, 10.0, 1.0, 1.0));
        assert_eq!(tables.parts.len(), 4, "four heterogeneous classes");
        assert!(tables.parts.iter().all(|p| p.members.len() == 2));
        // One bank row per (partition, positive level), partition-major.
        let rows: usize = tables.parts.iter().map(|p| p.choices - 1).sum();
        assert_eq!(tables.bank.len(), rows);
        assert!(tables.parts.windows(2).all(|w| w[1].row0 == w[0].row0 + w[0].choices - 1));
    }

    #[test]
    fn homogeneous_cluster_is_one_partition() {
        let cluster = Cluster::homogeneous(7, 2);
        let tables = tables_for(&problem(&cluster, 10.0, 1.0, 1.0));
        assert_eq!(tables.parts.len(), 1);
        assert_eq!(tables.parts[0].members.len(), 7);
    }

    #[test]
    fn tables_are_rebuilt_only_for_a_new_fleet_gamma_or_pue() {
        let small = Cluster::homogeneous(3, 4);
        let large = Cluster::homogeneous(5, 4);
        let p = problem(&small, 10.0, 1.0, 1.0);
        let mut tables = tables_for(&p);
        tables.bank.set_multiplicity(0, 2.0); // marks this build
        tables.applied[0] = PartState { level: 1, active: 2 };
        tables.refresh(&SlotProblem { arrival_rate: 20.0, onsite: 3.0, ..p });
        assert_eq!(tables.bank.multiplicity_of(0), 2.0, "slot inputs keep the tables");
        for other in [
            SlotProblem { gamma: 0.9, ..p },
            SlotProblem { pue: 1.3, ..p },
            problem(&large, 10.0, 1.0, 1.0),
        ] {
            tables.refresh(&other);
            assert_eq!(tables.bank.multiplicity_of(0), 0.0, "rebuilt for {other:?}");
            assert_eq!(tables.bank.util_cap_of(0), other.gamma * other.cluster.groups()[0].capacity(1));
            let members: usize = tables.parts.iter().map(|q| q.members.len()).sum();
            assert_eq!(members, other.cluster.num_groups());
            tables.bank.set_multiplicity(0, 2.0);
            tables.applied[0] = PartState { level: 1, active: 2 };
        }
    }

    #[test]
    fn scales_to_paper_fleet() {
        let cluster = Cluster::paper_datacenter();
        // Half-capacity load like the paper's peak.
        let p = problem(&cluster, 1.1e6, 100.0, 100.0);
        let sol = SymmetricSolver::new().solve(&p).unwrap();
        assert!(p.is_feasible(&sol.levels));
        let total: f64 = sol.loads.iter().sum();
        assert!((total - 1.1e6).abs() / 1.1e6 < 1e-6);
        assert!(sol.outcome.objective.is_finite());
    }

    #[test]
    fn low_load_turns_most_groups_off() {
        let cluster = Cluster::homogeneous(10, 10);
        // 2% of capacity with pricey electricity: most groups should sleep.
        let p = problem(&cluster, 20.0, 50.0, 1.0);
        let sol = SymmetricSolver::new().solve(&p).unwrap();
        let on = sol.levels.iter().filter(|&&c| c > 0).count();
        assert!(on <= 3, "expected consolidation, {on} groups on");
    }

    #[test]
    fn warm_start_shrinks_later_solves_without_hurting_quality() {
        let cluster = Cluster::homogeneous(6, 4);
        let mut s = SymmetricSolver::new();
        let p1 = problem(&cluster, 50.0, 5.0, 5.0);
        let a = s.solve(&p1).unwrap();
        // Same instance again: warm start must reproduce (or improve).
        let b = s.solve(&p1).unwrap();
        assert!(b.outcome.objective <= a.outcome.objective + 1e-9);
        s.reset();
        let c = s.solve(&p1).unwrap();
        assert!((c.outcome.objective - b.outcome.objective).abs() < 1e-6);
    }

    #[test]
    fn snapshot_roundtrips_warm_state() {
        let cluster = Cluster::homogeneous(6, 4);
        let p1 = problem(&cluster, 50.0, 5.0, 5.0);
        let p2 = problem(&cluster, 80.0, 2.0, 7.0);

        // Solve twice, snapshot, solve a third instance: a restored clone
        // must produce the identical third solution.
        let mut s = SymmetricSolver::new();
        let _ = s.solve(&p1).unwrap();
        let _ = s.solve(&p2).unwrap();
        let snap = s.snapshot_state().unwrap();
        assert!(!matches!(snap, serde::Value::Null), "warm state captured");

        let mut clone = SymmetricSolver::new();
        clone.restore_state(&snap).unwrap();
        let a = s.solve(&p1).unwrap();
        let b = clone.solve(&p1).unwrap();
        assert_eq!(a.levels, b.levels);
        assert_eq!(a.outcome.objective, b.outcome.objective);

        // Null restores to cold; malformed snapshots are rejected.
        clone.restore_state(&serde::Value::Null).unwrap();
        assert!(clone.restore_state(&serde::Value::Int(-1)).is_err());
        assert!(clone
            .restore_state(&serde::Value::Seq(vec![serde::Value::Int(1)]))
            .is_err());
    }

    #[test]
    fn memo_matches_keys_exactly_not_by_hash() {
        let st = |level, active| PartState { level, active };
        let mut memo = StateMemo::default();
        memo.clear(2);
        // Every key below shares one hash: only the key compare tells them
        // apart, along one probe chain that also survives the table's
        // growth past 32 entries.
        let keys: Vec<[PartState; 2]> = (1..=40).map(|n| [st(1, n), st(2, 40 - n)]).collect();
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(memo.get(k, 7), None);
            memo.insert(k, 7, i as f64);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(memo.get(k, 7), Some(i as f64));
        }
        // "All off" is one state whatever level it names.
        assert_eq!(memo.get(&[st(1, 0), st(2, 40)], StateMemo::hash(&[st(1, 0), st(2, 40)])), None);
        memo.insert(&[st(3, 0), st(2, 40)], StateMemo::hash(&[st(3, 0), st(2, 40)]), -1.0);
        assert_eq!(memo.get(&[st(1, 0), st(2, 40)], StateMemo::hash(&[st(1, 0), st(2, 40)])), Some(-1.0));
        memo.clear(2);
        assert_eq!(memo.get(&keys[0], 7), None, "clear forgets every entry");
    }

    #[test]
    fn every_solve_prices_afresh_and_counts_its_work() {
        let cluster = Cluster::scaled_paper_datacenter(8, 3);
        let p = problem(&cluster, 30.0, 5.0, 5.0);
        let mut s = SymmetricSolver::new();
        for _ in 0..2 {
            let _ = s.solve(&p).unwrap();
            // The second solve is warm but must not reuse the first one's
            // prices: each solve prices at least its starting states.
            assert!(s.stats().batched_candidates >= 1);
            assert!(s.stats().bisection_evals >= s.stats().batched_candidates);
        }
    }

    #[test]
    fn overload_detected() {
        let cluster = Cluster::homogeneous(2, 1);
        let p = problem(&cluster, 1e5, 1.0, 1.0);
        assert!(matches!(SymmetricSolver::new().solve(&p), Err(SimError::Overload { .. })));
    }

    #[test]
    fn zero_load_all_off() {
        let cluster = Cluster::homogeneous(3, 4);
        let p = problem(&cluster, 0.0, 1.0, 1.0);
        let sol = SymmetricSolver::new().solve(&p).unwrap();
        assert_eq!(sol.outcome.objective, 0.0);
        assert!(sol.levels.iter().all(|&c| c == 0));
    }
}
