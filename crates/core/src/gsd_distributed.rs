//! GSD as a message-passing system (the "distributed" in the paper title).
//!
//! The sequential engine in [`crate::gsd`] runs the same Markov chain, but
//! evaluates every candidate centrally. Here the structure of Sec. 4.2 is
//! implemented with real threads and channels:
//!
//! * **Server agents** (worker threads) own disjoint shards of the server
//!   groups. Only the owner of a group knows its speed; speed updates are
//!   messages (paper line 7: a randomly selected server explores a new
//!   speed). Each agent collapses its shard into the queue types the
//!   cluster's table ([`coca_dcsim::QueueTypes`]) assigns its groups, kept
//!   in the shard's own first-appearance order, with integer active counts
//!   — the same delta-aggregation device as
//!   [`coca_dcsim::incremental::SlotEvalContext`] — so a `SetLevel` is an
//!   O(1) count update and every reduce round costs O(#local types), not
//!   O(local groups).
//! * **Load distribution** (paper line 3, "solved efficiently using any
//!   distributed optimization technique — see dual decomposition") runs as
//!   an actual dual decomposition: the coordinator broadcasts the dual
//!   variable ν (the "water level"), each agent computes its local optimal
//!   loads `λᵢ(ν)` and replies with partial aggregates; the coordinator
//!   bisects ν until the coupling constraint `Σλᵢ = λ` is met. The
//!   `[p−r]⁺` kink is handled with the same three-regime analysis as the
//!   exact solver, each regime being one more broadcast/reduce round.
//! * The **coordinator** keeps the warm-start machinery on its side of
//!   the wire: per-shard aggregate replies are cached with dirty bits
//!   (an `Aggregates` round only re-queries the shard whose speed
//!   changed), and each regime's ν bracket (plus the kink weight μ) is
//!   warm-started from the previous proposal under the same
//!   sign-verify-then-fall-back rule as
//!   [`coca_opt::waterfill::SoaWaterfill`]. The bracket search is where
//!   the broadcast rounds go, so a warm bracket directly cuts the message
//!   count per proposal. All of this state is slot-scoped — it lives and
//!   dies inside one `solve` call (see [`coca_dcsim::incremental`]).
//! * The coordinator runs the acceptance rule and tells the owner to commit
//!   or revert — the paper's "servers communicate decisions to each other /
//!   a coordinating node may facilitate message passing" (semi-distributed
//!   mode).
//!
//! Proposals are priced through `CoordinatorOracle` by the same Gibbs
//! driver ([`run_gibbs_batched`]) and the same RNG discipline as the
//! sequential engine, so both engines walk the same chain. The test-suite
//! checks that the distributed evaluation agrees with the centralized
//! [`optimal_dispatch`] to floating-point accuracy (including warm-started
//! evaluations along a flip walk), that the chain equals the cold
//! reference chain and the sequential engine's chain slot by slot, and
//! that the solver reaches the exhaustive optimum on small fleets.

// A panic mid-slot aborts the control loop Theorem 2 bounds: return typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use std::cell::Cell;
use std::sync::Arc;

use crossbeam::channel::{bounded, Receiver, Sender};
use rand::rngs::StdRng;
use rand::SeedableRng;

use coca_dcsim::dispatch::{optimal_dispatch, SlotProblem};
use coca_dcsim::incremental::EvalStats;
use coca_dcsim::SimError;
use coca_opt::bisect::{grow_upper_bracket, illinois_increasing, BisectOptions};
use coca_opt::gibbs::{run_gibbs_batched, CandidateOracle};
use coca_opt::waterfill::WARM_BRACKET_SPAN;

use coca_obs::SolverObserver;

use crate::gsd::{GsdOptions, INFEASIBLE_COST};
use crate::solver::{P3Solution, P3Solver, SolveStats};

/// Requests the coordinator sends to a server agent.
#[derive(Debug, Clone)]
enum Request {
    /// Set the speed level of a locally-owned group.
    SetLevel { local: usize, level: usize },
    /// Reply with the shard's capped capacity and static power.
    Aggregates,
    /// Reply with `min_i (a_eff·cᵢ + W/Xᵢ)` over active local queues.
    MinMarginal { a_eff: f64, delay_weight: f64 },
    /// Reply with `Σ λᵢ(ν)` over active local queues.
    TotalAt { a_eff: f64, delay_weight: f64, nu: f64 },
    /// Reply with the shard's (power, delay, load) at the final water level.
    Evaluate { a_eff: f64, delay_weight: f64, nu: f64 },
    /// Shut down.
    Stop,
}

/// Replies from a server agent.
#[derive(Debug, Clone)]
enum Reply {
    /// (capped capacity, static power).
    Aggregates(f64, f64),
    /// Minimum marginal cost (∞ when the shard has no active queue).
    MinMarginal(f64),
    /// Partial `Σ λᵢ(ν)`.
    TotalAt(f64),
    /// (partial power incl. static, partial delay, partial load).
    Evaluate(f64, f64, f64),
    /// SetLevel acknowledgement.
    Ack,
}

/// A server agent's shard of the fleet, collapsed into the cluster's
/// queue types ([`coca_dcsim::QueueTypes`]) like the coordinator-side
/// [`coca_dcsim::incremental::SlotEvalContext`]: one local row per type
/// its groups use, per-`(group, level ≥ 1)` local row ids, and integer
/// active counts. `SetLevel` is an O(1) count
/// delta, and every reduce round (`Aggregates`, `MinMarginal`, `TotalAt`,
/// `Evaluate`) runs over the distinct types with multiplicity instead of
/// walking every local group. Counts are integers, so a long proposal
/// stream cannot accumulate floating-point drift.
#[derive(Debug, Default)]
struct AgentShard {
    /// Distinct (capacity, util_cap, energy_slope·PUE, static·PUE) rows.
    types: Vec<(f64, f64, f64, f64)>,
    /// Type id of local `(group, level c ≥ 1)` pairs, row-major by group.
    type_ids: Vec<usize>,
    /// Start of each local group's row range in `type_ids`.
    type_offsets: Vec<usize>,
    /// Active-queue count per type.
    counts: Vec<u32>,
    /// Current level of each local group.
    current: Vec<usize>,
}

impl AgentShard {
    /// Collapses the groups `members`, in order, into a shard over the
    /// cluster's queue types (cold path, once per solve) and seeds their
    /// `initial` levels into the counts. A type id new to the shard takes
    /// the next local row, so local rows keep first-appearance order.
    fn new(problem: &SlotProblem<'_>, members: impl Iterator<Item = usize>, initial: &[usize]) -> Self {
        let types = problem.cluster.queue_types();
        let mut shard = Self::default();
        let mut local_of: Vec<Option<usize>> = vec![None; types.rows().len()];
        for g in members {
            shard.type_offsets.push(shard.type_ids.len());
            for &id in types.group(g) {
                let local = *local_of[id].get_or_insert_with(|| {
                    shard.types.push(types.rows()[id].scaled(problem.gamma, problem.pue));
                    shard.counts.push(0);
                    shard.types.len() - 1
                });
                shard.type_ids.push(local);
            }
            shard.current.push(0);
            shard.set_level(shard.current.len() - 1, initial[g]);
        }
        shard
    }

    // audit:hot-path: begin — O(1) per-proposal delta update
    fn set_level(&mut self, local: usize, level: usize) {
        let old = self.current[local];
        if old == level {
            return;
        }
        let off = self.type_offsets[local];
        if old > 0 {
            self.counts[self.type_ids[off + old - 1]] -= 1;
        }
        if level > 0 {
            self.counts[self.type_ids[off + level - 1]] += 1;
        }
        self.current[local] = level;
    }
    // audit:hot-path: end

    fn aggregates(&self) -> (f64, f64) {
        let (mut cap, mut static_p) = (0.0, 0.0);
        for (t, &n) in self.types.iter().zip(&self.counts) {
            if n > 0 {
                let m = f64::from(n);
                cap += m * t.1; // util_cap
                static_p += m * t.3;
            }
        }
        (cap, static_p)
    }

    fn min_marginal(&self, a_eff: f64, w: f64) -> f64 {
        let mut min = f64::INFINITY;
        for (t, &n) in self.types.iter().zip(&self.counts) {
            if n > 0 {
                debug_assert!(t.0 > 0.0, "speed ladder capacities are positive");
                min = min.min(a_eff * t.2 + w / t.0);
            }
        }
        min
    }

    fn total_at(&self, a_eff: f64, w: f64, nu: f64) -> f64 {
        let mut total = 0.0;
        for (t, &n) in self.types.iter().zip(&self.counts) {
            if n > 0 {
                total += f64::from(n) * lambda_of(nu, a_eff, w, t.0, t.1, t.2);
            }
        }
        total
    }

    fn evaluate(&self, a_eff: f64, w: f64, nu: f64) -> (f64, f64, f64) {
        let (mut power, mut delay, mut load) = (0.0, 0.0, 0.0);
        for (t, &n) in self.types.iter().zip(&self.counts) {
            if n > 0 {
                let m = f64::from(n);
                let l = lambda_of(nu, a_eff, w, t.0, t.1, t.2);
                power += m * (t.3 + t.2 * l);
                if l > 0.0 {
                    delay += m * l / (t.0 - l);
                }
                load += m * l;
            }
        }
        (power, delay, load)
    }
}

fn lambda_of(nu: f64, a_eff: f64, w: f64, cap: f64, util_cap: f64, slope: f64) -> f64 {
    debug_assert!(cap > 0.0, "speed ladder capacities are positive");
    let gap = nu - a_eff * slope;
    if gap <= w / cap {
        0.0
    } else {
        (cap - (w * cap / gap).sqrt()).clamp(0.0, util_cap)
    }
}

fn agent_loop(shard: &mut AgentShard, rx: &Receiver<Request>, tx: &Sender<Reply>) {
    // audit:ordered(dedicated per-shard channel; the coordinator sends one request and awaits one reply, so arrival order is the request order)
    while let Ok(req) = rx.recv() {
        let reply = match req {
            Request::SetLevel { local, level } => {
                shard.set_level(local, level);
                Reply::Ack
            }
            Request::Aggregates => {
                let (cap, static_p) = shard.aggregates();
                Reply::Aggregates(cap, static_p)
            }
            Request::MinMarginal { a_eff, delay_weight } => {
                Reply::MinMarginal(shard.min_marginal(a_eff, delay_weight))
            }
            Request::TotalAt { a_eff, delay_weight, nu } => {
                Reply::TotalAt(shard.total_at(a_eff, delay_weight, nu))
            }
            Request::Evaluate { a_eff, delay_weight, nu } => {
                let (p, d, l) = shard.evaluate(a_eff, delay_weight, nu);
                Reply::Evaluate(p, d, l)
            }
            Request::Stop => break,
        };
        if tx.send(reply).is_err() {
            break;
        }
    }
}

/// Coordinator-side handle to the agent pool.
struct AgentPool {
    txs: Vec<Sender<Request>>,
    rxs: Vec<Receiver<Reply>>,
    /// Owner worker and local index of each group.
    owner: Vec<(usize, usize)>,
}

impl AgentPool {
    // Panic policy: every send/recv/reply-shape failure below is a protocol
    // bug between coordinator and agents, never a data-dependent condition.
    // All pool calls happen inside the `crossbeam::thread::scope` in
    // `DistributedGsdSolver::solve`, which converts a panic into
    // `SimError::Internal` at the solver boundary.
    fn broadcast(&self, req: &Request) -> Vec<Reply> {
        for tx in &self.txs {
            #[expect(clippy::expect_used, reason = "contained by the thread scope in solve()")]
            tx.send(req.clone()).expect("agent alive");
        }
        #[expect(clippy::expect_used, reason = "contained by the thread scope in solve()")]
        // audit:ordered(replies drain in shard-index order from dedicated per-shard channels, one reply per request)
        self.rxs.iter().map(|rx| rx.recv().expect("agent replies")).collect()
    }

    fn num_shards(&self) -> usize {
        self.txs.len()
    }

    fn set_level(&self, group: usize, level: usize) {
        let (w, local) = self.owner[group];
        #[expect(clippy::expect_used, reason = "contained by the thread scope in solve()")]
        self.txs[w].send(Request::SetLevel { local, level }).expect("agent alive");
        #[expect(clippy::expect_used, reason = "contained by the thread scope in solve()")]
        // audit:ordered(dedicated per-shard channel; strictly paired request/reply, so the ack is the one just requested)
        match self.rxs[w].recv().expect("ack") {
            Reply::Ack => {}
            #[expect(clippy::panic, reason = "contained by the thread scope in solve()")]
            other => panic!("expected Ack, got {other:?}"),
        }
    }

    /// Queries a single shard's aggregates (dirty-shard refresh path).
    fn shard_aggregates(&self, w: usize) -> (f64, f64) {
        #[expect(clippy::expect_used, reason = "contained by the thread scope in solve()")]
        self.txs[w].send(Request::Aggregates).expect("agent alive");
        #[expect(clippy::expect_used, reason = "contained by the thread scope in solve()")]
        // audit:ordered(dedicated per-shard channel; strictly paired request/reply, so the reply is the one just requested)
        match self.rxs[w].recv().expect("agent replies") {
            Reply::Aggregates(c, s) => (c, s),
            #[expect(clippy::panic, reason = "contained by the thread scope in solve()")]
            other => panic!("expected Aggregates, got {other:?}"),
        }
    }

    fn min_marginal(&self, a_eff: f64, w: f64) -> f64 {
        self.broadcast(&Request::MinMarginal { a_eff, delay_weight: w })
            .into_iter()
            .map(|r| match r {
                Reply::MinMarginal(m) => m,
                #[expect(clippy::panic, reason = "contained by the thread scope in solve()")]
                other => panic!("expected MinMarginal, got {other:?}"),
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn total_at(&self, a_eff: f64, w: f64, nu: f64) -> f64 {
        self.broadcast(&Request::TotalAt { a_eff, delay_weight: w, nu })
            .into_iter()
            .map(|r| match r {
                Reply::TotalAt(t) => t,
                #[expect(clippy::panic, reason = "contained by the thread scope in solve()")]
                other => panic!("expected TotalAt, got {other:?}"),
            })
            .sum()
    }

    fn evaluate_at(&self, a_eff: f64, w: f64, nu: f64) -> (f64, f64, f64) {
        let (mut power, mut delay, mut load) = (0.0, 0.0, 0.0);
        for r in self.broadcast(&Request::Evaluate { a_eff, delay_weight: w, nu }) {
            match r {
                Reply::Evaluate(p, d, l) => {
                    power += p;
                    delay += d;
                    load += l;
                }
                #[expect(clippy::panic, reason = "contained by the thread scope in solve()")]
                other => panic!("expected Evaluate, got {other:?}"),
            }
        }
        (power, delay, load)
    }
}

/// Warm-bracket slots, one per water-filling regime (the three regimes
/// solve different problems, so their water levels warm independently).
const REGIME_ACTIVE: usize = 0;
const REGIME_SLACK: usize = 1;
const REGIME_KINK: usize = 2;

/// One dual-decomposition solve for a fixed linear energy weight: bracket
/// ν (warm bracket when sign-verified, cold `grow_upper_bracket`
/// otherwise), bisect the coupling residual `Σλᵢ(ν) − λ` to zero, then one
/// `Evaluate` round. Returns (power, delay, ν).
fn solve_linear_via(
    pool: &AgentPool,
    total_at: &dyn Fn(f64) -> f64,
    a_eff: f64,
    w: f64,
    lam: f64,
    warm: Option<f64>,
) -> Option<(f64, f64, f64)> {
    let nu_lo = pool.min_marginal(a_eff, w);
    if !nu_lo.is_finite() {
        return None;
    }
    let bracket = warm.and_then(|prev| {
        if !(prev.is_finite() && prev > nu_lo) {
            return None;
        }
        let lo = (prev * (1.0 - WARM_BRACKET_SPAN)).max(nu_lo);
        let hi = prev * (1.0 + WARM_BRACKET_SPAN);
        // The bracketed search clamps to the endpoints of a violated
        // bracket, so a warm bracket must be sign-verified before use —
        // the identical rule as `SoaWaterfill`'s penalty solve.
        (lo < hi && total_at(lo) - lam <= 0.0 && total_at(hi) - lam >= 0.0).then_some((lo, hi))
    });
    let (nu_lo, nu_hi) = match bracket {
        Some(b) => b,
        None => {
            let start = nu_lo.abs().max(1.0) * 2.0;
            (nu_lo, grow_upper_bracket(start, |nu| total_at(nu) - lam, 200).ok()?)
        }
    };
    let opts = BisectOptions { x_tol: 0.0, f_tol: lam.max(1.0) * 1e-12, max_iter: 200 };
    // Illinois instead of plain bisection: each evaluation is a full
    // broadcast/reduce round, so superlinear convergence directly cuts the
    // message count per proposal.
    let nu = illinois_increasing(nu_lo, nu_hi, |nu| total_at(nu) - lam, opts).ok()?;
    let (power, delay, load) = pool.evaluate_at(a_eff, w, nu);
    // Tiny bisection residual: treat the dispatched load as λ (the
    // sequential solver redistributes it; the objective impact is ≤ ulps).
    let _ = load;
    Some((power, delay, nu))
}

/// Slot-scoped coordinator state layered over the agent pool: the
/// diff-sync mirror, the per-shard aggregate cache with dirty-bit
/// invalidation (an `Aggregates` round only messages shards whose speeds
/// changed), and the warm ν/μ brackets. Built fresh per `solve` call.
struct Coordinator<'a> {
    pool: AgentPool,
    problem: SlotProblem<'a>,
    /// Mirror of the agents' speed vector, used to diff-sync state coming
    /// from the Gibbs chain.
    mirror: Vec<usize>,
    /// Cached (util-capped capacity, static power) per shard.
    shard_agg: Vec<(f64, f64)>,
    /// Shards whose cached aggregates are stale.
    agg_dirty: Vec<bool>,
    /// Warm water levels, one per regime.
    warm_nu: [Option<f64>; 3],
    /// Warm boundary weight μ for the kink regime.
    warm_mu: Option<f64>,
    stats: EvalStats,
}

impl<'a> Coordinator<'a> {
    fn new(pool: AgentPool, problem: SlotProblem<'a>, mirror: Vec<usize>) -> Self {
        let n = pool.num_shards();
        Self {
            pool,
            problem,
            mirror,
            shard_agg: vec![(0.0, 0.0); n],
            agg_dirty: vec![true; n],
            warm_nu: [None; 3],
            warm_mu: None,
            stats: EvalStats::default(),
        }
    }

    // audit:hot-path: begin — per-proposal diff-sync (one message per changed group)
    fn sync(&mut self, state: &[usize]) {
        for (gi, &new) in state.iter().enumerate() {
            if new != self.mirror[gi] {
                self.pool.set_level(gi, new);
                self.agg_dirty[self.pool.owner[gi].0] = true;
                self.mirror[gi] = new;
            }
        }
    }
    // audit:hot-path: end

    /// The Gibbs cost oracle: diff-sync the agents, then run a
    /// warm-started distributed evaluation.
    fn cost(&mut self, state: &[usize]) -> f64 {
        self.sync(state);
        self.evaluate_current()
    }

    /// Fleet (capacity, static power) from the per-shard cache, messaging
    /// only dirty shards.
    fn aggregates(&mut self) -> (f64, f64) {
        for w in 0..self.agg_dirty.len() {
            if self.agg_dirty[w] {
                self.shard_agg[w] = self.pool.shard_aggregates(w);
                self.agg_dirty[w] = false;
            }
        }
        let (mut cap, mut static_p) = (0.0, 0.0);
        for &(c, s) in &self.shard_agg {
            cap += c;
            static_p += s;
        }
        (cap, static_p)
    }

    /// Distributed water-filling for a fixed linear energy weight, warm-
    /// starting the ν bracket from the regime's previous solution; returns
    /// (power, delay, ν) or None when there is no active capacity.
    fn solve_linear(&mut self, a_eff: f64, w: f64, lam: f64, regime: usize) -> Option<(f64, f64, f64)> {
        let rounds = Cell::new(0u64);
        let out = {
            let pool = &self.pool;
            let total_at = |nu: f64| -> f64 {
                rounds.set(rounds.get() + 1);
                pool.total_at(a_eff, w, nu)
            };
            solve_linear_via(pool, &total_at, a_eff, w, lam, self.warm_nu[regime])
        };
        self.stats.bisection_evals += rounds.get();
        if let Some((_, _, nu)) = out {
            self.warm_nu[regime] = Some(nu);
        }
        out
    }

    /// Distributed three-regime evaluation of the P3 objective for the
    /// agents' current speed vector. Mirrors `coca_opt::waterfill::solve`.
    fn evaluate_current(&mut self) -> f64 {
        let lam = self.problem.arrival_rate;
        let a = self.problem.energy_weight;
        let w = self.problem.delay_weight;
        let r = self.problem.onsite;

        let (cap, _static_p) = self.aggregates();
        if lam > cap * (1.0 + 1e-12) {
            return INFEASIBLE_COST;
        }
        // Both are non-negative sums, so `<= 0` is the exact-zero test
        // without a raw float equality.
        if lam <= 0.0 && cap <= 0.0 {
            return 1e-9; // all off, nothing to serve: zero cost (+ε)
        }

        let active = match self.solve_linear(a, w, lam, REGIME_ACTIVE) {
            Some(v) => v,
            None => return INFEASIBLE_COST,
        };
        let objective = |power: f64, delay: f64| a * (power - r).max(0.0) + w * delay;
        // energy_weight is non-negative, so `<= 0` is the exact-zero test.
        if active.0 >= r * (1.0 - 1e-9) || a <= 0.0 {
            return objective(active.0, active.1) + 1e-9;
        }
        let slack = match self.solve_linear(0.0, w, lam, REGIME_SLACK) {
            Some(v) => v,
            None => return INFEASIBLE_COST,
        };
        if slack.0 <= r * (1.0 + 1e-9) {
            return objective(slack.0, slack.1) + 1e-9;
        }
        let kink = self.solve_kink(a, w, lam, r);
        let mut best = objective(active.0, active.1).min(objective(slack.0, slack.1));
        if let Some((p, d, _)) = kink {
            best = best.min(objective(p, d));
        }
        best + 1e-9
    }

    /// Kink regime: bisect the effective energy weight μ ∈ [0, A] until
    /// onsite power pins to r, warm-starting the μ bracket from the
    /// previous proposal (sign-verified, cold `[0, A]` fallback — the same
    /// rule as `SoaWaterfill`'s kink search).
    fn solve_kink(&mut self, a: f64, w: f64, lam: f64, r: f64) -> Option<(f64, f64, f64)> {
        let (mut lo, mut hi) = (0.0, a);
        if let Some(prev) = self.warm_mu {
            if prev.is_finite() {
                let half = WARM_BRACKET_SPAN * a;
                let wlo = (prev - half).max(0.0);
                let whi = (prev + half).min(a);
                let glo = match self.solve_linear(wlo, w, lam, REGIME_KINK) {
                    Some((p, _, _)) => r - p,
                    None => f64::NAN,
                };
                let ghi = match self.solve_linear(whi, w, lam, REGIME_KINK) {
                    Some((p, _, _)) => r - p,
                    None => f64::NAN,
                };
                if wlo < whi && glo <= 0.0 && ghi >= 0.0 {
                    lo = wlo;
                    hi = whi;
                }
            }
        }
        // Tight f_tol matching the centralized kink search: at the kink the
        // objective error is first-order in the stopping power gap.
        let opts = BisectOptions { x_tol: 0.0, f_tol: r.abs().max(1.0) * 1e-13, max_iter: 200 };
        let mu = illinois_increasing(
            lo,
            hi,
            |mu| match self.solve_linear(mu, w, lam, REGIME_KINK) {
                Some((p, _, _)) => r - p,
                None => f64::NAN,
            },
            opts,
        )
        .ok()?;
        self.warm_mu = Some(mu);
        self.solve_linear(mu, w, lam, REGIME_KINK)
    }
}

/// [`CandidateOracle`] adapter over the coordinator — the only way the
/// distributed chain prices a proposal. The committed state lives in
/// `state`; candidates are priced by flipping one entry and letting
/// [`Coordinator::sync`]'s diff against the mirror ship exactly the
/// changed-group messages. A rejected candidate is not messaged back
/// eagerly — the next sync diffs it away.
struct CoordinatorOracle<'c, 'a> {
    coord: &'c mut Coordinator<'a>,
    state: Vec<usize>,
}

impl CandidateOracle for CoordinatorOracle<'_, '_> {
    fn current_cost(&mut self) -> f64 {
        self.coord.cost(&self.state)
    }

    fn candidate_cost(&mut self, site: usize, level: usize) -> f64 {
        self.coord.stats.batched_candidates += 1;
        let old = self.state[site];
        self.state[site] = level;
        let c = self.coord.cost(&self.state);
        self.state[site] = old;
        c
    }

    fn commit(&mut self, site: usize, level: usize) {
        // The mirror already holds `level` from the candidate evaluation;
        // keeping it in `state` makes the next diff-sync a no-op.
        self.state[site] = level;
    }
}

/// GSD running over message-passing server agents.
#[derive(Debug)]
pub struct DistributedGsdSolver {
    opts: GsdOptions,
    /// Number of server-agent threads.
    pub num_workers: usize,
    /// Chain RNG, seeded from `opts.seed` at construction and on
    /// [`P3Solver::reset`] and carried across solves, exactly like the
    /// sequential engine's.
    rng: StdRng,
    stats: SolveStats,
    observer: Option<Arc<dyn SolverObserver + Send + Sync>>,
    warm: Option<Vec<usize>>,
}

impl DistributedGsdSolver {
    /// Creates a solver with the given GSD options and worker count.
    pub fn new(opts: GsdOptions, num_workers: usize) -> Self {
        assert!(num_workers >= 1);
        let rng = StdRng::seed_from_u64(opts.seed);
        Self {
            opts,
            num_workers,
            rng,
            stats: SolveStats::default(),
            observer: None,
            warm: None,
        }
    }

    /// Work counters of the most recent solve.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }

    /// Attaches a solver observer; [`coca_obs::SolveEvent`]s are emitted
    /// after every solve.
    pub fn set_observer(&mut self, observer: Arc<dyn SolverObserver + Send + Sync>) {
        self.observer = Some(observer);
    }

    /// Records the counters for the solve that just completed (`stats` is
    /// the source of truth).
    fn finish_solve(&mut self, stats: SolveStats) {
        self.stats = stats;
        if let Some(o) = &self.observer {
            o.on_solve(&stats.to_event("gsd-distributed"));
        }
    }

    /// Deals the groups round-robin to the agents; returns the shards and
    /// each group's (agent, local index).
    fn build_agents(&self, problem: &SlotProblem<'_>, initial: &[usize]) -> (Vec<AgentShard>, Vec<(usize, usize)>) {
        let n_groups = problem.cluster.num_groups();
        let n_workers = self.num_workers.min(n_groups);
        let mut owner = vec![(0, 0); n_groups];
        let shards = (0..n_workers)
            .map(|w| {
                let members = (w..n_groups).step_by(n_workers);
                for (local, g) in members.clone().enumerate() {
                    owner[g] = (w, local);
                }
                AgentShard::new(problem, members, initial)
            })
            .collect();
        (shards, owner)
    }
}

impl P3Solver for DistributedGsdSolver {
    fn solve(&mut self, problem: &SlotProblem<'_>) -> Result<P3Solution, SimError> {
        let initial = match self.warm.take() {
            Some(w)
                if w.len() == problem.cluster.num_groups() && problem.is_feasible(&w) =>
            {
                w
            }
            _ => {
                let full = problem.cluster.full_speed_vector();
                if !problem.is_feasible(&full) {
                    return Err(SimError::Overload {
                        slot: 0,
                        arrival_rate: problem.arrival_rate,
                        max_capacity: problem.gamma * problem.cluster.max_capacity(),
                    });
                }
                full
            }
        };

        let (mut shards, owner) = self.build_agents(problem, &initial);
        let counts = problem.cluster.choice_counts();
        let opts = self.opts.gibbs();
        let rng = &mut self.rng;

        let (result, stats) = crossbeam::thread::scope(|scope| {
            let mut txs = Vec::new();
            let mut rxs = Vec::new();
            for shard in shards.iter_mut() {
                let (tx_req, rx_req) = bounded::<Request>(4);
                let (tx_rep, rx_rep) = bounded::<Reply>(4);
                scope.spawn(move |_| agent_loop(shard, &rx_req, &tx_rep));
                txs.push(tx_req);
                rxs.push(rx_rep);
            }
            let pool = AgentPool { txs, rxs, owner };
            let mut coord = Coordinator::new(pool, *problem, initial.clone());

            let mut oracle = CoordinatorOracle { coord: &mut coord, state: initial.clone() };
            let outcome = run_gibbs_batched(counts, &initial, &mut oracle, &opts, rng)
                .map_err(SimError::Opt);
            for tx in &coord.pool.txs {
                let _ = tx.send(Request::Stop);
            }
            outcome.map(|o| (o, coord.stats))
        })
        .map_err(|_| {
            SimError::Internal("distributed GSD agent thread panicked".into())
        })??;

        self.finish_solve(SolveStats {
            iterations: result.iterations_run,
            accepted: result.accepted,
            bisection_evals: stats.bisection_evals,
            batched_candidates: stats.batched_candidates,
        });

        let levels = result.best_state;
        if !problem.is_feasible(&levels) {
            return Err(SimError::InvalidDecision(
                "distributed GSD ended on an infeasible state".into(),
            ));
        }
        let out = optimal_dispatch(problem, &levels)?;
        if self.opts.warm_start {
            self.warm = Some(levels.clone());
        }
        Ok(P3Solution { loads: out.loads.clone(), levels, outcome: out })
    }

    fn reset(&mut self) {
        self.warm = None;
        self.rng = StdRng::seed_from_u64(self.opts.seed);
        self.stats = SolveStats::default();
    }

    fn name(&self) -> &'static str {
        "gsd-distributed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gsd::{cold_chain, GsdSolver};
    use crate::solver::ExhaustiveSolver;
    use coca_dcsim::Cluster;
    use coca_opt::schedule::TemperatureSchedule;

    fn problem(cluster: &Cluster, lam: f64, a: f64, w: f64, r: f64) -> SlotProblem<'_> {
        SlotProblem {
            cluster,
            arrival_rate: lam,
            onsite: r,
            energy_weight: a,
            delay_weight: w,
            gamma: 0.95,
            pue: 1.0,
        }
    }

    /// Spawns a live agent pool for `levels` and hands the coordinator to
    /// the closure.
    fn with_coordinator<T>(
        problem: &SlotProblem<'_>,
        levels: &[usize],
        workers: usize,
        f: impl FnOnce(&mut Coordinator<'_>) -> T,
    ) -> T {
        let solver = DistributedGsdSolver::new(GsdOptions::default(), workers);
        let (mut shards, owner) = solver.build_agents(problem, levels);
        crossbeam::thread::scope(|scope| {
            let mut txs = Vec::new();
            let mut rxs = Vec::new();
            for shard in shards.iter_mut() {
                let (tx_req, rx_req) = bounded::<Request>(4);
                let (tx_rep, rx_rep) = bounded::<Reply>(4);
                scope.spawn(move |_| agent_loop(shard, &rx_req, &tx_rep));
                txs.push(tx_req);
                rxs.push(rx_rep);
            }
            let pool = AgentPool { txs, rxs, owner };
            let mut coord = Coordinator::new(pool, *problem, levels.to_vec());
            let out = f(&mut coord);
            for tx in &coord.pool.txs {
                let _ = tx.send(Request::Stop);
            }
            out
        })
        .unwrap()
    }

    /// Drives the agent pool directly to compare the distributed evaluation
    /// with the centralized one on a fixed speed vector.
    fn distributed_cost(problem: &SlotProblem<'_>, levels: &[usize], workers: usize) -> f64 {
        with_coordinator(problem, levels, workers, |coord| coord.cost(levels))
    }

    #[test]
    fn distributed_evaluation_matches_centralized() {
        let cluster = Cluster::homogeneous(5, 4);
        for &(lam, a, w, r) in &[
            (60.0, 5.0, 2.0, 0.0),
            (60.0, 5.0, 2.0, 4.0),   // straddles regimes
            (20.0, 100.0, 1.0, 3.0), // kink territory
            (0.0, 1.0, 1.0, 0.0),
        ] {
            let p = problem(&cluster, lam, a, w, r);
            let levels = cluster.full_speed_vector();
            let central = optimal_dispatch(&p, &levels).unwrap().objective;
            let distributed = distributed_cost(&p, &levels, 3) - 1e-9;
            assert!(
                (central - distributed).abs() <= central.abs() * 1e-6 + 1e-6,
                "central {central} vs distributed {distributed} at (λ={lam}, A={a}, W={w}, r={r})"
            );
        }
    }

    #[test]
    fn warm_evaluations_match_centralized_across_flips() {
        let cluster = Cluster::homogeneous(4, 4);
        let p = problem(&cluster, 45.0, 4.0, 2.0, 3.0);
        let full = cluster.full_speed_vector();
        with_coordinator(&p, &full, 2, |coord| {
            let mut state = full.clone();
            // Walk through speed flips so later evaluations run on warm ν/μ
            // brackets and cached shard aggregates, including revisited
            // states and a low-capacity excursion.
            let flips =
                [(0, 2), (1, 1), (2, 3), (0, 4), (3, 2), (1, 0), (1, 4), (2, 3), (2, 1), (0, 2)];
            for &(g, lvl) in &flips {
                state[g] = lvl;
                if p.is_feasible(&state) {
                    let central = optimal_dispatch(&p, &state).unwrap().objective;
                    let distributed = coord.cost(&state) - 1e-9;
                    assert!(
                        (central - distributed).abs() <= central.abs() * 1e-6 + 1e-6,
                        "central {central} vs distributed {distributed} after flip ({g}, {lvl})"
                    );
                } else {
                    assert_eq!(coord.cost(&state), INFEASIBLE_COST);
                }
            }
            assert!(coord.stats.bisection_evals > 0);
        });
    }

    #[test]
    fn solve_populates_kernel_stats() {
        let cluster = Cluster::homogeneous(3, 4);
        let p = problem(&cluster, 40.0, 5.0, 5.0, 2.0);
        let mut solver = DistributedGsdSolver::new(
            GsdOptions { iterations: 300, seed: 7, ..Default::default() },
            2,
        );
        let sol = solver.solve(&p).unwrap();
        assert!(p.is_feasible(&sol.levels));
        assert!(solver.stats().batched_candidates > 0);
        assert!(solver.stats().bisection_evals > 0);
        assert!(solver.stats().iterations > 0);
        solver.reset();
        assert_eq!(solver.stats().batched_candidates, 0);
    }

    #[test]
    fn distributed_gsd_reaches_exhaustive_optimum() {
        let cluster = Cluster::homogeneous(3, 4);
        let p = problem(&cluster, 50.0, 3.0, 5.0, 1.0);
        let exact = ExhaustiveSolver.solve(&p).unwrap();
        let mut solver = DistributedGsdSolver::new(
            GsdOptions {
                iterations: 2500,
                schedule: TemperatureSchedule::Constant(1e7),
                seed: 99,
                ..Default::default()
            },
            2,
        );
        let sol = solver.solve(&p).unwrap();
        let rel =
            (sol.outcome.objective - exact.outcome.objective) / exact.outcome.objective.max(1e-9);
        assert!(
            rel < 1e-3,
            "distributed {} vs exact {}",
            sol.outcome.objective,
            exact.outcome.objective
        );
    }

    #[test]
    fn distributed_chain_matches_cold_chain() {
        // Same seed, same initial state, agreeing oracles → the message-
        // passing chain walks exactly the cold reference chain.
        let cluster = Cluster::homogeneous(3, 4);
        for &(lam, a, w) in &[(40.0, 5.0, 5.0), (90.0, 20.0, 2.0), (15.0, 0.5, 10.0)] {
            let p = problem(&cluster, lam, a, w, 2.0);
            let opts = GsdOptions { iterations: 300, seed: 7, ..Default::default() };
            let mut solver = DistributedGsdSolver::new(opts.clone(), 2);
            let sol = solver.solve(&p).unwrap();
            let full = cluster.full_speed_vector();
            let mut rng = StdRng::seed_from_u64(opts.seed);
            let cold = cold_chain(&p, &full, &opts, &mut rng).unwrap();
            let case = format!("λ={lam}, A={a}, W={w}");
            assert_eq!(sol.levels, cold.best_state, "{case}");
            assert_eq!(solver.stats().accepted, cold.accepted, "{case}");
            assert_eq!(solver.stats().iterations, cold.iterations_run, "{case}");
        }
    }

    #[test]
    fn consecutive_solves_follow_the_sequential_chain() {
        // The chain RNG carries across slots in both engines, so every
        // slot — not just the first — replays the sequential chain.
        let cluster = Cluster::homogeneous(3, 4);
        let p = problem(&cluster, 50.0, 5.0, 5.0, 0.0);
        let opts = GsdOptions {
            iterations: 200,
            schedule: TemperatureSchedule::Constant(50.0),
            seed: 7,
            ..Default::default()
        };
        let mut sequential = GsdSolver::new(opts.clone());
        let mut distributed = DistributedGsdSolver::new(opts, 2);
        for slot in 0..4 {
            let a = sequential.solve(&p).unwrap();
            let b = distributed.solve(&p).unwrap();
            assert_eq!(a.levels, b.levels, "slot {slot}");
            assert_eq!(sequential.stats().accepted, distributed.stats().accepted, "slot {slot}");
        }
        // reset() restarts both chains from the seed.
        sequential.reset();
        distributed.reset();
        let a = sequential.solve(&p).unwrap();
        let b = distributed.solve(&p).unwrap();
        assert_eq!(a.levels, b.levels, "after reset");
        assert_eq!(sequential.stats().accepted, distributed.stats().accepted, "after reset");
    }

    #[test]
    fn worker_count_does_not_change_evaluation() {
        let cluster = Cluster::homogeneous(6, 3);
        let p = problem(&cluster, 80.0, 2.0, 3.0, 2.0);
        let levels = cluster.full_speed_vector();
        let one = distributed_cost(&p, &levels, 1);
        let many = distributed_cost(&p, &levels, 4);
        assert!((one - many).abs() < 1e-9, "{one} vs {many}");
    }

    #[test]
    fn infeasible_state_priced_as_penalty() {
        let cluster = Cluster::homogeneous(2, 2);
        let p = problem(&cluster, 100.0, 1.0, 1.0, 0.0);
        let all_off = cluster.all_off_vector();
        let c = distributed_cost(&p, &all_off, 2);
        assert_eq!(c, INFEASIBLE_COST);
    }

    #[test]
    fn overload_detected() {
        let cluster = Cluster::homogeneous(1, 1);
        let p = problem(&cluster, 1e5, 1.0, 1.0, 0.0);
        let mut solver = DistributedGsdSolver::new(GsdOptions::default(), 1);
        assert!(matches!(solver.solve(&p), Err(SimError::Overload { .. })));
    }
}
