//! Exact load-distribution solver (the continuous inner problem of **P3**).
//!
//! For a *fixed* speed vector, the COCA per-slot problem (paper eq. 16 / 18)
//! reduces to distributing the total arrival rate `λ` across `n` queue
//! *types*, where type `i` stands for `mᵢ ≥ 1` identical queues:
//!
//! ```text
//! minimize   A·[ P₀ + Σᵢ mᵢ·cᵢ·λᵢ − r ]⁺  +  W·Σᵢ mᵢ·λᵢ/(Xᵢ − λᵢ)
//! subject to Σᵢ mᵢ·λᵢ = λ,   0 ≤ λᵢ ≤ uᵢ  (uᵢ = γ·Xᵢ < Xᵢ)
//! ```
//!
//! `λᵢ` is the load of *each* queue of type `i` — by symmetry and strict
//! convexity of the delay term, identical queues carry identical load at
//! the optimum, so collapsing them loses nothing and turns a 200-group
//! data center into a handful of types (one per server class × speed
//! level). `A = V·w(t) + q(t)` is the electricity weight, `W = V·β` the
//! delay weight, `cᵢ` the marginal power per unit load (paper eq. 1:
//! `p_{i,c}(xᵢ)/xᵢ`), `P₀` the static power of active servers, `r` the
//! on-site renewable supply (paper eq. 3).
//!
//! The objective is convex with a kink where total power crosses `r`.
//! We solve it **exactly** with a three-regime KKT analysis:
//!
//! 1. *Electricity-active*: replace `[·]⁺` by the identity. The KKT
//!    condition `A·cᵢ + W·Xᵢ/(Xᵢ−λᵢ)² = ν` yields a closed-form `λᵢ(ν)`
//!    clipped to `[0, uᵢ]` (multiplicities cancel in the stationarity
//!    condition); bisection on ν enforces `Σ mᵢλᵢ = λ` (classic
//!    water-filling). If the resulting power is ≥ r, this candidate is
//!    globally optimal (the relaxed objective lower-bounds the true one and
//!    they agree there).
//! 2. *Renewable-slack*: set `A = 0` (delay-only water-filling). If the
//!    resulting power is ≤ r, it is globally optimal by the same argument.
//! 3. *Boundary*: otherwise the optimum pins total power to exactly `r`; a
//!    second bisection on an effective energy weight `μ ∈ [0, A]` finds it
//!    (power is non-increasing in μ).
//!
//! Degenerate delay weight `W = 0` turns the problem into a linear program
//! solved greedily by ascending marginal energy cost.
//!
//! The problem has one description, a [`BankProblem`] over the
//! struct-of-arrays [`QueueBank`], and one solver, [`SoaWaterfill`].
//! [`solve`] is the cold entry: a fresh solver, rows validated, and the
//! load-conservation and KKT certificates on every solve. The GSD
//! evaluation context and `SymmetricSolver` reuse one solver across prices;
//! the reused solver prices a bank with one live row in closed form, where
//! load conservation alone fixes the load, and the cold entry keeps the
//! search as the pinned reference.

// A panic mid-slot aborts the control loop Theorem 2 bounds: return typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::bisect::{grow_upper_bracket, illinois_increasing, illinois_seeded, BisectOptions};
use crate::{pos, OptError, Result};

/// Relative slack used when classifying which side of the `[·]⁺` kink a
/// candidate falls on.
const KINK_TOL: f64 = 1e-9;

/// Solves the load-distribution problem on `problem.bank` exactly with a
/// fresh [`SoaWaterfill`] — the cold solve. See the module docs for the
/// three-regime strategy. Returns the outcome and the per-row loads `λᵢ`
/// (bank row order, the load of **each** queue of the row; retracted
/// `m = 0` rows hold 0).
///
/// Unlike [`SoaWaterfill::solve`], it validates the bank rows first
/// ([`QueueBank::validate`]) and runs the KKT certificate in every build.
///
/// ```
/// use coca_opt::waterfill::{solve, BankProblem, QueueBank};
/// // Two identical queues: by symmetry the load splits evenly.
/// let mut bank = QueueBank::new();
/// bank.push_type(10.0, 9.0, 0.1, 0.0, 1.0);
/// bank.push_type(10.0, 9.0, 0.1, 0.0, 1.0);
/// let (_, lambdas) = solve(&BankProblem {
///     bank: &bank,
///     total_load: 8.0,
///     energy_weight: 1.0,
///     delay_weight: 1.0,
///     base_power: 0.0,
///     capped_capacity: 18.0,
///     renewable: 0.0,
/// }).unwrap();
/// assert!((lambdas[0] - 4.0).abs() < 1e-6);
/// assert!((lambdas[1] - 4.0).abs() < 1e-6);
/// ```
///
/// # Errors
/// Invalid rows or scalars, infeasible load, or a bisection that fails to
/// converge.
pub fn solve(problem: &BankProblem<'_>) -> Result<(SoaOutcome, Vec<f64>)> {
    problem.bank.validate()?;
    let mut soa = SoaWaterfill::new();
    let out = soa.solve_certified(problem, true, false)?;
    Ok((out, soa.lambdas))
}

/// Shared bisection tolerances for the water-level search (identical for
/// cold and warm solves — warm starting changes the bracket, never the
/// stopping rule, so the two agree to bisection tolerance).
fn nu_bisect_options(lam: f64) -> BisectOptions {
    BisectOptions { x_tol: 0.0, f_tol: lam * 1e-12, max_iter: 200 }
}

/// Relative half-width of the warm bisection bracket seeded from the
/// previous water level. A single-group flip in a ~200-group fleet moves ν
/// by far less than this; a miss only costs the two sign-check evaluations
/// before the cold fallback. Public so the distributed GSD coordinator
/// applies the identical warm-bracket/fallback rule as [`SoaWaterfill`].
pub const WARM_BRACKET_SPAN: f64 = 0.05;

/// Scalar outcome of a water-filling solve. [`SoaWaterfill::solve`] keeps
/// the per-row loads in the solver's buffer — read them via
/// [`SoaWaterfill::lambdas`] — so the hot loop never allocates a result
/// vector; the cold [`solve`] returns them beside the outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct SoaOutcome {
    /// Objective value `A·[power − r]⁺ + W·Σ mᵢ dᵢ`.
    pub objective: f64,
    /// Total power `P₀ + Σ mᵢ cᵢ λᵢ`.
    pub power: f64,
    /// Total (unweighted) delay cost.
    pub delay: f64,
    /// Water level ν of the winning regime. A forced single-row price of
    /// [`SoaWaterfill::solve`] reports its row's marginal cost at the
    /// forced load; the other closed-form paths report `None`: zero load,
    /// saturated caps, `W = 0` greedy.
    pub water_level: Option<f64>,
}

// ---------------------------------------------------------------------------
// Struct-of-arrays batched kernel
// ---------------------------------------------------------------------------

/// Fixed lane width of the SoA kernels: row `k` of a full
/// `[f64; LANE_WIDTH]` chunk accumulates into lane `k % LANE_WIDTH`, and
/// the rows past the last full chunk form a scalar tail. Eight doubles
/// span one AVX-512 register (two AVX2 / four NEON); the lane count fixes
/// the summation tree, so totals do not depend on how the compiler
/// schedules a pass.
pub const LANE_WIDTH: usize = 8;

/// The queue types of a load-distribution problem in struct-of-arrays
/// form: each type is a row across five parallel `f64` lanes
/// (capacity / util_cap / energy_slope / static_power / multiplicity). It
/// is the one description of the problem's queues, for the cold [`solve`]
/// and the reused [`SoaWaterfill`] alike.
///
/// Two properties shape it:
///
/// * **Vector shape.** The water-filling residual `g(ν)` touches one lane
///   per operand, so the chunked kernels below stream contiguous doubles.
/// * **Retractable rows.** `multiplicity` may be **zero**: a row whose type
///   is currently unused stays in place (keeping row indices stable across
///   Gibbs flips, so a candidate evaluation is a ±1.0 multiplicity delta,
///   not a compaction) and is arithmetically inert — every aggregate weighs
///   it by `m = 0`.
///
/// Rows are validated once at construction ([`Self::validate`]); the solver
/// does not re-validate per solve. Callers mutating lanes afterwards must
/// preserve the row invariants.
#[derive(Debug, Default, Clone)]
pub struct QueueBank {
    /// Service capacity `Xᵢ` lane (per queue of the type).
    capacity: Vec<f64>,
    /// Utilization cap `uᵢ = γ·Xᵢ` lane.
    util_cap: Vec<f64>,
    /// Marginal power `cᵢ` lane (kW per req/s, per queue).
    energy_slope: Vec<f64>,
    /// Static power lane (kW per queue of the type, PUE-scaled).
    static_power: Vec<f64>,
    /// Queue count lane `mᵢ ≥ 0` (0 = retracted row).
    multiplicity: Vec<f64>,
}

impl QueueBank {
    /// Empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows (including retracted `m = 0` rows).
    pub fn len(&self) -> usize {
        self.capacity.len()
    }

    /// True when the bank holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.capacity.is_empty()
    }

    /// Removes all rows (lane capacity is retained).
    pub fn clear(&mut self) {
        self.capacity.clear();
        self.util_cap.clear();
        self.energy_slope.clear();
        self.static_power.clear();
        self.multiplicity.clear();
    }

    /// Appends one queue-type row; returns its row index.
    pub fn push_type(
        &mut self,
        capacity: f64,
        util_cap: f64,
        energy_slope: f64,
        static_power: f64,
        multiplicity: f64,
    ) -> usize {
        self.capacity.push(capacity);
        self.util_cap.push(util_cap);
        self.energy_slope.push(energy_slope);
        self.static_power.push(static_power);
        self.multiplicity.push(multiplicity);
        self.capacity.len() - 1
    }

    /// Capacity `Xᵢ` of row `row`.
    pub fn capacity_of(&self, row: usize) -> f64 {
        self.capacity[row]
    }

    /// Utilization cap `uᵢ` of row `row`.
    pub fn util_cap_of(&self, row: usize) -> f64 {
        self.util_cap[row]
    }

    /// Marginal power `cᵢ` of row `row` (per queue).
    pub fn energy_slope_of(&self, row: usize) -> f64 {
        self.energy_slope[row]
    }

    /// Static power of row `row` (per queue).
    pub fn static_power_of(&self, row: usize) -> f64 {
        self.static_power[row]
    }

    /// Current multiplicity `mᵢ` of row `row`.
    pub fn multiplicity_of(&self, row: usize) -> f64 {
        self.multiplicity[row]
    }

    /// Sets row `row`'s multiplicity. Integer-valued deltas are exact in
    /// `f64`, so repeated `±1.0` adjustments never drift.
    pub fn set_multiplicity(&mut self, row: usize, m: f64) {
        self.multiplicity[row] = m;
    }

    /// Adds `dm` to row `row`'s multiplicity (the Gibbs-flip delta path).
    pub fn add_multiplicity(&mut self, row: usize, dm: f64) {
        self.multiplicity[row] += dm;
    }

    /// Aggregate `(Σ mᵢ·uᵢ, Σ mᵢ·staticᵢ)` — the capped capacity and base
    /// power of the current multiset. O(rows); callers on the candidate
    /// path maintain these incrementally via per-row deltas instead.
    pub fn aggregates(&self) -> (f64, f64) {
        let mut cap = 0.0;
        let mut base = 0.0;
        for ((&m, &u), &s) in self.multiplicity.iter().zip(&self.util_cap).zip(&self.static_power) {
            cap += m * u;
            base += m * s;
        }
        (cap, base)
    }

    /// Validates every row's invariants: `0 < uᵢ < Xᵢ` (paper constraint
    /// 7, so the delay cost stays finite), `cᵢ ≥ 0`, static power `≥ 0` and
    /// `mᵢ ≥ 0` — zero marks a retracted row — all finite. The reused
    /// [`SoaWaterfill`] relies on a bank validated once at construction
    /// instead of re-validating per solve; the cold [`solve`] runs it
    /// every time.
    pub fn validate(&self) -> Result<()> {
        for row in 0..self.len() {
            let (x, u) = (self.capacity[row], self.util_cap[row]);
            let (c, st, m) = (self.energy_slope[row], self.static_power[row], self.multiplicity[row]);
            let bad = |what: String| Err(OptError::InvalidInput(format!("{what} at row {row}")));
            if !(x.is_finite() && x > 0.0) {
                return bad(format!("capacity must be positive, got {x}"));
            }
            if !(u.is_finite() && u > 0.0 && u < x) {
                return bad(format!("util_cap must lie in (0, capacity={x}), got {u}"));
            }
            if !(c.is_finite() && c >= 0.0) {
                return bad(format!("energy_slope must be non-negative, got {c}"));
            }
            if !(st.is_finite() && st >= 0.0) {
                return bad(format!("static_power must be non-negative, got {st}"));
            }
            if !(m.is_finite() && m >= 0.0) {
                return bad(format!("multiplicity must be ≥ 0, got {m}"));
            }
        }
        Ok(())
    }
}

/// The load-distribution problem of the module docs over a [`QueueBank`].
/// `base_power` is passed in (the GSD evaluation context maintains it by
/// delta, the cold dispatch sums it per group) rather than derived from the
/// static-power lane.
#[derive(Debug, Clone, Copy)]
pub struct BankProblem<'a> {
    /// Queue-type rows (retracted `m = 0` rows allowed and inert).
    pub bank: &'a QueueBank,
    /// Total arrival rate `λ` to distribute.
    pub total_load: f64,
    /// Electricity weight `A = V·w + q ≥ 0`.
    pub energy_weight: f64,
    /// Delay weight `W = V·β ≥ 0`.
    pub delay_weight: f64,
    /// Static power of all active servers, `P₀ ≥ 0`.
    pub base_power: f64,
    /// Aggregate utilization-capped capacity `Σ mᵢ·uᵢ` of the rows as
    /// currently set. Caller-maintained by delta, exactly like
    /// `base_power` — the solver trusts it for the feasibility and
    /// saturation tests instead of re-walking the lanes on every solve
    /// (the GSD evaluation context prices hundreds of candidates against
    /// one bank). [`QueueBank::aggregates`] is the ground-truth
    /// recompute; `validate` debug-asserts agreement.
    pub capped_capacity: f64,
    /// On-site renewable supply `r ≥ 0`.
    pub renewable: f64,
}

impl BankProblem<'_> {
    /// Validates the scalar fields. Bank rows are validated once at
    /// construction via [`QueueBank::validate`] (debug-asserted here), not
    /// per solve — that is the SoA path's contract.
    pub fn validate(&self) -> Result<()> {
        debug_assert!(self.bank.validate().is_ok(), "bank rows must be validated at build");
        debug_assert!(
            {
                let lanes = self.bank.aggregates().0;
                (self.capped_capacity - lanes).abs() <= 1e-6 * lanes.abs().max(1.0)
            },
            "capped_capacity {} out of sync with the bank lanes ({})",
            self.capped_capacity,
            self.bank.aggregates().0
        );
        for (name, v) in [
            ("total_load", self.total_load),
            ("energy_weight", self.energy_weight),
            ("delay_weight", self.delay_weight),
            ("base_power", self.base_power),
            ("capped_capacity", self.capped_capacity),
            ("renewable", self.renewable),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(OptError::InvalidInput(format!(
                    "{name} must be finite and non-negative, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// True (kinked) objective `A·[P₀ + Σ mᵢcᵢλᵢ − r]⁺ + W·Σ mᵢλᵢ/(Xᵢ − λᵢ)`
    /// of per-row loads `lambdas` (bank row order); retracted `m = 0` rows
    /// are skipped.
    pub fn objective(&self, lambdas: &[f64]) -> f64 {
        let bank = self.bank;
        let mut power = self.base_power;
        let mut delay = 0.0;
        for (row, &l) in lambdas.iter().enumerate().take(bank.len()) {
            let m = bank.multiplicity[row];
            if m > 0.0 {
                power += m * bank.energy_slope[row] * l;
                delay += if l > 0.0 { m * l / (bank.capacity[row] - l) } else { 0.0 };
            }
        }
        self.energy_weight * pos(power - self.renewable) + self.delay_weight * delay
    }
}

// The bank kernels below walk the live rows of one solve (`LiveRows`),
// keep each row's lane, and write into caller-provided slices. They run
// once per water-level evaluation of every P3 price (GSD candidates,
// `SymmetricSolver` states and the cold `solve` alike) and must stay
// allocation-free.
// audit:hot-path: begin

/// Closed-form load of one queue at water level `nu` for a fixed linear
/// energy weight `a_eff` — the KKT stationarity condition
/// `λᵢ(ν) = clip(Xᵢ − √(W·Xᵢ/(ν − a_eff·cᵢ)), 0, uᵢ)`, with the row's
/// `W/Xᵢ` and `W·Xᵢ` precomputed (`wox`, `wx`). A row whose zero-load
/// marginal `a_eff·cᵢ + W/Xᵢ` is not below the water level takes no load.
#[inline(always)]
fn bank_row_load(x: f64, u: f64, c: f64, nu: f64, a_eff: f64, wox: f64, wx: f64) -> f64 {
    let gap = nu - a_eff * c;
    // The activity branch stays a branch on purpose: which rows are active
    // is stable across the Newton/bisection evaluations of one solve, so
    // the predictor is essentially free, while a branch-free mask form
    // costs extra multiplies per lane (measured slower — the chunked
    // callers end up scalar either way under the no-unsafe constraint).
    if gap > wox {
        debug_assert!(gap > 0.0, "active rows have gap > W/x > 0");
        (x - (wx / gap).sqrt()).clamp(0.0, u)
    } else {
        0.0
    }
}

/// Row load **and** ν-slope. For an interior row, λᵢ = Xᵢ − √(W·Xᵢ/gap)
/// gives dλᵢ/dν = (Xᵢ − λᵢ)/(2·gap) = √(W·Xᵢ/gap)/(2·gap); the unclipped
/// load is returned when interior, the cap when saturated, zero when
/// inactive, and only interior rows carry slope.
///
/// This is the Newton workhorse — it runs once per row per water-level
/// evaluation — so the gap division is hoisted into a single reciprocal
/// shared by the load and the slope (one divide per row instead of three).
/// The reciprocal form differs from the divide form by ≲ 1 ulp, far inside
/// every stopping tolerance and the ≤ 1e-9 differential band.
#[inline(always)]
fn bank_row_load_slope(x: f64, u: f64, c: f64, nu: f64, a_eff: f64, wox: f64, wx: f64) -> (f64, f64) {
    let gap = nu - a_eff * c;
    // Same stable-branch rationale as `bank_row_load` (see there).
    if gap <= wox {
        return (0.0, 0.0);
    }
    debug_assert!(gap > 0.0, "active rows have gap > W/x > 0");
    let inv_gap = 1.0 / gap;
    let root = (wx * inv_gap).sqrt();
    let raw = x - root;
    if raw < u { (raw, 0.5 * root * inv_gap) } else { (u, 0.0) }
}

/// The rows of a bank with `m > 0`, ascending, split where the bank's last
/// full `[f64; LANE_WIDTH]` chunk ends. [`SoaWaterfill`] builds it once per
/// solve, and every per-price pass below walks it instead of the whole
/// bank.
///
/// A live row `k` inside the chunks accumulates into lane
/// `k % LANE_WIDTH`, exactly the lane the full-bank chunk loop gives it,
/// and the rows past the last chunk are added after the lane sum, as that
/// loop does. A dead row adds `0·λ = +0.0` there, and `x + 0.0 = x` for
/// every sum these passes can hold (they start at `+0.0` and only add
/// non-negative terms), so skipping dead rows leaves every total
/// bit-identical to the full-bank pass (DESIGN §10.5).
#[derive(Debug, Clone, Copy)]
struct LiveRows<'a> {
    /// Live row indices, ascending.
    rows: &'a [usize],
    /// How many of `rows` lie inside the full lane chunks.
    chunked: usize,
}

impl LiveRows<'_> {
    /// Live rows inside the full lane chunks.
    fn chunked(&self) -> &[usize] {
        &self.rows[..self.chunked]
    }

    /// Live rows of the scalar tail.
    fn tail(&self) -> &[usize] {
        &self.rows[self.chunked..]
    }
}

/// Aggregate load `Σ mᵢ·λᵢ(ν)` over the live rows — the water-filling
/// residual's workhorse. Lane accumulators fix the summation *order* (see
/// [`LANE_WIDTH`]).
fn bank_total_at(
    bank: &QueueBank,
    live: LiveRows<'_>,
    nu: f64,
    a_eff: f64,
    wox: &[f64],
    wx: &[f64],
) -> f64 {
    // Lanes re-sliced to one length, so one bounds check covers a row.
    let n = bank.len();
    let (xs, us, cs) = (&bank.capacity[..n], &bank.util_cap[..n], &bank.energy_slope[..n]);
    let ms = &bank.multiplicity[..n];
    let (wox, wx) = (&wox[..n], &wx[..n]);
    let mut acc = [0.0_f64; LANE_WIDTH];
    for &k in live.chunked() {
        acc[k % LANE_WIDTH] += ms[k] * bank_row_load(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
    }
    let mut total = acc.iter().sum::<f64>();
    for &k in live.tail() {
        total += ms[k] * bank_row_load(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
    }
    total
}

/// Aggregate load and ν-slope over the live rows in one pass, writing each
/// live row's load into `out` (the accepting Newton evaluation doubles as
/// the final fill).
fn bank_total_slope_into(
    bank: &QueueBank,
    live: LiveRows<'_>,
    nu: f64,
    a_eff: f64,
    wox: &[f64],
    wx: &[f64],
    out: &mut [f64],
) -> (f64, f64) {
    let n = bank.len();
    let (xs, us, cs) = (&bank.capacity[..n], &bank.util_cap[..n], &bank.energy_slope[..n]);
    let ms = &bank.multiplicity[..n];
    let (wox, wx, out) = (&wox[..n], &wx[..n], &mut out[..n]);
    let mut acc_t = [0.0_f64; LANE_WIDTH];
    let mut acc_s = [0.0_f64; LANE_WIDTH];
    for &k in live.chunked() {
        let (l, ds) = bank_row_load_slope(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
        out[k] = l;
        acc_t[k % LANE_WIDTH] += ms[k] * l;
        acc_s[k % LANE_WIDTH] += ms[k] * ds;
    }
    let mut total = acc_t.iter().sum::<f64>();
    let mut slope = acc_s.iter().sum::<f64>();
    for &k in live.tail() {
        let (l, ds) = bank_row_load_slope(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
        out[k] = l;
        total += ms[k] * l;
        slope += ms[k] * ds;
    }
    (total, slope)
}

/// Writes each live row's clipped load at water level `nu` into `out`.
fn bank_fill_into(
    bank: &QueueBank,
    live: LiveRows<'_>,
    nu: f64,
    a_eff: f64,
    wox: &[f64],
    wx: &[f64],
    out: &mut [f64],
) {
    for &k in live.rows {
        let (x, u, c) = (bank.capacity[k], bank.util_cap[k], bank.energy_slope[k]);
        out[k] = bank_row_load(x, u, c, nu, a_eff, wox[k], wx[k]);
    }
}

/// Total power `base + Σ mᵢ·cᵢ·λᵢ` over the live rows — the kink
/// search's per-trial pass.
fn bank_power(bank: &QueueBank, live: LiveRows<'_>, base_power: f64, lambdas: &[f64]) -> f64 {
    let mut p = base_power;
    for &k in live.rows {
        p += bank.multiplicity[k] * bank.energy_slope[k] * lambdas[k];
    }
    p
}

/// Total power and delay over the live rows in one pass — the regime
/// selection always consumes both (the kink test needs the power, the
/// objective the delay).
fn bank_power_delay(
    bank: &QueueBank,
    live: LiveRows<'_>,
    base_power: f64,
    lambdas: &[f64],
) -> (f64, f64) {
    let mut p = base_power;
    let mut d = 0.0;
    for &k in live.rows {
        let (l, m) = (lambdas[k], bank.multiplicity[k]);
        p += m * bank.energy_slope[k] * l;
        d += if l > 0.0 { m * l / (bank.capacity[k] - l) } else { 0.0 };
    }
    (p, d)
}

/// Lower bisection bracket over the live rows (retracted `m = 0` rows must
/// not pull the bracket — their marginal cost is meaningless).
fn bank_nu_lower_bound(bank: &QueueBank, live: LiveRows<'_>, a_eff: f64, wox: &[f64]) -> f64 {
    live.rows
        .iter()
        .fold(f64::INFINITY, |lo, &k| lo.min(a_eff * bank.energy_slope[k] + wox[k]))
}

/// The smallest `(key, row)` pair above `after`, ordered by key and then
/// by row: one step of an allocation-free walk over rows by ascending key.
fn next_by_key(
    rows: impl Iterator<Item = (f64, usize)>,
    after: Option<(f64, usize)>,
) -> Option<(f64, usize)> {
    let order = |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    rows.filter(|r| after.is_none_or(|a| order(r, &a).is_gt())).min_by(order)
}

/// Removes the residual bisection error: interior live rows absorb the
/// slack in proportion to their load. When none is interior, a positive
/// remainder fills the live rows' headroom by ascending zero-load marginal
/// `a_eff·cᵢ + W/xᵢ`, ties by row — the order in which a rising water
/// level activates them (rare: only when the search stopped early, or when
/// `a_eff·cᵢ` is so large that one ULP of ν spans a queue's whole fill).
fn bank_rescale_interior(
    lambdas: &mut [f64],
    bank: &QueueBank,
    live: LiveRows<'_>,
    lam: f64,
    a_eff: f64,
    wox: &[f64],
) {
    // One fused pass for the dispatched total and the interior mass — the
    // slack test needs both.
    let mut total = 0.0;
    let mut interior = 0.0;
    for &k in live.rows {
        let (l, m) = (lambdas[k], bank.multiplicity[k]);
        total += m * l;
        if l > 0.0 && l < bank.util_cap[k] {
            interior += m * l;
        }
    }
    let mut slack = lam - total;
    if slack.abs() > 0.0 {
        if interior > 0.0 {
            for &k in live.rows {
                let (l, u) = (&mut lambdas[k], bank.util_cap[k]);
                if *l > 0.0 && *l < u {
                    *l = (*l + (slack / interior) * *l).clamp(0.0, u);
                }
            }
        } else if slack > 0.0 {
            let keys = || live.rows.iter().map(|&k| (a_eff * bank.energy_slope[k] + wox[k], k));
            let mut last = None;
            while slack > 0.0 {
                let Some(next) = next_by_key(keys(), last) else { break };
                last = Some(next);
                let k = next.1;
                let m = bank.multiplicity[k];
                let take = ((bank.util_cap[k] - lambdas[k]) * m).min(slack);
                lambdas[k] += take / m;
                slack -= take;
            }
        }
    }
}

// audit:hot-path: end

/// The water-filling solver over a [`QueueBank`]: the three-regime analysis
/// of the module docs, and the one implementation of it. The cold
/// [`solve`] runs it on a fresh solver; both GSD engines' Gibbs candidate
/// sweeps and `SymmetricSolver`'s descent steps reuse one solver, where
/// each price moves one row's multiplicity and the optimal water level
/// drifts only slightly. Three things make a reused solve cheap:
///
/// * **Warm brackets.** The previous water level ν (one slot per penalty
///   regime) and boundary weight μ seed the next search: a few Newton
///   steps first, then a ±[`WARM_BRACKET_SPAN`] bracket. Because the
///   bracketed searches clamp to an endpoint when the root lies outside
///   the bracket, a warm bracket is only used after verifying
///   `f(lo) ≤ 0 ≤ f(hi)`; on a miss the solver falls back to the cold
///   bracket (lower bound + [`grow_upper_bracket`]). Warm and cold starts
///   share the stopping rules (`nu_bisect_options`, the `1e-13` kink
///   `f_tol`, `KINK_TOL`), so their objectives agree to the ≤ 1e-9 band —
///   pinned by the differential property test in `coca-core`.
/// * **Live-row lane passes.** Every residual evaluation is one pass over
///   the bank's live rows (`m > 0`, collected once per solve), each
///   accumulated in its own lane; the totals are bit-identical to a pass
///   over every row (see `LiveRows`). The per-row loads live in reusable
///   buffers, so the steady-state solve performs no heap allocation.
/// * **Forced loads.** A bank with one live row has no water level to
///   search for: load conservation fixes `λₖ = λ/mₖ`, and the price
///   spends no evaluation (`solve_forced`). Only [`Self::solve`] takes
///   this path; the cold [`solve`] keeps the search.
///
/// Invariant hooks: load conservation fires on every solve. The O(n) KKT
/// certificate ([`crate::invariant::kkt_residual`], read straight off the
/// bank) runs on every cold [`solve`]; on [`Self::solve`] it runs in debug
/// builds and in strict mode (`COCA_STRICT_INVARIANTS=1`), and plain
/// release builds skip it — it is a measurable share of the per-price cost
/// and is covered by the differential tests.
#[derive(Debug, Default)]
pub struct SoaWaterfill {
    /// Previous water level of the electricity-active regime (`a_eff = A`).
    nu_active: Option<f64>,
    /// Previous water level of the renewable-slack regime (`a_eff = 0`).
    nu_slack: Option<f64>,
    /// Previous water level seen inside the kink μ-search trials.
    nu_kink: Option<f64>,
    /// Previous boundary weight μ* of the kink regime.
    mu: Option<f64>,
    /// Per-row loads of the winning candidate after [`Self::solve`].
    lambdas: Vec<f64>,
    /// Candidate buffer for the regime comparison (swapped, never cloned).
    scratch: Vec<f64>,
    /// The bank's live rows (`m > 0`) for the current solve, ascending;
    /// every per-price pass walks these only.
    live: Vec<usize>,
    /// How many of `live` lie inside the bank's full lane chunks.
    live_chunked: usize,
    /// Per-row activation thresholds `W/xᵢ`, derived once per (delay
    /// weight, capacity-lane) pair and reused by every residual evaluation
    /// — the per-row divides were a measurable share of the Newton pass.
    wox: Vec<f64>,
    /// Per-row sqrt numerators `W·xᵢ` (same caching rule as `wox`).
    wx: Vec<f64>,
    /// Capacity lanes the aux vectors were built from; compared each solve
    /// so a solver moved to a different bank rebuilds instead of reusing
    /// stale thresholds.
    aux_cap: Vec<f64>,
    /// Delay weight the aux vectors were built for.
    aux_w: f64,
    /// Water-level function evaluations spent in the most recent solve.
    pub last_evals: u64,
}

impl SoaWaterfill {
    /// Fresh solver with no warm-start state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all warm brackets (e.g. when the slot parameters change so the
    /// previous water level is no longer informative).
    pub fn reset(&mut self) {
        self.nu_active = None;
        self.nu_slack = None;
        self.nu_kink = None;
        self.mu = None;
        self.last_evals = 0;
    }

    /// Per-row loads of the most recent [`Self::solve`] (same order as the
    /// bank rows; retracted `m = 0` rows hold 0).
    pub fn lambdas(&self) -> &[f64] {
        &self.lambdas
    }

    /// Solves the bank load-distribution problem, reusing warm-start state
    /// from the previous call.
    ///
    /// # Errors
    /// Same contract as [`solve`] — invalid scalars, infeasible load, or a
    /// bisection that fails to converge — except that the bank rows are
    /// not re-validated.
    pub fn solve(&mut self, problem: &BankProblem<'_>) -> Result<SoaOutcome> {
        let certify = cfg!(debug_assertions) || crate::invariant::global().is_strict();
        self.solve_certified(problem, certify, true)
    }

    /// One solve with its invariant hooks: load conservation always, the
    /// KKT certificate when `certify` is set. `forced_closed_form` prices a
    /// bank with one live row without a water-level search (see
    /// [`Self::solve_forced`]); the cold [`solve`] keeps the search.
    fn solve_certified(
        &mut self,
        problem: &BankProblem<'_>,
        certify: bool,
        forced_closed_form: bool,
    ) -> Result<SoaOutcome> {
        self.last_evals = 0;
        let out = self.solve_inner(problem, forced_closed_form)?;
        let inv = crate::invariant::global();
        let dispatched: f64 =
            self.live.iter().map(|&k| problem.bank.multiplicity[k] * self.lambdas[k]).sum();
        inv.load_conserved(dispatched, problem.total_load);
        if certify {
            inv.kkt(problem, &self.lambdas);
        }
        Ok(out)
    }

    /// Collects the bank's live rows (`m > 0`, ascending) and their lane
    /// split, and zeroes the dead rows' loads in both buffers: every pass
    /// of the solve reads and writes the live rows only. The buffers are
    /// resized only when the bank's row count changes, and nothing
    /// allocates once they have grown to it.
    fn collect_live_rows(&mut self, bank: &QueueBank) {
        let n = bank.len();
        // audit:hot-path: begin
        if self.lambdas.len() != n {
            self.lambdas.resize(n, 0.0);
            self.scratch.resize(n, 0.0);
        }
        self.live.clear();
        let rows = bank.multiplicity.iter().zip(&mut self.lambdas).zip(&mut self.scratch);
        for (row, ((&m, l), s)) in rows.enumerate() {
            if m > 0.0 {
                self.live.push(row);
            } else {
                (*l, *s) = (0.0, 0.0);
            }
        }
        let split = n - n % LANE_WIDTH;
        self.live_chunked = self.live.partition_point(|&row| row < split);
        // audit:hot-path: end
    }

    /// The live rows of the current solve.
    fn live_rows(&self) -> LiveRows<'_> {
        LiveRows { rows: &self.live, chunked: self.live_chunked }
    }

    /// Scalar summary of the loads currently held in `self.lambdas` (one
    /// fused power+delay pass).
    fn outcome_of(&self, problem: &BankProblem<'_>, water_level: Option<f64>) -> SoaOutcome {
        let (power, delay) =
            bank_power_delay(problem.bank, self.live_rows(), problem.base_power, &self.lambdas);
        Self::outcome_parts(problem, power, delay, water_level)
    }

    /// Outcome assembly when the caller already holds the power and delay
    /// totals (the regime selection computes both along the way).
    fn outcome_parts(
        problem: &BankProblem<'_>,
        power: f64,
        delay: f64,
        water_level: Option<f64>,
    ) -> SoaOutcome {
        let objective = problem.energy_weight * pos(power - problem.renewable)
            + problem.delay_weight * delay;
        SoaOutcome { objective, power, delay, water_level }
    }

    /// The three-regime analysis of the module docs on the bank lanes,
    /// without the invariant hooks.
    fn solve_inner(
        &mut self,
        problem: &BankProblem<'_>,
        forced_closed_form: bool,
    ) -> Result<SoaOutcome> {
        problem.validate()?;
        let bank = problem.bank;
        let n = bank.len();
        let lam = problem.total_load;
        self.collect_live_rows(bank);
        // validate() guarantees lam >= 0, so `<=` is the exact-zero test.
        if lam <= 0.0 {
            self.lambdas.fill(0.0);
            return Ok(Self::outcome_parts(problem, problem.base_power, 0.0, None));
        }
        if n == 0 {
            return Err(OptError::Infeasible("positive load but no active queues".into()));
        }
        let cap = problem.capped_capacity;
        if lam > cap * (1.0 + 1e-12) {
            return Err(OptError::Infeasible(format!(
                "total load {lam} exceeds capped capacity {cap}"
            )));
        }
        // Saturated case: every live row pinned at (a fraction of) its cap.
        if lam >= cap * (1.0 - 1e-12) {
            for &row in &self.live {
                self.lambdas[row] = bank.util_cap[row] * (lam / cap);
            }
            return Ok(self.outcome_of(problem, None));
        }
        // W = 0 degenerates to a linear program.
        if problem.delay_weight <= 0.0 {
            return self.solve_greedy(problem);
        }
        if forced_closed_form && self.live.len() == 1 {
            return Ok(self.solve_forced(problem));
        }
        self.ensure_aux(bank, problem.delay_weight);

        let r = problem.renewable;

        // Regime 1: electricity-active (penalty weight = A everywhere).
        let nu_active =
            self.penalty_into_scratch(problem, problem.energy_weight, self.nu_active)?;
        self.nu_active = Some(nu_active);
        std::mem::swap(&mut self.lambdas, &mut self.scratch);
        let (p_active, d_active) =
            bank_power_delay(bank, self.live_rows(), problem.base_power, &self.lambdas);
        if p_active >= r * (1.0 - KINK_TOL) || problem.energy_weight <= 0.0 {
            return Ok(Self::outcome_parts(problem, p_active, d_active, Some(nu_active)));
        }
        let mut best_obj =
            problem.energy_weight * pos(p_active - r) + problem.delay_weight * d_active;
        let mut best = (p_active, d_active, nu_active);

        // Regime 2: renewable-slack (penalty weight = 0).
        let nu_slack = self.penalty_into_scratch(problem, 0.0, self.nu_slack)?;
        self.nu_slack = Some(nu_slack);
        let (p_slack, d_slack) =
            bank_power_delay(bank, self.live_rows(), problem.base_power, &self.scratch);
        if p_slack <= r * (1.0 + KINK_TOL) {
            std::mem::swap(&mut self.lambdas, &mut self.scratch);
            return Ok(Self::outcome_parts(problem, p_slack, d_slack, Some(nu_slack)));
        }
        let obj_slack =
            problem.energy_weight * pos(p_slack - r) + problem.delay_weight * d_slack;
        if obj_slack < best_obj {
            std::mem::swap(&mut self.lambdas, &mut self.scratch);
            best_obj = obj_slack;
            best = (p_slack, d_slack, nu_slack);
        }

        // Regime 3: the optimum pins total power to r; bisect μ ∈ [0, A]
        // with the bracket seeded from the previous μ*.
        let mu = self.bisect_mu(problem)?;
        self.mu = Some(mu);
        let nu_kink = self.penalty_into_scratch(problem, mu, self.nu_kink)?;
        self.nu_kink = Some(nu_kink);
        let (p_kink, d_kink) =
            bank_power_delay(bank, self.live_rows(), problem.base_power, &self.scratch);
        let obj_kink =
            problem.energy_weight * pos(p_kink - r) + problem.delay_weight * d_kink;
        if !best_obj.is_finite() || !obj_kink.is_finite() {
            return Err(OptError::NonFinite(format!(
                "candidate objectives {best_obj}/{obj_kink} in batched regime selection"
            )));
        }
        if obj_kink < best_obj {
            std::mem::swap(&mut self.lambdas, &mut self.scratch);
            best = (p_kink, d_kink, nu_kink);
        }
        // The winner's totals were measured when its regime was scored, so
        // no extra lane walk here.
        Ok(Self::outcome_parts(problem, best.0, best.1, Some(best.2)))
    }

    /// One live row `k` below saturation with `W > 0`: load conservation
    /// (8) alone fixes `λₖ = λ/mₖ`, so there is no water level to search
    /// for. The water level is the row's marginal cost at that load,
    /// `a·cₖ + W·Xₖ/(Xₖ − λₖ)²`, with `a` the weight the regime selection
    /// would pick: `A` when the power is not below `r` or `A = 0`
    /// (electricity-active), else 0 (renewable-slack — with one load on
    /// offer both regimes price the same power, so the kink regime never
    /// runs). The warm slot of each regime the selection would have run
    /// takes its level, as after a search.
    fn solve_forced(&mut self, problem: &BankProblem<'_>) -> SoaOutcome {
        let bank = problem.bank;
        let k = self.live[0];
        let m = bank.multiplicity[k];
        debug_assert!(m > 0.0, "a live row has m > 0");
        self.lambdas[k] = problem.total_load / m;
        let (power, delay) =
            bank_power_delay(bank, self.live_rows(), problem.base_power, &self.lambdas);
        let gap = bank.capacity[k] - self.lambdas[k];
        let delay_marginal = problem.delay_weight * bank.capacity[k] / (gap * gap);
        let nu_active = problem.energy_weight * bank.energy_slope[k] + delay_marginal;
        self.nu_active = Some(nu_active);
        let nu = if power >= problem.renewable * (1.0 - KINK_TOL) || problem.energy_weight <= 0.0 {
            nu_active
        } else {
            self.nu_slack = Some(delay_marginal);
            delay_marginal
        };
        Self::outcome_parts(problem, power, delay, Some(nu))
    }

    /// The `W = 0` linear program: fills the live rows greedily by
    /// ascending energy slope, ties by row. Every live row's load is zeroed
    /// first, since a reused solver still holds the previous solve's.
    fn solve_greedy(&mut self, problem: &BankProblem<'_>) -> Result<SoaOutcome> {
        let bank = problem.bank;
        for &row in &self.live {
            self.lambdas[row] = 0.0;
        }
        let keys = || self.live.iter().map(|&row| (bank.energy_slope[row], row));
        let mut remaining = problem.total_load;
        let mut last = None;
        while remaining > 0.0 {
            let Some(next) = next_by_key(keys(), last) else { break };
            last = Some(next);
            let (row, m) = (next.1, bank.multiplicity[next.1]);
            let take = remaining.min(bank.util_cap[row] * m);
            self.lambdas[row] = take / m;
            remaining -= take;
        }
        if remaining > problem.total_load * 1e-12 {
            return Err(OptError::Infeasible(format!("greedy fill left {remaining} unassigned")));
        }
        Ok(self.outcome_of(problem, None))
    }

    /// Kink-regime μ-search: `g(μ) = r − power(μ)` is increasing in μ. The
    /// bracket is seeded from the previous μ* (±[`WARM_BRACKET_SPAN`]·A),
    /// sign-verified, and widened back to the cold `[0, A]` on a miss.
    fn bisect_mu(&mut self, problem: &BankProblem<'_>) -> Result<f64> {
        let r = problem.renewable;
        let a = problem.energy_weight;
        let opts = BisectOptions { x_tol: 0.0, f_tol: r.abs().max(1.0) * 1e-13, max_iter: 200 };
        let power_gap = |this: &mut Self, mu: f64| -> f64 {
            match this.penalty_into_scratch(problem, mu, this.nu_kink) {
                Ok(nu) => {
                    this.nu_kink = Some(nu);
                    let live = this.live_rows();
                    r - bank_power(problem.bank, live, problem.base_power, &this.scratch)
                }
                Err(_) => f64::NAN,
            }
        };
        // Each power_gap evaluation is a full inner ν-solve, so the warm
        // bracket hands its verification values to the seeded search and a
        // sign miss shrinks to the known-good side of `[0, A]` (the kink
        // regime guarantees g(0) < 0 < g(A)) instead of restarting cold.
        if let Some(prev) = self.mu {
            if prev.is_finite() {
                let half = WARM_BRACKET_SPAN * a;
                let wlo = (prev - half).max(0.0);
                let whi = (prev + half).min(a);
                if wlo < whi {
                    let glo = power_gap(self, wlo);
                    if glo.is_finite() {
                        if glo > 0.0 {
                            let g0 = power_gap(self, 0.0);
                            if g0.is_finite() && g0 <= 0.0 {
                                return illinois_seeded(
                                    0.0,
                                    wlo,
                                    g0,
                                    glo,
                                    |mu| power_gap(self, mu),
                                    opts,
                                );
                            }
                        } else {
                            let ghi = power_gap(self, whi);
                            if ghi.is_finite() && ghi >= 0.0 {
                                return illinois_seeded(
                                    wlo,
                                    whi,
                                    glo,
                                    ghi,
                                    |mu| power_gap(self, mu),
                                    opts,
                                );
                            }
                            if ghi.is_finite() && whi < a {
                                let ga = power_gap(self, a);
                                if ga.is_finite() && ga >= 0.0 {
                                    return illinois_seeded(
                                        whi,
                                        a,
                                        ghi,
                                        ga,
                                        |mu| power_gap(self, mu),
                                        opts,
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
        illinois_increasing(0.0, a, |mu| power_gap(self, mu), opts)
    }

    /// Rebuilds the derived `W/xᵢ` / `W·xᵢ` lanes when the delay weight or
    /// the capacity lanes changed since the last solve (a slice compare —
    /// capacities are immutable for a bank's lifetime, so this is a no-op
    /// on the candidate-sweep hot path).
    fn ensure_aux(&mut self, bank: &QueueBank, w: f64) {
        let n = bank.len();
        if self.aux_w.to_bits() == w.to_bits()
            && self.aux_cap.len() == n
            && self.aux_cap == bank.capacity
        {
            return;
        }
        self.aux_cap.clear();
        self.aux_cap.extend_from_slice(&bank.capacity);
        self.wox.clear();
        self.wx.clear();
        for &x in &bank.capacity {
            debug_assert!(x > 0.0, "bank rows are validated at build: capacity > 0");
            self.wox.push(w / x);
            self.wx.push(w * x);
        }
        self.aux_w = w;
    }

    /// Water-filling for the smooth relaxation with a fixed linear energy
    /// weight `a_eff` (the `[·]⁺` replaced by identity):
    /// `min Σ mᵢ(a_eff·cᵢ·λᵢ + W·λᵢ/(Xᵢ−λᵢ))` s.t. `Σ mᵢλᵢ = λ`,
    /// `0 ≤ λᵢ ≤ uᵢ`. Each row's load [`bank_row_load`] is non-decreasing
    /// in the multiplier ν, so a root search on ν (warm-bracketed when a
    /// previous level is known) meets the coupling constraint. The loads
    /// land in `self.scratch`, and every residual evaluation is a single
    /// live-row [`bank_total_at`] / [`bank_total_slope_into`] pass. Returns
    /// the water level.
    fn penalty_into_scratch(
        &mut self,
        problem: &BankProblem<'_>,
        a_eff: f64,
        warm: Option<f64>,
    ) -> Result<f64> {
        let lam = problem.total_load;
        let bank = problem.bank;
        let (wox, wx) = (self.wox.as_slice(), self.wx.as_slice());
        let live = LiveRows { rows: &self.live, chunked: self.live_chunked };
        let evals = std::cell::Cell::new(0u64);

        // audit:hot-path: begin
        let total_of = |nu: f64| -> f64 {
            evals.set(evals.get() + 1);
            bank_total_at(bank, live, nu, a_eff, wox, wx)
        };
        let nu_lo = bank_nu_lower_bound(bank, live, a_eff, wox);
        let opts = nu_bisect_options(lam);
        // Newton from the previous water level: `g` is piecewise concave and
        // increasing, so from a warm start the iteration typically lands
        // within `f_tol` in 2–3 evaluations — the stopping rule is the same
        // `|g| ≤ f_tol` as the bracketed search, so the answer agrees with
        // it (and with cold bisection) to tolerance. Each evaluation writes
        // the row loads into `self.scratch`, so the accepting iteration IS
        // the final fill. Activation kinks can make Newton oscillate; any
        // sign of trouble (flat slope, leaving the domain, iteration cap)
        // falls through to the sign-safe bracketed search below.
        if let Some(prev) = warm {
            if prev.is_finite() && prev > nu_lo {
                let mut nu = prev;
                for _ in 0..8 {
                    evals.set(evals.get() + 1);
                    let (total, slope) =
                        bank_total_slope_into(bank, live, nu, a_eff, wox, wx, &mut self.scratch);
                    let g = total - lam;
                    if !g.is_finite() {
                        break;
                    }
                    if g.abs() <= opts.f_tol {
                        bank_rescale_interior(&mut self.scratch, bank, live, lam, a_eff, wox);
                        self.last_evals += evals.get();
                        return Ok(nu);
                    }
                    if slope.is_nan() || slope <= 0.0 {
                        break;
                    }
                    let next = nu - g / slope;
                    if !next.is_finite() || next <= nu_lo {
                        break;
                    }
                    nu = next;
                }
            }
        }
        // Warm bracket `prev·(1 ± span)`, sign-verified before use (the
        // Illinois search clamps to an endpoint on a violated bracket, so an
        // unverified bracket would silently return a wrong level). Every
        // verification evaluation is handed to [`illinois_seeded`] instead
        // of being recomputed, and a miss keeps the sign information: a
        // root below the warm bracket is bracketed by `[nu_lo, lo]` for free
        // (aggregate load is exactly zero at `nu_lo`, so `f(nu_lo) = −λ`),
        // a root above it grows upward from `hi` instead of restarting cold.
        let nu = 'search: {
            if let Some(prev) = warm {
                if prev.is_finite() && prev > nu_lo {
                    let lo = (prev * (1.0 - WARM_BRACKET_SPAN)).max(nu_lo);
                    let hi = prev * (1.0 + WARM_BRACKET_SPAN);
                    let glo = total_of(lo) - lam;
                    if !glo.is_finite() {
                        return Err(OptError::NonFiniteEval { x: lo, fx: glo });
                    }
                    if glo > 0.0 {
                        break 'search illinois_seeded(
                            nu_lo,
                            lo,
                            -lam,
                            glo,
                            |nu| total_of(nu) - lam,
                            opts,
                        )?;
                    }
                    let ghi = total_of(hi) - lam;
                    if !ghi.is_finite() {
                        return Err(OptError::NonFiniteEval { x: hi, fx: ghi });
                    }
                    if ghi >= 0.0 {
                        break 'search illinois_seeded(
                            lo,
                            hi,
                            glo,
                            ghi,
                            |nu| total_of(nu) - lam,
                            opts,
                        )?;
                    }
                    let nu_hi = grow_upper_bracket(hi * 2.0, |nu| total_of(nu) - lam, 200)?;
                    break 'search illinois_seeded(
                        hi,
                        nu_hi,
                        ghi,
                        total_of(nu_hi) - lam,
                        |nu| total_of(nu) - lam,
                        opts,
                    )?;
                }
            }
            // Cold path (no usable previous level): grow the upper bracket
            // by doubling from the lower one.
            let start = (nu_lo.abs().max(1.0)) * 2.0;
            let nu_hi = grow_upper_bracket(start, |nu| total_of(nu) - lam, 200)?;
            illinois_increasing(nu_lo, nu_hi, |nu| total_of(nu) - lam, opts)?
        };

        bank_fill_into(bank, live, nu, a_eff, wox, wx, &mut self.scratch);
        bank_rescale_interior(&mut self.scratch, bank, live, lam, a_eff, wox);
        // audit:hot-path: end
        self.last_evals += evals.get();
        Ok(nu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One queue type: `(capacity, util_cap, energy_slope, multiplicity)`.
    type Row = (f64, f64, f64, f64);

    fn single(capacity: f64, util_cap: f64, slope: f64) -> Row {
        (capacity, util_cap, slope, 1.0)
    }

    fn homogeneous(n: usize, capacity: f64, gamma: f64, slope: f64) -> Vec<Row> {
        vec![single(capacity, gamma * capacity, slope); n]
    }

    /// A bank with one row per type and no static power.
    fn bank_of(rows: &[Row]) -> QueueBank {
        let mut b = QueueBank::new();
        for &(x, u, c, m) in rows {
            b.push_type(x, u, c, 0.0, m);
        }
        b
    }

    fn problem(bank: &QueueBank, lam: f64, a: f64, w: f64, r: f64) -> BankProblem<'_> {
        BankProblem {
            bank,
            total_load: lam,
            energy_weight: a,
            delay_weight: w,
            base_power: 0.0,
            capped_capacity: bank.aggregates().0,
            renewable: r,
        }
    }

    /// Total dispatched load `Σ mᵢ·λᵢ`.
    fn dispatched(bank: &QueueBank, lambdas: &[f64]) -> f64 {
        lambdas.iter().zip(&bank.multiplicity).map(|(l, m)| m * l).sum()
    }

    #[test]
    fn zero_load_gives_zero_everything() {
        let bank = bank_of(&homogeneous(4, 10.0, 0.9, 0.1));
        let (s, lambdas) = solve(&problem(&bank, 0.0, 1.0, 1.0, 0.0)).unwrap();
        assert_eq!(lambdas, vec![0.0; 4]);
        assert_eq!(s.objective, 0.0);
    }

    #[test]
    fn homogeneous_split_is_even() {
        let bank = bank_of(&homogeneous(5, 10.0, 0.9, 0.1));
        let (_, lambdas) = solve(&problem(&bank, 20.0, 2.0, 3.0, 0.0)).unwrap();
        for &l in &lambdas {
            assert!((l - 4.0).abs() < 1e-7, "expected even split, got {lambdas:?}");
        }
        assert!((lambdas.iter().sum::<f64>() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn favors_energy_cheap_queue() {
        let bank = bank_of(&[single(10.0, 9.0, 0.05), single(10.0, 9.0, 0.50)]);
        let (_, lambdas) = solve(&problem(&bank, 8.0, 10.0, 1.0, 0.0)).unwrap();
        assert!(lambdas[0] > lambdas[1], "cheap queue should carry more load: {lambdas:?}");
    }

    #[test]
    fn respects_utilization_caps() {
        let bank = bank_of(&[single(10.0, 2.0, 0.0), single(10.0, 9.5, 0.0)]);
        let (_, lambdas) = solve(&problem(&bank, 10.0, 1.0, 1.0, 0.0)).unwrap();
        assert!(lambdas[0] <= 2.0 + 1e-9);
        assert!((lambdas.iter().sum::<f64>() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_load_rejected() {
        let bank = bank_of(&homogeneous(2, 10.0, 0.9, 0.1));
        assert!(matches!(solve(&problem(&bank, 18.5, 1.0, 1.0, 0.0)), Err(OptError::Infeasible(_))));
    }

    #[test]
    fn saturated_load_pins_all_caps() {
        let bank = bank_of(&homogeneous(3, 10.0, 0.9, 0.1));
        let (_, lambdas) = solve(&problem(&bank, 27.0, 1.0, 1.0, 0.0)).unwrap();
        for &l in &lambdas {
            assert!((l - 9.0).abs() < 1e-9);
        }
    }

    #[test]
    fn renewable_slack_regime_ignores_energy_weight() {
        // Huge renewable supply: the [·]⁺ term is dead, the optimum is the
        // delay-only water-filling regardless of A.
        let bank = bank_of(&[single(10.0, 9.0, 0.05), single(20.0, 18.0, 0.50)]);
        let (s1, l1) = solve(&problem(&bank, 9.0, 1000.0, 1.0, 1e9)).unwrap();
        let (s2, l2) = solve(&problem(&bank, 9.0, 0.0, 1.0, 0.0)).unwrap();
        for (a, b) in l1.iter().zip(&l2) {
            assert!((a - b).abs() < 1e-6, "{l1:?} vs {l2:?}");
        }
        assert!(s1.objective <= s2.objective + 1e-9, "slack objective drops the A term");
    }

    #[test]
    fn kink_regime_pins_power_to_renewable() {
        // Construct an instance where the electricity-active optimum uses
        // less power than r, but the delay-only optimum uses more: the true
        // optimum must sit at power == r.
        let bank = bank_of(&[single(10.0, 9.0, 1.0), single(10.0, 9.0, 3.0)]);
        // With a strong energy weight, load piles onto queue 0 (cheap), using
        // little total power; with A=0 the split is even, using more power.
        let lam = 10.0;
        let a = 50.0;
        let w = 1.0;
        // Even split power = 5*1 + 5*3 = 20. Skewed split power < 20.
        let r = 16.0;
        let (s, _) = solve(&problem(&bank, lam, a, w, r)).unwrap();
        let (active, _) = solve(&problem(&bank, lam, a, w, 0.0)).unwrap();
        let (slack, _) = solve(&problem(&bank, lam, 0.0, w, 0.0)).unwrap();
        assert!(active.power < r && slack.power > r, "test setup must straddle the kink");
        assert!(
            (s.power - r).abs() < 1e-5,
            "optimum should pin power to r: power={} r={}",
            s.power,
            r
        );
    }

    #[test]
    fn zero_delay_weight_greedy_fill() {
        let bank = bank_of(&[single(10.0, 5.0, 0.9), single(10.0, 5.0, 0.1)]);
        let (_, lambdas) = solve(&problem(&bank, 6.0, 1.0, 0.0, 0.0)).unwrap();
        assert!((lambdas[1] - 5.0).abs() < 1e-12, "cheap queue filled first");
        assert!((lambdas[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_delay_weight_greedy_respects_multiplicity() {
        let bank = bank_of(&[(10.0, 5.0, 0.1, 3.0), single(10.0, 5.0, 0.9)]);
        let (_, lambdas) = solve(&problem(&bank, 16.0, 1.0, 0.0, 0.0)).unwrap();
        // Cheap type holds 3 queues × 5 = 15; remaining 1 on the other.
        assert!((lambdas[0] - 5.0).abs() < 1e-12);
        assert!((lambdas[1] - 1.0).abs() < 1e-12);
        assert!((dispatched(&bank, &lambdas) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn objective_matches_components() {
        let bank = bank_of(&homogeneous(3, 12.0, 0.95, 0.2));
        let p = BankProblem { base_power: 1.5, ..problem(&bank, 15.0, 4.0, 2.0, 2.0) };
        let (s, lambdas) = solve(&p).unwrap();
        let expected = 4.0 * pos(s.power - 2.0) + 2.0 * s.delay;
        assert!((s.objective - expected).abs() < 1e-12);
        assert!((s.objective - p.objective(&lambdas)).abs() < 1e-12);
    }

    #[test]
    fn multiplicity_equals_expanded_copies() {
        // One type with multiplicity 4 must match four explicit copies.
        let compact = bank_of(&[(12.0, 10.0, 0.3, 4.0)]);
        let expanded = bank_of(&homogeneous(4, 12.0, 10.0 / 12.0, 0.3));
        for &(lam, a, w, r) in &[(20.0, 2.0, 1.0, 0.0), (35.0, 0.7, 3.0, 5.0), (8.0, 5.0, 0.5, 2.0)] {
            let (sc, lc) = solve(&problem(&compact, lam, a, w, r)).unwrap();
            let (se, le) = solve(&problem(&expanded, lam, a, w, r)).unwrap();
            assert!(
                (sc.objective - se.objective).abs() < 1e-6 * se.objective.max(1.0),
                "objective: compact {} vs expanded {}",
                sc.objective,
                se.objective
            );
            assert!((sc.power - se.power).abs() < 1e-6 * se.power.max(1.0));
            // Per-queue load of the compact type equals each expanded load.
            for &l in &le {
                assert!((l - lc[0]).abs() < 1e-6, "{l} vs {}", lc[0]);
            }
        }
    }

    #[test]
    fn mixed_multiplicities_conserve_load() {
        let rows = [(10.0, 9.0, 0.1, 7.0), (20.0, 18.0, 0.3, 2.0), single(15.0, 13.0, 0.2)];
        let bank = bank_of(&rows);
        let (_, lambdas) = solve(&problem(&bank, 70.0, 3.0, 2.0, 4.0)).unwrap();
        assert!((dispatched(&bank, &lambdas) - 70.0).abs() < 1e-7);
        for (l, &(_, u, _, _)) in lambdas.iter().zip(&rows) {
            assert!(*l >= 0.0 && *l <= u + 1e-9);
        }
    }

    #[test]
    fn matches_dense_grid_on_two_queues() {
        // Brute-force the 2-queue problem on a fine grid and compare.
        let bank = bank_of(&[single(8.0, 7.0, 0.3), single(14.0, 12.0, 0.1)]);
        for &(lam, a, w, r) in &[
            (5.0, 2.0, 1.0, 0.0),
            (10.0, 0.5, 3.0, 1.0),
            (15.0, 5.0, 0.5, 2.5),
            (18.0, 1.0, 1.0, 0.0),
        ] {
            let p = problem(&bank, lam, a, w, r);
            let (s, _) = solve(&p).unwrap();
            let mut best = f64::INFINITY;
            let steps = 40_000;
            for k in 0..=steps {
                let l0 = lam * (k as f64 / steps as f64);
                let l1 = lam - l0;
                if l0 > bank.util_cap_of(0) || l1 > bank.util_cap_of(1) {
                    continue;
                }
                best = best.min(p.objective(&[l0, l1]));
            }
            assert!(
                s.objective <= best + best.abs() * 1e-4 + 1e-7,
                "solver {} worse than grid {} for (λ={lam}, A={a}, W={w}, r={r})",
                s.objective,
                best
            );
        }
    }

    #[test]
    fn cold_solve_rejects_bad_rows_and_scalars() {
        for row in [single(0.0, 0.0, 0.1), single(10.0, 10.0, 0.1), single(10.0, 9.0, -1.0)] {
            let bank = bank_of(&[row]);
            let p = BankProblem { capped_capacity: 1.0, ..problem(&bank, 0.5, 1.0, 1.0, 0.0) };
            assert!(matches!(solve(&p), Err(OptError::InvalidInput(_))), "{row:?}");
        }
        let bank = bank_of(&homogeneous(1, 10.0, 0.9, 0.1));
        let p = problem(&bank, 1.0, 1.0, 1.0, -1.0);
        assert!(matches!(solve(&p), Err(OptError::InvalidInput(_))));
    }

    #[test]
    fn positive_load_with_no_queues_is_infeasible() {
        let bank = QueueBank::new();
        assert!(matches!(solve(&problem(&bank, 1.0, 1.0, 1.0, 0.0)), Err(OptError::Infeasible(_))));
    }

    // --- Warm solver against the cold solve -------------------------------

    /// `n` heterogeneous queue types with deterministic parameter spread.
    fn varied_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                let f = i as f64;
                let x = 8.0 + 1.5 * (f % 5.0);
                (x, x * 0.9, 0.1 + 0.35 * (f % 4.0), 1.0 + (f % 3.0))
            })
            .collect()
    }

    /// Asserts a reused solver's outcome and loads agree with the cold
    /// solve to 1e-9 relative.
    fn assert_matches_cold(soa: &SoaWaterfill, out: &SoaOutcome, p: &BankProblem<'_>, at: &str) {
        let (cold, cold_lambdas) = solve(p).unwrap();
        let scale = cold.objective.abs().max(1.0);
        assert!(
            (out.objective - cold.objective).abs() <= 1e-9 * scale,
            "{at}: objective soa {} vs cold {}",
            out.objective,
            cold.objective
        );
        for (sl, cl) in soa.lambdas().iter().zip(&cold_lambdas) {
            assert!((sl - cl).abs() <= 1e-9 * cl.abs().max(1.0), "{at}: λ soa {sl} vs cold {cl}");
        }
    }

    /// At an energy weight of ~1e17 one ULP of the water level (~0.125)
    /// is wider than the band in which the cheapest queue takes its whole
    /// share, so the bisection ends with every queue at 0. The remainder
    /// then belongs on the cheapest queue (row 2), not on the first row.
    #[test]
    fn unresolved_water_level_fills_the_cheapest_queue() {
        let bank = bank_of(&[
            single(250.0, 237.5, 0.0091),
            single(212.5, 201.875, 0.011776470588235296),
            single(287.5, 273.125, 0.007517391304347826),
            single(225.0, 213.75, 0.008088888888888889),
        ]);
        let (lam, a, w) = (91.47892714302873, 1.2582377022619213e17, 10.0);
        let want = [0.0, 0.0, lam, 0.0];
        assert_eq!(solve(&problem(&bank, lam, a, w, 0.0)).unwrap().1, want);
        let mut soa = SoaWaterfill::new();
        let _ = soa.solve(&problem(&bank, lam, a, w, 0.0)).unwrap();
        assert_eq!(soa.lambdas(), want);
    }

    /// Lane-remainder coverage: type counts around the `[f64; 8]` chunk
    /// boundary (1, 7, 8, 9, 17 → 0/0/1/1/2 full chunks plus 1/7/0/1/1
    /// tail rows); a reused, warm-started solver must agree with the cold
    /// `solve` on every one.
    #[test]
    fn bank_matches_cold_across_lane_remainders() {
        for &n in &[1usize, 7, 8, 9, 17] {
            let bank = bank_of(&varied_rows(n));
            bank.validate().unwrap();
            let cap = bank.aggregates().0;
            let mut soa = SoaWaterfill::new();
            // Load fractions and renewable settings that exercise all
            // three regimes (r = 0 active, huge r slack, mid r kink).
            for &(frac, a, w, r_frac) in &[
                (0.45, 20.0, 1.0, 0.0),
                (0.6, 20.0, 1.0, 0.35),
                (0.5, 20.0, 1.0, 1e6),
                (0.75, 5.0, 2.0, 0.5),
            ] {
                let lam = cap * frac;
                let r = if r_frac > 1.0 { r_frac } else { cap * r_frac };
                let p = problem(&bank, lam, a, w, r);
                let out = soa.solve(&p).unwrap();
                assert_matches_cold(&soa, &out, &p, &format!("n={n}, (λ={lam}, A={a}, W={w}, r={r})"));
            }
        }
    }

    /// Relative distance of `a` from `b`.
    fn rel(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs().max(f64::MIN_POSITIVE)
    }

    /// A bank whose only live row (row 1, `m = 4`) has PUE-scaled slope
    /// and static power; row 0 is retracted. Returns it with its base
    /// power `P₀`.
    fn one_live_row_bank() -> (QueueBank, f64) {
        let pue = 1.3;
        let mut bank = QueueBank::new();
        bank.push_type(9.0, 8.1, 0.7 * pue, 0.2 * pue, 0.0);
        bank.push_type(12.0, 11.4, 0.3 * pue, 0.5 * pue, 4.0);
        (bank, 4.0 * 0.5 * pue)
    }

    /// A reused solver prices a bank with one live row in closed form:
    /// `λ/m`, no water-level evaluation. The cold `solve` keeps the search,
    /// and the two agree to 1e-12 relative on objective, power, delay and
    /// load — electricity-active and renewable-slack, and a load just under
    /// the saturation threshold — and to 1e-9 on the water level, which
    /// the search only resolves to its stopping rule. Just under
    /// saturation the search runs out of iterations before it resolves the
    /// level (its loads are rescaled onto the load), so the level is not
    /// compared there.
    #[test]
    fn one_live_row_is_priced_in_closed_form() {
        let (bank, base_power) = one_live_row_bank();
        let cap = bank.aggregates().0;
        let mut soa = SoaWaterfill::new();
        for (at, lam, a, r, level_resolved) in [
            ("active", 0.4 * cap, 5.0, 0.0, true),
            ("slack", 0.4 * cap, 5.0, 1e6, true),
            ("active at A = 0", 0.7 * cap, 0.0, 1e6, true),
            ("active, power just above r", 0.4 * cap, 5.0, 8.0, true),
            ("just under saturation", cap * (1.0 - 2e-12), 5.0, 0.0, false),
        ] {
            let p = BankProblem { base_power, ..problem(&bank, lam, a, 2.0, r) };
            let out = soa.solve(&p).unwrap();
            assert_eq!(soa.last_evals, 0, "{at}: no water-level search");
            let (cold, cold_lambdas) = solve(&p).unwrap();
            for (what, warm, cold) in [
                ("objective", out.objective, cold.objective),
                ("power", out.power, cold.power),
                ("delay", out.delay, cold.delay),
                ("load", soa.lambdas()[1], cold_lambdas[1]),
            ] {
                assert!(rel(warm, cold) <= 1e-12, "{at}: {what} closed form {warm} vs cold {cold}");
            }
            assert_eq!(soa.lambdas()[0], 0.0, "{at}: the retracted row stays empty");
            let (nu, cold_nu) = (out.water_level.unwrap(), cold.water_level.unwrap());
            if level_resolved {
                assert!(rel(nu, cold_nu) <= 1e-9, "{at}: water level {nu} vs cold {cold_nu}");
            }
        }
        // The closed-form level seeds the next search: a second live row
        // makes the solver search again, and it still agrees with cold.
        let mut two = bank.clone();
        two.set_multiplicity(0, 2.0);
        let p = BankProblem {
            base_power: base_power + 2.0 * two.static_power_of(0),
            ..problem(&two, 0.5 * two.aggregates().0, 5.0, 2.0, 0.0)
        };
        let out = soa.solve(&p).unwrap();
        assert!(soa.last_evals > 0, "two live rows search for the water level");
        assert_matches_cold(&soa, &out, &p, "two live rows after closed-form prices");
    }

    /// Zero and infeasible loads on a one-live-row bank take the checks
    /// ahead of the closed form, exactly as the cold `solve` does.
    #[test]
    fn one_live_row_zero_and_infeasible_loads_match_cold() {
        let (bank, base_power) = one_live_row_bank();
        let mut soa = SoaWaterfill::new();
        let zero = BankProblem { base_power, ..problem(&bank, 0.0, 5.0, 2.0, 1.0) };
        let (out, cold) = (soa.solve(&zero).unwrap(), solve(&zero).unwrap().0);
        assert_eq!(out, cold);
        assert_eq!(out.water_level, None);
        assert_eq!(soa.lambdas(), [0.0, 0.0]);
        let over_cap = 1.01 * bank.aggregates().0;
        let over = BankProblem { base_power, ..problem(&bank, over_cap, 5.0, 2.0, 0.0) };
        assert!(matches!(soa.solve(&over), Err(OptError::Infeasible(_))));
        assert!(matches!(solve(&over), Err(OptError::Infeasible(_))));
    }

    /// A retracted (`m = 0`) row must be arithmetically inert: the solve
    /// matches the same problem with the row absent entirely.
    #[test]
    fn bank_retracted_rows_are_inert() {
        let live_rows = varied_rows(5);
        let live = bank_of(&live_rows);
        let mut bank = bank_of(&live_rows);
        // Interleave two retracted rows (one mid-bank, one at the end).
        let mid = bank.push_type(9.0, 8.1, 0.7, 0.0, 0.0);
        let end = bank.push_type(11.0, 9.9, 0.2, 0.0, 0.0);
        assert_eq!(bank.multiplicity_of(mid), 0.0);
        assert_eq!(bank.multiplicity_of(end), 0.0);
        let cap = live.aggregates().0;
        let mut soa = SoaWaterfill::new();
        for &(frac, r_frac) in &[(0.5, 0.0), (0.65, 0.4), (0.5, 1e6_f64)] {
            let lam = cap * frac;
            let r = if r_frac > 1.0 { r_frac } else { cap * r_frac };
            let out = soa.solve(&problem(&bank, lam, 20.0, 1.0, r)).unwrap();
            assert_matches_cold(&soa, &out, &problem(&live, lam, 20.0, 1.0, r), &format!("r={r}"));
            // Load conservation must hold with the retracted rows carrying
            // zero weight, and the retracted rows hold load 0.
            assert!((dispatched(&bank, soa.lambdas()) - lam).abs() <= 1e-6 * lam.max(1.0));
            assert_eq!((soa.lambdas()[mid], soa.lambdas()[end]), (0.0, 0.0));
        }
    }

    /// Multiplicity round-trips through the delta API (`±1.0` is exact for
    /// integer-valued lanes) and the aggregates follow.
    #[test]
    fn bank_multiplicity_deltas_are_exact() {
        let mut bank = bank_of(&varied_rows(4));
        let (cap0, base0) = bank.aggregates();
        bank.add_multiplicity(2, 1.0);
        bank.add_multiplicity(2, -1.0);
        let (cap1, base1) = bank.aggregates();
        assert_eq!(cap0, cap1, "±1.0 deltas must round-trip bit-exactly");
        assert_eq!(base0, base1);
        bank.set_multiplicity(1, 0.0);
        let (cap2, _) = bank.aggregates();
        assert!(cap2 < cap1);
        assert_eq!(bank.multiplicity_of(1), 0.0);
    }

    #[test]
    fn soa_solver_handles_degenerate_paths() {
        let bank = bank_of(&homogeneous(3, 10.0, 0.9, 0.1));
        let mut soa = SoaWaterfill::new();
        // Zero load.
        let out = soa.solve(&problem(&bank, 0.0, 1.0, 1.0, 0.0)).unwrap();
        assert_eq!(out.objective, 0.0);
        assert!(soa.lambdas().iter().all(|&l| l == 0.0));
        assert!(out.water_level.is_none());
        // Saturated.
        let _ = soa.solve(&problem(&bank, 27.0, 1.0, 1.0, 0.0)).unwrap();
        assert!(soa.lambdas().iter().all(|&l| (l - 9.0).abs() < 1e-9));
        // W = 0 greedy matches the cold solve.
        let p = problem(&bank, 6.0, 1.0, 0.0, 0.0);
        let out_greedy = soa.solve(&p).unwrap();
        let (cold, _) = solve(&p).unwrap();
        assert!((out_greedy.objective - cold.objective).abs() < 1e-12);
        // Infeasible load.
        assert!(matches!(
            soa.solve(&problem(&bank, 28.0, 1.0, 1.0, 0.0)),
            Err(OptError::Infeasible(_))
        ));
        // Bad scalar rejected.
        let mut p = problem(&bank, 1.0, 1.0, 1.0, 0.0);
        p.renewable = -1.0;
        assert!(matches!(soa.solve(&p), Err(OptError::InvalidInput(_))));
    }

    /// The `W = 0` greedy on a solver that just solved a `W > 0` problem on
    /// the same bank: it fills by `(slope, row)` — the tied rows 1 and 2 in
    /// row order, row 1 standing for two queues — and the dear row 0, which
    /// the previous solve loaded, is left empty.
    #[test]
    fn greedy_on_a_reused_solver_fills_by_slope_then_row() {
        let bank = bank_of(&[single(10.0, 5.0, 0.5), (10.0, 5.0, 0.1, 2.0), single(10.0, 5.0, 0.1)]);
        let mut soa = SoaWaterfill::new();
        let _ = soa.solve(&problem(&bank, 12.0, 0.1, 1.0, 0.0)).unwrap();
        assert!(soa.lambdas()[0] > 0.0, "the W > 0 solve loads row 0");
        let out = soa.solve(&problem(&bank, 12.0, 0.1, 0.0, 0.0)).unwrap();
        assert_eq!(soa.lambdas(), [0.0, 5.0, 2.0]);
        assert_eq!(dispatched(&bank, soa.lambdas()), 12.0);
        assert!((out.power - 1.2).abs() < 1e-12 && out.water_level.is_none());
    }

    #[test]
    fn bank_validate_rejects_bad_rows() {
        let mut bank = QueueBank::new();
        bank.push_type(10.0, 9.0, 0.1, 1.0, 2.0);
        assert!(bank.validate().is_ok());
        bank.push_type(10.0, 10.0, 0.1, 1.0, 1.0); // util_cap == capacity
        assert!(bank.validate().is_err());
        for (x, u, c, st, m) in [
            (0.0, 0.0, 0.1, 1.0, 1.0),  // zero capacity
            (10.0, 9.0, -1.0, 1.0, 1.0), // negative energy slope
            (10.0, 9.0, 0.1, -1.0, 1.0), // negative static power
            (10.0, 9.0, 0.1, 1.0, -1.0), // negative multiplicity
        ] {
            bank.clear();
            bank.push_type(x, u, c, st, m);
            assert!(bank.validate().is_err(), "({x}, {u}, {c}, {st}, {m})");
        }
        bank.clear();
        bank.push_type(10.0, 9.0, 0.1, 1.0, 0.0); // retracted row is fine
        assert!(bank.validate().is_ok());
    }

    /// Warm-started resolves across regime transitions agree with cold
    /// solves of the same problems.
    #[test]
    fn soa_solver_matches_cold_across_regime_transitions() {
        let bank = bank_of(&[single(10.0, 9.0, 1.0), (10.0, 9.0, 3.0, 2.0)]);
        let mut soa = SoaWaterfill::new();
        for &(lam, a, w, r) in &[
            (10.0, 50.0, 1.0, 0.0),  // electricity-active
            (16.0, 50.0, 1.0, 16.0), // boundary kink
            (10.0, 50.0, 1.0, 1e9),  // renewable-slack
            (16.5, 50.0, 1.0, 16.0), // kink revisited with drifted load
            (10.1, 50.0, 1.0, 0.0),  // back to active
        ] {
            let p = problem(&bank, lam, a, w, r);
            let out = soa.solve(&p).unwrap();
            assert_matches_cold(&soa, &out, &p, &format!("(λ={lam}, A={a}, W={w}, r={r})"));
            let (Some(sn), Some(cn)) = (out.water_level, solve(&p).unwrap().0.water_level) else {
                panic!("both paths should report a water level");
            };
            assert!((sn - cn).abs() <= 1e-6 * cn.abs().max(1.0), "ν soa {sn} vs cold {cn}");
        }
    }

    /// The full-bank passes the live-row passes replaced, kept verbatim as
    /// the bit-exactness oracle: every row, dead ones included, walked in
    /// `[f64; LANE_WIDTH]` chunks plus a scalar tail.
    mod full_row {
        use super::super::{bank_row_load, bank_row_load_slope, QueueBank, LANE_WIDTH};

        pub(super) fn total_at(
            bank: &QueueBank,
            nu: f64,
            a_eff: f64,
            wox: &[f64],
            wx: &[f64],
        ) -> f64 {
            let n = bank.capacity.len();
            let xs = &bank.capacity[..n];
            let us = &bank.util_cap[..n];
            let cs = &bank.energy_slope[..n];
            let ms = &bank.multiplicity[..n];
            let (wox, wx) = (&wox[..n], &wx[..n]);
            let mut acc = [0.0_f64; LANE_WIDTH];
            let split = n - n % LANE_WIDTH;
            for base in (0..split).step_by(LANE_WIDTH) {
                for (j, a) in acc.iter_mut().enumerate() {
                    let k = base + j;
                    *a += ms[k] * bank_row_load(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
                }
            }
            let mut total = acc.iter().sum::<f64>();
            for k in split..n {
                total += ms[k] * bank_row_load(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
            }
            total
        }

        pub(super) fn total_slope_into(
            bank: &QueueBank,
            nu: f64,
            a_eff: f64,
            wox: &[f64],
            wx: &[f64],
            out: &mut [f64],
        ) -> (f64, f64) {
            let n = bank.capacity.len();
            let xs = &bank.capacity[..n];
            let us = &bank.util_cap[..n];
            let cs = &bank.energy_slope[..n];
            let ms = &bank.multiplicity[..n];
            let (wox, wx) = (&wox[..n], &wx[..n]);
            // Re-slicing `out` (not just asserting) removes the bounds-check panic
            // path from the chunk loop, which would otherwise block vectorization.
            let out = &mut out[..n];
            let mut acc_t = [0.0_f64; LANE_WIDTH];
            let mut acc_s = [0.0_f64; LANE_WIDTH];
            let split = n - n % LANE_WIDTH;
            // Per-lane accumulators fix the summation tree (stable totals however
            // the compiler unrolls the chunk), and the re-sliced inputs keep the
            // body free of bounds checks.
            for base in (0..split).step_by(LANE_WIDTH) {
                for (j, (t, s)) in acc_t.iter_mut().zip(acc_s.iter_mut()).enumerate() {
                    let k = base + j;
                    let (l, ds) =
                        bank_row_load_slope(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
                    out[k] = l;
                    *t += ms[k] * l;
                    *s += ms[k] * ds;
                }
            }
            let mut total = acc_t.iter().sum::<f64>();
            let mut slope = acc_s.iter().sum::<f64>();
            for k in split..n {
                let (l, ds) = bank_row_load_slope(xs[k], us[k], cs[k], nu, a_eff, wox[k], wx[k]);
                out[k] = l;
                total += ms[k] * l;
                slope += ms[k] * ds;
            }
            (total, slope)
        }

        pub(super) fn fill_into(
            bank: &QueueBank,
            nu: f64,
            a_eff: f64,
            wox: &[f64],
            wx: &[f64],
            out: &mut [f64],
        ) {
            let n = bank.capacity.len();
            debug_assert_eq!(out.len(), n, "out must be pre-sized to the bank");
            for (((((o, &x), &u), &c), &ox), &px) in out
                .iter_mut()
                .zip(&bank.capacity)
                .zip(&bank.util_cap)
                .zip(&bank.energy_slope)
                .zip(wox)
                .zip(wx)
            {
                *o = bank_row_load(x, u, c, nu, a_eff, ox, px);
            }
        }

        pub(super) fn power_delay(
            bank: &QueueBank,
            base_power: f64,
            lambdas: &[f64],
        ) -> (f64, f64) {
            let mut p = base_power;
            let mut d = 0.0;
            for (((&l, &m), &c), &x) in lambdas
                .iter()
                .zip(&bank.multiplicity)
                .zip(&bank.energy_slope)
                .zip(&bank.capacity)
            {
                p += m * c * l;
                d += if l > 0.0 { m * l / (x - l) } else { 0.0 };
            }
            (p, d)
        }

        pub(super) fn lower_bound(bank: &QueueBank, a_eff: f64, wox: &[f64]) -> f64 {
            let mut lo = f64::INFINITY;
            for ((&m, &c), &ox) in bank.multiplicity.iter().zip(&bank.energy_slope).zip(wox) {
                let t = if m > 0.0 { a_eff * c + ox } else { f64::INFINITY };
                lo = lo.min(t);
            }
            lo
        }

        pub(super) fn rescale(
            lambdas: &mut [f64],
            bank: &QueueBank,
            lam: f64,
            a_eff: f64,
            wox: &[f64],
        ) {
            // One fused pass for the dispatched total and the interior mass — the
            // slack test needs both, and separate walks would re-stream the lanes.
            let mut total = 0.0;
            let mut interior = 0.0;
            for ((&l, &u), &m) in lambdas.iter().zip(&bank.util_cap).zip(&bank.multiplicity) {
                total += m * l;
                if l > 0.0 && l < u {
                    interior += m * l;
                }
            }
            let slack = lam - total;
            if slack.abs() > 0.0 {
                if interior > 0.0 {
                    for (l, &u) in lambdas.iter_mut().zip(&bank.util_cap) {
                        if *l > 0.0 && *l < u {
                            *l = (*l + (slack / interior) * *l).clamp(0.0, u);
                        }
                    }
                } else if slack > 0.0 {
                    distribute_remainder(lambdas, bank, slack, a_eff, wox);
                }
            }
        }

        fn distribute_remainder(
            lambdas: &mut [f64],
            bank: &QueueBank,
            mut slack: f64,
            a_eff: f64,
            wox: &[f64],
        ) {
            // Rows sorted once by (zero-load marginal, row); retracted rows
            // take no load.
            let mut order: Vec<usize> = (0..bank.len()).filter(|&k| bank.multiplicity[k] > 0.0).collect();
            let key = |k: usize| a_eff * bank.energy_slope[k] + wox[k];
            order.sort_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
            for k in order {
                if slack <= 0.0 {
                    break;
                }
                let m = bank.multiplicity[k];
                let take = ((bank.util_cap[k] - lambdas[k]) * m).min(slack);
                lambdas[k] += take / m;
                slack -= take;
            }
        }
    }

    /// One random bank row: capacity, utilization fraction, energy slope,
    /// a multiplicity choice (see [`MULTIPLICITIES`]), and a load fraction
    /// and kind for the loads the power/delay and rescale passes read.
    type RowDraw = (f64, f64, f64, usize, f64, usize);

    /// Multiplicities a random row draws from: a third of the rows are dead.
    const MULTIPLICITIES: [f64; 6] = [0.0, 0.0, 1.0, 2.0, 3.5, 40.0];

    /// Builds the bank and a load per row (0, the cap, or interior) from
    /// `rows`; `all_dead` retracts every row.
    fn drawn_bank(rows: &[RowDraw], all_dead: bool) -> (QueueBank, Vec<f64>) {
        let mut bank = QueueBank::new();
        let mut loads = Vec::new();
        for &(x, frac, c, mi, load, kind) in rows {
            let u = x * frac;
            let m = if all_dead { 0.0 } else { MULTIPLICITIES[mi] };
            bank.push_type(x, u, c, 0.0, m);
            loads.push(match kind {
                0 => 0.0,
                1 => u,
                _ => load * u,
            });
        }
        bank.validate().unwrap();
        (bank, loads)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// Every live-row pass returns totals with the same bits as the
        /// full-bank pass it replaced, and writes the same bits into every
        /// live row: banks of 0–20 rows (shorter than a lane chunk, whole
        /// chunks, and tails past the last one), a third of the rows dead,
        /// and some banks entirely dead.
        #[test]
        fn live_row_passes_match_the_full_row_oracle_bit_for_bit(
            rows in proptest::collection::vec(
                (1.0..20.0_f64, 0.5..0.99_f64, 0.0..2.0_f64, 0..6_usize, 0.0..1.0_f64, 0..3_usize),
                0..21,
            ),
            nu in 0.0..300.0_f64,
            a_eff in 0.0..50.0_f64,
            w in 0.01..10.0_f64,
            lam_scale in 0.8..1.2_f64,
            dead_draw in 0..6_usize,
        ) {
            // One bank in six is entirely dead.
            let (bank, loads) = drawn_bank(&rows, dead_draw == 0);
            let n = bank.len();
            let wox: Vec<f64> = bank.capacity.iter().map(|&x| w / x).collect();
            let wx: Vec<f64> = bank.capacity.iter().map(|&x| w * x).collect();
            let mut soa = SoaWaterfill::new();
            soa.collect_live_rows(&bank);
            let live = soa.live_rows();
            proptest::prop_assert!(live.rows.iter().all(|&k| bank.multiplicity[k] > 0.0));
            proptest::prop_assert_eq!(
                live.rows.len(),
                bank.multiplicity.iter().filter(|&&m| m > 0.0).count()
            );
            let same = |a: f64, b: f64| a.to_bits() == b.to_bits();

            let t = bank_total_at(&bank, live, nu, a_eff, &wox, &wx);
            let o = full_row::total_at(&bank, nu, a_eff, &wox, &wx);
            proptest::prop_assert!(same(t, o), "total {t} vs {o}");

            let (mut out, mut oracle_out) = (vec![0.0; n], vec![0.0; n]);
            let (t, s) = bank_total_slope_into(&bank, live, nu, a_eff, &wox, &wx, &mut out);
            let (ot, os) = full_row::total_slope_into(&bank, nu, a_eff, &wox, &wx, &mut oracle_out);
            proptest::prop_assert!(same(t, ot) && same(s, os), "({t}, {s}) vs ({ot}, {os})");
            proptest::prop_assert!(live.rows.iter().all(|&k| same(out[k], oracle_out[k])));

            let (mut fill, mut oracle_fill) = (vec![0.0; n], vec![0.0; n]);
            bank_fill_into(&bank, live, nu, a_eff, &wox, &wx, &mut fill);
            full_row::fill_into(&bank, nu, a_eff, &wox, &wx, &mut oracle_fill);
            proptest::prop_assert!(live.rows.iter().all(|&k| same(fill[k], oracle_fill[k])));

            // The dead rows' loads are arbitrary here: the oracle weighs
            // them by m = 0, the live pass never reads them.
            let (p, d) = bank_power_delay(&bank, live, 3.25, &loads);
            let (op, od) = full_row::power_delay(&bank, 3.25, &loads);
            proptest::prop_assert!(same(p, op) && same(d, od), "({p}, {d}) vs ({op}, {od})");
            let power = bank_power(&bank, live, 3.25, &loads);
            proptest::prop_assert!(same(power, op), "power {power} vs {op}");

            let lo = bank_nu_lower_bound(&bank, live, a_eff, &wox);
            let olo = full_row::lower_bound(&bank, a_eff, &wox);
            proptest::prop_assert!(same(lo, olo), "ν lower bound {lo} vs {olo}");

            // A target off the loads' total exercises both the interior
            // rescale and (when no row is interior) the remainder fill.
            let dispatched: f64 = loads.iter().zip(&bank.multiplicity).map(|(l, m)| m * l).sum();
            let lam = dispatched * lam_scale;
            let (mut rescaled, mut oracle_rescaled) = (loads.clone(), loads.clone());
            bank_rescale_interior(&mut rescaled, &bank, live, lam, a_eff, &wox);
            full_row::rescale(&mut oracle_rescaled, &bank, lam, a_eff, &wox);
            proptest::prop_assert!(
                live.rows.iter().all(|&k| same(rescaled[k], oracle_rescaled[k]))
            );
        }
    }

    /// A solver `reset()` between solves returns the same bits as a fresh
    /// one on every solve of a sequence over banks of different sizes and
    /// dead rows, across all three regimes: no warm state or stale buffer
    /// survives the reset.
    #[test]
    fn reset_solver_matches_a_fresh_one_bit_for_bit() {
        let mut reused = SoaWaterfill::new();
        for &(n, dead_every) in &[(5usize, 2usize), (17, 3), (3, 7), (9, 2), (17, 4)] {
            let mut bank = bank_of(&varied_rows(n));
            for row in (0..n).step_by(dead_every) {
                bank.set_multiplicity(row, 0.0);
            }
            if bank.aggregates().0 <= 0.0 {
                bank.set_multiplicity(n - 1, 1.0);
            }
            let cap = bank.aggregates().0;
            for &(frac, a, w, r) in &[
                (0.45, 20.0, 1.0, 0.0),
                (0.6, 20.0, 1.0, 0.35 * cap),
                (0.5, 20.0, 1.0, 1e6),
                (1.0, 5.0, 2.0, 0.0),
            ] {
                let p = problem(&bank, cap * frac, a, w, r);
                reused.reset();
                let got = reused.solve(&p).unwrap();
                let mut fresh = SoaWaterfill::new();
                let want = fresh.solve(&p).unwrap();
                let bits = |o: &SoaOutcome| {
                    let level = o.water_level.unwrap_or(f64::NAN);
                    [o.objective, o.power, o.delay, level].map(f64::to_bits)
                };
                assert_eq!(bits(&got), bits(&want), "n={n}, frac={frac}, r={r}");
                assert_eq!(reused.last_evals, fresh.last_evals);
                let lambda_bits =
                    |s: &SoaWaterfill| s.lambdas().iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                assert_eq!(lambda_bits(&reused), lambda_bits(&fresh), "n={n}, frac={frac}, r={r}");
                for row in (0..n).filter(|&row| bank.multiplicity_of(row) == 0.0) {
                    let bits = reused.lambdas()[row].to_bits();
                    assert_eq!(bits, 0.0_f64.to_bits(), "dead row {row} holds 0");
                }
            }
        }
    }
}
