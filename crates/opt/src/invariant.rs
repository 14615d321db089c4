//! Runtime paper-invariant checker.
//!
//! The COCA reproduction makes quantitative claims that are easy to break
//! silently — a sign slip in the deficit recursion still *runs*, it just
//! stops being the paper. This module turns the paper-level invariants into
//! executable checks that the controller, the simulator, and every baseline
//! call at their natural seams:
//!
//! | check | paper anchor |
//! |---|---|
//! | carbon-deficit queue never negative | eq. 17 (`[·]⁺` clamp) |
//! | queue reset exactly at frame boundaries | Algorithm 1 lines 2–4 |
//! | load conservation `Σᵢ mᵢλᵢ = a(t)` | constraint (8) |
//! | speeds drawn from the discrete set `Sᵢ` | constraint (9) |
//! | water-filling KKT residual ≤ ε | eq. 16/18 three-regime analysis |
//! | Gibbs acceptance probability ∈ [0, 1] | Algorithm 2 lines 4–5 |
//!
//! # Modes
//!
//! * **Debug** (default): a violated invariant trips a `debug_assert!` —
//!   loud under `cargo test`, free in release binaries.
//! * **Strict**: a violated invariant panics unconditionally, release builds
//!   included. Enabled process-wide by setting the environment variable
//!   `COCA_STRICT_INVARIANTS=1` (or calling [`force_strict`] before first
//!   use); the `repro` experiment binary exposes it as `--strict`.
//!
//! The water-filling checks read the solver's own problem type, a
//! [`BankProblem`] over a [`crate::waterfill::QueueBank`], with per-row
//! loads in bank row order; retracted `m = 0` rows are skipped.
//!
//! Every check is tallied regardless of outcome, so a test can assert that
//! a scenario actually *exercised* the checks it claims to (see
//! [`counts`]). The tally is per thread: each thread counts into its own
//! cache-line-aligned block, which only that thread writes, so parallel
//! batch workers never contend for one counter's cache line. [`counts`]
//! sums the live blocks with the totals of threads that have exited.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use crate::waterfill::BankProblem;

/// The individual invariant checks, used to index [`counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Carbon-deficit queue length is finite and ≥ 0 (eq. 17).
    DeficitNonNegative,
    /// Queue was reset at the last frame boundary (Algorithm 1 lines 2–4).
    FrameReset,
    /// Dispatched load equals the arrival rate (constraint 8).
    LoadConservation,
    /// Chosen speed level indexes the discrete speed set (constraint 9).
    SpeedMembership,
    /// Water-filling solution satisfies the KKT conditions to tolerance.
    KktResidual,
    /// Gibbs acceptance probability lies in [0, 1] (Algorithm 2).
    AcceptanceProbability,
}

/// Number of distinct checks (length of the counter table).
const NUM_CHECKS: usize = 6;

/// Human-readable names, index-aligned with [`Check`].
const CHECK_NAMES: [&str; NUM_CHECKS] = [
    "deficit-nonnegative",
    "frame-reset",
    "load-conservation",
    "speed-membership",
    "kkt-residual",
    "acceptance-probability",
];

/// One thread's check tally. Only the owning thread writes it, so an
/// increment is a relaxed load and store, never a read-modify-write; the
/// alignment keeps it off every other thread's cache lines (128 bytes,
/// because adjacent-line prefetchers pull 64-byte lines in pairs).
#[repr(align(128))]
struct Tally([AtomicU64; NUM_CHECKS]);

impl Tally {
    fn add_to(&self, totals: &mut [u64; NUM_CHECKS]) {
        for (total, cell) in totals.iter_mut().zip(&self.0) {
            // audit:atomic(relaxed read of a tally; the registry lock or a prior join orders it after the owner's stores)
            *total += cell.load(Ordering::Relaxed);
        }
    }
}

/// The tallies of every thread that has run a check and is still alive,
/// and the summed tallies of those that have exited.
struct Registry {
    live: Vec<Arc<Tally>>,
    retired: [u64; NUM_CHECKS],
}

static REGISTRY: Mutex<Registry> =
    Mutex::new(Registry { live: Vec::new(), retired: [0; NUM_CHECKS] });

/// The registry, also after a panic elsewhere poisoned its lock: every
/// update under it is a single push, removal or sum, so it never tears.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A thread's registered tally: listed in the registry at the thread's
/// first check, folded into the retired totals when the thread exits, so
/// short-lived threads do not grow the live list.
struct LocalTally(Arc<Tally>);

impl LocalTally {
    fn register() -> Self {
        let tally = Arc::new(Tally(std::array::from_fn(|_| AtomicU64::new(0))));
        registry().live.push(Arc::clone(&tally));
        Self(tally)
    }
}

impl Drop for LocalTally {
    fn drop(&mut self) {
        let mut reg = registry();
        let Registry { live, retired } = &mut *reg;
        self.0.add_to(retired);
        live.retain(|t| !Arc::ptr_eq(t, &self.0));
    }
}

thread_local! {
    static LOCAL: LocalTally = LocalTally::register();
}

/// Counts one run of `check` on the calling thread.
fn tally(check: Check) {
    let counted = LOCAL.try_with(|local| {
        let cell = &local.0 .0[check as usize];
        // audit:atomic(owner-only tally: relaxed load and store, no RMW — no other thread writes this cell)
        cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    });
    if counted.is_err() {
        // The thread's tally is already torn down (a check run from another
        // thread-local destructor): count straight into the retired totals.
        registry().retired[check as usize] += 1;
    }
}

/// How many times each check has run in this process (any [`InvariantSet`],
/// pass or fail, on any thread). Returns `(name, count)` pairs.
///
/// The counts sum the tallies of the live threads and of every thread that
/// has exited. They are exact for the checks that happen-before the call —
/// those of the calling thread, of joined threads, and of threads that
/// synchronized with the caller afterwards; checks racing with the call
/// may or may not be included.
pub fn counts() -> [(&'static str, u64); NUM_CHECKS] {
    let reg = registry();
    let mut totals = reg.retired;
    for tally in &reg.live {
        tally.add_to(&mut totals);
    }
    std::array::from_fn(|i| (CHECK_NAMES[i], totals[i]))
}

/// A configured set of invariant checks.
///
/// Cheap to construct; most call sites use the process-wide [`global`]
/// instance so strictness is controlled in one place.
#[derive(Debug, Clone, Copy)]
pub struct InvariantSet {
    strict: bool,
    /// Relative tolerance for the floating-point checks.
    tol: f64,
}

impl InvariantSet {
    /// A checker in the given mode with the default tolerance (1e-6).
    pub const fn new(strict: bool) -> Self {
        Self { strict, tol: 1e-6 }
    }

    /// A strict checker: violations panic even in release builds.
    pub const fn strict() -> Self {
        Self::new(true)
    }

    /// True when violations panic unconditionally.
    pub fn is_strict(&self) -> bool {
        self.strict
    }

    /// Records that `check` ran and reacts to the outcome per the mode.
    fn enforce(&self, check: Check, ok: bool, msg: impl FnOnce() -> String) {
        tally(check);
        if ok {
            return;
        }
        if self.strict {
            // The whole point of strict mode: fail hard, release included.
            panic!("paper invariant violated [{:?}]: {}", check, msg());
        }
        debug_assert!(false, "paper invariant violated [{:?}]: {}", check, msg());
    }

    /// Eq. 17: the clamped deficit queue can never go negative (nor NaN).
    pub fn deficit_nonnegative(&self, q: f64) {
        self.enforce(Check::DeficitNonNegative, q.is_finite() && q >= 0.0, || {
            format!("carbon-deficit queue length q = {q}")
        });
    }

    /// Algorithm 1 lines 2–4: at a frame boundary (`slot % frame == 0`) the
    /// queue must have just been reset, and within a frame the slot-in-frame
    /// counter must agree with the number of updates since the reset.
    pub fn frame_reset(&self, slot: usize, frame_length: usize, updates_since_reset: usize) {
        let ok = frame_length > 0 && updates_since_reset == slot % frame_length;
        self.enforce(Check::FrameReset, ok, || {
            format!(
                "slot {slot}, frame length {frame_length}: queue saw \
                 {updates_since_reset} updates since reset, expected {}",
                if frame_length > 0 { slot % frame_length } else { 0 }
            )
        });
    }

    /// Constraint (8): the dispatched load `Σᵢ mᵢλᵢ` equals the arrival
    /// rate `a(t)` up to relative tolerance.
    pub fn load_conserved(&self, dispatched: f64, arrival: f64) {
        let scale = arrival.abs().max(1.0);
        let ok = dispatched.is_finite()
            && arrival.is_finite()
            && (dispatched - arrival).abs() <= self.tol * scale;
        self.enforce(Check::LoadConservation, ok, || {
            format!("dispatched load {dispatched} != arrival rate {arrival}")
        });
    }

    /// Constraint (9): the chosen speed level at `site` must index one of
    /// that site's `num_choices` discrete speeds.
    pub fn speed_in_set(&self, level: usize, num_choices: usize, site: usize) {
        self.enforce(Check::SpeedMembership, level < num_choices, || {
            format!("site {site}: level {level} outside speed set of size {num_choices}")
        });
    }

    /// Checks a full capacity-provisioning/load-distribution decision:
    /// every speed level indexes its site's discrete speed set (constraint
    /// 9) and the load shares conserve the arrival rate (constraint 8).
    pub fn decision(&self, levels: &[usize], loads: &[f64], choice_counts: &[usize], arrival: f64) {
        for (site, (&level, &count)) in levels.iter().zip(choice_counts).enumerate() {
            self.speed_in_set(level, count, site);
        }
        self.load_conserved(loads.iter().sum(), arrival);
    }

    /// Algorithm 2 lines 4–5: a Gibbs acceptance probability is a
    /// probability.
    pub fn acceptance_probability(&self, u: f64) {
        self.enforce(Check::AcceptanceProbability, (0.0..=1.0).contains(&u), || {
            format!("Gibbs acceptance probability u = {u}")
        });
    }

    /// Checks the KKT conditions of a water-filling solution (per-row
    /// loads in bank row order) via [`kkt_residual`]; the residual must not
    /// exceed `max(tol, 1e-5)`.
    pub fn kkt(&self, problem: &BankProblem<'_>, lambdas: &[f64]) {
        let residual = kkt_residual(problem, lambdas);
        let eps = self.tol.max(1e-5);
        self.enforce(Check::KktResidual, residual <= eps, || {
            format!("water-filling KKT residual {residual} exceeds {eps}")
        });
    }
}

/// The process-wide checker. Strict iff `COCA_STRICT_INVARIANTS` is set to
/// `1`/`true` in the environment at first use (or [`force_strict`] was
/// called earlier).
pub fn global() -> &'static InvariantSet {
    GLOBAL.get_or_init(|| {
        let strict = std::env::var("COCA_STRICT_INVARIANTS")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        InvariantSet::new(strict)
    })
}

static GLOBAL: OnceLock<InvariantSet> = OnceLock::new();

/// Forces the [`global`] checker into strict mode. Must be called before the
/// first use of [`global`] (e.g. at the top of `main`); returns `false` if
/// the global checker was already initialized.
pub fn force_strict() -> bool {
    GLOBAL.set(InvariantSet::strict()).is_ok()
}

/// Normalized KKT residual of per-row loads `lambdas` (bank row order) for
/// the water-filling problem (module docs of [`crate::waterfill`]). It
/// reads the bank directly; retracted `m = 0` rows carry no queue and are
/// skipped.
///
/// The objective has a kink where total power crosses the renewable supply
/// `r`, so optimality admits three certificates; the residual is the best
/// (smallest) among those whose side condition holds:
///
/// * power ≥ r: stationarity with the full energy weight `A` — all interior
///   coordinates share one marginal cost `A·cᵢ + W·Xᵢ/(Xᵢ−λᵢ)²` (the water
///   level), no queue at 0 has a zero-load marginal below it, and no queue
///   at its cap has a marginal above it;
/// * power ≤ r: the same conditions with energy weight 0;
/// * always: complementary slackness at the kink, `|power − r|` small (an
///   effective weight `μ ∈ [0, A]` exists by continuity).
///
/// All three are normalized to be scale-free. Returns `+∞` for non-finite
/// inputs.
pub fn kkt_residual(problem: &BankProblem<'_>, lambdas: &[f64]) -> f64 {
    let bank = problem.bank;
    let live = || (0..bank.len()).zip(lambdas).filter(|&(k, _)| bank.multiplicity_of(k) > 0.0);
    if live().any(|(_, l)| !l.is_finite()) {
        return f64::INFINITY;
    }
    let power = problem.base_power
        + live().map(|(k, &l)| bank.multiplicity_of(k) * bank.energy_slope_of(k) * l).sum::<f64>();
    let r = problem.renewable;
    if !power.is_finite() {
        return f64::INFINITY;
    }
    let kink_scale = power.abs().max(r.abs()).max(1.0);
    let kink_residual = (power - r).abs() / kink_scale;

    // Stationarity with energy weight `a_eff`: one water level ν must equal
    // the marginal cost of every interior coordinate, lie at or below the
    // zero-load marginal `a_eff·cᵢ + W/Xᵢ` of every queue at 0, and at or
    // above the marginal of every queue at its cap. `floor` is the largest
    // marginal ν must reach (loaded queues), `ceil` the smallest it may not
    // exceed (queues below their cap); the residual is how far they cross.
    let stationarity = |a_eff: f64| -> f64 {
        let mut floor = f64::NEG_INFINITY;
        let mut ceil = f64::INFINITY;
        for (k, &l) in live() {
            let (x, u) = (bank.capacity_of(k), bank.util_cap_of(k));
            let gap = x - l;
            let marginal = a_eff * bank.energy_slope_of(k) + problem.delay_weight * x / (gap * gap);
            if l > 1e-9 * u {
                floor = floor.max(marginal);
            }
            if l < u * (1.0 - 1e-9) {
                ceil = ceil.min(marginal);
            }
        }
        if floor <= ceil {
            return 0.0; // some water level satisfies every condition
        }
        (floor - ceil) / floor.abs().max(ceil.abs()).max(1.0)
    };

    let slack_tol = 1e-7 * kink_scale;
    let mut best = kink_residual;
    if power >= r - slack_tol {
        best = best.min(stationarity(problem.energy_weight));
    }
    if power <= r + slack_tol {
        best = best.min(stationarity(0.0));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waterfill::{solve, QueueBank};

    fn lenient() -> InvariantSet {
        InvariantSet::new(false)
    }

    /// Serializes the tests that run the deficit, frame-reset and
    /// speed-membership checks, which no other test of this crate runs, so
    /// [`tallies_are_exact_across_threads`] can assert exact deltas on
    /// them. A strict test panics holding it; the poison is ignored.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The deficit, frame-reset and speed-membership counts.
    fn exact_counts() -> [u64; 3] {
        let c = counts();
        [
            c[Check::DeficitNonNegative as usize].1,
            c[Check::FrameReset as usize].1,
            c[Check::SpeedMembership as usize].1,
        ]
    }

    #[test]
    fn tallies_are_exact_across_threads() {
        use std::sync::mpsc;
        use std::thread;

        const THREADS: u64 = 4;
        // Thread k runs 1000·(k+1) rounds of three checks.
        fn rounds(k: u64) -> u64 {
            1000 * (k + 1)
        }
        fn run(k: u64) {
            let inv = InvariantSet::new(false);
            for r in 0..rounds(k) {
                inv.deficit_nonnegative(r as f64);
                inv.frame_reset(r as usize, 24, r as usize % 24);
                inv.speed_in_set(0, 5, k as usize);
            }
        }

        let _serial = serial();
        let before = exact_counts();
        let (done_tx, done_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel::<()>();
        // Thread 0 stays alive until told to exit, so its tally is live
        // when the others have been joined and retired.
        let lingering = thread::spawn(move || {
            run(0);
            done_tx.send(()).expect("main thread listens");
            exit_rx.recv().expect("main thread signals exit");
        });
        let others: Vec<_> = (1..THREADS).map(|k| thread::spawn(move || run(k))).collect();
        for t in others {
            t.join().expect("tally thread");
        }
        done_rx.recv().expect("lingering thread ran its checks");
        let live = exact_counts();
        exit_tx.send(()).expect("lingering thread waits");
        lingering.join().expect("lingering thread");
        let retired = exact_counts();

        let total: u64 = (0..THREADS).map(rounds).sum();
        for ((b, l), r) in before.iter().zip(live).zip(retired) {
            assert_eq!(l - b, total, "one thread live, the others retired");
            assert_eq!(r - b, total, "every thread retired");
        }
    }

    #[test]
    fn passing_checks_do_not_panic_and_are_counted() {
        let _serial = serial();
        let inv = lenient();
        let before = counts();
        inv.deficit_nonnegative(0.0);
        inv.deficit_nonnegative(3.5);
        inv.frame_reset(24, 24, 0);
        inv.frame_reset(25, 24, 1);
        inv.load_conserved(10.0, 10.0 + 1e-9);
        inv.speed_in_set(2, 5, 0);
        inv.acceptance_probability(0.0);
        inv.acceptance_probability(1.0);
        inv.acceptance_probability(0.5);
        let after = counts();
        for (i, ((name, a), (_, b))) in after.iter().zip(&before).enumerate() {
            if CHECK_NAMES[i] != "kkt-residual" {
                assert!(a > b, "check {name} not counted");
            }
        }
    }

    #[test]
    #[should_panic(expected = "DeficitNonNegative")]
    fn strict_mode_panics_on_negative_deficit() {
        let _serial = serial();
        InvariantSet::strict().deficit_nonnegative(-1e-9);
    }

    #[test]
    #[should_panic(expected = "FrameReset")]
    fn strict_mode_panics_on_missed_reset() {
        let _serial = serial();
        // Slot 24 with frame length 24 but 24 updates since reset: the
        // boundary reset was skipped.
        InvariantSet::strict().frame_reset(24, 24, 24);
    }

    #[test]
    #[should_panic(expected = "LoadConservation")]
    fn strict_mode_panics_on_dropped_load() {
        InvariantSet::strict().load_conserved(5.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "SpeedMembership")]
    fn strict_mode_panics_on_out_of_set_speed() {
        let _serial = serial();
        InvariantSet::strict().speed_in_set(5, 5, 3);
    }

    #[test]
    #[should_panic(expected = "AcceptanceProbability")]
    fn strict_mode_panics_on_bad_probability() {
        InvariantSet::strict().acceptance_probability(1.5);
    }

    /// A bank of single queues `(capacity, util_cap, energy_slope)`.
    fn bank_of(rows: &[(f64, f64, f64)]) -> QueueBank {
        let mut bank = QueueBank::new();
        for &(x, u, c) in rows {
            bank.push_type(x, u, c, 0.0, 1.0);
        }
        bank
    }

    /// The queues of `bank` sharing `load` at A = 2, W = 1, base power 0.2
    /// and r = 0.
    fn sharing(bank: &QueueBank, load: f64) -> BankProblem<'_> {
        BankProblem {
            bank,
            total_load: load,
            energy_weight: 2.0,
            delay_weight: 1.0,
            base_power: 0.2,
            capped_capacity: bank.aggregates().0,
            renewable: 0.0,
        }
    }

    /// A cheap queue and a dear one.
    fn cheap_and_dear() -> QueueBank {
        bank_of(&[(10.0, 9.0, 0.05), (14.0, 12.6, 0.30)])
    }

    #[test]
    fn kkt_residual_small_at_optimum_large_off_optimum() {
        let bank = cheap_and_dear();
        let p = sharing(&bank, 11.0);
        let (_, lambdas) = solve(&p).expect("solvable");
        let at_opt = kkt_residual(&p, &lambdas);
        assert!(at_opt <= 1e-5, "optimal residual {at_opt}");
        // A skewed feasible point conserves load but violates stationarity.
        let skew = [2.0, (11.0 - 2.0) / 1.0];
        let off_opt = kkt_residual(&p, &skew);
        assert!(off_opt > 1e-3, "skewed residual {off_opt} should be large");
    }

    #[test]
    fn kkt_residual_checks_queues_at_their_bounds() {
        // Each wrong split has one interior coordinate, hence no spread;
        // only the bound conditions reject it. Load parked on the dear
        // queue while the cheap one idles (objective 3.96 against 1.90),
        // and the dear queue saturated while the cheap one has headroom.
        let bank = cheap_and_dear();
        for (load, wrong) in [(5.0, [0.0, 5.0]), (15.0, [15.0 - 12.6, 12.6])] {
            let p = sharing(&bank, load);
            let (_, lambdas) = solve(&p).expect("solvable");
            assert!(kkt_residual(&p, &lambdas) <= 1e-5);
            assert!(p.objective(&wrong) > p.objective(&lambdas));
            let res = kkt_residual(&p, &wrong);
            assert!(res > 1e-3, "{wrong:?}: residual {res} should be large");
        }
    }

    #[test]
    fn kkt_residual_skips_retracted_rows() {
        // A retracted row holding a load that would break every condition
        // (above its cap, and NaN) changes nothing.
        let mut bank = cheap_and_dear();
        let p = sharing(&bank, 11.0);
        let (_, lambdas) = solve(&p).expect("solvable");
        let want = kkt_residual(&p, &lambdas);
        bank.push_type(5.0, 4.5, 0.01, 0.0, 0.0);
        let p = sharing(&bank, 11.0);
        for dead in [100.0, f64::NAN] {
            let got = kkt_residual(&p, &[lambdas[0], lambdas[1], dead]);
            assert_eq!(got.to_bits(), want.to_bits(), "dead-row load {dead}");
        }
    }

    #[test]
    fn kkt_residual_accepts_kink_solutions() {
        // The kink instance from the waterfill tests: optimum pins power=r.
        let bank = bank_of(&[(10.0, 9.0, 1.0), (10.0, 9.0, 3.0)]);
        let p = BankProblem {
            bank: &bank,
            total_load: 10.0,
            energy_weight: 50.0,
            delay_weight: 1.0,
            base_power: 0.0,
            capped_capacity: 18.0,
            renewable: 16.0,
        };
        let (_, lambdas) = solve(&p).expect("solvable");
        let res = kkt_residual(&p, &lambdas);
        assert!(res <= 1e-5, "kink residual {res}");
    }

    #[test]
    fn kkt_residual_infinite_on_nan() {
        let bank = bank_of(&[(10.0, 9.0, 0.1)]);
        let p = BankProblem { renewable: 0.0, ..sharing(&bank, 1.0) };
        assert!(kkt_residual(&p, &[f64::NAN]).is_infinite());
    }

    #[test]
    fn global_is_lenient_without_env() {
        // The test harness does not set COCA_STRICT_INVARIANTS; the global
        // checker must come up in debug mode (this would race with a test
        // that sets the variable, which is why the strict run lives in its
        // own integration-test binary).
        if std::env::var("COCA_STRICT_INVARIANTS").is_err() {
            assert!(!global().is_strict());
        }
    }
}
