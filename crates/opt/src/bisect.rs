//! Monotone scalar root finding by bisection.
//!
//! Every Lagrange-multiplier search in the COCA system — the water-filling
//! multiplier ν and the carbon-budget multiplier μ of the budgeted
//! baselines ([`crate::dual`]) — reduces to finding the root (or the
//! crossing point) of a function of one variable that is monotone for an
//! exact inner solver. Bisection is the right tool: it is
//! derivative-free, unconditionally convergent on a bracketing interval, and
//! tolerant of the piecewise-smooth, clipped functions that arise from KKT
//! conditions with box constraints.

// A panic mid-slot aborts the control loop Theorem 2 bounds: return typed errors.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable)]

use crate::{OptError, Result};

/// Options controlling a bisection run.
#[derive(Debug, Clone, Copy)]
pub struct BisectOptions {
    /// Absolute tolerance on the argument interval width.
    pub x_tol: f64,
    /// Absolute tolerance on the function value; the search stops early when
    /// `|f(mid)| <= f_tol`.
    pub f_tol: f64,
    /// Maximum number of interval halvings.
    pub max_iter: usize,
}

impl Default for BisectOptions {
    fn default() -> Self {
        Self { x_tol: 1e-12, f_tol: 0.0, max_iter: 200 }
    }
}

/// Finds `x ∈ [lo, hi]` with `f(x) ≈ 0` for a function that is
/// **non-decreasing** on the interval.
///
/// Requirements: `f(lo) <= 0 <= f(hi)` (within floating point). If the
/// bracket is violated the nearer endpoint is returned, which is the correct
/// clamped solution for the multiplier searches in this crate (the KKT
/// multiplier saturates at a bound).
///
/// Returns the final midpoint.
pub fn bisect_increasing<F: FnMut(f64) -> f64>(
    mut lo: f64,
    mut hi: f64,
    mut f: F,
    opts: BisectOptions,
) -> Result<f64> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(OptError::InvalidInput(format!("bad bracket [{lo}, {hi}]")));
    }
    let flo = f(lo);
    if !flo.is_finite() {
        return Err(OptError::NonFinite(format!("f({lo}) = {flo}")));
    }
    if flo >= 0.0 {
        return Ok(lo);
    }
    let fhi = f(hi);
    if !fhi.is_finite() {
        return Err(OptError::NonFinite(format!("f({hi}) = {fhi}")));
    }
    if fhi <= 0.0 {
        return Ok(hi);
    }
    for _ in 0..opts.max_iter {
        let mid = 0.5 * (lo + hi);
        if hi - lo <= opts.x_tol.max(f64::EPSILON * mid.abs()) {
            return Ok(mid);
        }
        let fm = f(mid);
        if !fm.is_finite() {
            return Err(OptError::NonFinite(format!("f({mid}) = {fm}")));
        }
        if fm.abs() <= opts.f_tol {
            return Ok(mid);
        }
        if fm < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Finds `x ∈ [lo, hi]` with `f(x) ≈ 0` for a **non-decreasing** function
/// by regula falsi with the Illinois modification: the secant through the
/// bracket endpoints proposes the next iterate, and a retained endpoint's
/// function value is halved whenever the same side survives two
/// iterations, which prevents the one-sided stalling of plain regula
/// falsi. The bracket never widens, so this is as safe as
/// [`bisect_increasing`], but it converges superlinearly on smooth roots —
/// typically several times fewer evaluations at the `f_tol` values the
/// water-filling solvers use. The incremental P3 engine uses it on its
/// warm-started searches; the cold reference solver keeps plain bisection.
///
/// Same contract as [`bisect_increasing`]: requires `f(lo) ≤ 0 ≤ f(hi)`;
/// if the bracket is violated the nearer endpoint is returned (the
/// clamped multiplier solution), and stopping uses the same
/// [`BisectOptions`] tolerances, so results agree with bisection to the
/// tolerance band.
pub fn illinois_increasing<F: FnMut(f64) -> f64>(
    lo: f64,
    hi: f64,
    mut f: F,
    opts: BisectOptions,
) -> Result<f64> {
    // Structured, allocation-free errors throughout: these searches are
    // reachable from `audit:hot-path` regions, where even an error-path
    // `format!` trips `hot-path-reach`. Formatting is deferred to
    // `Display`.
    if !(lo.is_finite() && hi.is_finite()) || lo > hi {
        return Err(OptError::BadBracket { lo, hi, flo: f64::NAN, fhi: f64::NAN });
    }
    let flo = f(lo);
    if !flo.is_finite() {
        return Err(OptError::NonFiniteEval { x: lo, fx: flo });
    }
    if flo >= 0.0 {
        return Ok(lo);
    }
    let fhi = f(hi);
    if !fhi.is_finite() {
        return Err(OptError::NonFiniteEval { x: hi, fx: fhi });
    }
    if fhi <= 0.0 {
        return Ok(hi);
    }
    illinois_seeded(lo, hi, flo, fhi, f, opts)
}

/// [`illinois_increasing`] for a bracket whose endpoint values are already
/// known: runs the Illinois loop directly without re-evaluating `f(lo)` and
/// `f(hi)`.
///
/// The warm-started water-filling searches verify their warm bracket by
/// sign before trusting it — this entry point lets them hand those two
/// evaluations to the search instead of paying for them twice, which
/// matters when each evaluation is an O(#queue-types) pass on the
/// per-proposal hot path.
///
/// Requires `lo ≤ hi`, `flo = f(lo) ≤ 0`, and `fhi = f(hi) ≥ 0`; the
/// endpoints are returned immediately when their value already meets
/// `f_tol` (or is exactly zero via the sign conditions below).
pub fn illinois_seeded<F: FnMut(f64) -> f64>(
    mut lo: f64,
    mut hi: f64,
    mut flo: f64,
    mut fhi: f64,
    mut f: F,
    opts: BisectOptions,
) -> Result<f64> {
    if !(lo.is_finite() && hi.is_finite()) || lo > hi || !(flo <= 0.0 && fhi >= 0.0) {
        return Err(OptError::BadBracket { lo, hi, flo, fhi });
    }
    // Exact-zero seeds mean the endpoint IS the root even at f_tol = 0;
    // the compare is intended. audit:allow(float-eq)
    if flo.abs() <= opts.f_tol || flo == 0.0 {
        return Ok(lo);
    }
    // audit:allow(float-eq) same exact-zero endpoint case as above
    if fhi.abs() <= opts.f_tol || fhi == 0.0 {
        return Ok(hi);
    }
    // Which endpoint survived the previous iteration: -1 = lo, +1 = hi,
    // 0 = fresh bracket.
    let mut side = 0i8;
    for _ in 0..opts.max_iter {
        // Secant proposal, guarded against degenerate slopes; fall back to
        // the midpoint whenever the proposal leaves the open interval.
        let denom = fhi - flo;
        let mut x = if denom > 0.0 { (lo * fhi - hi * flo) / denom } else { 0.5 * (lo + hi) };
        if !(x > lo && x < hi) {
            x = 0.5 * (lo + hi);
        }
        if hi - lo <= opts.x_tol.max(f64::EPSILON * x.abs()) {
            return Ok(x);
        }
        let fx = f(x);
        if !fx.is_finite() {
            return Err(OptError::NonFiniteEval { x, fx });
        }
        if fx.abs() <= opts.f_tol {
            return Ok(x);
        }
        if fx < 0.0 {
            lo = x;
            flo = fx;
            if side == -1 {
                fhi *= 0.5; // Illinois: relax the stale endpoint
            }
            side = -1;
        } else {
            hi = x;
            fhi = fx;
            if side == 1 {
                flo *= 0.5;
            }
            side = 1;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Expands `hi` geometrically (doubling, starting from `start`) until
/// `f(hi) >= 0` or `max_doublings` is reached, then returns the bracketing
/// upper bound. Used when no a-priori upper bound on a multiplier is known.
///
/// `f` must be non-decreasing. Returns an error if no sign change is found,
/// carrying the final residual so callers can decide whether the constraint
/// simply saturates.
pub fn grow_upper_bracket<F: FnMut(f64) -> f64>(
    start: f64,
    mut f: F,
    max_doublings: usize,
) -> Result<f64> {
    if !(start.is_finite() && start > 0.0) {
        // Degenerate [start, start] bracket: the growth start left its
        // documented positive domain.
        return Err(OptError::BadBracket { lo: start, hi: start, flo: f64::NAN, fhi: f64::NAN });
    }
    let mut hi = start;
    for _ in 0..max_doublings {
        let v = f(hi);
        if !v.is_finite() {
            return Err(OptError::NonFiniteEval { x: hi, fx: v });
        }
        if v >= 0.0 {
            return Ok(hi);
        }
        hi *= 2.0;
    }
    Err(OptError::NoConvergence { iterations: max_doublings, residual: f(hi) })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_linear_root() {
        let x = bisect_increasing(-10.0, 10.0, |x| 2.0 * x - 3.0, BisectOptions::default())
            .unwrap();
        assert!((x - 1.5).abs() < 1e-10);
    }

    #[test]
    fn clamps_when_root_below_bracket() {
        // f > 0 on the whole bracket: the clamped answer is lo.
        let x = bisect_increasing(5.0, 10.0, |x| x, BisectOptions::default()).unwrap();
        assert_eq!(x, 5.0);
    }

    #[test]
    fn clamps_when_root_above_bracket() {
        let x = bisect_increasing(-10.0, -5.0, |x| x, BisectOptions::default()).unwrap();
        assert_eq!(x, -5.0);
    }

    #[test]
    fn handles_piecewise_flat_regions() {
        // Clipped-linear function with a flat plateau exactly at zero:
        // any point of the plateau is acceptable.
        let f = |x: f64| (x - 1.0).clamp(-1.0, 1.0) + (x - 1.0).clamp(0.0, 0.0);
        let x = bisect_increasing(-5.0, 5.0, f, BisectOptions::default()).unwrap();
        assert!((x - 1.0).abs() < 1e-9);
    }

    #[test]
    fn illinois_agrees_with_bisection_within_tolerance() {
        // Water-filling-shaped residual: sum of clipped concave terms.
        let f = |nu: f64| {
            let lam = |c: f64, w: f64| {
                let gap = nu - 0.1 * c;
                if gap <= w / c { 0.0 } else { (c - (w * c / gap).sqrt()).clamp(0.0, 0.95 * c) }
            };
            lam(40.0, 2.0) + lam(25.0, 2.0) + lam(60.0, 2.0) - 70.0
        };
        let opts = BisectOptions { x_tol: 0.0, f_tol: 70.0 * 1e-12, max_iter: 200 };
        let a = bisect_increasing(0.0, 100.0, f, opts).unwrap();
        let b = illinois_increasing(0.0, 100.0, f, opts).unwrap();
        // Both stop on the same |f| tolerance; the roots agree to the
        // implied argument band.
        assert!((a - b).abs() <= a.abs() * 1e-9 + 1e-9, "{a} vs {b}");
        assert!(f(b).abs() <= opts.f_tol);
    }

    #[test]
    fn illinois_converges_faster_than_bisection() {
        let count = std::cell::Cell::new(0u32);
        let opts = BisectOptions { x_tol: 0.0, f_tol: 1e-12, max_iter: 200 };
        let _ = illinois_increasing(
            0.0,
            100.0,
            |x| {
                count.set(count.get() + 1);
                (x - 3.7).powi(3) + (x - 3.7)
            },
            opts,
        )
        .unwrap();
        let illinois_evals = count.get();
        count.set(0);
        let _ = bisect_increasing(
            0.0,
            100.0,
            |x| {
                count.set(count.get() + 1);
                (x - 3.7).powi(3) + (x - 3.7)
            },
            opts,
        )
        .unwrap();
        assert!(
            illinois_evals * 2 < count.get(),
            "illinois {illinois_evals} evals vs bisection {}",
            count.get()
        );
    }

    #[test]
    fn illinois_clamps_and_rejects_like_bisection() {
        let opts = BisectOptions::default();
        assert_eq!(illinois_increasing(5.0, 10.0, |x| x, opts).unwrap(), 5.0);
        assert_eq!(illinois_increasing(-10.0, -5.0, |x| x, opts).unwrap(), -5.0);
        assert!(matches!(
            illinois_increasing(3.0, 1.0, |x| x, opts),
            Err(OptError::BadBracket { .. })
        ));
        assert!(matches!(
            illinois_increasing(-1.0, 1.0, |_| f64::NAN, opts),
            Err(OptError::NonFiniteEval { .. })
        ));
    }

    #[test]
    fn rejects_invalid_bracket() {
        assert!(matches!(
            bisect_increasing(3.0, 1.0, |x| x, BisectOptions::default()),
            Err(OptError::InvalidInput(_))
        ));
        assert!(bisect_increasing(f64::NAN, 1.0, |x| x, BisectOptions::default()).is_err());
    }

    #[test]
    fn rejects_non_finite_values() {
        let r = bisect_increasing(-1.0, 1.0, |_| f64::NAN, BisectOptions::default());
        assert!(matches!(r, Err(OptError::NonFinite(_))));
    }

    #[test]
    fn grow_bracket_doubles_until_positive() {
        let hi = grow_upper_bracket(1.0, |x| x - 100.0, 60).unwrap();
        assert!(hi >= 100.0);
        assert!(hi <= 256.0);
    }

    #[test]
    fn grow_bracket_reports_saturation() {
        let r = grow_upper_bracket(1.0, |_| -1.0, 8);
        assert!(matches!(r, Err(OptError::NoConvergence { .. })));
    }

    #[test]
    fn tight_tolerance_converges_on_sqrt2() {
        let opts = BisectOptions { x_tol: 1e-14, f_tol: 0.0, max_iter: 500 };
        let x = bisect_increasing(0.0, 2.0, |x| x * x - 2.0, opts).unwrap();
        assert!((x - std::f64::consts::SQRT_2).abs() < 1e-12);
    }
}
