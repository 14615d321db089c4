//! # coca-opt — optimization primitives for the COCA reproduction
//!
//! This crate implements the numerical machinery that the COCA controller
//! (Ren & He, SC'13) relies on:
//!
//! * [`bisect`] — monotone scalar root finding, the workhorse behind every
//!   Lagrange-multiplier search in the system.
//! * [`waterfill`] — the exact inner **load-distribution** solver: given fixed
//!   server speeds, distributes the total arrival rate across servers to
//!   minimize `A·[power − r]⁺ + W·Σ λᵢ/(Xᵢ−λᵢ)` (the P3 objective for fixed
//!   speeds). Handles the `[·]⁺` kink exactly via a three-regime KKT analysis.
//! * [`gibbs`] — the annealed Gibbs sampler underlying GSD (Algorithm 2),
//!   generic over decision spaces and cost oracles.
//! * [`dual`] — the Lagrangian multiplier search for brown-energy budgets,
//!   used by PerfectHP's hourly caps and by the offline benchmark OPT and
//!   its T-step lookahead variant.
//! * [`grid`] — exhaustive enumeration over small discrete spaces, used as a
//!   ground-truth oracle in tests.
//! * [`invariant`] — runtime paper-invariant checks (load conservation,
//!   KKT residual, Gibbs acceptance range, …) hooked from the solvers, the
//!   simulator, and every policy; re-exported as `coca_core::invariant`.
//! * [`simplex`] — projection onto the capped simplex, the feasibility step
//!   of [`pgd`].
//! * [`pgd`] — projected-gradient descent for the load-distribution problem:
//!   the exact solver's test oracle (an independent solver the water-filling
//!   is checked against on random instances), not a production path.
//! * [`schedule`] — temperature schedules for the annealer.
//!
//! All solvers are deterministic given their inputs (and an explicit RNG where
//! randomness is inherent), allocation-light, and panic-free on user input:
//! fallible operations return [`OptError`].

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bisect;
pub mod dual;
pub mod gibbs;
pub mod grid;
pub mod invariant;
pub mod pgd;
pub mod schedule;
pub mod simplex;
pub mod waterfill;

mod error;

pub use error::OptError;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, OptError>;

/// Numerical tolerance used as a default by iterative solvers in this crate.
pub const DEFAULT_TOL: f64 = 1e-9;

/// Returns `max(x, 0.0)`, the `[·]⁺` operator from the paper (eq. 3, 10, 17).
///
/// Kept as a named function so call sites read like the math.
#[inline]
pub fn pos(x: f64) -> f64 {
    x.max(0.0)
}

/// Numerically robust logistic sigmoid `1 / (1 + e^{-t})`.
///
/// Avoids overflow for large `|t|`; used by the Gibbs acceptance rule.
#[inline]
pub fn sigmoid(t: f64) -> f64 {
    if t >= 0.0 {
        1.0 / (1.0 + (-t).exp())
    } else {
        let e = t.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_clamps_negative() {
        assert_eq!(pos(-3.5), 0.0);
        assert_eq!(pos(0.0), 0.0);
        assert_eq!(pos(2.25), 2.25);
    }

    #[test]
    fn sigmoid_symmetry() {
        for &t in &[0.0, 0.5, 3.0, 40.0, 1e3] {
            let a = sigmoid(t);
            let b = sigmoid(-t);
            assert!((a + b - 1.0).abs() < 1e-12, "sigmoid({t}) asymmetric");
        }
    }

    #[test]
    fn sigmoid_extremes_do_not_overflow() {
        assert_eq!(sigmoid(1e300), 1.0);
        assert_eq!(sigmoid(-1e300), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }
}
