//! Euclidean projection onto the capped simplex
//! `{ x : Σᵢ xᵢ = s, 0 ≤ xᵢ ≤ uᵢ }`.
//!
//! The feasibility step of the projected-gradient test oracle
//! ([`crate::pgd`]).

use crate::bisect::{bisect_increasing, BisectOptions};
use crate::{OptError, Result};

/// Projects `y` onto `{x : Σ xᵢ = target, 0 ≤ xᵢ ≤ caps[i]}` in Euclidean
/// norm. The projection has the closed form `xᵢ = clip(yᵢ − τ, 0, uᵢ)` for a
/// scalar shift τ found by bisection on the (monotone) total.
pub fn project_capped_simplex(y: &[f64], caps: &[f64], target: f64) -> Result<Vec<f64>> {
    if y.len() != caps.len() {
        return Err(OptError::InvalidInput(format!(
            "length mismatch: y has {}, caps has {}",
            y.len(),
            caps.len()
        )));
    }
    if !(target.is_finite() && target >= 0.0) {
        return Err(OptError::InvalidInput(format!("target must be ≥ 0, got {target}")));
    }
    for (&v, name) in y.iter().zip(std::iter::repeat("y")) {
        if !v.is_finite() {
            return Err(OptError::NonFinite(format!("{name} contains {v}")));
        }
    }
    let cap_sum: f64 = caps.iter().sum();
    for &u in caps {
        if !(u.is_finite() && u >= 0.0) {
            return Err(OptError::InvalidInput(format!("caps must be ≥ 0, got {u}")));
        }
    }
    if target > cap_sum * (1.0 + 1e-12) {
        return Err(OptError::Infeasible(format!("target {target} exceeds cap sum {cap_sum}")));
    }
    if target >= cap_sum {
        return Ok(caps.to_vec());
    }

    let total_at = |tau: f64| -> f64 {
        y.iter().zip(caps).map(|(&v, &u)| (v - tau).clamp(0.0, u)).sum()
    };
    // total_at is non-increasing in τ. Bracket: at τ = min(y) − max(cap) the
    // total is the cap sum (≥ target); at τ = max(y) the total is 0.
    let y_min = y.iter().cloned().fold(f64::INFINITY, f64::min);
    let y_max = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let u_max = caps.iter().cloned().fold(0.0_f64, f64::max);
    let lo = y_min - u_max - 1.0;
    let hi = y_max + 1.0;
    let opts = BisectOptions { x_tol: 1e-14 * (1.0 + hi.abs()), f_tol: 1e-12 * (1.0 + target), max_iter: 200 };
    let tau = bisect_increasing(lo, hi, |t| target - total_at(t), opts)?;
    let mut x: Vec<f64> = y.iter().zip(caps).map(|(&v, &u)| (v - tau).clamp(0.0, u)).collect();

    // Exactness repair: spread residual over strictly-interior coordinates.
    let total: f64 = x.iter().sum();
    let slack = target - total;
    if slack.abs() > 0.0 {
        let interior_count = x
            .iter()
            .zip(caps)
            .filter(|(xi, u)| **xi > 0.0 && **xi < **u)
            .count();
        if interior_count > 0 {
            let per = slack / interior_count as f64;
            for (xi, &u) in x.iter_mut().zip(caps) {
                if *xi > 0.0 && *xi < u {
                    *xi = (*xi + per).clamp(0.0, u);
                }
            }
        }
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_feasible(x: &[f64], caps: &[f64], target: f64) {
        let sum: f64 = x.iter().sum();
        assert!((sum - target).abs() < 1e-8, "sum {sum} != target {target}");
        for (xi, u) in x.iter().zip(caps) {
            assert!(*xi >= -1e-12 && *xi <= u + 1e-12, "x={xi} outside [0, {u}]");
        }
    }

    #[test]
    fn projection_of_feasible_point_is_identity() {
        let y = vec![1.0, 2.0, 3.0];
        let caps = vec![5.0, 5.0, 5.0];
        let x = project_capped_simplex(&y, &caps, 6.0).unwrap();
        for (a, b) in x.iter().zip(&y) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn projects_uniform_when_target_shrinks() {
        let y = vec![4.0, 4.0, 4.0];
        let caps = vec![10.0, 10.0, 10.0];
        let x = project_capped_simplex(&y, &caps, 6.0).unwrap();
        assert_feasible(&x, &caps, 6.0);
        for &v in &x {
            assert!((v - 2.0).abs() < 1e-8);
        }
    }

    #[test]
    fn caps_bind() {
        let y = vec![100.0, 0.0, 0.0];
        let caps = vec![1.0, 10.0, 10.0];
        let x = project_capped_simplex(&y, &caps, 5.0).unwrap();
        assert_feasible(&x, &caps, 5.0);
        assert!((x[0] - 1.0).abs() < 1e-8, "capped coordinate pinned: {x:?}");
        assert!((x[1] - x[2]).abs() < 1e-8, "symmetric remainder split: {x:?}");
    }

    #[test]
    fn target_equal_to_cap_sum_returns_caps() {
        let y = vec![0.0, 0.0];
        let caps = vec![2.0, 3.0];
        let x = project_capped_simplex(&y, &caps, 5.0).unwrap();
        assert_eq!(x, caps);
    }

    #[test]
    fn infeasible_target_rejected() {
        assert!(matches!(
            project_capped_simplex(&[0.0], &[1.0], 2.0),
            Err(OptError::Infeasible(_))
        ));
    }

    #[test]
    fn length_mismatch_rejected() {
        assert!(project_capped_simplex(&[0.0, 1.0], &[1.0], 0.5).is_err());
    }

    #[test]
    fn projection_minimizes_distance_vs_random_feasible_points() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let y = vec![3.0, -1.0, 0.5, 2.0];
        let caps = vec![2.0, 2.0, 2.0, 2.0];
        let target = 4.0;
        let x = project_capped_simplex(&y, &caps, target).unwrap();
        let dist = |a: &[f64]| -> f64 {
            a.iter().zip(&y).map(|(p, q)| (p - q) * (p - q)).sum()
        };
        let dx = dist(&x);
        // Sample random feasible points; none may beat the projection.
        for _ in 0..2000 {
            let mut raw: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..2.0)).collect();
            let s: f64 = raw.iter().sum();
            if s <= 0.0 {
                continue;
            }
            for v in raw.iter_mut() {
                *v *= target / s;
            }
            if raw.iter().zip(&caps).any(|(v, u)| v > u) {
                continue;
            }
            assert!(dist(&raw) + 1e-9 >= dx, "random feasible point beats projection");
        }
    }
}
