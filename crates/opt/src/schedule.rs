//! Temperature schedules for the annealed Gibbs sampler.
//!
//! The paper (Sec. 4.2) advises starting with a small smoothing parameter δ
//! (high exploration) and increasing it over iterations so the chain
//! progressively concentrates on better solutions. Both schedules here are
//! deterministic functions of the iteration index: the paper's constant δ,
//! and a clamped geometric anneal.

use serde::{Deserialize, Serialize};

/// Deterministic temperature (δ) schedule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TemperatureSchedule {
    /// Fixed δ for every iteration (the setting of the paper's Fig. 4).
    Constant(f64),
    /// Geometric growth `start · factor^k`, clamped to `max`.
    Geometric {
        /// δ at the first iteration.
        start: f64,
        /// Per-iteration multiplicative factor (> 1 anneals up).
        factor: f64,
        /// Upper clamp.
        max: f64,
    },
}

impl TemperatureSchedule {
    /// δ at iteration `k`.
    pub fn delta_at(&self, k: usize) -> f64 {
        match *self {
            TemperatureSchedule::Constant(d) => d,
            TemperatureSchedule::Geometric { start, factor, max } => {
                (start * factor.powi(k as i32)).min(max)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let s = TemperatureSchedule::Constant(7.0);
        assert_eq!(s.delta_at(0), 7.0);
        assert_eq!(s.delta_at(99), 7.0);
    }

    #[test]
    fn geometric_clamps() {
        let s = TemperatureSchedule::Geometric { start: 1.0, factor: 10.0, max: 500.0 };
        assert_eq!(s.delta_at(0), 1.0);
        assert_eq!(s.delta_at(1), 10.0);
        assert_eq!(s.delta_at(5), 500.0);
    }
}
