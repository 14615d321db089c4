//! Optimal load distribution and P3-objective evaluation for a fixed speed
//! vector — the bridge between the data-center model and `coca-opt`.
//!
//! For a candidate speed vector `x⃗`, the remaining decision is the load
//! distribution `λ⃗`. COCA's per-slot objective (paper eq. 16) for fixed
//! speeds is exactly the water-filling problem of
//! [`coca_opt::waterfill`] with
//!
//! * `A = V·w(t) + q(t)` (the electricity weight; baselines use `A = w`),
//! * `W = V·β` (the delay weight; baselines use `W = β`),
//! * the bank rows, base power and PUE taken from the cluster.
//!
//! [`optimal_dispatch`] builds the [`QueueBank`] straight from the cluster,
//! runs the cold [`waterfill::solve`] on it, and returns both the optimal
//! loads and the decomposed cost/power/delay terms that the simulator and
//! the GSD cost oracle need.

use std::collections::HashMap;

use coca_opt::waterfill::{self, BankProblem, QueueBank};

use crate::cluster::Cluster;
use crate::SimError;

/// A per-slot dispatch problem for a fixed speed vector.
#[derive(Debug, Clone, Copy)]
pub struct SlotProblem<'a> {
    /// The managed fleet.
    pub cluster: &'a Cluster,
    /// Total arrival rate λ(t) to distribute (req/s).
    pub arrival_rate: f64,
    /// On-site renewable supply r(t) (kW).
    pub onsite: f64,
    /// Electricity weight `A ≥ 0` multiplying `[PUE·p − r]⁺`.
    pub energy_weight: f64,
    /// Delay weight `W ≥ 0` multiplying `Σ λᵢ/(Xᵢ−λᵢ)`.
    pub delay_weight: f64,
    /// Maximum utilization γ ∈ (0, 1) (paper constraint 7).
    pub gamma: f64,
    /// Power usage effectiveness ≥ 1 (facility power = PUE × IT power).
    pub pue: f64,
}

/// Result of an optimal dispatch for a fixed speed vector.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct DispatchOutcome {
    /// Per-group loads (full cluster length; zero for off groups).
    pub loads: Vec<f64>,
    /// Objective `A·[PUE·p − r]⁺ + W·delay`.
    pub objective: f64,
    /// IT power `p` (kW), before PUE.
    pub it_power: f64,
    /// Facility power `PUE·p` (kW).
    pub facility_power: f64,
    /// Total delay cost `Σ λᵢ/(Xᵢ−λᵢ)` (unweighted).
    pub delay: f64,
    /// Brown (grid) power `[PUE·p − r]⁺` (kW; slot energy in kWh).
    pub brown: f64,
    /// Water level ν of the winning water-filling regime, when the loads
    /// came out of a bisection (`None` on closed-form paths and for
    /// [`evaluate_dispatch`], which performs no optimization). Lets warm
    /// re-solves and differential tests compare against the cold level.
    pub water_level: Option<f64>,
}

impl SlotProblem<'_> {
    /// Whether the speed vector can carry the arrival rate at all
    /// (paper Algorithm 2 line 2: `λ(t) ≤ γ·Σ xᵢ`).
    pub fn is_feasible(&self, levels: &[usize]) -> bool {
        self.carries(self.cluster.capacity_of(levels))
    }

    /// [`Self::is_feasible`] for a speed vector whose capacity `Σ xᵢ` the
    /// caller already summed (in cluster order, as
    /// [`Cluster::capacity_of`](crate::Cluster::capacity_of) does).
    pub fn carries(&self, capacity: f64) -> bool {
        self.arrival_rate <= self.gamma * capacity * (1.0 + 1e-12)
    }

    /// Validates the scalar parameters.
    pub fn validate(&self) -> crate::Result<()> {
        if !(self.gamma > 0.0 && self.gamma < 1.0) {
            return Err(SimError::InvalidConfig(format!("gamma must be in (0,1), got {}", self.gamma)));
        }
        if !(self.pue >= 1.0 && self.pue.is_finite()) {
            return Err(SimError::InvalidConfig(format!("pue must be ≥ 1, got {}", self.pue)));
        }
        for (name, v) in [
            ("arrival_rate", self.arrival_rate),
            ("onsite", self.onsite),
            ("energy_weight", self.energy_weight),
            ("delay_weight", self.delay_weight),
        ] {
            if !(v.is_finite() && v >= 0.0) {
                return Err(SimError::InvalidConfig(format!("{name} must be ≥ 0, got {v}")));
            }
        }
        Ok(())
    }
}

/// Computes the optimal load distribution for a fixed speed vector and
/// evaluates the decomposed outcome. Errors if the speed vector cannot carry
/// the load.
///
/// Identical active queues (same pooled capacity and PUE-scaled energy
/// slope, bit for bit — i.e. same server class, group size and speed level)
/// share one weighted bank row: by symmetry and strict convexity they carry
/// equal load at the optimum, and the water-filling cost drops from
/// O(#groups) to O(#distinct types) per bisection step. With the paper's
/// 200-group four-class fleet this is a ~15× speedup on the hot path.
///
/// Rows appear in the order their first group does, each with static
/// power 0; the groups' PUE-scaled static power is summed in group order
/// into `P₀` instead, so groups that differ only in static power still
/// share a row.
pub fn optimal_dispatch(problem: &SlotProblem<'_>, levels: &[usize]) -> crate::Result<DispatchOutcome> {
    problem.validate()?;
    problem.cluster.validate_levels(levels)?;
    let pue = problem.pue;
    let mut bank = QueueBank::new();
    let mut row_of_key: HashMap<(u64, u64), usize> = HashMap::new();
    // Bank row of each group (`None` for an off group).
    let mut rows = vec![None; levels.len()];
    let mut base_power = 0.0;
    for ((g, &c), row) in problem.cluster.groups().iter().zip(levels).zip(&mut rows) {
        if c == 0 {
            continue;
        }
        let capacity = g.capacity(c);
        let slope = g.energy_slope(c) * pue;
        let r = *row_of_key
            .entry((capacity.to_bits(), slope.to_bits()))
            .or_insert_with(|| bank.push_type(capacity, problem.gamma * capacity, slope, 0.0, 0.0));
        bank.add_multiplicity(r, 1.0);
        base_power += g.static_power(c) * pue;
        *row = Some(r);
    }
    let capped_capacity =
        (0..bank.len()).map(|r| bank.multiplicity_of(r) * bank.util_cap_of(r)).sum();

    let (sol, lambdas) = waterfill::solve(&BankProblem {
        bank: &bank,
        total_load: problem.arrival_rate,
        energy_weight: problem.energy_weight,
        delay_weight: problem.delay_weight,
        base_power,
        capped_capacity,
        renewable: problem.onsite,
    })?;
    let loads = rows.iter().map(|row| row.map_or(0.0, |r| lambdas[r])).collect();
    // `sol.power` already includes PUE (the rows were pre-scaled).
    let facility_power = sol.power;
    let it_power = facility_power / pue;
    let brown = (facility_power - problem.onsite).max(0.0);
    Ok(DispatchOutcome {
        loads,
        objective: sol.objective,
        it_power,
        facility_power,
        delay: sol.delay,
        brown,
        water_level: sol.water_level,
    })
}

/// Evaluates the outcome metrics for *given* loads (no optimization), e.g.
/// when the simulator re-dispatches planned loads onto the realized arrival
/// rate. Loads must respect the utilization caps.
pub fn evaluate_dispatch(
    problem: &SlotProblem<'_>,
    levels: &[usize],
    loads: &[f64],
) -> crate::Result<DispatchOutcome> {
    problem.validate()?;
    problem.cluster.validate_levels(levels)?;
    if loads.len() != problem.cluster.num_groups() {
        return Err(SimError::InvalidDecision(format!(
            "loads length {} != groups {}",
            loads.len(),
            problem.cluster.num_groups()
        )));
    }
    let mut it_power = 0.0;
    let mut delay = 0.0;
    for ((g, &c), &l) in problem.cluster.groups().iter().zip(levels).zip(loads) {
        if l < -1e-12 {
            return Err(SimError::InvalidDecision(format!("negative load {l}")));
        }
        if c == 0 {
            if l > 1e-9 {
                return Err(SimError::InvalidDecision("load on an off group".into()));
            }
            continue;
        }
        let cap = g.capacity(c);
        if l > problem.gamma * cap * (1.0 + 1e-9) {
            return Err(SimError::InvalidDecision(format!(
                "load {l} exceeds utilization cap {}",
                problem.gamma * cap
            )));
        }
        it_power += g.power(c, l);
        delay += crate::queueing::delay_cost(l.max(0.0), cap)?;
    }
    let facility_power = it_power * problem.pue;
    let brown = (facility_power - problem.onsite).max(0.0);
    let objective = problem.energy_weight * brown + problem.delay_weight * delay;
    Ok(DispatchOutcome {
        loads: loads.to_vec(),
        objective,
        it_power,
        facility_power,
        delay,
        brown,
        water_level: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem(cluster: &Cluster) -> SlotProblem<'_> {
        SlotProblem {
            cluster,
            arrival_rate: 100.0,
            onsite: 0.0,
            energy_weight: 10.0,
            delay_weight: 10.0,
            gamma: 0.95,
            pue: 1.0,
        }
    }

    #[test]
    fn dispatch_splits_homogeneous_evenly() {
        let cluster = Cluster::homogeneous(4, 10);
        let p = small_problem(&cluster);
        let levels = cluster.full_speed_vector();
        let out = optimal_dispatch(&p, &levels).unwrap();
        for &l in &out.loads {
            assert!((l - 25.0).abs() < 1e-6, "even split, got {:?}", out.loads);
        }
        assert!((out.loads.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn off_groups_carry_no_load() {
        let cluster = Cluster::homogeneous(3, 10);
        let p = small_problem(&cluster);
        let out = optimal_dispatch(&p, &[0, 4, 4]).unwrap();
        assert_eq!(out.loads[0], 0.0);
        assert!(out.loads[1] > 0.0 && out.loads[2] > 0.0);
    }

    #[test]
    fn zero_load_pays_the_pue_scaled_static_power_of_on_groups() {
        let cluster = Cluster::homogeneous(3, 10);
        let p = SlotProblem { arrival_rate: 0.0, pue: 1.2, ..small_problem(&cluster) };
        let out = optimal_dispatch(&p, &[0, 4, 2]).unwrap();
        // Two on groups × 10 servers × 0.140 kW, times PUE.
        assert!((out.facility_power - 2.0 * 10.0 * 0.140 * 1.2).abs() < 1e-9);
        assert_eq!(out.loads, vec![0.0; 3]);
    }

    #[test]
    fn infeasible_levels_error() {
        let cluster = Cluster::homogeneous(2, 10);
        let p = small_problem(&cluster); // λ=100, capacity at lowest speed 2×32=64
        assert!(!p.is_feasible(&[1, 1]));
        assert!(optimal_dispatch(&p, &[1, 1]).is_err());
    }

    #[test]
    fn power_accounting_consistent() {
        let cluster = Cluster::homogeneous(2, 10);
        let mut p = small_problem(&cluster);
        p.pue = 1.3;
        p.onsite = 1.0;
        let out = optimal_dispatch(&p, &[4, 4]).unwrap();
        assert!((out.facility_power - out.it_power * 1.3).abs() < 1e-9);
        assert!((out.brown - (out.facility_power - 1.0).max(0.0)).abs() < 1e-9);
        // IT power must match the per-group power model.
        let manual: f64 = cluster
            .groups()
            .iter()
            .zip(&out.loads)
            .map(|(g, &l)| g.power(4, l))
            .sum();
        assert!((out.it_power - manual).abs() < 1e-9);
    }

    #[test]
    fn evaluate_matches_optimal_at_optimum() {
        let cluster = Cluster::homogeneous(3, 10);
        let p = small_problem(&cluster);
        let levels = cluster.full_speed_vector();
        let opt = optimal_dispatch(&p, &levels).unwrap();
        let eval = evaluate_dispatch(&p, &levels, &opt.loads).unwrap();
        assert!((eval.objective - opt.objective).abs() < 1e-9);
        assert!((eval.it_power - opt.it_power).abs() < 1e-9);
        assert!((eval.delay - opt.delay).abs() < 1e-9);
    }

    #[test]
    fn evaluate_rejects_load_on_off_group_and_cap_violation() {
        let cluster = Cluster::homogeneous(2, 10);
        let p = small_problem(&cluster);
        assert!(evaluate_dispatch(&p, &[0, 4], &[10.0, 90.0]).is_err());
        assert!(evaluate_dispatch(&p, &[4, 4], &[99.0, 1.0]).is_err(), "cap is 95");
        assert!(evaluate_dispatch(&p, &[4, 4], &[-1.0, 101.0]).is_err());
        assert!(evaluate_dispatch(&p, &[4, 4], &[50.0]).is_err(), "length mismatch");
    }

    #[test]
    fn onsite_surplus_zeroes_brown_energy() {
        let cluster = Cluster::homogeneous(2, 10);
        let mut p = small_problem(&cluster);
        p.onsite = 1e9;
        let out = optimal_dispatch(&p, &[4, 4]).unwrap();
        assert_eq!(out.brown, 0.0);
        // Objective reduces to the pure delay term.
        assert!((out.objective - p.delay_weight * out.delay).abs() < 1e-9);
    }

    #[test]
    fn validate_catches_bad_scalars() {
        let cluster = Cluster::homogeneous(1, 1);
        let mut p = small_problem(&cluster);
        p.gamma = 1.0;
        assert!(p.validate().is_err());
        let mut p = small_problem(&cluster);
        p.pue = 0.9;
        assert!(p.validate().is_err());
        let mut p = small_problem(&cluster);
        p.energy_weight = -1.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn heterogeneous_dispatch_prefers_efficient_groups() {
        // Build one efficient and one inefficient class with equal capacity.
        let base = crate::server::ServerClass::amd_opteron_2380();
        let hungry = base.derived("hungry", 1.0, 2.0);
        let cluster = crate::cluster::ClusterBuilder::new()
            .add_groups(base, 1, 10)
            .add_groups(hungry, 1, 10)
            .build()
            .unwrap();
        let p = SlotProblem {
            cluster: &cluster,
            arrival_rate: 80.0,
            onsite: 0.0,
            energy_weight: 100.0,
            delay_weight: 1.0,
            gamma: 0.95,
            pue: 1.0,
        };
        let out = optimal_dispatch(&p, &[4, 4]).unwrap();
        assert!(
            out.loads[0] > out.loads[1],
            "efficient group should carry more: {:?}",
            out.loads
        );
    }
}
