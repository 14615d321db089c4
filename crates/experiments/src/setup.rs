//! Scenario construction calibrated to the paper's Sec. 5.1.
//!
//! Calibration procedure (matching the paper's normalizations):
//!
//! 1. build the fleet and the workload/price traces;
//! 2. run the carbon-unaware minimizer with **no** renewables to measure
//!    the facility consumption `E_full`;
//! 3. scale the on-site renewable series to 20 % of `E_full`;
//! 4. re-run carbon-unaware with on-site renewables to get the reference
//!    brown consumption `E_unaware` (the paper's 1.55×10⁵ MWh) and the
//!    reference average hourly cost that Fig. 5 normalizes by;
//! 5. set the carbon budget to `budget_fraction · E_unaware` (default
//!    92 %), split 40 % off-site renewables / 60 % RECs.

use std::sync::Arc;

use coca_baselines::CarbonUnaware;
use coca_core::symmetric::SymmetricSolver;
use coca_dcsim::{run_lockstep, Cluster, CostParams, SimError, SimOutcome};
use coca_traces::{renewable, EnvironmentTrace, TraceConfig, WorkloadKind};

/// Runs the carbon-unaware reference policy over `trace` through the
/// simulation engine (the bespoke `CarbonUnaware::simulate` shortcut was
/// removed with the `SimEngine` refactor — every policy, references
/// included, goes through the same slot loop).
pub fn unaware_reference(
    cluster: &Arc<Cluster>,
    cost: CostParams,
    trace: &EnvironmentTrace,
    rec_total: f64,
) -> Result<SimOutcome, SimError> {
    let policy = CarbonUnaware::new(Arc::clone(cluster), cost, SymmetricSolver::new());
    run_lockstep(Arc::clone(cluster), trace, cost, rec_total, vec![Box::new(policy)])?
        .pop()
        .ok_or_else(|| SimError::Internal("engine produced no outcome".into()))
}

/// How big an experiment to run. The paper scale needs minutes per figure;
/// the reduced scales keep integration tests fast while exercising the
/// same code paths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentScale {
    /// Number of hourly slots (paper: 8760).
    pub hours: usize,
    /// Server groups (paper: 200, multiple of 4).
    pub groups: usize,
    /// Servers per group (paper: 1080).
    pub servers_per_group: usize,
    /// Peak workload as a fraction of full-speed capacity (paper: ≈0.5).
    pub peak_util: f64,
    /// Mean electricity price ($/kWh). The paper states electricity "takes
    /// up a dominant fraction of the operational cost"; with wholesale
    /// CAISO prices (~$0.05/kWh) our pooled-delay calibration would invert
    /// that, so the default price is scaled so that electricity dominates
    /// the delay cost at the carbon-unaware operating point (DESIGN.md §4).
    pub mean_price: f64,
    /// RNG seed for the synthetic traces.
    pub seed: u64,
}

impl ExperimentScale {
    /// The paper's full-scale scenario.
    pub fn paper() -> Self {
        Self { hours: 8760, groups: 200, servers_per_group: 1080, peak_util: 0.51, mean_price: 0.5, seed: 2012 }
    }

    /// A reduced scenario for quick runs and CI (~2 weeks, 8 groups).
    pub fn small() -> Self {
        Self { hours: 336, groups: 8, servers_per_group: 25, peak_util: 0.51, mean_price: 0.5, seed: 2012 }
    }

    /// A medium scenario: a full year on a reduced fleet.
    pub fn medium() -> Self {
        Self { hours: 8760, groups: 40, servers_per_group: 100, peak_util: 0.51, mean_price: 0.5, seed: 2012 }
    }
}

/// A fully calibrated experiment scenario.
#[derive(Debug, Clone)]
pub struct PaperSetup {
    /// The fleet, shared with the engines that simulate it.
    pub cluster: Arc<Cluster>,
    /// Calibrated environment (workload, on-site, off-site, price).
    pub trace: EnvironmentTrace,
    /// Cost parameters (β = 10, γ = 0.95, PUE 1.0 by default).
    pub cost: CostParams,
    /// Reference brown consumption of the carbon-unaware policy (kWh).
    pub unaware_brown_kwh: f64,
    /// Reference average hourly cost of the carbon-unaware policy. Its
    /// decisions and costs do not read off-site supply or RECs, so the
    /// step-4 run is also the reference for the finished setup.
    pub unaware_hourly_cost: f64,
    /// Carbon budget (kWh) = `budget_fraction · unaware_brown_kwh`.
    pub budget_kwh: f64,
    /// RECs Z (kWh), 60 % of the budget.
    pub rec_total: f64,
    /// Scale used.
    pub scale: ExperimentScale,
}

impl PaperSetup {
    /// Builds and calibrates a scenario. `budget_fraction` is the paper's
    /// 92 % knob (Fig. 5 sweeps it).
    pub fn build(
        scale: ExperimentScale,
        workload: WorkloadKind,
        budget_fraction: f64,
    ) -> Result<Self, SimError> {
        assert!(budget_fraction > 0.0);
        let cluster = Arc::new(Cluster::scaled_paper_datacenter(scale.groups, scale.servers_per_group));
        let cost = CostParams::default();
        let peak = scale.peak_util * cluster.max_capacity();

        // Provisional trace without renewables.
        let base_cfg = TraceConfig {
            hours: scale.hours,
            workload_kind: workload,
            peak_arrival_rate: peak,
            onsite_energy_kwh: 0.0,
            offsite_energy_kwh: 0.0,
            mean_price: scale.mean_price,
            seed: scale.seed,
            ..Default::default()
        };
        let mut trace = base_cfg.generate();

        // Step 2: facility consumption without renewables.
        let e_full = unaware_reference(&cluster, cost, &trace, 0.0)?
            .records
            .iter()
            .map(|r| r.facility_energy)
            .sum::<f64>();

        // Step 3: on-site ≈ 20 % of consumption.
        trace.onsite = renewable::generate(
            &renewable::RenewableConfig {
                solar_share: 0.6,
                annual_energy_kwh: 0.20 * e_full,
                seed: scale.seed.wrapping_add(1),
            },
            scale.hours,
        );

        // Step 4: reference brown consumption and cost with on-site in place.
        let reference = unaware_reference(&cluster, cost, &trace, 0.0)?;
        let unaware_brown_kwh = reference.total_brown_energy();
        let unaware_hourly_cost = reference.avg_hourly_cost();

        // Step 5: budget split 40 % off-site / 60 % RECs.
        let budget_kwh = budget_fraction * unaware_brown_kwh;
        trace.offsite = renewable::generate(
            &renewable::RenewableConfig {
                solar_share: 0.4,
                annual_energy_kwh: 0.40 * budget_kwh,
                seed: scale.seed.wrapping_add(2),
            },
            scale.hours,
        );
        let rec_total = 0.60 * budget_kwh;

        Ok(Self {
            cluster,
            trace,
            cost,
            unaware_brown_kwh,
            unaware_hourly_cost,
            budget_kwh,
            rec_total,
            scale,
        })
    }

    /// Rebuilds the same scenario with a different budget fraction without
    /// re-measuring the carbon-unaware reference (Fig. 5 sweeps).
    pub fn with_budget_fraction(&self, budget_fraction: f64) -> Self {
        assert!(budget_fraction > 0.0);
        let budget_kwh = budget_fraction * self.unaware_brown_kwh;
        let mut trace = self.trace.clone();
        trace.offsite = renewable::generate(
            &renewable::RenewableConfig {
                solar_share: 0.4,
                annual_energy_kwh: 0.40 * budget_kwh,
                seed: self.scale.seed.wrapping_add(2),
            },
            self.scale.hours,
        );
        Self {
            cluster: Arc::clone(&self.cluster),
            trace,
            cost: self.cost,
            unaware_brown_kwh: self.unaware_brown_kwh,
            unaware_hourly_cost: self.unaware_hourly_cost,
            budget_kwh,
            rec_total: 0.60 * budget_kwh,
            scale: self.scale,
        }
    }

    /// Budget fraction relative to the carbon-unaware reference.
    pub fn budget_fraction(&self) -> f64 {
        self.budget_kwh / self.unaware_brown_kwh
    }

    /// Characteristic cost-carbon parameter `V₀` for this scenario.
    ///
    /// The deficit queue starts to bind once `q(t)` is comparable to
    /// `V·w̄`; without control, `q` grows at roughly the per-slot budget
    /// overage `(E_unaware − budget)/J`, so the transition where V trades
    /// cost against neutrality over a horizon of J slots sits near
    /// `V₀ ≈ (E_unaware − budget)/w̄`. The paper's "V ≈ 240" is the same
    /// quantity in their (undisclosed) unit scaling; all V sweeps in the
    /// harness are expressed as multiples of `V₀` so they transfer across
    /// fleet scales.
    pub fn characteristic_v(&self) -> f64 {
        let mean_price: f64 = if self.trace.is_empty() {
            0.05
        } else {
            self.trace.price.iter().sum::<f64>() / self.trace.len() as f64
        };
        let overage = (self.unaware_brown_kwh - self.budget_kwh).max(0.02 * self.budget_kwh);
        (overage / mean_price).max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_setup_calibrates() {
        let s = PaperSetup::build(ExperimentScale::small(), WorkloadKind::Fiu, 0.92).unwrap();
        assert_eq!(s.trace.len(), 336);
        assert!(s.unaware_brown_kwh > 0.0);
        assert!((s.budget_fraction() - 0.92).abs() < 1e-9);
        // On-site ≈ 20% of consumption: the generated sum hits the target.
        let onsite: f64 = s.trace.onsite.iter().sum();
        assert!(onsite > 0.0);
        // Budget split: 40% offsite, 60% RECs.
        let offsite = s.trace.total_offsite();
        assert!((offsite - 0.4 * s.budget_kwh).abs() < 1.0);
        assert!((s.rec_total - 0.6 * s.budget_kwh).abs() < 1e-6);
    }

    #[test]
    fn with_budget_fraction_rescales() {
        let s = PaperSetup::build(ExperimentScale::small(), WorkloadKind::Fiu, 0.92).unwrap();
        let t = s.with_budget_fraction(1.05);
        assert!((t.budget_fraction() - 1.05).abs() < 1e-9);
        assert_eq!(t.unaware_brown_kwh, s.unaware_brown_kwh);
        assert_eq!(t.unaware_hourly_cost, s.unaware_hourly_cost);
        assert!(t.trace.total_offsite() > s.trace.total_offsite());
        assert_eq!(t.trace.workload, s.trace.workload, "workload untouched");
    }

    /// The step-4 reference is the finished setup's: simulating the
    /// carbon-unaware policy again with off-site supply and RECs in place
    /// gives the same cost to the bit.
    #[test]
    fn unaware_hourly_cost_is_the_finished_setups_reference() {
        for workload in [WorkloadKind::Fiu, WorkloadKind::Msr] {
            let s = PaperSetup::build(ExperimentScale::small(), workload, 0.92).unwrap();
            let again = unaware_reference(&s.cluster, s.cost, &s.trace, s.rec_total).unwrap();
            assert_eq!(
                again.avg_hourly_cost().to_bits(),
                s.unaware_hourly_cost.to_bits(),
                "{workload:?}"
            );
        }
    }

    #[test]
    fn msr_workload_variant_builds() {
        let s = PaperSetup::build(ExperimentScale::small(), WorkloadKind::Msr, 0.9).unwrap();
        assert!(s.unaware_brown_kwh > 0.0);
    }
}
