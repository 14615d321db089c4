//! Carbon dashboard: a month-by-month view of COCA vs the carbon-unaware
//! operator over a simulated year.
//!
//! ```sh
//! cargo run --release --example carbon_dashboard
//! ```
//!
//! Prints, per month: average cost, brown energy, carbon allowance, the
//! running deficit, and an ASCII sparkline of the carbon-deficit queue —
//! the signal that drives COCA's decisions.

use std::sync::Arc;

use coca::baselines::CarbonUnaware;
use coca::core::symmetric::SymmetricSolver;
use coca::core::{CocaConfig, CocaController, VSchedule};
use coca::dcsim::{run_lockstep, Cluster, CostParams, Policy, SimOutcome};
use coca::obs::{MetricsObserver, MetricsRegistry};
use coca::traces::{TraceConfig, WorkloadKind, HOURS_PER_YEAR};

const SPARK: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

fn sparkline(values: &[f64], buckets: usize) -> String {
    if values.is_empty() {
        return String::new();
    }
    let max = values.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    let chunk = (values.len() / buckets).max(1);
    values
        .chunks(chunk)
        .map(|c| {
            let avg = c.iter().sum::<f64>() / c.len() as f64;
            let idx = ((avg / max) * 7.0).round().clamp(0.0, 7.0) as usize;
            SPARK[idx]
        })
        .collect()
}

fn monthly(outcome: &SimOutcome, f: impl Fn(&coca::dcsim::SlotRecord) -> f64) -> Vec<f64> {
    outcome
        .records
        .chunks(HOURS_PER_YEAR / 12)
        .map(|m| m.iter().map(&f).sum::<f64>() / m.len() as f64)
        .collect()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Arc::new(Cluster::scaled_paper_datacenter(8, 50));
    let cost = CostParams::default();
    let trace = TraceConfig {
        hours: HOURS_PER_YEAR,
        workload_kind: WorkloadKind::Fiu,
        peak_arrival_rate: 0.5 * cluster.max_capacity(),
        onsite_energy_kwh: 90_000.0,
        offsite_energy_kwh: 160_000.0,
        mean_price: 0.5,
        seed: 7,
        ..Default::default()
    }
    .generate();

    // Reference consumption: one engine pass of the carbon-unaware policy.
    let unaware_brown = run_lockstep(
        Arc::clone(&cluster),
        &trace,
        cost,
        0.0,
        vec![Box::new(CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new()))],
    )?
    .pop()
    .expect("one lane, one outcome")
    .total_brown_energy();
    let budget = 0.92 * unaware_brown;
    let rec_total = (budget - trace.total_offsite()).max(0.0);

    let cfg = CocaConfig {
        v: VSchedule::Constant(5_000.0),
        frame_length: HOURS_PER_YEAR,
        horizon: HOURS_PER_YEAR,
        alpha: 1.0,
        rec_total,
    };
    let mut coca = CocaController::new(Arc::clone(&cluster), cost, cfg, SymmetricSolver::new());
    // The controller reports q(t) at every decision; the metrics registry
    // keeps it as the `coca_deficit_queue_kwh` gauge trajectory.
    let registry = Arc::new(MetricsRegistry::new());
    coca.set_observer(Arc::new(MetricsObserver::new(Arc::clone(&registry))));
    // COCA and the unaware operator advance in lockstep through a single
    // pass over the year; `&mut coca` keeps the peak queue readable.
    let mut outcomes = run_lockstep(
        Arc::clone(&cluster),
        &trace,
        cost,
        rec_total,
        vec![
            Box::new(&mut coca) as Box<dyn Policy + '_>,
            Box::new(CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new())),
        ],
    )?;
    let unaware_outcome = outcomes.pop().expect("unaware lane");
    let outcome = outcomes.pop().expect("coca lane");

    println!("== Carbon dashboard: COCA vs carbon-unaware ==");
    println!("fleet: {} servers, budget {:.0} MWh (92% of unaware)", cluster.num_servers(), budget / 1000.0);
    println!("\n{:>5} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "month", "coca $/h", "unaware $/h", "coca MWh", "unaw. MWh", "allow. MWh");
    let coca_cost = monthly(&outcome, |r| r.total_cost);
    let un_cost = monthly(&unaware_outcome, |r| r.total_cost);
    let coca_brown = monthly(&outcome, |r| r.brown_energy);
    let un_brown = monthly(&unaware_outcome, |r| r.brown_energy);
    let allow = monthly(&outcome, |r| r.offsite + rec_total / HOURS_PER_YEAR as f64);
    let hrs_per_month = (HOURS_PER_YEAR / 12) as f64;
    for m in 0..coca_cost.len() {
        println!(
            "{:>5} {:>12.2} {:>12.2} {:>12.1} {:>12.1} {:>12.1}",
            m + 1,
            coca_cost[m],
            un_cost[m],
            coca_brown[m] * hrs_per_month / 1000.0,
            un_brown[m] * hrs_per_month / 1000.0,
            allow[m] * hrs_per_month / 1000.0
        );
    }

    println!("\ncarbon-deficit queue over the year:");
    let queue: Vec<f64> = registry
        .snapshot()
        .gauge("coca_deficit_queue_kwh")
        .map(|g| g.trajectory.iter().map(|&(_, q)| q).collect())
        .unwrap_or_default();
    println!("  {}", sparkline(&queue, 72));
    println!("  peak queue: {:.0} kWh", coca.max_deficit());

    println!("\nannual totals:");
    println!("  coca    : ${:.0}, {:.0} MWh brown, neutral: {}",
        outcome.total_cost(), outcome.total_brown_energy() / 1000.0,
        outcome.total_brown_energy() <= budget);
    println!("  unaware : ${:.0}, {:.0} MWh brown, neutral: {}",
        unaware_outcome.total_cost(), unaware_outcome.total_brown_energy() / 1000.0,
        unaware_outcome.total_brown_energy() <= budget);
    Ok(())
}
