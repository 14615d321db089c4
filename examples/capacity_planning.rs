//! Capacity planning: what does carbon neutrality cost?
//!
//! ```sh
//! cargo run --release --example capacity_planning
//! ```
//!
//! A planning study built on the offline OPT benchmark: sweep the carbon
//! budget from 70 % to 110 % of the carbon-unaware consumption and report
//! the cost of meeting each target — the "price curve" a data-center
//! operator would consult before committing to a REC purchase, plus the
//! marginal cost of the last 5 % of decarbonization.

use std::sync::Arc;

use coca::baselines::{CarbonUnaware, OfflineOpt};
use coca::core::symmetric::SymmetricSolver;
use coca::dcsim::{run_lockstep, Cluster, CostParams, PassMemo};
use coca::traces::{TraceConfig, WorkloadKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cluster = Arc::new(Cluster::scaled_paper_datacenter(8, 50));
    let cost = CostParams::default();
    let hours = 8 * 7 * 24; // an 8-week planning window
    let trace = TraceConfig {
        hours,
        workload_kind: WorkloadKind::Fiu,
        peak_arrival_rate: 0.5 * cluster.max_capacity(),
        onsite_energy_kwh: 15_000.0,
        offsite_energy_kwh: 0.0, // planning counts the whole budget as RECs
        mean_price: 0.5,
        seed: 11,
        ..Default::default()
    }
    .generate();

    // One engine pass of the reference policy gives both the consumption
    // and the cost baseline.
    let reference = run_lockstep(
        Arc::clone(&cluster),
        &trace,
        cost,
        0.0,
        vec![Box::new(CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new()))],
    )?
    .pop()
    .expect("one lane, one outcome");
    let unaware = reference.total_brown_energy();
    let unaware_cost = reference.total_cost();
    println!("reference (carbon-unaware): {:.1} MWh brown, total cost ${:.0}", unaware / 1000.0, unaware_cost);

    println!("\n{:>8} {:>12} {:>12} {:>12} {:>10}", "budget", "MWh", "cost $", "vs unaware", "mu*");
    let mut prev: Option<(f64, f64)> = None;
    let mut marginal_rows = Vec::new();
    for frac in [1.10, 1.00, 0.95, 0.92, 0.85, 0.80, 0.75, 0.70] {
        let budget = frac * unaware;
        let mut solver = SymmetricSolver::new();
        let plan = OfflineOpt::plan(&cluster, cost, &trace, budget, &mut solver, &PassMemo::new())?;
        let total = plan.total_planned_cost();
        println!(
            "{:>7.0}% {:>12.1} {:>12.0} {:>11.2}% {:>10.3}",
            frac * 100.0,
            plan.total_planned_brown() / 1000.0,
            total,
            100.0 * (total / unaware_cost - 1.0),
            plan.multipliers[0],
        );
        if let Some((pf, pc)) = prev {
            let d_budget = (pf - frac) * unaware; // kWh given up
            if d_budget > 0.0 {
                marginal_rows.push((frac, (total - pc) / d_budget));
            }
        }
        prev = Some((frac, total));
    }

    println!("\nmarginal cost of decarbonization ($ per kWh of budget given up):");
    for (frac, m) in marginal_rows {
        println!("  down to {:>4.0}%: {:.4} $/kWh", frac * 100.0, m.max(0.0));
    }
    println!("\n(The curve is convex: the first budget cuts are nearly free — the\n\
              optimizer shifts load to cheap/renewable-rich hours — while deep\n\
              cuts force delay-costly consolidation. This is the planning view\n\
              of the paper's Fig. 5(a).)");
    Ok(())
}
