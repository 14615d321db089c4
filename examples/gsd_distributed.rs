//! GSD in action: sequential vs message-passing distributed engines.
//!
//! ```sh
//! cargo run --release --example gsd_distributed
//! ```
//!
//! Solves one P3 instance (a snapshot slot of the COCA controller) with
//! three solvers — the exhaustive ground truth, sequential GSD, and the
//! crossbeam message-passing distributed GSD — and shows the temperature
//! trade-off of the paper's Fig. 4: low δ explores but does not settle,
//! high δ concentrates on the optimum.

use coca::core::gsd::{GsdOptions, GsdSolver};
use coca::core::gsd_distributed::DistributedGsdSolver;
use coca::core::solver::{ExhaustiveSolver, P3Solver};
use coca::dcsim::dispatch::SlotProblem;
use coca::dcsim::Cluster;
use coca::opt::schedule::TemperatureSchedule;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Small fleet so the exhaustive solver stays tractable: 6 groups × 5
    // choices = 15 625 states.
    let cluster = Cluster::homogeneous(6, 20);
    let problem = SlotProblem {
        cluster: &cluster,
        arrival_rate: 0.45 * cluster.max_capacity(),
        onsite: 5.0,
        energy_weight: 400.0,
        delay_weight: 1000.0,
        gamma: 0.95,
        pue: 1.1,
    };

    let exact = ExhaustiveSolver.solve(&problem)?;
    println!("exhaustive optimum: objective {:.4}, levels {:?}",
        exact.outcome.objective, exact.levels);

    println!("\nsequential GSD, 800 iterations:");
    println!("{:>12} {:>14} {:>14} {:>10}", "delta", "best", "final-kept", "accepted");
    for delta in [1e2, 1e3, 1e4, 1e6] {
        let mut gsd = GsdSolver::new(GsdOptions {
            iterations: 800,
            schedule: TemperatureSchedule::Constant(delta),
            record_trace: true,
            warm_start: false,
            seed: 7,
        });
        let sol = gsd.solve(&problem)?;
        println!(
            "{:>12.0} {:>14.4} {:>14.4} {:>10}",
            delta,
            sol.outcome.objective,
            gsd.last_trace.last().copied().unwrap_or(f64::NAN),
            gsd.stats().accepted
        );
    }

    println!("\ndistributed GSD (3 worker agents, dual-decomposition load distribution):");
    let mut dist = DistributedGsdSolver::new(
        GsdOptions {
            iterations: 800,
            schedule: TemperatureSchedule::Constant(1e6),
            warm_start: false,
            seed: 7,
            ..Default::default()
        },
        3,
    );
    let sol = dist.solve(&problem)?;
    println!("  objective {:.4} (exhaustive {:.4})", sol.outcome.objective, exact.outcome.objective);
    println!("  levels    {:?}", sol.levels);
    let gap = (sol.outcome.objective - exact.outcome.objective) / exact.outcome.objective;
    println!("  optimality gap: {:.3}%", gap * 100.0);

    // Annealing: start exploratory, finish greedy (Sec. 4.2's advice).
    let mut annealed = GsdSolver::new(GsdOptions {
        iterations: 800,
        schedule: TemperatureSchedule::Geometric { start: 1e2, factor: 1.02, max: 1e7 },
        warm_start: false,
        seed: 7,
        ..Default::default()
    });
    let sol = annealed.solve(&problem)?;
    println!("\nannealed GSD (δ: 1e2 → 1e7): objective {:.4}", sol.outcome.objective);
    Ok(())
}
