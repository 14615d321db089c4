//! `p3_smoke` — release-mode correctness and perf gate for the P3
//! evaluation kernel.
//!
//! Runs the `p3_gsd500_paper_scale` scenario (a 500-iteration GSD solve at
//! the paper's fleet scale) through [`GsdSolver`], whose proposals are
//! priced by the struct-of-arrays kernel, and through the cold reference
//! chain ([`ColdGsd`]: every proposal re-runs `optimal_dispatch` from
//! scratch). CI runs this after the criterion smoke; the full statistics
//! stay with `cargo bench -p coca-bench p3`.
//!
//! Three checks, all fatal:
//!
//! * **Same chain.** Both engines share the seed, the warm start and the
//!   RNG stream, and their costs agree to ≤ 1e-9, so every solve must
//!   return the same speed vector.
//! * **Kernel speed.** The kernel must be at least [`MIN_SPEEDUP`]× faster
//!   than the cold chain. It is ~27× faster at paper scale, so only a
//!   real regression trips this. The floor is a ratio against a cold chain
//!   built on `optimal_dispatch`, so a faster cold reference lowers it too.
//! * **Forced loads in closed form.** [`SymmetricSolver`] on the
//!   homogeneous paper-scale fleet (`Cluster::homogeneous(200, 1080)`, the
//!   shape of both `coca-serve` fleets) prices states that put every
//!   active server in one queue type, where load conservation alone fixes
//!   the load. The gate is a count: those prices must spend 0 water-level
//!   evaluations.
//!
//! Reference numbers from `cargo bench -p coca-bench --bench p3_solvers`
//! (vendored criterion shim, mean of 10 iterations; 2026-08 on an
//! unrecorded machine, 2026-10 on a shared 2-vCPU Intel Xeon VM;
//! DESIGN.md §10.4 keeps the table):
//!
//! | bench | 2026-08 | 2026-10, 2 vCPU |
//! |---|---|---|
//! | `gsd500_cold_oracle` | 5.69 ms | 8.51 ms |
//! | `gsd500_batched` | 211 µs (≈ 27×) | 317 µs (≈ 27×) |
//! | `single_proposal_cold_dispatch` | 11.9 µs | 19.8 µs |
//! | `single_candidate_batched` | 358 ns | 672 ns |
//! | `current_state_batched` | 249 ns | 516 ns |
//! | `candidate_sweep_one_group` | 1.33 µs | 2.44 µs |
//!
//! A typical chain makes ~400 candidate batches and ~4.3 water-filling
//! evaluations per solve. The shim has since moved from that mean to the
//! median of 11 timed batches after a warm-up; DESIGN.md §10.4 has rows
//! measured both ways.
//!
//! It also times [`SymmetricSolver`], the solver every figure, baseline and
//! `coca-serve` runs, warm on the same instance and on the fleet of the
//! small-scale figure batch (`Cluster::scaled_paper_datacenter(8, 200)`,
//! where that batch's solves happen), and prints its ns/solve, its kernel
//! prices per solve (each distinct partition state once) and its
//! water-level evaluations per price beside the GSD rows. Those two rows
//! are informational; only the homogeneous row's evaluation count is
//! gated.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use coca_bench::ColdGsd;
use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_core::solver::P3Solver;
use coca_core::symmetric::SymmetricSolver;
use coca_dcsim::dispatch::SlotProblem;
use coca_dcsim::Cluster;
use coca_opt::schedule::TemperatureSchedule;

/// Measured solves per engine (after one warm-up solve each).
const ROUNDS: usize = 20;

/// Required kernel-over-cold speedup. The retired incremental engine was
/// 8.6× faster than the cold chain and the old gate let the kernel be at
/// most 1.05× slower than it, so 8.6 / 1.05 ≈ 8× is the floor that gate
/// implied.
const MIN_SPEEDUP: f64 = 8.0;

/// Times a warm-up solve plus [`ROUNDS`] measured solves, returning the
/// measured time and every solve's speed vector.
fn time_solves(mut solve: impl FnMut() -> Vec<usize>) -> (Duration, Vec<Vec<usize>>) {
    let mut levels = vec![solve()];
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        levels.push(solve());
    }
    (t0.elapsed(), levels)
}

/// The slot of the `p3_gsd500_paper_scale` criterion group on `cluster`.
fn slot(cluster: &Cluster) -> SlotProblem<'_> {
    SlotProblem {
        cluster,
        arrival_rate: 0.5 * cluster.max_capacity(),
        onsite: 0.05 * cluster.peak_power(),
        energy_weight: 300.0,
        delay_weight: 1000.0,
        gamma: 0.95,
        pue: 1.0,
    }
}

/// Times warm [`SymmetricSolver`] solves of `p` and prints the row: ns per
/// solve, kernel prices per solve and water-level evaluations per price.
/// Returns the kernel prices and the water-level evaluations they spent.
fn symmetric_row(name: &str, p: &SlotProblem<'_>, note: &str) -> (u64, u64) {
    let mut symmetric = SymmetricSolver::new();
    let (mut prices, mut evals) = (0u64, 0u64);
    let (time, levels) = time_solves(|| {
        let levels = symmetric.solve(p).expect("symmetric solve").levels;
        prices += symmetric.stats().batched_candidates;
        evals += symmetric.stats().bisection_evals;
        levels
    });
    let ns = time.as_nanos() as f64 / ROUNDS as f64;
    let prices_per_solve = prices as f64 / levels.len() as f64;
    let evals_per_price = evals as f64 / prices.max(1) as f64;
    println!(
        "  {name:<30}: {ns:>12.0} ns/solve  ({prices_per_solve:.1} kernel prices/solve, \
         {evals_per_price:.2} evals/price, {note})"
    );
    (prices, evals)
}

fn main() -> ExitCode {
    let cluster = Cluster::paper_datacenter();
    // Identical instance to the `p3_gsd500_paper_scale` criterion group.
    let p = slot(&cluster);
    let opts = GsdOptions {
        iterations: 500,
        schedule: TemperatureSchedule::Constant(1e6),
        ..Default::default()
    };
    let mut kernel = GsdSolver::new(opts.clone());
    let (kernel_time, kernel_levels) =
        time_solves(|| kernel.solve(&p).expect("kernel solve").levels);
    let mut cold = ColdGsd::new(&opts);
    let (cold_time, cold_levels) = time_solves(|| cold.solve(&p));


    let kernel_ns = kernel_time.as_nanos() as f64 / ROUNDS as f64;
    let cold_ns = cold_time.as_nanos() as f64 / ROUNDS as f64;
    let speedup = cold_ns / kernel_ns;
    println!("p3_gsd500_paper_scale ({ROUNDS} solves averaged):");
    println!("  {:<30}: {cold_ns:>12.0} ns/solve", "gsd500_cold_oracle");
    println!("  {:<30}: {kernel_ns:>12.0} ns/solve  ({speedup:.2}x)", "gsd500_kernel");
    symmetric_row("symmetric_warm", &p, "informational");
    let batch_fleet = Cluster::scaled_paper_datacenter(8, 200);
    symmetric_row("symmetric_8x200", &slot(&batch_fleet), "informational");
    let homogeneous = Cluster::homogeneous(200, 1080);
    let (forced_prices, forced_evals) =
        symmetric_row("symmetric_homogeneous_200x1080", &slot(&homogeneous), "gate: 0 evals");

    if let Some(slot) = (0..kernel_levels.len()).find(|&i| kernel_levels[i] != cold_levels[i]) {
        eprintln!("FAIL: kernel chain diverged from the cold reference chain at solve {slot}");
        return ExitCode::from(1);
    }
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: kernel ({kernel_ns:.0} ns) is only {speedup:.2}x faster than the cold chain \
             ({cold_ns:.0} ns); the floor is {MIN_SPEEDUP}x"
        );
        return ExitCode::from(1);
    }
    if forced_prices == 0 || forced_evals > 0 {
        eprintln!(
            "FAIL: the homogeneous fleet's {forced_prices} symmetric prices spent {forced_evals} \
             water-level evaluations; a one-type state is priced in closed form (0)"
        );
        return ExitCode::from(1);
    }
    println!(
        "OK: kernel chain == cold chain, kernel >= {MIN_SPEEDUP}x faster, \
         homogeneous symmetric prices spend 0 water-level evaluations"
    );
    ExitCode::SUCCESS
}
