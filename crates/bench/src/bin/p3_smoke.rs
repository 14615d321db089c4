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
//! Two checks, both fatal:
//!
//! * **Same chain.** Both engines share the seed, the warm start and the
//!   RNG stream, and their costs agree to ≤ 1e-9, so every solve must
//!   return the same speed vector.
//! * **Kernel speed.** The kernel must be at least [`MIN_SPEEDUP`]× faster
//!   than the cold chain. It is ~27× faster at paper scale, so only a
//!   real regression trips this.
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
//! `coca-serve` runs, warm on the same instance, and prints its ns/solve
//! and its kernel prices per solve (each distinct partition state once)
//! beside the GSD rows. That row is informational: no threshold gates it.

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

fn main() -> ExitCode {
    let cluster = Cluster::paper_datacenter();
    // Identical instance to the `p3_gsd500_paper_scale` criterion group.
    let p = SlotProblem {
        cluster: &cluster,
        arrival_rate: 0.5 * cluster.max_capacity(),
        onsite: 0.05 * cluster.peak_power(),
        energy_weight: 300.0,
        delay_weight: 1000.0,
        gamma: 0.95,
        pue: 1.0,
    };
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

    let mut symmetric = SymmetricSolver::new();
    let mut symmetric_prices = 0u64;
    let (symmetric_time, symmetric_levels) = time_solves(|| {
        let levels = symmetric.solve(&p).expect("symmetric solve").levels;
        symmetric_prices += symmetric.stats().batched_candidates;
        levels
    });

    let kernel_ns = kernel_time.as_nanos() as f64 / ROUNDS as f64;
    let cold_ns = cold_time.as_nanos() as f64 / ROUNDS as f64;
    let symmetric_ns = symmetric_time.as_nanos() as f64 / ROUNDS as f64;
    let speedup = cold_ns / kernel_ns;
    println!("p3_gsd500_paper_scale ({ROUNDS} solves averaged):");
    println!("  gsd500_cold_oracle : {cold_ns:>12.0} ns/solve");
    println!("  gsd500_kernel      : {kernel_ns:>12.0} ns/solve  ({speedup:.2}x)");
    let prices_per_solve = symmetric_prices as f64 / symmetric_levels.len() as f64;
    println!(
        "  symmetric_warm     : {symmetric_ns:>12.0} ns/solve  \
         ({prices_per_solve:.1} kernel prices/solve, informational)"
    );

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
    println!("OK: kernel chain == cold chain, kernel >= {MIN_SPEEDUP}x faster");
    ExitCode::SUCCESS
}
