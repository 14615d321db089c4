//! P3 solver comparison: the per-slot decision latency of each engine at
//! the paper's fleet scale — the number that determines whether COCA can
//! run "once every time slot" with amortized complexity (Sec. 4.2).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use coca_bench::ColdGsd;
use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_core::solver::{ExhaustiveSolver, P3Solver};
use coca_core::symmetric::SymmetricSolver;
use coca_dcsim::dispatch::{optimal_dispatch, SlotProblem};
use coca_dcsim::incremental::SlotEvalContext;
use coca_dcsim::Cluster;
use coca_opt::schedule::TemperatureSchedule;

fn problem(cluster: &Cluster) -> SlotProblem<'_> {
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

fn bench_slot_decision(c: &mut Criterion) {
    let cluster = Cluster::paper_datacenter();
    let p = problem(&cluster);
    let mut group = c.benchmark_group("p3_paper_scale");
    group.sample_size(10);
    group.bench_function("symmetric_cold", |b| {
        b.iter(|| {
            let mut s = SymmetricSolver::new();
            black_box(s.solve(&p).expect("solve"))
        })
    });
    group.bench_function("symmetric_warm", |b| {
        let mut s = SymmetricSolver::new();
        let _ = s.solve(&p).expect("warm-up");
        b.iter(|| black_box(s.solve(&p).expect("solve")))
    });
    group.bench_function("gsd_100iters_warm", |b| {
        let mut s = GsdSolver::new(GsdOptions {
            iterations: 100,
            schedule: TemperatureSchedule::Constant(1e6),
            ..Default::default()
        });
        let _ = s.solve(&p).expect("warm-up");
        b.iter(|| black_box(s.solve(&p).expect("solve")))
    });
    group.bench_function("dispatch_only_fixed_speeds", |b| {
        let levels = cluster.full_speed_vector();
        b.iter(|| black_box(optimal_dispatch(&p, &levels).expect("dispatch")))
    });
    group.finish();
}

/// A 500-iteration GSD solve at the paper's fleet scale: the cold
/// reference chain (every proposal re-runs `optimal_dispatch` from
/// scratch) vs the struct-of-arrays kernel that prices proposals in
/// `GsdSolver`. Reference numbers are in the `p3_smoke` docs and
/// DESIGN.md §10.4.
fn bench_cold_vs_kernel(c: &mut Criterion) {
    let cluster = Cluster::paper_datacenter();
    let p = problem(&cluster);
    let opts = GsdOptions {
        iterations: 500,
        schedule: TemperatureSchedule::Constant(1e6),
        ..Default::default()
    };
    let mut group = c.benchmark_group("p3_gsd500_paper_scale");
    group.sample_size(10);
    group.bench_function("gsd500_cold_oracle", |b| {
        let mut s = ColdGsd::new(&opts);
        let _ = s.solve(&p);
        b.iter(|| black_box(s.solve(&p)))
    });
    group.bench_function("gsd500_batched", |b| {
        let mut s = GsdSolver::new(opts.clone());
        let _ = s.solve(&p).expect("warm-up");
        b.iter(|| black_box(s.solve(&p).expect("solve")))
    });
    // One cold dispatch of a single-flip proposal, the unit of work the
    // kernel's `single_candidate_batched` row replaces. A long walk can
    // slow the fleet below the load; it restarts from full speed then.
    group.bench_function("single_proposal_cold_dispatch", |b| {
        let full = cluster.full_speed_vector();
        let mut state = full.clone();
        let mut level = 0usize;
        let mut g = 0usize;
        b.iter(|| {
            state[g] = 1 + (state[g] + level) % 4;
            g = (g + 1) % state.len();
            level = (level + 1) % 3;
            if !p.is_feasible(&state) {
                state.copy_from_slice(&full);
            }
            black_box(optimal_dispatch(&p, &state).expect("dispatch"))
        })
    });
    group.finish();
}

/// The batched struct-of-arrays kernel primitives in isolation: one full
/// candidate sweep of a sampled group (every level priced off the shared
/// aggregates), one single candidate, and the committed-state solve — the
/// building blocks behind `gsd500_batched`.
fn bench_batched_kernel(c: &mut Criterion) {
    let cluster = Cluster::paper_datacenter();
    let p = problem(&cluster);
    let initial = cluster.full_speed_vector();
    let mut group = c.benchmark_group("p3_batched");
    group.sample_size(10);
    group.bench_function("candidate_sweep_one_group", |b| {
        let mut ctx = SlotEvalContext::new(p, &initial).expect("context");
        let mut costs = Vec::new();
        let mut g = 0usize;
        b.iter(|| {
            ctx.evaluate_candidates(g, &mut costs);
            g = (g + 1) % initial.len();
            black_box(costs.last().copied())
        })
    });
    group.bench_function("single_candidate_batched", |b| {
        let mut ctx = SlotEvalContext::new(p, &initial).expect("context");
        let mut g = 0usize;
        let mut level = 0usize;
        b.iter(|| {
            // Cycle fresh (group, level) pairs so warm starts stay honest.
            let cost = ctx.evaluate_candidate(g, 1 + level % 4);
            g = (g + 1) % initial.len();
            level += 1;
            black_box(cost)
        })
    });
    group.bench_function("current_state_batched", |b| {
        let mut ctx = SlotEvalContext::new(p, &initial).expect("context");
        b.iter(|| black_box(ctx.evaluate_current()))
    });
    group.finish();
}

fn bench_exhaustive_reference(c: &mut Criterion) {
    // Tiny fleet where the ground-truth enumeration is feasible: shows why
    // exhaustive search cannot be the production path (5^6 states).
    let cluster = Cluster::homogeneous(6, 20);
    let p = problem(&cluster);
    let mut group = c.benchmark_group("p3_small_scale");
    group.sample_size(10);
    group.bench_function("exhaustive_6groups", |b| {
        b.iter(|| black_box(ExhaustiveSolver.solve(&p).expect("solve")))
    });
    group.bench_function("symmetric_6groups", |b| {
        b.iter(|| {
            let mut s = SymmetricSolver::new();
            black_box(s.solve(&p).expect("solve"))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_slot_decision,
    bench_cold_vs_kernel,
    bench_batched_kernel,
    bench_exhaustive_reference
);
criterion_main!(benches);
