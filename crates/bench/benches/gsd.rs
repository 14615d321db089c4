//! GSD performance — the paper's timing claim (Sec. 4.2 / 5.2.3): *"to run
//! GSD for 200 groups of servers, the execution time for 500 iterations in
//! our simulator is less than 1 second on a personal desktop computer."*
//!
//! `gsd/paper_claim_200groups_500iters` measures exactly that
//! configuration; the group-count sweep shows the scaling, and the
//! sequential-vs-distributed comparison quantifies the message-passing
//! engine's coordination overhead (an ablation called out in DESIGN.md §7).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coca_core::gsd::{GsdOptions, GsdSolver};
use coca_core::gsd_distributed::DistributedGsdSolver;
use coca_core::solver::P3Solver;
use coca_dcsim::dispatch::SlotProblem;
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

fn opts(iterations: usize, seed: u64) -> GsdOptions {
    GsdOptions {
        iterations,
        schedule: TemperatureSchedule::Constant(1e6),
        record_trace: false,
        seed,
        warm_start: false,
    }
}

fn bench_paper_claim(c: &mut Criterion) {
    let cluster = Cluster::paper_datacenter(); // 200 groups, 216 K servers
    let p = problem(&cluster);
    let mut group = c.benchmark_group("gsd");
    group.sample_size(10);
    group.bench_function("paper_claim_200groups_500iters", |b| {
        b.iter(|| {
            let mut gsd = GsdSolver::new(opts(500, 7));
            black_box(gsd.solve(&p).expect("solve"))
        })
    });
    group.finish();
}

fn bench_group_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("gsd_scaling");
    group.sample_size(10);
    for groups in [8usize, 40, 100, 200] {
        let cluster = Cluster::scaled_paper_datacenter(groups, 1080);
        let p = problem(&cluster);
        group.bench_with_input(BenchmarkId::new("500iters", groups), &groups, |b, _| {
            b.iter(|| {
                let mut gsd = GsdSolver::new(opts(500, 7));
                black_box(gsd.solve(&p).expect("solve"))
            })
        });
    }
    group.finish();
}

fn bench_distributed_overhead(c: &mut Criterion) {
    let cluster = Cluster::scaled_paper_datacenter(16, 100);
    let p = problem(&cluster);
    let mut group = c.benchmark_group("gsd_engines");
    group.sample_size(10);
    group.bench_function("sequential_16groups_200iters", |b| {
        b.iter(|| {
            let mut gsd = GsdSolver::new(opts(200, 9));
            black_box(gsd.solve(&p).expect("solve"))
        })
    });
    for workers in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("distributed_16groups_200iters", workers),
            &workers,
            |b, &w| {
                b.iter(|| {
                    let mut gsd = DistributedGsdSolver::new(opts(200, 9), w);
                    black_box(gsd.solve(&p).expect("solve"))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_paper_claim, bench_group_scaling, bench_distributed_overhead);
criterion_main!(benches);
