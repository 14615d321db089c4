//! Water-filling (the inner load-distribution solve) — the hot path of
//! every P3 evaluation. Ablations from DESIGN.md §7: exact three-regime
//! KKT vs the projected-gradient fallback, and the payoff of multiplicity
//! compression (4 weighted types vs 200 expanded queues).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use coca_opt::pgd::{solve_pgd, PgdOptions};
use coca_opt::waterfill::{solve, BankProblem, QueueBank};

fn heterogeneous_queues(n: usize) -> QueueBank {
    let mut bank = QueueBank::new();
    for i in 0..n {
        let cap = 1000.0 + 37.0 * (i % 7) as f64;
        bank.push_type(cap, 0.95 * cap, 0.009 + 0.001 * (i % 4) as f64, 0.0, 1.0);
    }
    bank
}

fn problem(bank: &QueueBank) -> BankProblem<'_> {
    let capped = bank.aggregates().0;
    BankProblem {
        bank,
        total_load: 0.5 * capped,
        energy_weight: 100.0,
        delay_weight: 1000.0,
        base_power: 50.0,
        capped_capacity: capped,
        renewable: 20.0,
    }
}

fn bench_exact_by_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("waterfill_exact");
    for n in [4usize, 20, 200, 1000] {
        let bank = heterogeneous_queues(n);
        let p = problem(&bank);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| black_box(solve(&p).expect("solve")))
        });
    }
    group.finish();
}

fn bench_compression_payoff(c: &mut Criterion) {
    // 200 identical queues: expanded vs one weighted type.
    let mut expanded = QueueBank::new();
    for _ in 0..200 {
        expanded.push_type(1000.0, 950.0, 0.009, 0.0, 1.0);
    }
    let mut compact = QueueBank::new();
    compact.push_type(1000.0, 950.0, 0.009, 0.0, 200.0);
    let mut group = c.benchmark_group("waterfill_compression");
    let pe = problem(&expanded);
    group.bench_function("expanded_200_queues", |b| {
        b.iter(|| black_box(solve(&pe).expect("solve")))
    });
    let pc = problem(&compact);
    group.bench_function("compressed_1_type_x200", |b| {
        b.iter(|| black_box(solve(&pc).expect("solve")))
    });
    group.finish();
}

fn bench_exact_vs_pgd(c: &mut Criterion) {
    let bank = heterogeneous_queues(20);
    let p = problem(&bank);
    let mut group = c.benchmark_group("waterfill_vs_pgd");
    group.sample_size(20);
    group.bench_function("exact_kkt_20q", |b| b.iter(|| black_box(solve(&p).expect("solve"))));
    group.bench_function("pgd_20q", |b| {
        b.iter(|| black_box(solve_pgd(&p, PgdOptions::default()).expect("pgd")))
    });
    group.finish();
}

criterion_group!(benches, bench_exact_by_size, bench_compression_payoff, bench_exact_vs_pgd);
criterion_main!(benches);
