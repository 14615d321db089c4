//! Slot-engine throughput: how fast a full COCA year runs — the number
//! that bounds every figure sweep in the experiment harness.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use coca_baselines::CarbonUnaware;
use coca_core::symmetric::SymmetricSolver;
use coca_core::{CocaConfig, CocaController, VSchedule};
use coca_dcsim::{run_lockstep, Cluster, CostParams};
use coca_traces::{TraceConfig, WorkloadKind};

fn setup(hours: usize, groups: usize) -> (Arc<Cluster>, coca_traces::EnvironmentTrace) {
    let cluster = Arc::new(Cluster::scaled_paper_datacenter(groups, 100));
    let trace = TraceConfig {
        hours,
        workload_kind: WorkloadKind::Fiu,
        peak_arrival_rate: 0.5 * cluster.max_capacity(),
        onsite_energy_kwh: 10.0 * hours as f64,
        offsite_energy_kwh: 20.0 * hours as f64,
        mean_price: 0.5,
        seed: 1,
        ..Default::default()
    }
    .generate();
    (cluster, trace)
}

fn bench_coca_month(c: &mut Criterion) {
    let hours = 720;
    let (cluster, trace) = setup(hours, 40);
    let cost = CostParams::default();
    let mut group = c.benchmark_group("simulator");
    group.sample_size(10);
    group.bench_function("coca_month_40groups", |b| {
        b.iter(|| {
            let cfg = CocaConfig {
                v: VSchedule::Constant(1e5),
                frame_length: hours,
                horizon: hours,
                alpha: 1.0,
                rec_total: 5_000.0,
            };
            let coca =
                CocaController::new(Arc::clone(&cluster), cost, cfg, SymmetricSolver::new());
            black_box(
                run_lockstep(Arc::clone(&cluster), &trace, cost, 5_000.0, vec![Box::new(coca)])
                    .expect("run"),
            )
        })
    });
    group.bench_function("carbon_unaware_month_40groups", |b| {
        b.iter(|| {
            let unaware = CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new());
            black_box(
                run_lockstep(Arc::clone(&cluster), &trace, cost, 0.0, vec![Box::new(unaware)])
                    .expect("run"),
            )
        })
    });
    group.finish();
}

fn bench_switching_accounting(c: &mut Criterion) {
    // The switching-cost path adds per-slot transition counting; verify it
    // is cheap relative to the decision itself.
    let hours = 240;
    let (cluster, trace) = setup(hours, 16);
    let mut group = c.benchmark_group("simulator_switching");
    group.sample_size(10);
    for switch in [0.0, 0.0231] {
        let cost = CostParams { switch_energy_kwh: switch, ..Default::default() };
        group.bench_function(format!("switch_kwh_{switch}"), |b| {
            b.iter(|| {
                let cfg = CocaConfig {
                    v: VSchedule::Constant(1e5),
                    frame_length: hours,
                    horizon: hours,
                    alpha: 1.0,
                    rec_total: 1_000.0,
                };
                let coca =
                    CocaController::new(Arc::clone(&cluster), cost, cfg, SymmetricSolver::new());
                black_box(
                    run_lockstep(Arc::clone(&cluster), &trace, cost, 1_000.0, vec![Box::new(coca)])
                        .expect("run"),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_coca_month, bench_switching_accounting);
criterion_main!(benches);
