//! Engine acceptance tests (ISSUE PR 3): lockstep multi-policy runs must
//! be bit-compatible with individual per-policy passes, and checkpointing
//! at a frame boundary followed by resume must reproduce the uninterrupted
//! run exactly.

use std::sync::Arc;

use coca::baselines::{CarbonUnaware, PerfectHp};
use coca::core::symmetric::SymmetricSolver;
use coca::core::{CocaConfig, CocaController, VSchedule};
use coca::dcsim::{
    push_source, run_lockstep, Cluster, CostParams, EngineBuilder, Policy, SimOutcome,
    StepStatus, SummarySink,
};
use coca::traces::{EnvironmentTrace, TraceConfig, WorkloadKind};

fn cluster() -> Arc<Cluster> {
    Arc::new(Cluster::scaled_paper_datacenter(4, 25))
}

fn trace(hours: usize) -> EnvironmentTrace {
    TraceConfig {
        hours,
        workload_kind: WorkloadKind::Fiu,
        peak_arrival_rate: 0.45 * cluster().max_capacity(),
        onsite_energy_kwh: 40.0 * hours as f64 / 100.0,
        offsite_energy_kwh: 90.0 * hours as f64 / 100.0,
        mean_price: 0.5,
        seed: 9,
        ..Default::default()
    }
    .generate()
}

/// Builds the full five-controller policy set (COCA at two V values, the
/// carbon-unaware minimizer, and PerfectHP; OfflineOpt needs a plan bound
/// to a budget, exercised separately in the baselines crate).
fn policy_set<'a>(
    cluster: &Arc<Cluster>,
    cost: CostParams,
    env: &EnvironmentTrace,
    rec_total: f64,
) -> Vec<Box<dyn Policy + 'a>> {
    let mut set: Vec<Box<dyn Policy + 'a>> = Vec::new();
    for v in [40.0, 4_000.0] {
        let cfg = CocaConfig {
            v: VSchedule::Constant(v),
            frame_length: env.len(),
            horizon: env.len(),
            alpha: 1.0,
            rec_total,
        };
        set.push(Box::new(CocaController::new(
            Arc::clone(cluster),
            cost,
            cfg,
            SymmetricSolver::new(),
        )));
    }
    set.push(Box::new(CarbonUnaware::new(Arc::clone(cluster), cost, SymmetricSolver::new())));
    set.push(Box::new(
        PerfectHp::<SymmetricSolver>::new(Arc::clone(cluster), cost, env, rec_total, 24)
            .expect("hp plans"),
    ));
    set
}

fn max_rel_err(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() / scale
        })
        .fold(0.0, f64::max)
}

#[test]
fn lockstep_policies_match_individual_passes_to_1e12() {
    let cluster = cluster();
    let cost = CostParams::default();
    let env = trace(96);
    let rec_total = 60.0;

    let lockstep = run_lockstep(
        Arc::clone(&cluster),
        &env,
        cost,
        rec_total,
        policy_set(&cluster, cost, &env, rec_total),
    )
    .expect("lockstep run");

    let individual: Vec<SimOutcome> = policy_set(&cluster, cost, &env, rec_total)
        .into_iter()
        .map(|policy| {
            run_lockstep(Arc::clone(&cluster), &env, cost, rec_total, vec![policy])
                .expect("individual run")
                .pop()
                .expect("one outcome")
        })
        .collect();

    assert_eq!(lockstep.len(), individual.len());
    for (joint, solo) in lockstep.iter().zip(&individual) {
        assert_eq!(joint.policy, solo.policy);
        assert!(
            max_rel_err(&joint.cost_series(), &solo.cost_series()) <= 1e-12,
            "{}: lockstep cost series deviates from the individual pass",
            joint.policy
        );
        let joint_brown: Vec<f64> = joint.records.iter().map(|r| r.brown_energy).collect();
        let solo_brown: Vec<f64> = solo.records.iter().map(|r| r.brown_energy).collect();
        assert!(
            max_rel_err(&joint_brown, &solo_brown) <= 1e-12,
            "{}: lockstep brown-energy series deviates",
            joint.policy
        );
    }
}

#[test]
fn checkpoint_at_frame_boundary_then_resume_is_exact() {
    let cluster = cluster();
    let cost = CostParams::default();
    let env = trace(96);
    let rec_total = 60.0;
    let frame = 24;

    // Reference: uninterrupted run.
    let reference = run_lockstep(
        Arc::clone(&cluster),
        &env,
        cost,
        rec_total,
        policy_set(&cluster, cost, &env, rec_total),
    )
    .expect("reference run");

    let engine = || {
        policy_set(&cluster, cost, &env, rec_total)
            .into_iter()
            .fold(EngineBuilder::new(Arc::clone(&cluster), cost).rec_total(rec_total), |b, p| {
                b.policy(p)
            })
            .build(&env)
            .expect("engine")
    };

    // Interrupted run: advance two frames, checkpoint, drop the engine.
    let mut first = engine();
    for _ in 0..(2 * frame) {
        assert_eq!(first.step().expect("step"), StepStatus::Advanced);
    }
    let state = first.checkpoint().expect("checkpoint");
    assert_eq!(state.t, 2 * frame);
    // JSON round-trip, as `repro --resume` does it.
    let json = serde_json::to_string(&state).expect("serialize");
    let state: coca::dcsim::EngineState = serde_json::from_str(&json).expect("parse");
    drop(first);

    // Resume in a fresh engine with freshly-built policies.
    let mut second = engine();
    second.restore(&state).expect("restore");
    assert_eq!(second.t(), 2 * frame);
    let resumed = second.run_and_finish().expect("resume run");

    assert_eq!(resumed, reference, "resumed run must equal the uninterrupted run exactly");
}

#[test]
fn generator_source_streams_unbounded_synthetic_slots() {
    // A synthetic slot generator with no materialized trace: a thread
    // pushes slots through a bounded queue as the engine drains it, and a
    // SummarySink keeps the lane's history flat.
    let cluster = cluster();
    let cost = CostParams::default();
    let horizon = 500;
    let peak = 0.4 * cluster.max_capacity();
    let (handle, source) = push_source(4);
    let generator = std::thread::spawn(move || {
        for t in 0..horizon {
            let hour = (t % 24) as f64 / 23.0;
            let env = coca::traces::SlotEnv {
                t,
                arrival_rate: peak * (0.6 + 0.4 * hour),
                onsite: 5.0,
                price: 0.04 + 0.02 * hour,
                offsite: 8.0,
            };
            handle.push(env).expect("push");
        }
    });
    let mut engine = EngineBuilder::new(Arc::clone(&cluster), cost)
        .rec_total(100.0)
        .policy_with_sink(
            Box::new(CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new())),
            Box::new(SummarySink::new()),
        )
        .build(source)
        .expect("engine");
    let steps = engine.run_to_end().expect("run");
    generator.join().expect("generator");
    assert_eq!(steps, horizon);
    let state = engine.checkpoint().expect("checkpoint");
    assert!(state.lanes[0].records.is_empty(), "a summary lane keeps no history");
}
