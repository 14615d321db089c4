//! The facade's prelude must be sufficient to assemble and run the full
//! COCA pipeline — this is the "downstream user" smoke test.

use std::sync::Arc;

use coca::prelude::*;

#[test]
fn prelude_covers_the_whole_pipeline() {
    // Build a fleet with the builder.
    let cluster = Arc::new(
        ClusterBuilder::new()
            .add_groups(ServerClass::amd_opteron_2380(), 4, 10)
            .build()
            .expect("cluster"),
    );
    assert_eq!(cluster.num_servers(), 40);

    // Generate an environment.
    let trace = TraceConfig {
        hours: 48,
        peak_arrival_rate: 0.5 * cluster.max_capacity(),
        onsite_energy_kwh: 10.0,
        offsite_energy_kwh: 200.0,
        ..Default::default()
    }
    .generate();

    // Configure COCA.
    let cost = CostParams::default();
    let rec_total = 100.0;
    let cfg = CocaConfig {
        v: VSchedule::Constant(100.0),
        frame_length: 48,
        horizon: 48,
        alpha: 1.0,
        rec_total,
    };

    // Observability: one MetricsObserver watches both the engine and the
    // controller/solver, everything reachable from the prelude.
    let registry = Arc::new(MetricsRegistry::new());
    let observer = Arc::new(MetricsObserver::new(Arc::clone(&registry)));
    let mut solver = SymmetricSolver::new();
    solver.set_observer(Arc::clone(&observer) as _);
    let mut controller = CocaController::new(Arc::clone(&cluster), cost, cfg, solver);
    controller.set_observer(Arc::clone(&observer) as _);

    // Run through the builder → engine surface and inspect.
    let outcomes = EngineBuilder::new(Arc::clone(&cluster), cost)
        .rec_total(rec_total)
        .observer(Arc::clone(&observer) as _)
        .policy(Box::new(controller))
        .build(&trace)
        .expect("engine")
        .run_and_finish()
        .expect("run");
    let outcome: &SimOutcome = &outcomes[0];
    assert_eq!(outcome.len(), 48);
    assert!(outcome.avg_hourly_cost() > 0.0);

    // The observer saw the run; the snapshot round-trips through JSON.
    let snap: MetricsSnapshot = registry.snapshot();
    assert_eq!(snap.counter("engine_slots_total"), Some(48));
    assert_eq!(snap.counter("solver_solves_total"), Some(48));
    assert_eq!(snap.gauge("coca_deficit_queue_kwh").expect("gauge").trajectory.len(), 48);
    let back = MetricsSnapshot::from_json(&snap.to_json().expect("json")).expect("parse");
    assert_eq!(back, snap);

    // The baselines are reachable from the prelude too.
    let mut solver = SymmetricSolver::new();
    let opt =
        OfflineOpt::plan(&cluster, cost, &trace, 1e9, &mut solver, &PassMemo::new()).expect("opt");
    assert_eq!(opt.len(), 48);
    let _unaware = CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new());
    let _hp: PerfectHp<SymmetricSolver> =
        PerfectHp::new(Arc::clone(&cluster), cost, &trace, rec_total, 24).expect("hp");
}

#[test]
fn borrowed_policy_lane_matches_an_owned_one() {
    // A lane may borrow a policy the caller keeps inspecting after the run;
    // it must produce the same numbers as a lane that owns its policy.
    let cluster = Arc::new(Cluster::homogeneous(2, 5));
    let trace = TraceConfig {
        hours: 12,
        peak_arrival_rate: 0.4 * cluster.max_capacity(),
        onsite_energy_kwh: 5.0,
        offsite_energy_kwh: 5.0,
        ..Default::default()
    }
    .generate();
    let cost = CostParams::default();
    let mut policy = CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new());
    let borrowed =
        run_lockstep(Arc::clone(&cluster), &trace, cost, 10.0, vec![Box::new(&mut policy)])
            .expect("borrowed lane");
    assert_eq!(policy.name(), "carbon-unaware");

    let lockstep = run_lockstep(
        Arc::clone(&cluster),
        &trace,
        cost,
        10.0,
        vec![Box::new(CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new()))
            as Box<dyn Policy>],
    )
    .expect("lockstep");
    assert_eq!(borrowed, lockstep);
}

#[test]
fn engine_api_reachable_from_prelude() {
    // The streaming engine surface: EngineBuilder, SimEngine, SlotSource,
    // sinks, run_lockstep, EngineState are all prelude items.
    let cluster = Arc::new(Cluster::homogeneous(2, 5));
    let trace = TraceConfig {
        hours: 12,
        peak_arrival_rate: 0.4 * cluster.max_capacity(),
        onsite_energy_kwh: 5.0,
        offsite_energy_kwh: 5.0,
        ..Default::default()
    }
    .generate();
    let cost = CostParams::default();
    let mut engine: SimEngine<'_, &EnvironmentTrace> =
        EngineBuilder::new(Arc::clone(&cluster), cost)
            .rec_total(10.0)
            .observer(Arc::new(NoopObserver))
            .policy(Box::new(CarbonUnaware::new(
                Arc::clone(&cluster),
                cost,
                SymmetricSolver::new(),
            )))
            .build(&trace)
            .expect("engine");
    assert_eq!(engine.step().expect("step"), StepStatus::Advanced);
    let _slots = engine.run_to_end().expect("run");
    let state: EngineState = engine.checkpoint().expect("checkpoint");
    assert_eq!(state.lanes.len(), 1);
    let outcomes = engine.into_outcomes().expect("outcomes");
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].len(), 12);

    // run_lockstep + sinks are usable too.
    let again = run_lockstep(
        Arc::clone(&cluster),
        &trace,
        cost,
        10.0,
        vec![Box::new(CarbonUnaware::new(
            Arc::clone(&cluster),
            cost,
            SymmetricSolver::new(),
        )) as Box<dyn Policy>],
    )
    .expect("lockstep");
    assert_eq!(again[0].cost_series(), outcomes[0].cost_series());
    let _sink: Box<dyn RecordSink> = Box::new(VecSink::new());
    let _summary = SummarySink::new();
}

#[test]
fn push_api_reachable_from_prelude() {
    // The live-stream surface: push_source, PollSlot, ServiceConfig /
    // ServiceExit, PolicyTelemetry and DecisionContext are prelude items.
    let cluster = Arc::new(Cluster::homogeneous(2, 5));
    let trace = TraceConfig {
        hours: 6,
        peak_arrival_rate: 0.4 * cluster.max_capacity(),
        onsite_energy_kwh: 5.0,
        offsite_energy_kwh: 5.0,
        ..Default::default()
    }
    .generate();
    let cost = CostParams::default();

    let (handle, source): (PushHandle, PushSource) = push_source(8);
    for env in trace.slots() {
        handle.push(env).expect("push");
    }
    assert!(matches!(handle.push(trace.slots().next().unwrap()), Err(PushError::OutOfOrder { .. })));
    handle.close();

    let mut engine = EngineBuilder::new(Arc::clone(&cluster), cost)
        .rec_total(10.0)
        .policy(Box::new(CarbonUnaware::new(Arc::clone(&cluster), cost, SymmetricSolver::new())))
        .build(source)
        .expect("engine");
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut checkpoints: Vec<EngineState> = Vec::new();
    let exit = engine
        .run_service(&ServiceConfig { checkpoint_every: Some(3), ..Default::default() }, &stop, |s| {
            checkpoints.push(s.clone());
            Ok(())
        })
        .expect("service");
    assert_eq!(exit, ServiceExit::Closed);
    assert!(!checkpoints.is_empty());
    let outcomes = engine.into_outcomes().expect("outcomes");
    assert_eq!(outcomes[0].len(), 6);

    // Telemetry + decision-context types are constructible downstream.
    let tele = PolicyTelemetry { deficit_kwh: 0.0, frame_pos: 0, v: 1.0 };
    let levels = [1usize];
    let loads = [0.5f64];
    let ctx = DecisionContext { levels: &levels, loads: &loads, telemetry: Some(tele) };
    assert_eq!(ctx.levels.len(), ctx.loads.len());
    let _closed: PollSlot = PollSlot::Closed;
}

#[test]
fn serve_wire_surface_reachable_from_prelude() {
    // The service's wire vocabulary — InMsg/OutMsg/DecisionMsg, SlotEnv,
    // ServeConfig/ServeReport, WireSink — is prelude-importable, and a
    // whole in-memory service run is drivable from it.
    let env = SlotEnv { t: 0, arrival_rate: 2.0, onsite: 0.5, price: 0.08, offsite: 0.25 };
    let line = InMsg::Slot(env).to_line();
    assert!(matches!(InMsg::parse(&line), Ok(InMsg::Slot(back)) if back == env));

    let msg = OutMsg::Decision(DecisionMsg {
        t: 0,
        policy: "coca".into(),
        levels: vec![1, 2],
        loads: vec![1.0, 1.0],
        servers_on: 10,
        total_cost: 3.5,
        brown_energy: 0.2,
        telemetry: Some(PolicyTelemetry { deficit_kwh: 0.1, frame_pos: 0, v: 100.0 }),
    });
    let parsed = OutMsg::parse(&msg.to_line()).expect("round-trip");
    assert_eq!(parsed, msg);

    // run_batch over an NDJSON stream, configured entirely through
    // prelude types.
    let cfg = ServeConfig {
        groups: 2,
        servers_per_group: 5,
        rec_total: 10.0,
        ..Default::default()
    };
    let trace = TraceConfig {
        hours: 6,
        peak_arrival_rate: 8.0,
        onsite_energy_kwh: 5.0,
        offsite_energy_kwh: 5.0,
        ..Default::default()
    }
    .generate();
    let mut ndjson = String::new();
    for env in trace.slots() {
        ndjson.push_str(&InMsg::Slot(env).to_line());
        ndjson.push('\n');
    }
    ndjson.push_str(&InMsg::End.to_line());
    let publisher = coca::serve::Publisher::new();
    let report: ServeReport = coca::serve::run_batch(
        &cfg,
        Box::new(std::io::Cursor::new(ndjson.into_bytes())),
        Arc::clone(&publisher),
        Arc::new(MetricsRegistry::new()),
    )
    .expect("batch service run");
    assert_eq!(report.slots, 6);
    assert_eq!(report.outcome.len(), 6);
    let _sink_ty = std::marker::PhantomData::<WireSink>;
}

#[test]
fn deficit_queue_and_gsd_options_exported() {
    let mut q = DeficitQueue::new(1.0, 100.0, 100);
    q.update(5.0, 1.0);
    assert!(q.len() > 0.0);
    let opts = GsdOptions::default();
    assert_eq!(opts.iterations, 500);
    let mut gsd = GsdSolver::new(opts);
    let stats: &SolveStats = gsd.stats();
    assert_eq!(stats.iterations, 0);
    gsd.set_observer(Arc::new(NoopObserver));
    // A policy observation can be constructed by library users.
    let obs = SlotObservation { t: 0, arrival_rate: 1.0, onsite: 0.0, price: 0.05 };
    assert_eq!(obs.t, 0);
    // Solver-level tracing vocabulary is deliberately *not* in the prelude;
    // it remains importable from the obs crate directly.
    assert_eq!(coca::obs::Phase::Solve.name(), "solve");
    assert!(!EngineObserver::timing_enabled(&NoopObserver));
}
