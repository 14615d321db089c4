//! Service wiring: ingest thread → push channel → engine →
//! wire sink / metrics / checkpoints.
//!
//! [`run_stream`] is the resident path: it restores from a checkpoint when
//! asked, spawns the reader thread, and drives
//! [`SimEngine::run_service`](coca_dcsim::SimEngine::run_service) until
//! the stream closes or the stop flag is raised (SIGTERM), checkpointing
//! durably through
//! [`coca_dcsim::checkpoint`] on the configured cadence and always once at
//! exit. Checkpoints hold controller state only — the decisions already
//! went out on the wire — so their size does not grow with uptime.
//! [`run_batch`] is the same pipeline minus residency — the whole stream
//! is materialized first and the engine runs to completion — and exists so
//! stream-vs-batch bit-identity is a one-`diff` property ingrained in the
//! test suite.

use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use coca_core::{CocaConfig, CocaController, SymmetricSolver, VSchedule};
use coca_dcsim::{
    push_source_at, CheckpointError, Cluster, CostParams, EngineBuilder, EngineState,
    ServiceConfig, ServiceExit, SimOutcome,
};
use coca_obs::{MetricsObserver, MetricsRegistry};
use coca_traces::EnvironmentTrace;

use crate::ingest::run_ingest;
use crate::proto::{InMsg, OutMsg};
use crate::publish::Publisher;
use crate::sink::WireSink;

/// Everything the service needs to build its cluster and controller.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Homogeneous server groups in the fleet.
    pub groups: usize,
    /// Servers per group.
    pub servers_per_group: usize,
    /// Cost model.
    pub cost: CostParams,
    /// Lyapunov weight V (constant schedule).
    pub v: f64,
    /// Frame length T (slots between deficit-queue resets).
    pub frame_length: usize,
    /// Budgeting-period length J (slots).
    pub horizon: usize,
    /// Capping aggressiveness α.
    pub alpha: f64,
    /// Total RECs Z for the period (kWh).
    pub rec_total: f64,
    /// Push-channel capacity (bounds producer lead; backpressure beyond).
    pub queue_capacity: usize,
    /// Checkpoint file; required for `--resume` and cadence checkpoints.
    pub checkpoint_path: Option<PathBuf>,
    /// Checkpoint every `n` slots (`None`: only at shutdown).
    pub checkpoint_every: Option<usize>,
    /// Resume from `checkpoint_path` instead of starting at slot 0.
    pub resume: bool,
    /// Raise the stop flag once this slot has been simulated *and*
    /// checkpointed — deterministic shutdown injection for tests/CI.
    /// Requires a checkpoint cadence that lands on the slot.
    pub stop_at_slot: Option<usize>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            groups: 4,
            servers_per_group: 10,
            cost: CostParams::default(),
            v: 100.0,
            frame_length: 24,
            horizon: 72,
            alpha: 1.0,
            rec_total: 100.0,
            queue_capacity: 64,
            checkpoint_path: None,
            checkpoint_every: None,
            resume: false,
            stop_at_slot: None,
        }
    }
}

/// What a completed service run reports back.
#[derive(Debug)]
pub struct ServeReport {
    /// Why the run ended.
    pub exit: ServiceExit,
    /// The slot the run stands at: slots simulated in total, including any
    /// prefix decided by an earlier process before a resume.
    pub slots: usize,
    /// The outcome over the slots *this process* decided. After a resume
    /// from slot `k` its records are slots `k..slots`; the earlier ones
    /// went out on the wire and are not kept in checkpoints.
    pub outcome: SimOutcome,
}

impl ServeConfig {
    /// Checks the fleet, the COCA configuration (frame length divides the
    /// horizon, α, Z, V) and the cost model, so a bad flag is an error
    /// naming the problem rather than a panic in the controller.
    /// [`run_stream`] and [`run_batch`] call it before doing anything else.
    pub fn validate(&self) -> Result<(), String> {
        if self.groups == 0 || self.servers_per_group == 0 {
            return Err("fleet must have at least one group and one server".into());
        }
        self.coca_config().validate()?;
        self.cost.validate().map_err(|e| e.to_string())
    }

    fn coca_config(&self) -> CocaConfig {
        CocaConfig {
            v: VSchedule::Constant(self.v),
            frame_length: self.frame_length,
            horizon: self.horizon,
            alpha: self.alpha,
            rec_total: self.rec_total,
        }
    }

    /// The controller for a [validated](Self::validate) configuration.
    fn controller(
        &self,
        cluster: &Arc<Cluster>,
        observer: &Arc<MetricsObserver>,
    ) -> CocaController<SymmetricSolver> {
        let mut solver = SymmetricSolver::new();
        solver.set_observer(Arc::clone(observer) as _);
        let mut controller =
            CocaController::new(Arc::clone(cluster), self.cost, self.coca_config(), solver);
        controller.set_observer(Arc::clone(observer) as _);
        controller
    }

    fn cluster(&self) -> Arc<Cluster> {
        Arc::new(Cluster::homogeneous(self.groups, self.servers_per_group))
    }
}

/// Loads an [`EngineState`] checkpoint from disk
/// ([`coca_dcsim::read_checkpoint`] with a `String` error). A file in
/// another format version is an error naming the version this build reads.
pub fn read_checkpoint(path: &Path) -> Result<EngineState, String> {
    coca_dcsim::read_checkpoint(path).map_err(|e| match e {
        CheckpointError::Io { .. } => e.to_string(),
        _ => format!("checkpoint {}: {e}", path.display()),
    })
}

/// Writes an [`EngineState`] checkpoint durably and atomically
/// ([`coca_dcsim::write_checkpoint`] with a `String` error).
pub fn write_checkpoint(path: &Path, state: &EngineState) -> Result<(), String> {
    coca_dcsim::write_checkpoint(path, state).map_err(|e| e.to_string())
}

/// Runs the resident service over a live NDJSON stream.
///
/// The reader thread is detached, not joined: on a stop-flag exit it may
/// legitimately be parked in a blocking read on a quiet stream, and the
/// push channel's `receiver_gone` close makes its eventual death clean.
pub fn run_stream(
    cfg: &ServeConfig,
    input: Box<dyn BufRead + Send>,
    publisher: Arc<Publisher>,
    registry: Arc<MetricsRegistry>,
    stop: Arc<AtomicBool>,
) -> Result<ServeReport, String> {
    cfg.validate()?;
    let cluster = cfg.cluster();
    let observer = Arc::new(MetricsObserver::new(Arc::clone(&registry)));
    let controller = cfg.controller(&cluster, &observer);

    let resumed = if cfg.resume {
        let path = cfg
            .checkpoint_path
            .as_deref()
            .ok_or_else(|| "--resume requires a checkpoint path".to_string())?;
        Some(read_checkpoint(path)?)
    } else {
        None
    };
    let first_slot = resumed.as_ref().map_or(0, |s| s.t);

    let (handle, source) = push_source_at(cfg.queue_capacity, first_slot);
    let mut engine = EngineBuilder::new(Arc::clone(&cluster), cfg.cost)
        .rec_total(cfg.rec_total)
        .observer(Arc::clone(&observer) as _)
        .policy_with_sink(
            Box::new(controller),
            Box::new(WireSink::new("coca", Arc::clone(&publisher))),
        )
        .build(source)
        .map_err(|e| e.to_string())?;
    if let Some(state) = &resumed {
        engine.restore(state).map_err(|e| e.to_string())?;
    }

    std::thread::spawn(move || {
        // Errors are already typed into the closed channel; nothing to do.
        let _ = run_ingest(input, &handle);
    });

    let checkpoint_slot = registry.gauge("serve_checkpoint_slot");
    let checkpoint_path = cfg.checkpoint_path.clone();
    let stop_at = cfg.stop_at_slot;
    let stop_for_hook = Arc::clone(&stop);
    let service_cfg =
        ServiceConfig { checkpoint_every: cfg.checkpoint_every, ..Default::default() };
    let exit = engine
        .run_service(&service_cfg, &stop, |state| {
            if let Some(path) = &checkpoint_path {
                coca_dcsim::write_checkpoint(path, state)?;
            }
            checkpoint_slot.record(state.t, state.t as f64);
            if stop_at.is_some_and(|n| state.t >= n) {
                // audit:atomic(stop-flag raise; SeqCst pairs with run_service's read)
                stop_for_hook.store(true, std::sync::atomic::Ordering::SeqCst);
            }
            Ok(())
        })
        .map_err(|e| e.to_string())?;

    let slots = engine.t();
    publisher.publish(&OutMsg::End { slots });
    let outcome = engine
        .into_outcomes()
        .map_err(|e| e.to_string())?
        .pop()
        .expect("exactly one lane");
    Ok(ServeReport { exit, slots, outcome })
}

/// Materializes the whole ingest stream, then runs the engine to the end —
/// the reference the stream path is diffed against.
pub fn run_batch(
    cfg: &ServeConfig,
    input: Box<dyn BufRead + Send>,
    publisher: Arc<Publisher>,
    registry: Arc<MetricsRegistry>,
) -> Result<ServeReport, String> {
    cfg.validate()?;
    if cfg.resume {
        return Err("batch mode does not support --resume".into());
    }
    let trace = read_trace_ndjson(input)?;
    let cluster = cfg.cluster();
    let observer = Arc::new(MetricsObserver::new(Arc::clone(&registry)));
    let controller = cfg.controller(&cluster, &observer);
    let mut engine = EngineBuilder::new(Arc::clone(&cluster), cfg.cost)
        .rec_total(cfg.rec_total)
        .observer(Arc::clone(&observer) as _)
        .policy_with_sink(
            Box::new(controller),
            Box::new(WireSink::new("coca", Arc::clone(&publisher))),
        )
        .build(&trace)
        .map_err(|e| e.to_string())?;
    engine.run_to_end().map_err(|e| e.to_string())?;
    let slots = engine.t();
    publisher.publish(&OutMsg::End { slots });
    let outcome = engine
        .into_outcomes()
        .map_err(|e| e.to_string())?
        .pop()
        .expect("exactly one lane");
    Ok(ServeReport { exit: ServiceExit::Closed, slots, outcome })
}

/// Parses a full ingest NDJSON stream into an [`EnvironmentTrace`].
pub fn read_trace_ndjson(input: Box<dyn BufRead + Send>) -> Result<EnvironmentTrace, String> {
    let mut trace = EnvironmentTrace {
        workload: Vec::new(),
        onsite: Vec::new(),
        offsite: Vec::new(),
        price: Vec::new(),
    };
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("read line {}: {e}", i + 1))?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match InMsg::parse(trimmed).map_err(|e| format!("line {}: {e}", i + 1))? {
            InMsg::End => break,
            InMsg::Slot(env) => {
                if env.t != trace.workload.len() {
                    return Err(format!(
                        "line {}: slot {} out of order (expected {})",
                        i + 1,
                        env.t,
                        trace.workload.len()
                    ));
                }
                trace.workload.push(env.arrival_rate);
                trace.onsite.push(env.onsite);
                trace.offsite.push(env.offsite);
                trace.price.push(env.price);
            }
        }
    }
    trace.validate()?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::replay;
    use crate::sink::tests::SharedBuf;
    use coca_traces::TraceConfig;

    fn test_cfg() -> ServeConfig {
        ServeConfig { groups: 2, servers_per_group: 5, rec_total: 10.0, ..Default::default() }
    }

    fn test_trace(hours: usize) -> EnvironmentTrace {
        let cluster = Cluster::homogeneous(2, 5);
        TraceConfig {
            hours,
            peak_arrival_rate: 0.4 * cluster.max_capacity(),
            onsite_energy_kwh: 5.0,
            offsite_energy_kwh: 5.0,
            ..Default::default()
        }
        .generate()
    }

    fn ndjson(trace: &EnvironmentTrace) -> Vec<u8> {
        let mut buf = Vec::new();
        replay(trace, 0, 0.0, &mut buf).unwrap();
        buf
    }

    #[test]
    fn stream_and_batch_runs_are_bit_identical() {
        let trace = test_trace(30);
        let input = ndjson(&trace);

        let stream_report = run_stream(
            &test_cfg(),
            Box::new(std::io::Cursor::new(input.clone())),
            Publisher::new(),
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        assert_eq!(stream_report.exit, ServiceExit::Closed);
        assert_eq!(stream_report.slots, 30);

        let batch_report = run_batch(
            &test_cfg(),
            Box::new(std::io::Cursor::new(input)),
            Publisher::new(),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        assert_eq!(stream_report.outcome, batch_report.outcome, "bit-exact equivalence");
    }

    /// A publisher plus a handle on its decision lines.
    fn capture() -> (Arc<Publisher>, Arc<std::sync::Mutex<Vec<u8>>>) {
        let publisher = Publisher::new();
        let buf = Arc::new(std::sync::Mutex::new(Vec::new()));
        publisher.subscribe(Box::new(SharedBuf(Arc::clone(&buf))));
        (publisher, buf)
    }

    fn decision_lines(buf: &std::sync::Mutex<Vec<u8>>) -> Vec<String> {
        String::from_utf8(buf.lock().unwrap().clone())
            .unwrap()
            .lines()
            .filter(|l| l.contains("\"type\":\"decision\""))
            .map(str::to_string)
            .collect()
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("coca-serve-test-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Serves `trace` from slot 0, checkpointing to `ckpt` at exit.
    fn serve_to_end(trace: &EnvironmentTrace, ckpt: &Path) -> ServeReport {
        let cfg = ServeConfig { checkpoint_path: Some(ckpt.to_path_buf()), ..test_cfg() };
        run_stream(
            &cfg,
            Box::new(std::io::Cursor::new(ndjson(trace))),
            Publisher::new(),
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap()
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        let trace = test_trace(24);
        let dir = scratch_dir("resume");
        let ckpt = dir.join("resume-test.ckpt.json");

        // Uninterrupted reference.
        let (publisher, reference_buf) = capture();
        let reference = run_stream(
            &test_cfg(),
            Box::new(std::io::Cursor::new(ndjson(&trace))),
            publisher,
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();

        // Interrupted run: stop after slot 12 (checkpoint cadence 4).
        let cfg = ServeConfig {
            checkpoint_path: Some(ckpt.clone()),
            checkpoint_every: Some(4),
            stop_at_slot: Some(12),
            ..test_cfg()
        };
        let (publisher, first_buf) = capture();
        let first = run_stream(
            &cfg,
            Box::new(std::io::Cursor::new(ndjson(&trace))),
            publisher,
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        assert_eq!(first.exit, ServiceExit::Stopped);
        assert_eq!(first.slots, 12);
        assert_eq!(first.outcome.records[..], reference.outcome.records[..12]);

        // Resume: feed the remainder of the stream from slot 12.
        let mut rest = Vec::new();
        replay(&trace, 12, 0.0, &mut rest).unwrap();
        let cfg = ServeConfig { resume: true, stop_at_slot: None, ..cfg };
        let (publisher, resumed_buf) = capture();
        let resumed = run_stream(
            &cfg,
            Box::new(std::io::Cursor::new(rest)),
            publisher,
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap();
        assert_eq!(resumed.exit, ServiceExit::Closed);
        assert_eq!(resumed.slots, 24);
        // The resumed process reports on the slots it decided, bit-exactly.
        assert_eq!(resumed.outcome.records[..], reference.outcome.records[12..]);
        // The two decision streams concatenate to the reference stream.
        let mut streamed = decision_lines(&first_buf);
        streamed.extend(decision_lines(&resumed_buf));
        assert_eq!(streamed.len(), 24);
        assert_eq!(streamed, decision_lines(&reference_buf), "resume is bit-exact on the wire");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// The structure of a JSON value with its numbers and strings erased:
    /// two checkpoints of the same fleet must agree on it at any `t`.
    fn shape(v: &serde::Value) -> String {
        match v {
            serde::Value::Map(m) => {
                let fields: Vec<String> =
                    m.iter().map(|(k, v)| format!("{k}:{}", shape(v))).collect();
                format!("{{{}}}", fields.join(","))
            }
            serde::Value::Seq(items) => {
                let items: Vec<String> = items.iter().map(shape).collect();
                format!("[{}]", items.join(","))
            }
            serde::Value::Null => "null".to_string(),
            serde::Value::Bool(_) => "bool".to_string(),
            serde::Value::Int(_) | serde::Value::Float(_) => "num".to_string(),
            serde::Value::Str(_) => "str".to_string(),
        }
    }

    #[test]
    fn serve_checkpoint_size_is_independent_of_t() {
        let dir = scratch_dir("size");
        let short = dir.join("t24.ckpt.json");
        let long = dir.join("t240.ckpt.json");
        assert_eq!(serve_to_end(&test_trace(24), &short).slots, 24);
        assert_eq!(serve_to_end(&test_trace(240), &long).slots, 240);
        let short = std::fs::read_to_string(&short).unwrap();
        let long = std::fs::read_to_string(&long).unwrap();
        assert!(long.len() < 1024, "{} bytes at t = 240: {long}", long.len());
        // Ten times the uptime, the same state: identical structure, and a
        // size that differs only by the printed width of its numbers (t
        // itself gains a digit).
        let parse = |text: &str| serde_json::from_str::<serde::Value>(text).unwrap();
        assert_eq!(shape(&parse(&short)), shape(&parse(&long)));
        assert!(long.len().abs_diff(short.len()) <= 32, "{short}\n{long}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_a_pre_marker_checkpoint_names_the_expected_version() {
        let trace = test_trace(12);
        let dir = scratch_dir("old-format");
        let ckpt = dir.join("old.ckpt.json");
        serve_to_end(&trace, &ckpt);
        // Rewrite it in the unmarked format: a bare EngineState whose lane
        // carries its record history and the controller's q_history.
        let mut state = read_checkpoint(&ckpt).unwrap();
        let lane = &mut state.lanes[0];
        lane.records = serve_to_end(&trace, &dir.join("again.ckpt.json")).outcome.records;
        if let serde::Value::Map(fields) = &mut lane.policy_state {
            let q_history = serde::Value::Seq(vec![serde::Value::Float(0.0); 12]);
            fields.push(("q_history".to_string(), q_history));
        }
        std::fs::write(&ckpt, serde_json::to_string(&state).unwrap()).unwrap();

        let cfg = ServeConfig { checkpoint_path: Some(ckpt), resume: true, ..test_cfg() };
        let err = run_stream(
            &cfg,
            Box::new(std::io::Cursor::new(Vec::new())),
            Publisher::new(),
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap_err();
        assert!(err.contains("version 2"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_fleet_batch_stream_matches_the_value_tree_oracle() {
        // The paper fleet (200 groups × 1080 servers): full-length levels
        // and loads lines, with runs of equal values across each partition.
        let cfg = ServeConfig {
            groups: 200,
            servers_per_group: 1080,
            rec_total: 5000.0,
            ..Default::default()
        };
        let cluster = Cluster::homogeneous(cfg.groups, cfg.servers_per_group);
        let trace = TraceConfig {
            hours: 24,
            peak_arrival_rate: 0.5 * cluster.max_capacity(),
            onsite_energy_kwh: 500.0,
            offsite_energy_kwh: 500.0,
            ..Default::default()
        }
        .generate();
        let (publisher, buf) = capture();
        run_batch(
            &cfg,
            Box::new(std::io::Cursor::new(ndjson(&trace))),
            publisher,
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 25, "24 decisions and the end line");
        for line in lines {
            let msg = OutMsg::parse(line).unwrap();
            if let OutMsg::Decision(d) = &msg {
                assert_eq!(d.levels.len(), 200);
                assert_eq!(d.loads.len(), 200);
            }
            assert_eq!(line, crate::proto::tests::oracle_out(&msg));
        }
    }

    #[test]
    fn invalid_configs_are_errors_before_any_work() {
        let horizon = ServeConfig { horizon: 200, ..test_cfg() };
        let err = horizon.validate().unwrap_err();
        assert!(err.contains("horizon 200") && err.contains("frame length 24"), "{err}");
        let mut cost = test_cfg();
        cost.cost.gamma = 1.5;
        assert!(cost.validate().unwrap_err().contains("gamma"));
        let alpha = ServeConfig { alpha: 0.0, ..test_cfg() };
        assert!(alpha.validate().is_err());
        let fleet = ServeConfig { groups: 0, ..test_cfg() };
        assert!(fleet.validate().is_err());
        assert!(test_cfg().validate().is_ok());

        // The service entry points refuse it without reading the input.
        let err = run_stream(
            &horizon,
            Box::new(std::io::Cursor::new(Vec::new())),
            Publisher::new(),
            Arc::new(MetricsRegistry::new()),
            Arc::new(AtomicBool::new(false)),
        )
        .unwrap_err();
        assert!(err.contains("horizon 200"), "{err}");
        let err = run_batch(
            &horizon,
            Box::new(std::io::Cursor::new(Vec::new())),
            Publisher::new(),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap_err();
        assert!(err.contains("horizon 200"), "{err}");
    }

    #[test]
    fn ndjson_trace_parse_rejects_disorder() {
        let trace = test_trace(3);
        let mut buf = Vec::new();
        replay(&trace, 1, 0.0, &mut buf).unwrap();
        let err =
            read_trace_ndjson(Box::new(std::io::Cursor::new(buf))).unwrap_err();
        assert!(err.contains("out of order"), "{err}");
    }
}
