//! The resident service, assembled from `coca_serve`'s public pieces the
//! way `coca_serve::service::run_stream` assembles it, with a timer at
//! every seam: a timing `Policy` around the COCA controller, a timing
//! `RecordSink` around the `WireSink`, a timing `SlotSource` around the
//! push channel, a timed ingest loop (`InMsg::parse` + `PushHandle::push`),
//! a timing subscriber behind the `Publisher`, and an engine/solver
//! observer that forwards to the service's `MetricsObserver`.
//!
//! `live` sessions are closed loops: a client thread hands slot `t` to the
//! reader and waits for decision `t` before handing over slot `t + 1`.
//! `backfill` sessions read the whole year from a file, unpaced.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use coca_core::{CocaConfig, CocaController, SymmetricSolver, VSchedule};
use coca_dcsim::{
    push_source_at, Cluster, CostParams, Decision, DecisionContext, EngineBuilder, Policy,
    PolicyTelemetry, PollSlot, PushError, PushHandle, RecordSink, ServiceConfig, ServiceExit,
    SimError, SlotFeedback, SlotObservation, SlotRecord, SlotSource,
};
use coca_obs::{
    EngineObserver, MetricsObserver, MetricsRegistry, Phase, SolveEvent, SolverObserver,
};
use coca_serve::{read_checkpoint, write_checkpoint, InMsg, OutMsg, Publisher, WireSink};
use serde::Value;

use crate::timing::{Count, Timer};
use crate::{count, floats, invariant_checks, object, Flags};

/// Every timed seam of the service, summed over all sessions of a run.
#[derive(Debug)]
struct Layers {
    base: Instant,
    /// Nanoseconds since `base` at the last engine event after which the
    /// engine may start a checkpoint (slot end, or the source closing).
    mark: AtomicU64,
    decide: Timer,
    solves: Count,
    iterations: Count,
    source_wait: Timer,
    push_block: Timer,
    restore: Timer,
    checkpoint: Timer,
    parse: Timer,
    sink: Timer,
    publish: Timer,
    decision_bytes: Count,
    ckpt_write: Timer,
    ckpt_bytes: Count,
    ckpt_read: Timer,
    rejected: Count,
}

impl Layers {
    fn new() -> Self {
        Self {
            base: Instant::now(),
            mark: AtomicU64::new(0),
            decide: Timer::sampled(),
            solves: Count::default(),
            iterations: Count::default(),
            source_wait: Timer::total(),
            push_block: Timer::total(),
            restore: Timer::total(),
            checkpoint: Timer::total(),
            parse: Timer::sampled(),
            sink: Timer::total(),
            publish: Timer::total(),
            decision_bytes: Count::default(),
            ckpt_write: Timer::total(),
            ckpt_bytes: Count::default(),
            ckpt_read: Timer::total(),
            rejected: Count::default(),
        }
    }

    fn now_nanos(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn set_mark(&self) {
        self.mark.store(self.now_nanos(), Ordering::Relaxed);
    }

    fn since_mark(&self) -> Duration {
        Duration::from_nanos(
            self.now_nanos()
                .saturating_sub(self.mark.load(Ordering::Relaxed)),
        )
    }
}

/// Times `Policy::decide` of the wrapped controller.
struct TimedPolicy<P> {
    inner: P,
    layers: Arc<Layers>,
}

impl<P: Policy> Policy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn decide(&mut self, obs: &SlotObservation) -> coca_dcsim::Result<Decision> {
        self.layers.decide.time(|| self.inner.decide(obs))
    }
    fn feedback(&mut self, fb: &SlotFeedback) {
        self.inner.feedback(fb);
    }
    fn telemetry(&self) -> Option<PolicyTelemetry> {
        self.inner.telemetry()
    }
    fn reset(&mut self) {
        self.inner.reset();
    }
    fn snapshot(&self) -> coca_dcsim::Result<serde::Value> {
        self.inner.snapshot()
    }
    fn restore(&mut self, state: &serde::Value) -> coca_dcsim::Result<()> {
        self.inner.restore(state)
    }
}

/// Times `WireSink::record_decision` (decision encode + publish).
struct TimedSink {
    inner: WireSink,
    layers: Arc<Layers>,
}

impl RecordSink for TimedSink {
    fn record(&mut self, rec: &SlotRecord) -> Result<(), String> {
        self.inner.record(rec)
    }
    fn record_decision(
        &mut self,
        rec: &SlotRecord,
        ctx: &DecisionContext<'_>,
    ) -> Result<(), String> {
        self.layers
            .sink
            .time(|| self.inner.record_decision(rec, ctx))
    }
    fn collected(&self) -> Option<&[SlotRecord]> {
        self.inner.collected()
    }
    fn take_records(&mut self) -> Option<Vec<SlotRecord>> {
        self.inner.take_records()
    }
    fn restore_records(&mut self, records: &[SlotRecord]) -> Result<(), String> {
        self.inner.restore_records(records)
    }
}

/// Times how long the engine waits on its slot source.
struct TimedSource<S> {
    inner: S,
    layers: Arc<Layers>,
}

impl<S: SlotSource> SlotSource for TimedSource<S> {
    fn poll_slot(&mut self, t: usize) -> PollSlot {
        self.inner.poll_slot(t)
    }
    fn wait_slot(&mut self, t: usize, timeout: Option<Duration>) -> PollSlot {
        let slot = self
            .layers
            .source_wait
            .time(|| self.inner.wait_slot(t, timeout));
        if slot == PollSlot::Closed {
            self.layers.set_mark();
        }
        slot
    }
    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
    fn validate(&self) -> coca_dcsim::Result<()> {
        self.inner.validate()
    }
}

/// Forwards every engine and solver event to the service's
/// `MetricsObserver`, timing `SimEngine::checkpoint` (from the event that
/// precedes it to `on_checkpoint`) and counting symmetric solves.
#[derive(Debug)]
struct Tee {
    metrics: MetricsObserver,
    layers: Arc<Layers>,
}

impl EngineObserver for Tee {
    fn on_slot_start(&self, t: usize) {
        self.metrics.on_slot_start(t);
    }
    fn on_slot_end(&self, t: usize, lanes: usize) {
        self.metrics.on_slot_end(t, lanes);
        self.layers.set_mark();
    }
    fn on_phase(&self, phase: Phase, elapsed: Duration) {
        self.metrics.on_phase(phase, elapsed);
    }
    fn on_checkpoint(&self, t: usize) {
        self.layers.checkpoint.add(self.layers.since_mark());
        self.metrics.on_checkpoint(t);
    }
    fn timing_enabled(&self) -> bool {
        self.metrics.timing_enabled()
    }
}

impl SolverObserver for Tee {
    fn on_solve(&self, ev: &SolveEvent) {
        if ev.solver == "symmetric" {
            self.layers.solves.add(1);
            self.layers.iterations.add(ev.iterations as u64);
        }
        self.metrics.on_solve(ev);
    }
    fn on_deficit(&self, t: usize, q: f64) {
        self.metrics.on_deficit(t, q);
    }
    fn on_frame_reset(&self, t: usize) {
        self.metrics.on_frame_reset(t);
    }
}

/// The decision subscriber: times the publisher's writes and hands each
/// complete line to a channel.
struct Subscriber {
    tx: mpsc::Sender<Vec<u8>>,
    buf: Vec<u8>,
    layers: Arc<Layers>,
}

impl Write for Subscriber {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.layers
            .publish
            .time(|| self.buf.extend_from_slice(data));
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let line = std::mem::take(&mut self.buf);
        self.layers.decision_bytes.add(line.len() as u64);
        let sent = self.tx.send(line);
        self.layers.publish.add(start.elapsed());
        sent.map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "client gone"))
    }
}

/// The live session's stdin: bytes handed over by the client thread.
struct ChannelReader {
    rx: mpsc::Receiver<Vec<u8>>,
    cur: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        while self.pos == self.cur.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.cur = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.cur.len() - self.pos);
        out[..n].copy_from_slice(&self.cur[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// `coca_serve::run_ingest` with `InMsg::parse` and `PushHandle::push`
/// timed separately.
fn ingest(input: Box<dyn BufRead + Send>, handle: &PushHandle, layers: &Layers) {
    for line in input.lines() {
        let Ok(line) = line else {
            layers.rejected.add(1);
            break;
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match layers.parse.time(|| InMsg::parse(trimmed)) {
            Err(_) => {
                layers.rejected.add(1);
                break;
            }
            Ok(InMsg::End) => break,
            Ok(InMsg::Slot(env)) => match layers.push_block.time(|| handle.push(env)) {
                Ok(()) => {}
                Err(PushError::Closed) => break,
                Err(_) => {
                    layers.rejected.add(1);
                    break;
                }
            },
        }
    }
    handle.close();
}

/// The `coca-serve run` flags a session is built from.
struct Config {
    groups: usize,
    servers_per_group: usize,
    v: f64,
    frame: usize,
    horizon: usize,
    rec_total: f64,
    queue_capacity: usize,
    checkpoint_every: Option<usize>,
    ckpt: PathBuf,
}

/// Engine-side registry totals of one session.
#[derive(Default)]
struct EngineTotals {
    slots: u64,
    env_prep: f64,
    solve: f64,
    record: f64,
}

impl EngineTotals {
    fn add(&mut self, registry: &MetricsRegistry) {
        let snap = registry.snapshot();
        let sum = |name: &str| snap.histogram(name).map_or(0.0, |h| h.sum);
        self.slots += snap.counter("engine_slots_total").unwrap_or(0);
        self.env_prep += sum("engine_phase_env_prep_seconds");
        self.solve += sum("engine_phase_solve_seconds");
        self.record += sum("engine_phase_record_seconds");
    }
}

/// One resumed service session, from checkpoint read to the end message.
/// Returns the number of slots the engine stands at when it exits.
fn session(
    cfg: &Config,
    layers: &Arc<Layers>,
    totals: &mut EngineTotals,
    input: Box<dyn BufRead + Send>,
    subscriber: Subscriber,
) -> Result<usize, String> {
    let registry = Arc::new(MetricsRegistry::new());
    let publisher = Publisher::new();
    publisher.subscribe(Box::new(subscriber));
    let state = layers.ckpt_read.time(|| read_checkpoint(&cfg.ckpt))?;

    let cost = CostParams::default();
    let cluster = Arc::new(Cluster::homogeneous(cfg.groups, cfg.servers_per_group));
    let tee = Arc::new(Tee {
        metrics: MetricsObserver::new(Arc::clone(&registry)),
        layers: Arc::clone(layers),
    });
    let mut solver = SymmetricSolver::new();
    solver.set_observer(Arc::clone(&tee) as _);
    let coca_cfg = CocaConfig {
        v: VSchedule::Constant(cfg.v),
        frame_length: cfg.frame,
        horizon: cfg.horizon,
        alpha: 1.0,
        rec_total: cfg.rec_total,
    };
    let mut controller = CocaController::new(Arc::clone(&cluster), cost, coca_cfg, solver);
    controller.set_observer(Arc::clone(&tee) as _);

    let (handle, source) = push_source_at(cfg.queue_capacity, state.t);
    let mut engine = EngineBuilder::new(cluster, cost)
        .rec_total(cfg.rec_total)
        .observer(Arc::clone(&tee) as _)
        .policy_with_sink(
            Box::new(TimedPolicy {
                inner: controller,
                layers: Arc::clone(layers),
            }),
            Box::new(TimedSink {
                inner: WireSink::new("coca", Arc::clone(&publisher)),
                layers: Arc::clone(layers),
            }),
        )
        .build(TimedSource {
            inner: source,
            layers: Arc::clone(layers),
        })
        .map_err(|e| e.to_string())?;
    layers
        .restore
        .time(|| engine.restore(&state))
        .map_err(|e| e.to_string())?;

    let reader_layers = Arc::clone(layers);
    let reader = std::thread::spawn(move || ingest(input, &handle, &reader_layers));

    let checkpoint_slot = registry.gauge("serve_checkpoint_slot");
    let stop = AtomicBool::new(false);
    let service_cfg = ServiceConfig {
        checkpoint_every: cfg.checkpoint_every,
        ..ServiceConfig::default()
    };
    let exit = engine
        .run_service(&service_cfg, &stop, |st| {
            layers
                .ckpt_write
                .time(|| write_checkpoint(&cfg.ckpt, st))
                .map_err(SimError::Internal)?;
            let bytes = std::fs::metadata(&cfg.ckpt).map_or(0, |m| m.len());
            layers.ckpt_bytes.add(bytes);
            checkpoint_slot.record(st.t, st.t as f64);
            Ok(())
        })
        .map_err(|e| e.to_string())?;
    let slots = engine.t();
    publisher.publish(&OutMsg::End { slots });
    engine.into_outcomes().map_err(|e| e.to_string())?;
    reader
        .join()
        .map_err(|_| "ingest thread panicked".to_string())?;
    if exit != ServiceExit::Closed {
        return Err(format!("session ended with {exit:?}"));
    }
    totals.add(&registry);
    Ok(slots)
}

/// The slot lines of an NDJSON ingest file, each with its newline.
fn slot_lines(path: &Path) -> Result<Vec<Vec<u8>>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    Ok(text
        .lines()
        .filter(|l| l.contains("\"slot\""))
        .map(|l| format!("{l}\n").into_bytes())
        .collect())
}

/// `serve`: runs traced sessions for `--seconds` (at least one), writing
/// each session's decision stream to `<work>/traced-<i>.ndjson`.
pub fn traced(flags: &Flags) -> Result<Value, String> {
    let live = match flags.str("mode")? {
        "live" => true,
        "backfill" => false,
        other => return Err(format!("--mode {other:?}: want live or backfill")),
    };
    let resume_ckpt = PathBuf::from(flags.str("resume-ckpt")?);
    let input = PathBuf::from(flags.str("input")?);
    let work = PathBuf::from(flags.str("work")?);
    let seconds: f64 = flags.get("seconds")?;
    let cfg = Config {
        groups: flags.get("groups")?,
        servers_per_group: flags.get("servers-per-group")?,
        v: flags.get("v")?,
        frame: flags.get("frame")?,
        horizon: flags.get("horizon")?,
        rec_total: flags.get("rec-total")?,
        queue_capacity: flags.get("queue-capacity")?,
        checkpoint_every: flags.opt("checkpoint-every")?,
        ckpt: work.join("traced.ckpt"),
    };
    let lines = if live {
        slot_lines(&input)?
    } else {
        Vec::new()
    };

    let layers = Arc::new(Layers::new());
    let mut totals = EngineTotals::default();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    let mut slots = 0;
    let run_start = Instant::now();
    while walls.is_empty() || run_start.elapsed().as_secs_f64() < seconds {
        std::fs::copy(&resume_ckpt, &cfg.ckpt)
            .map_err(|e| format!("copy {}: {e}", resume_ckpt.display()))?;
        let (out_tx, out_rx) = mpsc::channel::<Vec<u8>>();
        let subscriber = Subscriber {
            tx: out_tx,
            buf: Vec::new(),
            layers: Arc::clone(&layers),
        };
        let out_path = work.join(format!("traced-{}.ndjson", walls.len()));
        let start = Instant::now();
        let (reader, client): (Box<dyn BufRead + Send>, _) = if live {
            let (in_tx, in_rx) = mpsc::channel::<Vec<u8>>();
            let lines = lines.clone();
            let client = std::thread::spawn(move || {
                let mut got = Vec::with_capacity(lines.len() + 1);
                let mut lat = Vec::with_capacity(lines.len());
                for line in lines {
                    let sent = Instant::now();
                    if in_tx.send(line).is_err() {
                        break;
                    }
                    let Ok(decision) = out_rx.recv() else { break };
                    lat.push(sent.elapsed().as_secs_f64());
                    got.push(decision);
                }
                drop(in_tx);
                got.extend(out_rx.iter());
                (got, lat)
            });
            let reader = ChannelReader {
                rx: in_rx,
                cur: Vec::new(),
                pos: 0,
            };
            (Box::new(BufReader::new(reader)), client)
        } else {
            let file = std::fs::File::open(&input)
                .map_err(|e| format!("open {}: {e}", input.display()))?;
            let client = std::thread::spawn(move || (out_rx.iter().collect(), Vec::new()));
            (Box::new(BufReader::new(file)), client)
        };
        let outcome = session(&cfg, &layers, &mut totals, reader, subscriber);
        let (got, lat): (Vec<Vec<u8>>, Vec<f64>) = client
            .join()
            .map_err(|_| "client thread panicked".to_string())?;
        slots = outcome?;
        walls.push(start.elapsed().as_secs_f64());
        latencies.extend(lat);
        std::fs::write(&out_path, got.concat())
            .map_err(|e| format!("write {}: {e}", out_path.display()))?;
    }

    let secs = |t: &Timer| Value::Float(t.secs());
    Ok(object([
        ("sessions", count(walls.len() as u64)),
        ("final_slot", count(slots as u64)),
        ("wall_s", floats(&walls)),
        ("decision_s", floats(&latencies)),
        ("decide_s", floats(&layers.decide.samples())),
        ("parse_s", floats(&layers.parse.samples())),
        ("solves", count(layers.solves.get())),
        ("iterations", count(layers.iterations.get())),
        ("engine_slots", count(totals.slots)),
        ("env_prep_s", Value::Float(totals.env_prep)),
        ("engine_solve_s", Value::Float(totals.solve)),
        ("record_s", Value::Float(totals.record)),
        ("source_wait_s", secs(&layers.source_wait)),
        ("push_block_s", secs(&layers.push_block)),
        ("restore_s", secs(&layers.restore)),
        ("checkpoint_s", secs(&layers.checkpoint)),
        ("sink_s", secs(&layers.sink)),
        ("publish_s", secs(&layers.publish)),
        ("decision_bytes", count(layers.decision_bytes.get())),
        ("ckpt_writes", count(layers.ckpt_write.calls())),
        ("ckpt_write_s", secs(&layers.ckpt_write)),
        ("ckpt_bytes_total", count(layers.ckpt_bytes.get())),
        ("ckpt_read_s", secs(&layers.ckpt_read)),
        ("rejected", count(layers.rejected.get())),
        ("invariant_checks", invariant_checks()),
    ]))
}
