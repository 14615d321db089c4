//! The resumable batch runner: manifests → per-run result files.
//!
//! [`BatchRunner::run_each`] executes every run of one or more
//! [`Manifest`]s through a single [`parallel::sweep`] worker queue. Each
//! manifest keeps its own batch directory:
//!
//! ```text
//! <dir>/manifest.json   canonical manifest (rewritten every invocation)
//! <dir>/status.json     progress counters + per-run states (atomic rewrites)
//! <dir>/runs/<id>.json  one canonical result file per completed run
//! <dir>/ckpt/<id>.json  engine checkpoint of an in-flight lockstep run
//! ```
//!
//! **Shared contexts.** Manifests with the same (scale, workload, budget
//! fraction) share one context: the base setup is built once, V\* is
//! calibrated once per probe count, and the carbon-unaware reference cost
//! and typical slot objectives are computed once.
//!
//! **Run order.** The queue is FIFO and holds the runs of every manifest,
//! sorted costliest first by a deterministic estimate from each run's kind
//! and configuration (lanes, `perfect_hp` lanes, calibration probes,
//! trimmed horizon), so the long runs start early and the short ones fill
//! the tail. Result files do not depend on the order, and the order does
//! not depend on the worker count or on wall times.
//!
//! **Resume semantics** (DESIGN.md §16): a run whose result file exists and
//! parses is skipped outright (run IDs hash the resolved configuration, so
//! a stale result can only match an identical run); a zero-length or torn
//! result file counts as not completed. With `resume`, an in-flight
//! lockstep run whose checkpoint file exists restores from its last frame
//! boundary via [`run_lockstep_checkpointed`]; point kinds (`budget_point`,
//! `frame_reset`, `gsd_trace`, `workloads`) are atomic — interrupted ones
//! simply re-run. Result and status files are written canonically through
//! the fsync'd temp + rename of [`coca_dcsim::checkpoint::write_atomic`],
//! so a resumed batch is byte-identical to an uninterrupted one.
//!
//! Progress flows through the canonical [`BatchMetrics`] counters when a
//! registry is attached, and through [`coca_obs::logger`] spans.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use coca_baselines::{CarbonUnaware, PerfectHp};
use coca_core::symmetric::SymmetricSolver;
use coca_core::{CocaController, VSchedule};
use coca_dcsim::{checkpoint, Policy};
use coca_experiments::figures;
use coca_experiments::parallel;
use coca_experiments::runtime::{run_lockstep_checkpointed, Checkpointing, RunOptions};
use coca_experiments::setup::{unaware_reference, ExperimentScale, PaperSetup};
use coca_obs::logger::{self, Span};
use coca_obs::{BatchMetrics, MetricsRegistry};
use coca_traces::{WorkloadKind, WorkloadTrace};
use serde::Value;

use crate::manifest::{canonical_json, scale_value, Manifest, RunEntry};
use crate::spec::{num, str_of, uint};

/// How a batch executes: directory, parallelism, resume and test hooks.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Batch directory (holds `manifest.json`, `status.json`, `runs/`,
    /// `ckpt/`). For [`BatchRunner::batch`], the root holding one such
    /// directory per manifest, named after its spec.
    pub dir: PathBuf,
    /// Worker threads (`0` = the process default, see
    /// [`parallel::effective_workers`]).
    pub workers: usize,
    /// Skip completed runs and restore in-flight lockstep runs from their
    /// checkpoints.
    pub resume: bool,
    /// Smoke-gate hook: stop scheduling new runs once this many have
    /// completed in this invocation, counted across every manifest of the
    /// runner (remaining runs report `pending`).
    pub kill_after: Option<usize>,
    /// Test hook forwarded to every lockstep run's [`Checkpointing`]: crash
    /// the run once it reaches this slot, leaving its checkpoint behind.
    pub abort_runs_at_slot: Option<usize>,
    /// Registry receiving the canonical [`BatchMetrics`] families.
    pub registry: Option<Arc<MetricsRegistry>>,
}

/// Outcome counters of one [`BatchRunner::run`] invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSummary {
    /// Manifest runs.
    pub total: usize,
    /// Runs completed by this invocation.
    pub completed: usize,
    /// Runs that failed (id, error).
    pub failures: Vec<(String, String)>,
    /// Runs restored from an in-flight checkpoint.
    pub resumed: usize,
    /// Runs whose results already existed on disk.
    pub skipped: usize,
    /// Runs never attempted (`kill_after` reached).
    pub pending: usize,
}

impl BatchSummary {
    /// `true` when every manifest run has a result on disk.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.pending == 0
    }
}

enum RunState {
    Completed { resumed: bool },
    Skipped,
    Failed(String),
    Pending,
}

/// Executes materialized manifests through one worker queue (see the
/// module docs).
pub struct BatchRunner<'m> {
    jobs: Vec<Job<'m>>,
    opts: BatchOptions,
}

/// Context shared by every run of one (scale, workload, budget fraction)
/// across all manifests of a batch: the lazily built base setup and
/// memoized derived quantities (calibrated V* per probe count, the
/// carbon-unaware reference cost, typical slot objectives). Every cache is
/// computed under its mutex, so concurrent runs needing the same quantity
/// block instead of duplicating a year-long calibration.
struct Ctx {
    scale: ExperimentScale,
    workload: WorkloadKind,
    budget_fraction: f64,
    setup: Mutex<Option<Arc<PaperSetup>>>,
    vstar: Mutex<HashMap<usize, f64>>,
    unaware: Mutex<Option<f64>>,
    gtyp: Mutex<HashMap<(usize, u64), f64>>,
}

impl Ctx {
    fn setup(&self) -> Result<Arc<PaperSetup>, String> {
        let mut guard = self.setup.lock().map_err(|_| "setup cache poisoned".to_string())?;
        if let Some(s) = guard.as_ref() {
            return Ok(Arc::clone(s));
        }
        // audit:ordered(timing-only: the duration feeds a log line, never results or run identity)
        let t0 = Instant::now();
        let setup = PaperSetup::build(self.scale, self.workload, self.budget_fraction)
            .map_err(|e| format!("setup build: {e}"))?;
        logger::info(
            &Span::new("setup"),
            &format!(
                "{:?}: groups={} servers={} hours={} ({:.1?})",
                self.workload,
                setup.cluster.num_groups(),
                setup.cluster.num_servers(),
                setup.trace.len(),
                t0.elapsed()
            ),
        );
        let setup = Arc::new(setup);
        *guard = Some(Arc::clone(&setup));
        Ok(setup)
    }

    fn vstar(&self, probes: usize) -> Result<f64, String> {
        let setup = self.setup()?;
        let mut guard = self.vstar.lock().map_err(|_| "vstar cache poisoned".to_string())?;
        if let Some(v) = guard.get(&probes) {
            return Ok(*v);
        }
        // audit:ordered(timing-only: the duration feeds a log line, never results or run identity)
        let t0 = Instant::now();
        let v = figures::calibrate_v(&setup, probes).map_err(|e| format!("calibrate: {e}"))?;
        logger::info(
            &Span::new("calibrate"),
            &format!("V* = {v:.1} (probes {probes}, {:.1?})", t0.elapsed()),
        );
        guard.insert(probes, v);
        Ok(v)
    }

    fn unaware_cost(&self) -> Result<f64, String> {
        let setup = self.setup()?;
        let mut guard = self.unaware.lock().map_err(|_| "unaware cache poisoned".to_string())?;
        if let Some(c) = guard.as_ref() {
            return Ok(*c);
        }
        let out = unaware_reference(&setup.cluster, setup.cost, &setup.trace, setup.rec_total)
            .map_err(|e| format!("unaware reference: {e}"))?;
        let cost = out.avg_hourly_cost();
        *guard = Some(cost);
        Ok(cost)
    }

    fn typical_objective(&self, slot: usize, v: f64) -> Result<f64, String> {
        let setup = self.setup()?;
        let mut guard = self.gtyp.lock().map_err(|_| "gtyp cache poisoned".to_string())?;
        let key = (slot, v.to_bits());
        if let Some(g) = guard.get(&key) {
            return Ok(*g);
        }
        let g = figures::typical_slot_objective(&setup, slot, v)
            .map_err(|e| format!("snapshot objective: {e}"))?;
        guard.insert(key, g);
        Ok(g)
    }
}

// ---- config accessors ------------------------------------------------------

fn p_num(cfg: &Value, key: &str, default: f64) -> Result<f64, String> {
    match cfg.get_field(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => num(v).ok_or_else(|| format!("param {key:?} must be a number")),
    }
}

fn p_num_opt(cfg: &Value, key: &str) -> Result<Option<f64>, String> {
    match cfg.get_field(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => num(v).map(Some).ok_or_else(|| format!("param {key:?} must be a number")),
    }
}

fn p_uint(cfg: &Value, key: &str, default: usize) -> Result<usize, String> {
    match cfg.get_field(key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => uint(v).ok_or_else(|| format!("param {key:?} must be a non-negative integer")),
    }
}

fn p_str<'v>(cfg: &'v Value, key: &str) -> Result<Option<&'v str>, String> {
    match cfg.get_field(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => str_of(v).map(Some).ok_or_else(|| format!("param {key:?} must be a string")),
    }
}

fn workload_kind(name: &str) -> Result<WorkloadKind, String> {
    match name {
        "fiu" => Ok(WorkloadKind::Fiu),
        "msr" => Ok(WorkloadKind::Msr),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn scalar_map(entries: Vec<(String, f64)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k, Value::Float(v))).collect())
}

fn series_map(entries: Vec<(String, Vec<f64>)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k, Value::Seq(v.into_iter().map(Value::Float).collect())))
            .collect(),
    )
}

fn lane_value(label: &str, skipped: bool, scalars: Value, series: Value) -> Value {
    Value::Map(vec![
        ("label".to_string(), Value::Str(label.to_string())),
        ("scalars".to_string(), scalars),
        ("series".to_string(), series),
        ("skipped".to_string(), Value::Bool(skipped)),
    ])
}

fn run_value(entry: &RunEntry, lanes: Vec<Value>) -> Value {
    Value::Map(vec![
        ("id".to_string(), Value::Str(entry.id.clone())),
        ("kind".to_string(), Value::Str(entry.kind.clone())),
        ("lanes".to_string(), Value::Seq(lanes)),
    ])
}

/// Writes `content` to `path` durably and atomically through
/// [`coca_dcsim::checkpoint::write_atomic`] (fsync'd temp file + rename).
fn write_atomic(path: &Path, content: &str) -> Result<(), String> {
    checkpoint::write_atomic(path, &[content.as_bytes()]).map_err(|e| e.to_string())
}

// ---- run kinds -------------------------------------------------------------

/// One lane of a lockstep run, kept concrete so COCA controller state
/// (peak deficit) stays readable after the engine pass.
enum LanePolicy {
    Coca(Box<CocaController<SymmetricSolver>>),
    Unaware(Box<CarbonUnaware<SymmetricSolver>>),
    PerfectHp(Box<PerfectHp<SymmetricSolver>>),
}

struct ResolvedLane {
    label: String,
    v_used: Option<f64>,
    policy: LanePolicy,
}

/// Looks a lane parameter up in the lane map first, then the run config —
/// so a sweep axis (which lands in the config) can drive per-lane knobs
/// like `v_mult` without duplicating the lane per sweep point.
fn lane_param<'v>(lane: &'v Value, cfg: &'v Value, key: &str) -> Option<&'v Value> {
    match lane.get_field(key) {
        None | Some(Value::Null) => cfg.get_field(key),
        found => found,
    }
}

fn lane_num(lane: &Value, cfg: &Value, key: &str, default: f64) -> Result<f64, String> {
    match lane_param(lane, cfg, key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => num(v).ok_or_else(|| format!("lane param {key:?} must be a number")),
    }
}

fn lane_uint(lane: &Value, cfg: &Value, key: &str, default: usize) -> Result<usize, String> {
    match lane_param(lane, cfg, key) {
        None | Some(Value::Null) => Ok(default),
        Some(v) => {
            uint(v).ok_or_else(|| format!("lane param {key:?} must be a non-negative integer"))
        }
    }
}

fn resolve_v(
    ctx: &Ctx,
    lane: &Value,
    cfg: &Value,
    v0: f64,
) -> Result<(VSchedule, Option<f64>), String> {
    match p_str(lane, "v_mode")?.unwrap_or("mult") {
        "mult" => {
            let v = lane_num(lane, cfg, "v_mult", 1.0)? * v0;
            Ok((VSchedule::Constant(v), Some(v)))
        }
        "calibrated" => {
            let v = ctx.vstar(lane_uint(lane, cfg, "calib_probes", 7)?)?;
            Ok((VSchedule::Constant(v), Some(v)))
        }
        "quarterly" => {
            let mults = lane_param(lane, cfg, "v_mults")
                .and_then(Value::as_seq)
                .filter(|s| s.len() == 4)
                .ok_or("v_mode quarterly needs v_mults with 4 entries")?;
            let m: Vec<f64> = mults
                .iter()
                .map(|v| num(v).ok_or_else(|| "v_mults entries must be numbers".to_string()))
                .collect::<Result<_, _>>()?;
            Ok((VSchedule::quarterly(m[0] * v0, m[1] * v0, m[2] * v0, m[3] * v0), None))
        }
        other => Err(format!("unknown v_mode {other:?}")),
    }
}

#[allow(clippy::too_many_lines)]
fn run_lockstep_kind(
    ctx: &Ctx,
    entry: &RunEntry,
    ckpt_path: &Path,
    resume: bool,
    abort_at_slot: Option<usize>,
) -> Result<Value, String> {
    let cfg = &entry.config;
    let base = ctx.setup()?;
    let base_len = base.trace.len();
    let v0 = base.characteristic_v();

    let mut s: PaperSetup = (*base).clone();
    if let Some(share) = p_num_opt(cfg, "offsite_share")? {
        s = figures::portfolio_setup(&s, share);
    }
    if let Some(sw) = p_num_opt(cfg, "switch_kwh")? {
        s = figures::switching_setup(&s, sw);
    }
    let trim_frames = p_uint(cfg, "trim_frames", 1)?.max(1);
    let (s, frame) = figures::trim_to_frames(&s, trim_frames);
    let horizon = s.trace.len();
    let phi = p_num(cfg, "phi", 1.0)?;
    let budget = s.budget_kwh * horizon as f64 / base_len as f64;

    let lanes_cfg = cfg
        .get_field("lanes")
        .and_then(Value::as_seq)
        .ok_or("lockstep run without lanes")?;
    let mut lanes: Vec<ResolvedLane> = Vec::with_capacity(lanes_cfg.len());
    for lane in lanes_cfg {
        let label = p_str(lane, "label")?.ok_or("lane without label")?.to_string();
        let policy = p_str(lane, "policy")?.unwrap_or("coca");
        let resolved = match policy {
            "coca" => {
                let (vsched, v_used) = resolve_v(ctx, lane, cfg, v0)?;
                let coca = figures::coca_policy(&s, vsched, frame);
                ResolvedLane { label, v_used, policy: LanePolicy::Coca(Box::new(coca)) }
            }
            "unaware" => ResolvedLane {
                label,
                v_used: None,
                policy: LanePolicy::Unaware(Box::new(CarbonUnaware::new(
                    Arc::clone(&s.cluster),
                    s.cost,
                    SymmetricSolver::new(),
                ))),
            },
            "perfect_hp" => {
                let window = lane_uint(lane, cfg, "window", 48)?.min(horizon);
                let hp = PerfectHp::new(
                    Arc::clone(&s.cluster),
                    s.cost,
                    &s.trace,
                    s.rec_total,
                    window,
                )
                .map_err(|e| format!("perfect_hp plan: {e}"))?;
                ResolvedLane { label, v_used: None, policy: LanePolicy::PerfectHp(Box::new(hp)) }
            }
            other => return Err(format!("unknown lane policy {other:?}")),
        };
        lanes.push(resolved);
    }

    // Checkpoint at frame boundaries when the run has multiple frames,
    // otherwise 8 snapshots across the horizon (the old `repro summary`
    // cadence).
    let every = if trim_frames > 1 { frame } else { (horizon / 8).max(1) };
    let policies: Vec<Box<dyn Policy + '_>> = lanes
        .iter_mut()
        .map(|l| match &mut l.policy {
            LanePolicy::Coca(c) => Box::new(c.as_mut()) as Box<dyn Policy + '_>,
            LanePolicy::Unaware(u) => Box::new(u.as_mut()) as Box<dyn Policy + '_>,
            LanePolicy::PerfectHp(h) => Box::new(h.as_mut()) as Box<dyn Policy + '_>,
        })
        .collect();
    let outcomes = run_lockstep_checkpointed(
        Arc::clone(&s.cluster),
        &s.trace,
        s.cost,
        s.rec_total,
        policies,
        RunOptions {
            ckpt: Some(Checkpointing { path: ckpt_path, every, resume, abort_at_slot }),
            observer: None,
            overestimation: phi,
        },
    )
    .map_err(|e| format!("lockstep run: {e}"))?;

    let record: Vec<&str> = match cfg.get_field("record") {
        None => Vec::new(),
        Some(r) => r
            .as_seq()
            .ok_or("record must be a list of series names")?
            .iter()
            .map(|v| str_of(v).ok_or_else(|| "record entries must be strings".to_string()))
            .collect::<Result<_, _>>()?,
    };
    let window = p_uint(cfg, "movavg_window", figures::movavg_window(base_len))?;

    let mut lane_values = Vec::with_capacity(lanes.len());
    for (lane, out) in lanes.iter().zip(outcomes.iter()) {
        let brown = out.total_brown_energy();
        let mut scalars = vec![
            ("avg_hourly_cost".to_string(), out.avg_hourly_cost()),
            ("avg_hourly_deficit".to_string(), out.avg_hourly_deficit()),
            ("brown_over_budget".to_string(), brown / budget),
            (
                "carbon_neutral".to_string(),
                f64::from(u8::from(out.is_carbon_neutral() || brown <= budget)),
            ),
            ("total_brown_energy".to_string(), brown),
        ];
        if let Some(v) = lane.v_used {
            scalars.push(("v_used".to_string(), v));
        }
        if let LanePolicy::Coca(c) = &lane.policy {
            scalars.push(("peak_queue".to_string(), c.max_deficit()));
        }
        let mut series = Vec::new();
        for name in &record {
            let values = match *name {
                "movavg_cost" => out.movavg_cost(window),
                "movavg_deficit" => out.movavg_deficit(window),
                "cumavg_cost" => out.cumavg_cost(),
                "cumavg_deficit" => out.cumavg_deficit(),
                "cost" => out.cost_series(),
                "deficit" => out.deficit_series(),
                other => return Err(format!("unknown recorded series {other:?}")),
            };
            series.push((name.to_string(), values));
        }
        lane_values.push(lane_value(&lane.label, false, scalar_map(scalars), series_map(series)));
    }
    Ok(run_value(entry, lane_values))
}

fn run_workloads_kind(ctx: &Ctx, entry: &RunEntry) -> Result<Value, String> {
    let cfg = &entry.config;
    let name = p_str(cfg, "workload")?.ok_or("workloads run needs a workload param")?;
    let kind = workload_kind(name)?;
    let hours = p_uint(cfg, "hours", 0)?;
    if hours == 0 {
        return Err("workloads run needs hours > 0".into());
    }
    let trace = WorkloadTrace::generate(kind, hours, 1.0, ctx.scale.seed);
    let lanes = vec![lane_value(
        name,
        false,
        scalar_map(Vec::new()),
        series_map(vec![("trace".to_string(), trace.normalized())]),
    )];
    Ok(run_value(entry, lanes))
}

fn run_frame_reset_kind(ctx: &Ctx, entry: &RunEntry) -> Result<Value, String> {
    let cfg = &entry.config;
    let base = ctx.setup()?;
    let v0 = base.characteristic_v();
    let (vsched, v_used) = resolve_v(ctx, cfg, cfg, v0)?;
    let v = match (vsched, v_used) {
        (VSchedule::Constant(v), _) => v,
        _ => return Err("frame_reset needs a constant V".into()),
    };
    let frames = p_uint(cfg, "frames", 0)?;
    if frames == 0 {
        return Err("frame_reset needs frames >= 1".into());
    }
    let row = figures::frame_reset_point(&base, v, frames)
        .map_err(|e| format!("frame_reset run: {e}"))?;
    let scalars = vec![
        ("brown_over_budget".to_string(), row.brown_over_budget),
        ("cost".to_string(), row.cost),
        ("frames".to_string(), row.frames as f64),
        ("peak_queue".to_string(), row.peak_queue),
        ("v_used".to_string(), v),
    ];
    Ok(run_value(entry, vec![lane_value("coca", false, scalar_map(scalars), series_map(Vec::new()))]))
}

fn run_budget_point_kind(ctx: &Ctx, entry: &RunEntry) -> Result<Value, String> {
    let cfg = &entry.config;
    let base = ctx.setup()?;
    let frac = p_num_opt(cfg, "budget_frac")?.ok_or("budget_point needs budget_frac")?;
    let probes = p_uint(cfg, "calib_probes", 5)?;
    let unaware_cost = ctx.unaware_cost()?;
    let row = figures::budget_point(&base, frac, probes, unaware_cost)
        .map_err(|e| format!("budget point: {e}"))?;
    let scalars = vec![
        ("budget_frac".to_string(), row.budget_fraction),
        ("coca_neutral".to_string(), f64::from(u8::from(row.coca_neutral))),
        ("coca_norm".to_string(), row.coca),
        ("opt_norm".to_string(), row.opt),
        ("v_used".to_string(), row.v_used),
    ];
    Ok(run_value(entry, vec![lane_value("point", false, scalar_map(scalars), series_map(Vec::new()))]))
}

fn run_gsd_trace_kind(ctx: &Ctx, entry: &RunEntry) -> Result<Value, String> {
    let cfg = &entry.config;
    let base = ctx.setup()?;
    let slot = p_uint(cfg, "slot", 1500)? % base.trace.len();
    let v = p_num(cfg, "v_mult", 1.0)? * base.characteristic_v();
    let g_typ = ctx.typical_objective(slot, v)?;
    let delta = p_num_opt(cfg, "delta_mult")?.ok_or("gsd_trace needs delta_mult")? * g_typ;
    let iterations = p_uint(cfg, "iterations", 500)?;
    let init = match p_str(cfg, "init")? {
        None => None,
        Some(name) => Some(
            figures::gsd_initial_levels(&base, name)
                .ok_or_else(|| format!("unknown GSD initial point {name:?}"))?,
        ),
    };
    let trace = figures::gsd_trace_point(&base, slot, v, delta, iterations, init)
        .map_err(|e| format!("gsd trace: {e}"))?;
    let scalars = vec![("delta".to_string(), delta), ("v".to_string(), v)];
    let lane = match trace {
        Some(t) => lane_value(
            "gsd",
            false,
            scalar_map(scalars),
            series_map(vec![("trace".to_string(), t)]),
        ),
        // Infeasible initial point: recorded as a skipped lane, whose
        // curve Fig. 4(b) drops.
        None => lane_value("gsd", true, scalar_map(scalars), series_map(Vec::new())),
    };
    Ok(run_value(entry, vec![lane]))
}

fn execute_run(
    ctx: &Ctx,
    entry: &RunEntry,
    ckpt_path: &Path,
    resume: bool,
    abort_at_slot: Option<usize>,
) -> Result<Value, String> {
    match entry.kind.as_str() {
        "lockstep" => run_lockstep_kind(ctx, entry, ckpt_path, resume, abort_at_slot),
        "workloads" => run_workloads_kind(ctx, entry),
        "frame_reset" => run_frame_reset_kind(ctx, entry),
        "budget_point" => run_budget_point_kind(ctx, entry),
        "gsd_trace" => run_gsd_trace_kind(ctx, entry),
        other => Err(format!("unknown run kind {other:?}")),
    }
}

// ---- the run queue ---------------------------------------------------------

/// Queue-order weight of a `perfect_hp` lane per slot, in COCA lane-slots
/// (measured at small scale with the solve-scoped state memo: a PerfectHP
/// lane-slot costs 25–32 COCA ones, as before it).
const PERFECT_HP_LANE_SLOTS: u64 = 25;

/// Queue-order weight of a budget point's offline OPT plan, in
/// whole-horizon COCA passes (measured at small scale with the
/// solve-scoped state memo: 6–11 dual sweeps, costing up to ~8 passes).
const OPT_PLAN_PASSES: u64 = 8;

/// Whole-horizon passes a calibrated lane's V\* bisection costs: the two
/// bracket endpoints plus one pass per probe.
fn calibration_slots(lane: &Value, cfg: &Value, hours: u64) -> u64 {
    match p_str(lane, "v_mode") {
        Ok(Some("calibrated")) => {
            (lane_uint(lane, cfg, "calib_probes", 7).unwrap_or(7) as u64 + 2) * hours
        }
        _ => 0,
    }
}

/// A deterministic estimate of what a run costs, in COCA lane-slots (one
/// controller stepping one slot), computed from the run's kind and
/// configuration alone. The queue runs the costliest runs first; wall
/// times never enter, so the order — and with it every result and status
/// file — is the same at any worker count. Calibration is charged to every
/// run that needs V\*, although only the first one pays it.
fn run_cost(entry: &RunEntry, hours: usize) -> u64 {
    let cfg = &entry.config;
    let h = hours as u64;
    match entry.kind.as_str() {
        "lockstep" => {
            let frames = p_uint(cfg, "trim_frames", 1).unwrap_or(1).max(1);
            let horizon = ((hours / frames).max(1) * frames) as u64;
            let lanes = cfg.get_field("lanes").and_then(Value::as_seq).unwrap_or(&[]);
            lanes
                .iter()
                .map(|lane| match p_str(lane, "policy") {
                    Ok(Some("perfect_hp")) => PERFECT_HP_LANE_SLOTS * horizon,
                    _ => horizon + calibration_slots(lane, cfg, h),
                })
                .sum()
        }
        "frame_reset" => h + calibration_slots(cfg, cfg, h),
        "budget_point" => {
            // Its own V bisection (probes + 2 passes), one COCA pass, the plan.
            let probes = p_uint(cfg, "calib_probes", 5).unwrap_or(5) as u64;
            (probes + 3 + OPT_PLAN_PASSES) * h
        }
        "gsd_trace" => p_uint(cfg, "iterations", 500).unwrap_or(500) as u64 / 250,
        "workloads" => p_uint(cfg, "hours", 0).unwrap_or(0) as u64 / 1000,
        _ => 0,
    }
}

// ---- the batch loop --------------------------------------------------------

/// One manifest of a batch and the directory holding its state.
struct Job<'m> {
    manifest: &'m Manifest,
    dir: PathBuf,
}

impl Job<'_> {
    fn runs_dir(&self) -> PathBuf {
        self.dir.join("runs")
    }

    fn status_json(&self, states: &[(String, String)]) -> Result<String, String> {
        let mut completed = 0usize;
        let mut failed = 0usize;
        let mut resumed = 0usize;
        let mut skipped = 0usize;
        let mut pending = 0usize;
        for (_, state) in states {
            match state.as_str() {
                "completed" => completed += 1,
                "resumed" => {
                    completed += 1;
                    resumed += 1;
                }
                "skipped" => skipped += 1,
                "pending" => pending += 1,
                _ => failed += 1,
            }
        }
        let runs =
            states.iter().map(|(id, st)| (id.clone(), Value::Str(st.clone()))).collect::<Vec<_>>();
        canonical_json(&Value::Map(vec![
            ("completed".to_string(), Value::Int(completed as i64)),
            ("failed".to_string(), Value::Int(failed as i64)),
            ("pending".to_string(), Value::Int(pending as i64)),
            ("resumed".to_string(), Value::Int(resumed as i64)),
            ("runs".to_string(), Value::Map(runs)),
            ("skipped".to_string(), Value::Int(skipped as i64)),
            ("spec".to_string(), Value::Str(self.manifest.spec.clone())),
            ("total".to_string(), Value::Int(self.manifest.runs.len() as i64)),
        ]))
    }

    /// Writes the manifest and creates `runs/` and `ckpt/`.
    fn prepare(&self) -> Result<(), String> {
        write_atomic(&self.dir.join("manifest.json"), &self.manifest.to_json()?)?;
        for sub in [self.runs_dir(), self.dir.join("ckpt")] {
            std::fs::create_dir_all(&sub)
                .map_err(|e| format!("cannot create {}: {e}", sub.display()))?;
        }
        Ok(())
    }
}

/// `true` when `path` holds a parseable result file for run `id`. A
/// zero-length or torn file counts as not completed, so the run executes
/// again instead of failing every later load.
fn result_complete(path: &Path, id: &str) -> bool {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .is_some_and(|v| v.get_field("id").and_then(str_of) == Some(id))
}

/// One shared [`Ctx`] per distinct (scale, workload, budget fraction), in
/// first-appearance order, and each job's index into them.
fn contexts(jobs: &[Job<'_>]) -> Result<(Vec<Ctx>, Vec<usize>), String> {
    let mut keys: Vec<String> = Vec::new();
    let mut ctxs = Vec::new();
    let mut ctx_of = Vec::with_capacity(jobs.len());
    for job in jobs {
        let m = job.manifest;
        let key = canonical_json(&Value::Map(vec![
            ("budget_fraction".to_string(), Value::Float(m.budget_fraction)),
            ("scale".to_string(), scale_value(&m.scale)),
            ("workload".to_string(), Value::Str(m.workload.clone())),
        ]))?;
        let idx = match keys.iter().position(|k| *k == key) {
            Some(idx) => idx,
            None => {
                ctxs.push(Ctx {
                    scale: m.scale,
                    workload: workload_kind(&m.workload)?,
                    budget_fraction: m.budget_fraction,
                    setup: Mutex::new(None),
                    vstar: Mutex::new(HashMap::new()),
                    unaware: Mutex::new(None),
                    gtyp: Mutex::new(HashMap::new()),
                });
                keys.push(key);
                keys.len() - 1
            }
        };
        ctx_of.push(idx);
    }
    Ok((ctxs, ctx_of))
}

/// What the workers of one [`BatchRunner::run_each`] invocation share.
struct Shared {
    ctxs: Vec<Ctx>,
    /// Index into `ctxs` per job.
    ctx_of: Vec<usize>,
    /// Per-run states of each job in manifest order, rewritten to the
    /// job's status.json after every run so an interrupted batch leaves an
    /// inspectable trail.
    states: Vec<Mutex<Vec<(String, String)>>>,
    metrics: Option<BatchMetrics>,
    /// Runs completed by this invocation, across every job.
    completed: AtomicUsize,
}

impl Shared {
    fn record_state(&self, job: &Job<'_>, j: usize, i: usize, state: String) {
        if let Ok(mut guard) = self.states[j].lock() {
            guard[i].1 = state;
            let written = job
                .status_json(&guard)
                .and_then(|json| write_atomic(&job.dir.join("status.json"), &json));
            if let Err(e) = written {
                logger::error(&Span::new("batch"), &e);
            }
        }
    }
}

impl<'m> BatchRunner<'m> {
    /// Creates a runner for `manifest`, whose state lives in `opts.dir`.
    pub fn new(manifest: &'m Manifest, opts: BatchOptions) -> Self {
        let dir = opts.dir.clone();
        Self { jobs: vec![Job { manifest, dir }], opts }
    }

    /// Creates one runner for several manifests: each keeps its state in
    /// `opts.dir/<spec>/`, and [`run_each`](Self::run_each) executes all
    /// their runs through one queue with shared contexts.
    pub fn batch(manifests: impl IntoIterator<Item = &'m Manifest>, opts: BatchOptions) -> Self {
        let jobs = manifests
            .into_iter()
            .map(|manifest| Job { manifest, dir: opts.dir.join(&manifest.spec) })
            .collect();
        Self { jobs, opts }
    }

    /// Directory holding the first manifest's result files (the only
    /// manifest's, for a runner made by [`new`](Self::new)).
    pub fn runs_dir(&self) -> PathBuf {
        self.jobs.first().map_or_else(|| self.opts.dir.join("runs"), Job::runs_dir)
    }

    /// Every run as `(manifest index, run index)`, in queue order: costliest
    /// first by [`run_cost`], ties in manifest order then run order.
    fn queue(&self) -> Vec<(usize, usize)> {
        let mut order: Vec<(u64, usize, usize)> = self
            .jobs
            .iter()
            .enumerate()
            .flat_map(|(j, job)| {
                let hours = job.manifest.scale.hours;
                job.manifest.runs.iter().enumerate().map(move |(i, r)| (run_cost(r, hours), j, i))
            })
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
        order.into_iter().map(|(_, j, i)| (j, i)).collect()
    }

    /// Runs every manifest to completion (or until `kill_after`), returning
    /// the invocation's counters summed over the manifests. Individual run
    /// failures are collected, not fatal.
    pub fn run(&self) -> Result<BatchSummary, String> {
        let mut total = BatchSummary::default();
        for s in self.run_each()? {
            total.total += s.total;
            total.completed += s.completed;
            total.failures.extend(s.failures);
            total.resumed += s.resumed;
            total.skipped += s.skipped;
            total.pending += s.pending;
        }
        Ok(total)
    }

    /// Runs every manifest to completion (or until `kill_after`) through
    /// one worker queue, returning one summary per manifest in order.
    /// Manifests with the same (scale, workload, budget fraction) share one
    /// context, so its setup is built and V\* calibrated once.
    pub fn run_each(&self) -> Result<Vec<BatchSummary>, String> {
        for (j, job) in self.jobs.iter().enumerate() {
            if self.jobs[..j].iter().any(|other| other.dir == job.dir) {
                return Err(format!(
                    "two manifests share the batch directory {}",
                    job.dir.display()
                ));
            }
            job.prepare()?;
        }
        let (ctxs, ctx_of) = contexts(&self.jobs)?;
        let shared = Shared {
            ctxs,
            ctx_of,
            states: self
                .jobs
                .iter()
                .map(|job| {
                    let runs = &job.manifest.runs;
                    Mutex::new(runs.iter().map(|r| (r.id.clone(), "pending".to_string())).collect())
                })
                .collect(),
            metrics: self.opts.registry.as_ref().map(BatchMetrics::new),
            completed: AtomicUsize::new(0),
        };
        let queue = self.queue();
        let states =
            parallel::sweep(queue.clone(), self.opts.workers, |(j, i)| self.run_one(&shared, j, i));

        let mut by_run: Vec<Vec<RunState>> = self
            .jobs
            .iter()
            .map(|job| job.manifest.runs.iter().map(|_| RunState::Pending).collect())
            .collect();
        for ((j, i), state) in queue.into_iter().zip(states) {
            by_run[j][i] = state;
        }
        let summaries = self
            .jobs
            .iter()
            .zip(by_run)
            .map(|(job, states)| {
                let mut summary =
                    BatchSummary { total: job.manifest.runs.len(), ..BatchSummary::default() };
                for (entry, state) in job.manifest.runs.iter().zip(states) {
                    match state {
                        RunState::Completed { resumed } => {
                            summary.completed += 1;
                            summary.resumed += usize::from(resumed);
                        }
                        RunState::Skipped => summary.skipped += 1,
                        RunState::Pending => summary.pending += 1,
                        RunState::Failed(e) => summary.failures.push((entry.id.clone(), e)),
                    }
                }
                summary
            })
            .collect();
        Ok(summaries)
    }

    /// Executes (or skips) run `i` of manifest `j`.
    fn run_one(&self, shared: &Shared, j: usize, i: usize) -> RunState {
        let job = &self.jobs[j];
        let entry = &job.manifest.runs[i];
        let metrics = shared.metrics.as_ref();
        if let Some(m) = metrics {
            m.runs.inc();
        }
        let result_path = job.runs_dir().join(format!("{}.json", entry.id));
        if result_complete(&result_path, &entry.id) {
            if let Some(m) = metrics {
                m.skipped.inc();
            }
            shared.record_state(job, j, i, "skipped".into());
            return RunState::Skipped;
        }
        // audit:atomic(SeqCst; crash-injection test hook counting completed runs — monotonic counter, an off-by-one kill point is harmless)
        if self.opts.kill_after.is_some_and(|k| shared.completed.load(Ordering::SeqCst) >= k) {
            shared.record_state(job, j, i, "pending".into());
            return RunState::Pending;
        }
        let ckpt_path = job.dir.join("ckpt").join(format!("{}.json", entry.id));
        let resumed = self.opts.resume && ckpt_path.exists();
        if resumed {
            if let Some(m) = metrics {
                m.resumed.inc();
            }
        }
        let span = Span::new("run").lane(&entry.group);
        // audit:ordered(timing-only: the duration feeds logs and prometheus metrics, never result files)
        let t0 = Instant::now();
        let outcome = execute_run(
            &shared.ctxs[shared.ctx_of[j]],
            entry,
            &ckpt_path,
            self.opts.resume,
            self.opts.abort_runs_at_slot,
        )
        .and_then(|value| write_atomic(&result_path, &canonical_json(&value)?));
        match outcome {
            Ok(()) => {
                if let Some(m) = metrics {
                    m.completed.inc();
                    m.run_seconds.observe(t0.elapsed().as_secs_f64());
                }
                // audit:atomic(SeqCst; crash-injection test hook counting completed runs — monotonic counter, an off-by-one kill point is harmless)
                shared.completed.fetch_add(1, Ordering::SeqCst);
                logger::info(&span, &format!("{} done ({:.1?})", entry.id, t0.elapsed()));
                let state = if resumed { "resumed" } else { "completed" };
                shared.record_state(job, j, i, state.into());
                RunState::Completed { resumed }
            }
            Err(e) => {
                if let Some(m) = metrics {
                    m.failed.inc();
                }
                logger::error(&span, &format!("{} failed: {e}", entry.id));
                shared.record_state(job, j, i, format!("failed: {e}"));
                RunState::Failed(e)
            }
        }
    }

    /// Loads every completed run result of every manifest from `runs/`,
    /// keyed by run ID. Run IDs hash the resolved configuration, so an ID
    /// two manifests share names the same result.
    pub fn load_results(&self) -> Result<HashMap<String, Value>, String> {
        let mut results = HashMap::new();
        for j in 0..self.jobs.len() {
            results.extend(self.spec_results(j)?);
        }
        Ok(results)
    }

    /// Loads the completed run results of manifest `spec` (its index in
    /// the order the runner was given them), keyed by run ID.
    pub fn spec_results(&self, spec: usize) -> Result<HashMap<String, Value>, String> {
        let job = self.jobs.get(spec).ok_or_else(|| format!("no manifest #{spec} in this batch"))?;
        let runs_dir = job.runs_dir();
        let mut results = HashMap::new();
        for entry in &job.manifest.runs {
            let path = runs_dir.join(format!("{}.json", entry.id));
            if !path.exists() {
                continue;
            }
            let json = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let value: Value =
                serde_json::from_str(&json).map_err(|e| format!("{}: {e}", path.display()))?;
            results.insert(entry.id.clone(), value);
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{manifest, spec, Spec};

    fn committed_small_manifests() -> Vec<Manifest> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        spec::discover(&dir)
            .expect("scenarios dir lists")
            .iter()
            .map(|path| {
                let sp = Spec::load(path).expect("spec parses");
                manifest::materialize(&sp, ExperimentScale::small()).expect("materialize")
            })
            .collect()
    }

    fn lane_policies(entry: &RunEntry) -> Vec<&str> {
        let lanes = entry.config.get_field("lanes").and_then(Value::as_seq).unwrap_or(&[]);
        lanes.iter().map(|l| p_str(l, "policy").ok().flatten().unwrap_or("coca")).collect()
    }

    fn has_lane(entry: &RunEntry, policy: &str) -> bool {
        lane_policies(entry).contains(&policy)
    }

    fn single_coca_lane(entry: &RunEntry) -> bool {
        entry.kind == "lockstep" && lane_policies(entry) == ["coca"]
    }

    #[test]
    fn queue_is_total_deterministic_and_longest_kinds_first() {
        let manifests = committed_small_manifests();
        let queue = BatchRunner::batch(&manifests, BatchOptions::default()).queue();
        let total: usize = manifests.iter().map(|m| m.runs.len()).sum();
        let mut distinct = queue.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!((queue.len(), distinct.len()), (total, total), "every run queued exactly once");
        for workers in [1, 2, 4] {
            let opts = BatchOptions { workers, ..BatchOptions::default() };
            assert_eq!(BatchRunner::batch(&manifests, opts).queue(), queue, "workers {workers}");
        }

        let entries: Vec<&RunEntry> = queue.iter().map(|&(j, i)| &manifests[j].runs[i]).collect();
        let first: Vec<usize> = (0..entries.len())
            .filter(|&k| {
                let e = entries[k];
                e.kind == "budget_point" || (e.kind == "lockstep" && has_lane(e, "perfect_hp"))
            })
            .collect();
        let last: Vec<usize> = (0..entries.len())
            .filter(|&k| {
                let e = entries[k];
                e.kind == "gsd_trace" || e.kind == "workloads" || single_coca_lane(e)
            })
            .collect();
        assert_eq!(first.len(), 12, "two perfect_hp duels and ten budget points");
        assert!(!last.is_empty());
        assert!(
            first.iter().max() < last.iter().min(),
            "long runs must be queued before every short one: {first:?} vs {last:?}"
        );
    }

    #[test]
    fn committed_specs_share_two_contexts() {
        let manifests = committed_small_manifests();
        let runner = BatchRunner::batch(&manifests, BatchOptions::default());
        let (ctxs, ctx_of) = contexts(&runner.jobs).expect("contexts");
        assert_eq!(ctxs.len(), 2, "(small, fiu, 0.92) and (small, msr, 0.92)");
        assert_eq!(ctx_of.len(), manifests.len());
    }
}
