//! The resumable batch runner: manifest → per-run result files.
//!
//! [`BatchRunner::run`] executes every run of a [`Manifest`] through a
//! [`parallel::sweep`] worker pool. The batch directory layout is
//!
//! ```text
//! <dir>/manifest.json   canonical manifest (rewritten every invocation)
//! <dir>/status.json     progress counters + per-run states (atomic rewrites)
//! <dir>/runs/<id>.json  one canonical result file per completed run
//! <dir>/ckpt/<id>.json  engine checkpoint of an in-flight lockstep run
//! ```
//!
//! **Resume semantics** (DESIGN.md §16): a run whose result file exists is
//! skipped outright (run IDs hash the resolved configuration, so a stale
//! result can only match an identical run). With `resume`, an in-flight
//! lockstep run whose checkpoint file exists restores from its last frame
//! boundary via [`run_lockstep_checkpointed`]; point kinds (`budget_point`,
//! `frame_reset`, `gsd_trace`, `workloads`) are atomic — interrupted ones
//! simply re-run. Result files are written canonically (temp + rename), so
//! a resumed batch is byte-identical to an uninterrupted one.
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
use coca_dcsim::{Policy, SimOutcome};
use coca_experiments::figures;
use coca_experiments::parallel;
use coca_experiments::runtime::{run_lockstep_checkpointed, Checkpointing, RunOptions};
use coca_experiments::setup::{unaware_reference, ExperimentScale, PaperSetup};
use coca_obs::logger::{self, Span};
use coca_obs::{BatchMetrics, MetricsRegistry};
use coca_traces::{WorkloadKind, WorkloadTrace};
use serde::Value;

use crate::manifest::{canonical_json, Manifest, RunEntry};
use crate::spec::{num, str_of, uint};

/// How a batch executes: directory, parallelism, resume and test hooks.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Batch directory (holds `manifest.json`, `status.json`, `runs/`,
    /// `ckpt/`).
    pub dir: PathBuf,
    /// Worker threads (`0` = the process default, see
    /// [`parallel::effective_workers`]).
    pub workers: usize,
    /// Skip completed runs and restore in-flight lockstep runs from their
    /// checkpoints.
    pub resume: bool,
    /// Smoke-gate hook: stop scheduling new runs once this many have
    /// completed in this invocation (remaining runs report `pending`).
    pub kill_after: Option<usize>,
    /// Test hook forwarded to every lockstep run's [`Checkpointing`]: crash
    /// the run once it reaches this slot, leaving its checkpoint behind.
    pub abort_runs_at_slot: Option<usize>,
    /// Registry receiving the canonical [`BatchMetrics`] families.
    pub registry: Option<Arc<MetricsRegistry>>,
}

/// Outcome counters of one [`BatchRunner::run`] invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Executes one materialized manifest (see the module docs).
pub struct BatchRunner<'m> {
    manifest: &'m Manifest,
    opts: BatchOptions,
}

/// Shared per-batch context: the lazily built base setup and memoized
/// derived quantities (calibrated V*, the carbon-unaware reference cost,
/// typical slot objectives). Every cache is computed under its mutex, so
/// concurrent runs needing the same quantity block instead of duplicating
/// a year-long calibration.
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

/// Writes `content` to `path` atomically (temp file + rename).
pub fn write_atomic(path: &Path, content: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
    }
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, content).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot rename {}: {e}", tmp.display()))
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

// ---- the batch loop --------------------------------------------------------

impl<'m> BatchRunner<'m> {
    /// Creates a runner for `manifest` with the given options.
    pub fn new(manifest: &'m Manifest, opts: BatchOptions) -> Self {
        Self { manifest, opts }
    }

    /// Directory holding per-run result files.
    pub fn runs_dir(&self) -> PathBuf {
        self.opts.dir.join("runs")
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

    /// Runs the manifest to completion (or until `kill_after`), returning
    /// the invocation's counters. Individual run failures are collected,
    /// not fatal.
    pub fn run(&self) -> Result<BatchSummary, String> {
        let manifest_path = self.opts.dir.join("manifest.json");
        write_atomic(&manifest_path, &self.manifest.to_json()?)?;
        let runs_dir = self.runs_dir();
        let ckpt_dir = self.opts.dir.join("ckpt");
        std::fs::create_dir_all(&runs_dir)
            .map_err(|e| format!("cannot create {}: {e}", runs_dir.display()))?;
        std::fs::create_dir_all(&ckpt_dir)
            .map_err(|e| format!("cannot create {}: {e}", ckpt_dir.display()))?;

        let ctx = Ctx {
            scale: self.manifest.scale,
            workload: workload_kind(&self.manifest.workload)?,
            budget_fraction: self.manifest.budget_fraction,
            setup: Mutex::new(None),
            vstar: Mutex::new(HashMap::new()),
            unaware: Mutex::new(None),
            gtyp: Mutex::new(HashMap::new()),
        };
        let metrics = self.opts.registry.as_ref().map(BatchMetrics::new);
        let completed_count = AtomicUsize::new(0);
        // Per-run states in manifest order, rewritten to status.json after
        // every run so an interrupted batch leaves an inspectable trail.
        let states: Mutex<Vec<(String, String)>> = Mutex::new(
            self.manifest.runs.iter().map(|r| (r.id.clone(), "pending".to_string())).collect(),
        );
        let record_state = |idx: usize, state: String| {
            if let Ok(mut guard) = states.lock() {
                guard[idx].1 = state;
                if let Ok(json) = self.status_json(&guard) {
                    if let Err(e) = write_atomic(&self.opts.dir.join("status.json"), &json) {
                        logger::error(&Span::new("batch"), &e);
                    }
                }
            }
        };

        let indices: Vec<usize> = (0..self.manifest.runs.len()).collect();
        let results = parallel::sweep(indices, self.opts.workers, |i: usize| {
            let entry = &self.manifest.runs[i];
            if let Some(m) = &metrics {
                m.runs.inc();
            }
            let result_path = runs_dir.join(format!("{}.json", entry.id));
            if result_path.exists() {
                if let Some(m) = &metrics {
                    m.skipped.inc();
                }
                record_state(i, "skipped".into());
                return RunState::Skipped;
            }
            // audit:atomic(SeqCst; crash-injection test hook counting completed runs — monotonic counter, an off-by-one kill point is harmless)
            if self.opts.kill_after.is_some_and(|k| completed_count.load(Ordering::SeqCst) >= k)
            {
                record_state(i, "pending".into());
                return RunState::Pending;
            }
            let ckpt_path = ckpt_dir.join(format!("{}.json", entry.id));
            let resumed = self.opts.resume && ckpt_path.exists();
            if resumed {
                if let Some(m) = &metrics {
                    m.resumed.inc();
                }
            }
            let span = Span::new("run").lane(&entry.group);
            // audit:ordered(timing-only: the duration feeds logs and prometheus metrics, never result files)
            let t0 = Instant::now();
            let outcome = execute_run(
                &ctx,
                entry,
                &ckpt_path,
                self.opts.resume,
                self.opts.abort_runs_at_slot,
            )
            .and_then(|value| write_atomic(&result_path, &canonical_json(&value)?));
            match outcome {
                Ok(()) => {
                    if let Some(m) = &metrics {
                        m.completed.inc();
                        m.run_seconds.observe(t0.elapsed().as_secs_f64());
                    }
                    // audit:atomic(SeqCst; crash-injection test hook counting completed runs — monotonic counter, an off-by-one kill point is harmless)
                    completed_count.fetch_add(1, Ordering::SeqCst);
                    logger::info(&span, &format!("{} done ({:.1?})", entry.id, t0.elapsed()));
                    record_state(i, if resumed { "resumed" } else { "completed" }.into());
                    RunState::Completed { resumed }
                }
                Err(e) => {
                    if let Some(m) = &metrics {
                        m.failed.inc();
                    }
                    logger::error(&span, &format!("{} failed: {e}", entry.id));
                    record_state(i, format!("failed: {e}"));
                    RunState::Failed(e)
                }
            }
        });

        let mut summary = BatchSummary {
            total: self.manifest.runs.len(),
            completed: 0,
            failures: Vec::new(),
            resumed: 0,
            skipped: 0,
            pending: 0,
        };
        for (i, state) in results.into_iter().enumerate() {
            match state {
                RunState::Completed { resumed } => {
                    summary.completed += 1;
                    if resumed {
                        summary.resumed += 1;
                    }
                }
                RunState::Skipped => summary.skipped += 1,
                RunState::Pending => summary.pending += 1,
                RunState::Failed(e) => {
                    summary.failures.push((self.manifest.runs[i].id.clone(), e));
                }
            }
        }
        Ok(summary)
    }

    /// Loads every completed run result of the manifest from `runs/`,
    /// keyed by run ID.
    pub fn load_results(&self) -> Result<HashMap<String, Value>, String> {
        let runs_dir = self.runs_dir();
        let mut results = HashMap::new();
        for entry in &self.manifest.runs {
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

/// SimOutcome → nothing here: kept private via method calls above. (The
/// type alias exists so rustdoc links in the module docs resolve.)
#[doc(hidden)]
pub type _OutcomeDoc = SimOutcome;
