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
//! fraction) share one context: the base setup, which carries the
//! carbon-unaware reference cost, is built once, and V\* is calibrated once
//! per probe count. A Fig. 4 run's typical slot objective is one
//! full-speed dispatch, computed where the run needs it.
//!
//! **Shared passes.** A context's [`PassMemo`] runs each COCA run at
//! constant V and each OPT μ-sweep its runs make once, keyed by their
//! inputs (and, for a sweep, the solver's warm state): V\* calibrations and
//! budget points go through it, and so does a lockstep run whose lanes
//! resolve to one COCA lane at a constant V with no recorded series. Such a
//! run that the memo serves writes no checkpoint and deletes a stale one:
//! the frame-reset ablation's one-frame run is the V\* calibration's pass.
//!
//! **Shared runs.** Runs with the same simulation identity — context,
//! kind and resolved config, less a lockstep run's report-only `record` —
//! are simulated once, under the checkpoint path of the first one still
//! pending. Each then writes its own result file from the shared
//! outcomes, with its own `id` and `record`, byte-identical to the file it
//! would have written alone. In the committed specs, Fig. 3's duel and the
//! summary's headline duel are one simulation.
//!
//! **Run order.** The queue is FIFO and holds the simulations of every
//! manifest, sorted costliest first by a deterministic estimate from each
//! run's kind and configuration (lanes, `perfect_hp` lanes, calibration
//! probes, trimmed horizon), so the long runs start early and the short
//! ones fill the tail. The simulation right behind the first one needing
//! a context's V\* is the costliest that does not need it, so a second
//! worker starts on it instead of waiting out the calibration. Result
//! files do not depend on the order, and the order does not depend on the
//! worker count or on wall times.
//!
//! **Resume semantics** (DESIGN.md §16): a run whose result file exists and
//! parses is skipped outright (run IDs hash the resolved configuration, so
//! a stale result can only match an identical run); a zero-length or torn
//! result file counts as not completed. With `resume`, an in-flight
//! lockstep run whose checkpoint file exists restores from its last frame
//! boundary via [`run_lockstep_checkpointed`]; point kinds (`budget_point`,
//! `gsd_trace`, `workloads`) are atomic — interrupted ones simply re-run.
//! Result and status files are written canonically through the fsync'd
//! temp + rename of [`coca_dcsim::checkpoint::write_atomic`], so a resumed
//! batch is byte-identical to an uninterrupted one.
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
use coca_dcsim::{
    checkpoint, CocaPass, EngineBuilder, OnceMap, PassCounts, PassMemo, Policy, RunSummary,
    SimOutcome,
};
use coca_experiments::figures;
use coca_experiments::parallel;
use coca_experiments::runtime::{run_lockstep_checkpointed, CheckpointedRun, Checkpointing};
use coca_experiments::setup::{ExperimentScale, PaperSetup};
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
    /// Smoke-gate hook: stop once this many runs have completed in this
    /// invocation, counted across every manifest of the runner (remaining
    /// runs report `pending`). Checked before each simulation starts and
    /// between the result writes of runs sharing one, so the kill point can
    /// fall inside a shared simulation.
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
/// across all manifests of a batch: the lazily built base setup, the
/// calibrated V\* per probe count, and the memo of the COCA runs and OPT
/// μ-sweeps its runs make. Each value is computed once, under its own
/// key's lock ([`OnceMap`]): concurrent runs needing
/// the same one wait for it instead of duplicating a year-long
/// calibration, and runs needing another one do not wait.
struct Ctx {
    scale: ExperimentScale,
    workload: WorkloadKind,
    budget_fraction: f64,
    setup: OnceMap<(), Arc<PaperSetup>>,
    vstar: OnceMap<usize, f64>,
    passes: PassMemo,
}

impl Ctx {
    fn setup(&self) -> Result<Arc<PaperSetup>, String> {
        let (setup, _) = self.setup.get_or_try_init((), || {
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
            Ok::<_, String>(Arc::new(setup))
        })?;
        Ok(setup)
    }

    fn vstar(&self, probes: usize) -> Result<f64, String> {
        let setup = self.setup()?;
        let (v, _) = self.vstar.get_or_try_init(probes, || {
            // audit:ordered(timing-only: the duration feeds a log line, never results or run identity)
            let t0 = Instant::now();
            let (v, _) = figures::calibrate_v(&setup, probes, &self.passes)
                .map_err(|e| format!("calibrate: {e}"))?;
            logger::info(
                &Span::new("calibrate"),
                &format!("V* = {v:.1} (probes {probes}, {:.1?})", t0.elapsed()),
            );
            Ok::<_, String>(v)
        })?;
        Ok(v)
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

/// One lane of a finished lockstep simulation.
struct LaneResult {
    label: String,
    v_used: Option<f64>,
    summary: RunSummary,
    /// The lane's outcome, kept only when a run sharing the simulation
    /// reports recorded series.
    outcome: Option<SimOutcome>,
}

/// A finished lockstep simulation, before any run reports it.
struct LockstepRun {
    lanes: Vec<LaneResult>,
    /// The carbon budget prorated to the (trimmed) horizon.
    budget: f64,
    /// Hours of the untrimmed context trace (the default moving-average
    /// window scales with it).
    base_len: usize,
    /// True when the simulation continued from a restored checkpoint. A
    /// run the context's pass memo answered was not simulated by this
    /// call, so it restored nothing.
    resumed: bool,
}

/// Simulates the lockstep run `cfg`; `series` says whether a run sharing
/// it reports recorded series. A run whose lanes resolve to one COCA lane
/// at a constant V, with no series to report, is a COCA pass of the
/// context's memo: a pass some earlier caller ran is served from the memo,
/// writes no checkpoint and deletes a stale one, and a crash hook cannot
/// stop it.
fn simulate_lockstep(
    ctx: &Ctx,
    cfg: &Value,
    series: bool,
    ckpt_path: &Path,
    resume: bool,
    abort_at_slot: Option<usize>,
) -> Result<LockstepRun, String> {
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
    let simulate = |lanes: &mut [ResolvedLane]| -> Result<CheckpointedRun, String> {
        let builder = lanes.iter_mut().fold(
            EngineBuilder::new(Arc::clone(&s.cluster), s.cost)
                .rec_total(s.rec_total)
                .overestimation(phi),
            |b, l| {
                b.policy(match &mut l.policy {
                    LanePolicy::Coca(c) => Box::new(c.as_mut()) as Box<dyn Policy + '_>,
                    LanePolicy::Unaware(u) => Box::new(u.as_mut()),
                    LanePolicy::PerfectHp(h) => Box::new(h.as_mut()),
                })
            },
        );
        run_lockstep_checkpointed(
            builder,
            &s.trace,
            Checkpointing { path: ckpt_path, every, resume, abort_at_slot },
        )
        .map_err(|e| format!("lockstep run: {e}"))
    };
    let peak_queue = |lane: &ResolvedLane| match &lane.policy {
        LanePolicy::Coca(c) => Some(c.max_deficit()),
        _ => None,
    };

    if let (false, [lane]) = (series, lanes.as_mut_slice()) {
        if let (Some(v), LanePolicy::Coca(_)) = (lane.v_used, &lane.policy) {
            let pass = CocaPass {
                cluster: &s.cluster,
                cost: s.cost,
                trace: &s.trace,
                rec_total: s.rec_total,
                v,
                frame,
                phi,
            };
            let mut resumed = false;
            let (summary, executed) = ctx.passes.coca_run(pass, || {
                let run = simulate(std::slice::from_mut(lane))?;
                resumed = run.resumed;
                let out = run.outcomes.first().ok_or("lockstep run produced no outcome")?;
                Ok::<_, String>(RunSummary::of(out, peak_queue(lane)))
            })?;
            if !executed {
                // A stale checkpoint would hijack a later run of these inputs.
                let _ = std::fs::remove_file(ckpt_path);
            }
            let label = lane.label.clone();
            let lane = LaneResult { label, v_used: Some(v), summary, outcome: None };
            return Ok(LockstepRun { lanes: vec![lane], budget, base_len, resumed });
        }
    }

    let CheckpointedRun { outcomes, resumed } = simulate(&mut lanes)?;
    let lanes = lanes
        .iter()
        .zip(outcomes)
        .map(|(lane, out)| LaneResult {
            label: lane.label.clone(),
            v_used: lane.v_used,
            summary: RunSummary::of(&out, peak_queue(lane)),
            outcome: series.then_some(out),
        })
        .collect();
    Ok(LockstepRun { lanes, budget, base_len, resumed })
}

/// The lanes of run `cfg`'s result file from the lockstep simulation it
/// shares: the scalars, plus the series its `record` names.
fn report_lockstep(cfg: &Value, run: &LockstepRun) -> Result<Vec<Value>, String> {
    let record: Vec<&str> = match cfg.get_field("record") {
        None => Vec::new(),
        Some(r) => r
            .as_seq()
            .ok_or("record must be a list of series names")?
            .iter()
            .map(|v| str_of(v).ok_or_else(|| "record entries must be strings".to_string()))
            .collect::<Result<_, _>>()?,
    };
    let window = figures::movavg_window(run.base_len);

    let mut lane_values = Vec::with_capacity(run.lanes.len());
    for lane in &run.lanes {
        let out = &lane.summary;
        let brown = out.total_brown_energy();
        let mut scalars = vec![
            ("avg_hourly_cost".to_string(), out.avg_hourly_cost()),
            ("avg_hourly_deficit".to_string(), out.avg_hourly_deficit()),
            ("brown_over_budget".to_string(), brown / run.budget),
            (
                "carbon_neutral".to_string(),
                f64::from(u8::from(out.is_carbon_neutral() || brown <= run.budget)),
            ),
            ("total_brown_energy".to_string(), brown),
        ];
        if let Some(v) = lane.v_used {
            scalars.push(("v_used".to_string(), v));
        }
        if let Some(q) = out.peak_queue() {
            scalars.push(("peak_queue".to_string(), q));
        }
        let mut series = Vec::new();
        for name in &record {
            let out = lane.outcome.as_ref().ok_or("recorded series of an unrecorded lane")?;
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
    Ok(lane_values)
}

fn run_workloads_kind(ctx: &Ctx, cfg: &Value) -> Result<Vec<Value>, String> {
    let name = p_str(cfg, "workload")?.ok_or("workloads run needs a workload param")?;
    let kind = workload_kind(name)?;
    let hours = p_uint(cfg, "hours", 0)?;
    if hours == 0 {
        return Err("workloads run needs hours > 0".into());
    }
    let trace = WorkloadTrace::generate(kind, hours, 1.0, ctx.scale.seed);
    Ok(vec![lane_value(
        name,
        false,
        scalar_map(Vec::new()),
        series_map(vec![("trace".to_string(), trace.normalized())]),
    )])
}

fn run_budget_point_kind(ctx: &Ctx, cfg: &Value) -> Result<Vec<Value>, String> {
    let base = ctx.setup()?;
    let frac = p_num_opt(cfg, "budget_frac")?.ok_or("budget_point needs budget_frac")?;
    let probes = p_uint(cfg, "calib_probes", 5)?;
    let row = figures::budget_point(&base, frac, probes, &ctx.passes)
        .map_err(|e| format!("budget point: {e}"))?;
    let scalars = vec![
        ("budget_frac".to_string(), row.budget_fraction),
        ("coca_neutral".to_string(), f64::from(u8::from(row.coca_neutral))),
        ("coca_norm".to_string(), row.coca),
        ("opt_norm".to_string(), row.opt),
        ("v_used".to_string(), row.v_used),
    ];
    Ok(vec![lane_value("point", false, scalar_map(scalars), series_map(Vec::new()))])
}

fn run_gsd_trace_kind(ctx: &Ctx, cfg: &Value) -> Result<Vec<Value>, String> {
    let base = ctx.setup()?;
    let slot = p_uint(cfg, "slot", 1500)? % base.trace.len();
    let v = p_num(cfg, "v_mult", 1.0)? * base.characteristic_v();
    let g_typ = figures::typical_slot_objective(&base, slot, v)
        .map_err(|e| format!("snapshot objective: {e}"))?;
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
    Ok(vec![lane])
}

/// What one executed simulation leaves for the result files of the runs
/// sharing it (see [`simulation_key`]).
enum Simulated {
    /// A lockstep run's lane outcomes; each run reports its own series.
    Lockstep(LockstepRun),
    /// A point kind's finished lanes, the same for every run sharing them.
    Lanes(Vec<Value>),
}

impl Simulated {
    /// True when the simulation continued from a restored checkpoint.
    fn resumed(&self) -> bool {
        matches!(self, Self::Lockstep(LockstepRun { resumed: true, .. }))
    }
}

/// `true` when run config `cfg` records any series.
fn records_series(cfg: &Value) -> bool {
    cfg.get_field("record").and_then(Value::as_seq).is_some_and(|r| !r.is_empty())
}

/// Simulates `entry`; `series` says whether a run sharing the simulation
/// reports recorded series.
fn simulate(
    ctx: &Ctx,
    entry: &RunEntry,
    series: bool,
    ckpt_path: &Path,
    resume: bool,
    abort_at_slot: Option<usize>,
) -> Result<Simulated, String> {
    let cfg = &entry.config;
    let lanes = match entry.kind.as_str() {
        "lockstep" => {
            return simulate_lockstep(ctx, cfg, series, ckpt_path, resume, abort_at_slot)
                .map(Simulated::Lockstep)
        }
        "workloads" => run_workloads_kind(ctx, cfg),
        "budget_point" => run_budget_point_kind(ctx, cfg),
        "gsd_trace" => run_gsd_trace_kind(ctx, cfg),
        other => Err(format!("unknown run kind {other:?}")),
    }?;
    Ok(Simulated::Lanes(lanes))
}

/// The result file of run `entry` from the simulation it shares.
fn report(entry: &RunEntry, sim: &Simulated) -> Result<Value, String> {
    let lanes = match sim {
        Simulated::Lockstep(run) => report_lockstep(&entry.config, run)?,
        Simulated::Lanes(lanes) => lanes.clone(),
    };
    Ok(run_value(entry, lanes))
}

/// The keys of a lockstep run's config that shape only its result file:
/// runs whose configs differ in nothing else share one simulation.
const REPORT_ONLY_KEYS: [&str; 1] = ["record"];

/// A run's simulation identity: its context (an index into
/// [`contexts`]), kind and resolved config, less a lockstep run's
/// [`REPORT_ONLY_KEYS`]. Runs with equal keys produce the same outcomes,
/// so the batch simulates each key once.
fn simulation_key(entry: &RunEntry, ctx: usize) -> Result<String, String> {
    let config = match (&entry.config, entry.kind.as_str()) {
        (Value::Map(fields), "lockstep") => Value::Map(
            fields
                .iter()
                .filter(|(k, _)| !REPORT_ONLY_KEYS.contains(&k.as_str()))
                .cloned()
                .collect(),
        ),
        (config, _) => config.clone(),
    };
    canonical_json(&Value::Map(vec![
        ("config".to_string(), config),
        ("context".to_string(), Value::Int(ctx as i64)),
        ("kind".to_string(), Value::Str(entry.kind.clone())),
    ]))
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

/// The probe counts of the context V\* a run needs ([`Ctx::vstar`]), one
/// per calibrated COCA lane of a lockstep run.
fn vstar_probes(entry: &RunEntry) -> Vec<usize> {
    let cfg = &entry.config;
    let lanes = match entry.kind.as_str() {
        "lockstep" => cfg.get_field("lanes").and_then(Value::as_seq).unwrap_or(&[]),
        _ => &[],
    };
    lanes
        .iter()
        .filter(|lane| {
            matches!(p_str(lane, "policy"), Ok(None | Some("coca")))
                && matches!(p_str(lane, "v_mode"), Ok(Some("calibrated")))
        })
        .map(|lane| lane_uint(lane, cfg, "calib_probes", 7).unwrap_or(7))
        .collect()
}

/// A deterministic estimate of what a run costs, in COCA lane-slots (one
/// controller stepping one slot), computed from the run's kind and
/// configuration alone. The queue runs the costliest runs first; wall
/// times never enter, so the order — and with it every result and status
/// file — is the same at any worker count. Every run that needs V\* is
/// charged its bisection (the two bracket endpoints plus one pass per
/// probe), which keeps those runs at the head of the queue; only the first
/// one pays it, and [`BatchRunner::queue`] puts a run that does not need
/// it right behind that one.
fn run_cost(entry: &RunEntry, hours: usize) -> u64 {
    let cfg = &entry.config;
    let h = hours as u64;
    let calibration: u64 = vstar_probes(entry).iter().map(|&p| (p as u64 + 2) * h).sum();
    match entry.kind.as_str() {
        "lockstep" => {
            let frames = p_uint(cfg, "trim_frames", 1).unwrap_or(1).max(1);
            let horizon = ((hours / frames).max(1) * frames) as u64;
            let lanes = cfg.get_field("lanes").and_then(Value::as_seq).unwrap_or(&[]);
            let lane_slots: u64 = lanes
                .iter()
                .map(|lane| match p_str(lane, "policy") {
                    Ok(Some("perfect_hp")) => PERFECT_HP_LANE_SLOTS * horizon,
                    _ => horizon,
                })
                .sum();
            lane_slots + calibration
        }
        "budget_point" => {
            // Its own V bisection (probes + 2 passes, one of which is the
            // COCA run it reports) and the OPT plan.
            let probes = p_uint(cfg, "calib_probes", 5).unwrap_or(5) as u64;
            (probes + 2 + OPT_PLAN_PASSES) * h
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

    fn result_path(&self, entry: &RunEntry) -> PathBuf {
        self.runs_dir().join(format!("{}.json", entry.id))
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
/// Each context's pass memo tallies into `metrics` when given.
fn contexts(
    jobs: &[Job<'_>],
    metrics: Option<&BatchMetrics>,
) -> Result<(Vec<Ctx>, Vec<usize>), String> {
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
                let passes = metrics.map_or_else(PassMemo::new, |m| {
                    PassMemo::counted(
                        PassCounts {
                            executed: Arc::clone(&m.coca_runs_executed),
                            shared: Arc::clone(&m.coca_runs_shared),
                        },
                        PassCounts {
                            executed: Arc::clone(&m.opt_sweeps_executed),
                            shared: Arc::clone(&m.opt_sweeps_shared),
                        },
                    )
                });
                ctxs.push(Ctx {
                    scale: m.scale,
                    workload: workload_kind(&m.workload)?,
                    budget_fraction: m.budget_fraction,
                    setup: OnceMap::default(),
                    vstar: OnceMap::default(),
                    passes,
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

    /// Every run as `(manifest index, run index)`, grouped by simulation
    /// ([`simulation_key`]; each group in manifest then run order) and
    /// the groups in queue order: costliest first by [`run_cost`], ties in
    /// the order of each group's first run, except that the group right
    /// behind the first one needing a context's V\* is the costliest that
    /// does not need it. That first group calibrates V\* while every other
    /// one needing it blocks on the context's cache, so the next free
    /// worker gets work it can start. `ctx_of` maps each job to its
    /// context (see [`contexts`]).
    fn queue(&self, ctx_of: &[usize]) -> Result<Vec<Vec<(usize, usize)>>, String> {
        let mut sim_of_key: HashMap<String, usize> = HashMap::new();
        let mut sims: Vec<Vec<(usize, usize)>> = Vec::new();
        for (j, job) in self.jobs.iter().enumerate() {
            for (i, entry) in job.manifest.runs.iter().enumerate() {
                let next = sims.len();
                let k = *sim_of_key.entry(simulation_key(entry, ctx_of[j])?).or_insert(next);
                if k == next {
                    sims.push(Vec::new());
                }
                sims[k].push((j, i));
            }
        }
        // Each group's first run, with its job index.
        let lead = |k: usize| -> (usize, &RunEntry) {
            let (j, i) = sims[k][0];
            (j, &self.jobs[j].manifest.runs[i])
        };
        let mut order: Vec<(u64, usize)> = (0..sims.len())
            .map(|k| {
                let (j, entry) = lead(k);
                (run_cost(entry, self.jobs[j].manifest.scale.hours), k)
            })
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut order: Vec<usize> = order.into_iter().map(|(_, k)| k).collect();

        // V* keys as (context, probe count).
        let needs = |&k: &usize| -> Vec<(usize, usize)> {
            let (j, entry) = lead(k);
            vstar_probes(entry).into_iter().map(|p| (ctx_of[j], p)).collect()
        };
        let mut calibrated: Vec<(usize, usize)> = Vec::new();
        for pos in 0..order.len() {
            let fresh: Vec<_> =
                needs(&order[pos]).into_iter().filter(|key| !calibrated.contains(key)).collect();
            if fresh.is_empty() {
                continue;
            }
            calibrated.extend(&fresh);
            let rest = &mut order[pos + 1..];
            if let Some(n) =
                rest.iter().position(|sim| !needs(sim).iter().any(|key| fresh.contains(key)))
            {
                rest[..=n].rotate_right(1);
            }
        }
        Ok(order.into_iter().map(|k| std::mem::take(&mut sims[k])).collect())
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
    /// context, so its setup is built and V\* calibrated once, and runs
    /// with the same simulation key share one simulation.
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
        let metrics = self.opts.registry.as_ref().map(BatchMetrics::new);
        let (ctxs, ctx_of) = contexts(&self.jobs, metrics.as_ref())?;
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
            metrics,
            completed: AtomicUsize::new(0),
        };
        let queue = self.queue(&shared.ctx_of)?;
        let states =
            parallel::sweep(queue.iter().map(Vec::as_slice).collect(), self.opts.workers, |sim| {
                self.run_shared(&shared, sim)
            });

        let mut by_run: Vec<Vec<RunState>> = self
            .jobs
            .iter()
            .map(|job| job.manifest.runs.iter().map(|_| RunState::Pending).collect())
            .collect();
        for (sim, states) in queue.into_iter().zip(states) {
            for ((j, i), state) in sim.into_iter().zip(states) {
                by_run[j][i] = state;
            }
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

    /// `true` once `kill_after` runs have completed in this invocation.
    fn killed(&self, shared: &Shared) -> bool {
        // audit:atomic(SeqCst; crash-injection test hook counting completed runs — monotonic counter, an off-by-one kill point is harmless)
        self.opts.kill_after.is_some_and(|k| shared.completed.load(Ordering::SeqCst) >= k)
    }

    /// Executes the simulation of `sim`, a group of runs sharing one
    /// simulation key, once, and writes every pending run's result file
    /// from it; runs whose result file exists are skipped. The first
    /// pending run lends its checkpoint path and its log line carries the
    /// duration. Returns each run's state, in `sim` order.
    fn run_shared(&self, shared: &Shared, sim: &[(usize, usize)]) -> Vec<RunState> {
        let metrics = shared.metrics.as_ref();
        let mut states = Vec::with_capacity(sim.len());
        let mut pending = Vec::new();
        for &(j, i) in sim {
            let (job, entry) = self.member((j, i));
            if let Some(m) = metrics {
                m.runs.inc();
            }
            if result_complete(&job.result_path(entry), &entry.id) {
                if let Some(m) = metrics {
                    m.skipped.inc();
                }
                shared.record_state(job, j, i, "skipped".into());
                states.push(RunState::Skipped);
            } else {
                pending.push(states.len());
                states.push(RunState::Pending);
            }
        }
        let Some(&lead) = pending.first() else {
            return states;
        };
        let pend = |k: usize| {
            let (j, i) = sim[k];
            shared.record_state(&self.jobs[j], j, i, "pending".into());
        };
        if self.killed(shared) {
            pending.into_iter().for_each(pend);
            return states;
        }
        let (lead_job, lead_entry) = self.member(sim[lead]);
        let ckpt_path = lead_job.dir.join("ckpt").join(format!("{}.json", lead_entry.id));
        let series = pending.iter().any(|&k| records_series(&self.member(sim[k]).1.config));
        // audit:ordered(timing-only: the duration feeds logs and prometheus metrics, never result files)
        let t0 = Instant::now();
        let simulated = simulate(
            &shared.ctxs[shared.ctx_of[sim[lead].0]],
            lead_entry,
            series,
            &ckpt_path,
            self.opts.resume,
            self.opts.abort_runs_at_slot,
        );
        let resumed = simulated.as_ref().is_ok_and(Simulated::resumed);
        if let (Some(m), Ok(_)) = (metrics, &simulated) {
            m.run_seconds.observe(t0.elapsed().as_secs_f64());
        }
        for k in pending {
            // The kill point may also fall between the result writes of
            // runs sharing one simulation.
            if k != lead && self.killed(shared) {
                pend(k);
                continue;
            }
            let (j, i) = sim[k];
            let (job, entry) = self.member(sim[k]);
            let written = simulated.as_ref().map_err(Clone::clone).and_then(|run| {
                write_atomic(&job.result_path(entry), &canonical_json(&report(entry, run)?)?)
            });
            let span = Span::new("run").lane(&entry.group);
            states[k] = match written {
                Ok(()) => {
                    if let Some(m) = metrics {
                        m.completed.inc();
                        if resumed {
                            m.resumed.inc();
                        }
                    }
                    // audit:atomic(SeqCst; crash-injection test hook counting completed runs — monotonic counter, an off-by-one kill point is harmless)
                    shared.completed.fetch_add(1, Ordering::SeqCst);
                    let took = if k == lead {
                        format!("{:.1?}", t0.elapsed())
                    } else {
                        format!("shares {}", lead_entry.id)
                    };
                    logger::info(&span, &format!("{} done ({took})", entry.id));
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
            };
        }
        states
    }

    /// The job and run entry of `(manifest index, run index)`.
    fn member(&self, (j, i): (usize, usize)) -> (&Job<'m>, &RunEntry) {
        let job = &self.jobs[j];
        (job, &job.manifest.runs[i])
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
        let mut results = HashMap::new();
        for entry in &job.manifest.runs {
            let path = job.result_path(entry);
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
        let runner = BatchRunner::batch(&manifests, BatchOptions::default());
        let (_, ctx_of) = contexts(&runner.jobs, None).expect("contexts");
        let queue = runner.queue(&ctx_of).expect("queue");
        let total: usize = manifests.iter().map(|m| m.runs.len()).sum();
        let mut distinct: Vec<(usize, usize)> = queue.concat();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(
            (queue.concat().len(), distinct.len()),
            (total, total),
            "every run queued exactly once"
        );
        for workers in [1, 2, 4] {
            let opts = BatchOptions { workers, ..BatchOptions::default() };
            let runner = BatchRunner::batch(&manifests, opts);
            assert_eq!(runner.queue(&ctx_of).expect("queue"), queue, "workers {workers}");
        }

        // The one simulation two committed specs share: the Fig. 3 duel is
        // the headline duel, recorded.
        let entry = |(j, i): (usize, usize)| (&manifests[j].spec, &manifests[j].runs[i]);
        let shared: Vec<Vec<&String>> = queue
            .iter()
            .filter(|sim| sim.len() > 1)
            .map(|sim| sim.iter().map(|&run| entry(run).0).collect())
            .collect();
        assert_eq!(shared, [["fig3_perfect_hp", "summary"]], "one shared simulation");
        for sim in &queue {
            let key = |&run: &(usize, usize)| simulation_key(entry(run).1, ctx_of[run.0]).unwrap();
            assert!(sim.iter().all(|run| key(run) == key(&sim[0])), "one key per group");
        }

        // The run behind the first one needing a context's V* (the one that
        // calibrates it) must not need that V*, or a second worker would
        // wait out the calibration.
        let vstar_keys = |sim: &[(usize, usize)]| -> Vec<(usize, usize)> {
            let (j, i) = sim[0];
            vstar_probes(&manifests[j].runs[i]).into_iter().map(|p| (ctx_of[j], p)).collect()
        };
        let mut seen: Vec<(usize, usize)> = Vec::new();
        for (k, sim) in queue.iter().enumerate() {
            for key in vstar_keys(sim) {
                if seen.contains(&key) {
                    continue;
                }
                seen.push(key);
                let next = queue.get(k + 1);
                assert!(
                    next.is_some_and(|n| !vstar_keys(n).contains(&key)),
                    "simulation {k} calibrates V* {key:?}; the one behind it, {next:?}, needs it too"
                );
            }
        }
        assert!(!seen.is_empty(), "the committed specs calibrate V*");

        let entries: Vec<&RunEntry> = queue.iter().map(|sim| entry(sim[0]).1).collect();
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
        let mut kinds: Vec<&str> = entries.iter().map(|e| e.kind.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds, ["budget_point", "gsd_trace", "lockstep", "workloads"], "four run kinds");
        assert_eq!(first.len(), 11, "one perfect_hp duel and ten budget points");
        assert!(!last.is_empty());
        assert!(
            first.iter().max() < last.iter().min(),
            "long simulations must be queued before every short one: {first:?} vs {last:?}"
        );
    }

    /// Where a crash inside [`checkpoint::write_atomic`] can stop: after
    /// the temp file is created, part-way through writing it, after its
    /// fsync, and after the rename but before the directory fsync.
    #[derive(Debug, Clone, Copy)]
    enum WriteStage {
        Created,
        PartlyWritten,
        Synced,
        Renamed,
    }

    const WRITE_STAGES: [WriteStage; 4] =
        [WriteStage::Created, WriteStage::PartlyWritten, WriteStage::Synced, WriteStage::Renamed];

    /// Lays down what a crash at `stage` of writing `new` over `path`
    /// leaves on disk; `path` holds the previous complete file, if any.
    fn crash_while_writing(path: &Path, new: &[u8], stage: WriteStage) {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let stale = match stage {
            WriteStage::Created => &new[..0],
            WriteStage::PartlyWritten => &new[..new.len() / 2],
            WriteStage::Synced => new,
            WriteStage::Renamed => return std::fs::write(path, new).expect("rename lands"),
        };
        std::fs::write(tmp, stale).expect("stale temp file");
    }

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("coca_runner_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_manifest(json: &str) -> Manifest {
        manifest::materialize(&Spec::from_json(json).expect("spec"), ExperimentScale::small())
            .expect("materialize")
    }

    fn run_batch(m: &Manifest, dir: &Path, resume: bool, abort: Option<usize>) -> BatchSummary {
        let opts = BatchOptions {
            dir: dir.to_path_buf(),
            workers: 1,
            resume,
            abort_runs_at_slot: abort,
            ..BatchOptions::default()
        };
        BatchRunner::new(m, opts).run().expect("batch runs")
    }

    fn read(path: &Path) -> Vec<u8> {
        std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// A crash at any stage of a result write leaves a batch `--resume`
    /// completes: a stale `.tmp` is ignored, a complete result is kept and
    /// skipped, and a torn one counts as not completed and runs again.
    #[test]
    fn a_crash_at_every_result_write_stage_resumes_to_the_same_files() {
        let m = small_manifest(
            r#"{"name": "stages", "groups": [{"id": "w", "kind": "workloads",
                "params": {"workload": "fiu"}, "sweep": {"hours": [24, 48, 72, 96, 120]}}]}"#,
        );
        let clean = scratch_dir("results_clean");
        assert!(run_batch(&m, &clean, false, None).is_complete());
        let dir = scratch_dir("results_crashed");
        let job = Job { manifest: &m, dir: dir.clone() };
        job.prepare().expect("batch dir");
        let result =
            |root: &Path, entry: &RunEntry| root.join("runs").join(format!("{}.json", entry.id));
        for (entry, stage) in m.runs.iter().zip(WRITE_STAGES) {
            crash_while_writing(&result(&dir, entry), &read(&result(&clean, entry)), stage);
            let complete = matches!(stage, WriteStage::Renamed);
            assert_eq!(result_complete(&result(&dir, entry), &entry.id), complete, "{stage:?}");
        }
        let torn = &m.runs[4];
        let bytes = read(&result(&clean, torn));
        std::fs::write(result(&dir, torn), &bytes[..bytes.len() / 2]).expect("torn result");
        assert!(!result_complete(&result(&dir, torn), &torn.id), "a torn result is not complete");

        let summary = run_batch(&m, &dir, true, None);
        assert_eq!((summary.completed, summary.skipped, summary.resumed), (4, 1, 0), "{summary:?}");
        for entry in &m.runs {
            assert_eq!(read(&result(&dir, entry)), read(&result(&clean, entry)), "{}", entry.id);
            let mut tmp = result(&dir, entry).into_os_string();
            tmp.push(".tmp");
            assert!(!Path::new(&tmp).exists(), "{}: the stale temp file is consumed", entry.id);
        }
        for d in [clean, dir] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// A crash at any stage of an engine checkpoint write leaves the
    /// previous checkpoint readable (the new one once renamed), a torn one
    /// is a typed error, and `--resume` restores from what is there to the
    /// uninterrupted run's result file.
    #[test]
    fn a_crash_at_every_checkpoint_write_stage_resumes_to_the_same_result() {
        let m = small_manifest(
            r#"{"name": "stages", "groups": [{"id": "duel", "kind": "lockstep", "lanes": [
                {"label": "coca", "policy": "coca", "v_mode": "mult"},
                {"label": "unaware", "policy": "unaware"}]}]}"#,
        );
        let entry = &m.runs[0];
        let clean = scratch_dir("ckpt_clean");
        assert!(run_batch(&m, &clean, false, None).is_complete());
        let result = |root: &Path| read(&root.join("runs").join(format!("{}.json", entry.id)));
        let ckpt = |root: &Path| root.join("ckpt").join(format!("{}.json", entry.id));
        // Checkpoints land every 42 slots at small scale: crashes at slots
        // 100 and 150 leave the ones of slots 84 and 126.
        let later = scratch_dir("ckpt_later");
        assert_eq!(run_batch(&m, &later, false, Some(150)).failures.len(), 1);
        let new_bytes = read(&ckpt(&later));
        let new_state = checkpoint::read_checkpoint(&ckpt(&later)).expect("later checkpoint");
        for stage in WRITE_STAGES {
            let dir = scratch_dir(&format!("ckpt_{stage:?}"));
            assert_eq!(run_batch(&m, &dir, false, Some(100)).failures.len(), 1, "{stage:?}");
            let previous = checkpoint::read_checkpoint(&ckpt(&dir)).expect("previous checkpoint");
            crash_while_writing(&ckpt(&dir), &new_bytes, stage);
            let expected = match stage {
                WriteStage::Renamed => new_state.clone(),
                _ => previous,
            };
            assert_eq!(checkpoint::read_checkpoint(&ckpt(&dir)).ok(), Some(expected), "{stage:?}");
            let summary = run_batch(&m, &dir, true, None);
            assert_eq!((summary.completed, summary.resumed), (1, 1), "{stage:?}: {summary:?}");
            assert_eq!(result(&dir), result(&clean), "{stage:?}");
            let _ = std::fs::remove_dir_all(dir);
        }
        std::fs::write(ckpt(&later), &new_bytes[..new_bytes.len() / 2]).expect("torn checkpoint");
        let torn = checkpoint::read_checkpoint(&ckpt(&later));
        assert!(torn.is_err(), "a torn checkpoint is an error");
        let summary = run_batch(&m, &later, true, None);
        assert!(summary.is_complete());
        assert_eq!((summary.completed, summary.resumed), (1, 0), "{summary:?}");
        let status = std::fs::read_to_string(later.join("status.json")).expect("status.json");
        let status: Value = serde_json::from_str(&status).expect("status parses");
        let state = status.get_field("runs").and_then(|r| r.get_field(&entry.id)).and_then(str_of);
        assert_eq!(state, Some("completed"), "a torn checkpoint restores nothing");
        assert_eq!(result(&later), result(&clean), "a torn checkpoint is ignored");
        for d in [clean, later] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    /// The frame-reset ablation is a lockstep sweep over `trim_frames`: its
    /// one-frame run is the V\* calibration's pass, which the context's memo
    /// serves, and its three multi-frame runs simulate. A spec naming the
    /// retired `frame_reset` kind does not materialize.
    #[test]
    fn ablation_one_frame_run_is_the_calibrations_pass() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../scenarios/ablation_frame_reset.json");
        let sp = Spec::load(&path).expect("spec parses");
        let m = manifest::materialize(&sp, ExperimentScale::small()).expect("materialize");
        let registry = Arc::new(MetricsRegistry::new());
        let dir = scratch_dir("ablation");
        let opts = BatchOptions {
            dir: dir.clone(),
            workers: 1,
            registry: Some(Arc::clone(&registry)),
            ..BatchOptions::default()
        };
        let runner = BatchRunner::new(&m, opts);
        assert!(runner.run().expect("batch runs").is_complete());

        let setup = PaperSetup::build(ExperimentScale::small(), WorkloadKind::Fiu, 0.92)
            .expect("setup");
        let memo = PassMemo::new();
        let (vstar, at_vstar) = figures::calibrate_v(&setup, 7, &memo).expect("calibration");
        let calibration = memo.coca_runs();
        let snap = registry.snapshot();
        assert_eq!(
            (
                snap.counter("batch_coca_runs_executed_total"),
                snap.counter("batch_coca_runs_shared_total")
            ),
            (Some(calibration.executed.get() + 3), Some(calibration.shared.get() + 1)),
            "the multi-frame runs simulate, the one-frame run is shared"
        );

        let results = runner.load_results().expect("results load");
        let one = m
            .runs
            .iter()
            .find(|e| e.config.get_field("trim_frames").and_then(uint) == Some(1))
            .expect("a one-frame run");
        let lanes = results[&one.id].get_field("lanes").and_then(Value::as_seq).expect("lanes");
        let scalar = |name: &str| {
            let scalars = lanes[0].get_field("scalars").expect("scalars");
            scalars.get_field(name).and_then(num).unwrap_or_else(|| panic!("{name}")).to_bits()
        };
        let brown = at_vstar.total_brown_energy();
        // The runner prorates the budget to the (here untrimmed) horizon.
        let hours = setup.trace.len() as f64;
        for (name, want) in [
            ("avg_hourly_cost", at_vstar.avg_hourly_cost()),
            ("avg_hourly_deficit", at_vstar.avg_hourly_deficit()),
            ("total_brown_energy", brown),
            ("brown_over_budget", brown / (setup.budget_kwh * hours / hours)),
            ("peak_queue", at_vstar.peak_queue().expect("COCA's peak queue")),
            ("v_used", vstar),
        ] {
            assert_eq!(scalar(name), want.to_bits(), "{name}");
        }

        let retired = Spec::from_json(
            r#"{"name": "retired", "groups": [{"id": "frames", "kind": "frame_reset",
                "params": {"v_mode": "calibrated"}, "sweep": {"frames": [1, 2]}}]}"#,
        )
        .expect("spec parses");
        let err = manifest::materialize(&retired, ExperimentScale::small())
            .expect_err("frame_reset is not a run kind");
        assert!(err.contains("unknown run kind \"frame_reset\""), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn committed_specs_share_two_contexts() {
        let manifests = committed_small_manifests();
        let runner = BatchRunner::batch(&manifests, BatchOptions::default());
        let (ctxs, ctx_of) = contexts(&runner.jobs, None).expect("contexts");
        assert_eq!(ctxs.len(), 2, "(small, fiu, 0.92) and (small, msr, 0.92)");
        assert_eq!(ctx_of.len(), manifests.len());
    }
}
