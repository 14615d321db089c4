//! The memo of deterministic passes that one batch context shares.
//!
//! A figure batch repeats whole passes. A budget point's V\* bisection runs
//! COCA runs the context's own bisection already ran, several figures run
//! COCA at V\*, and every binding OPT plan opens with the same μ-sweeps.
//! [`PassMemo`] runs each such pass once and hands its result to every
//! later caller. It keeps two kinds of pass:
//!
//! * **COCA runs** at a constant V, keyed by their materialised inputs:
//!   fleet, cost parameters, the trace's four series, RECs, V, frame length
//!   and φ ([`CocaPass`]).
//! * **OPT μ-sweeps** of one frame, keyed by the frame's inputs (fleet, cost
//!   parameters, its workload, on-site and price series), μ, and the
//!   solver's warm state before the sweep ([`SweepFrame`]). A solve is a pure
//!   function of its problem and the warm state, because the solver's state
//!   memo and water-filling brackets live for one solve. Keying on the warm
//!   state therefore makes the reuse exact.
//!
//! Keys compare by value, floats by their bits, never by config text or by
//! pointer. Fleets and series are interned: each distinct one is stored once
//! and keys hold its index. Values hold only what the searches and reports
//! read ([`RunSummary`], [`SweepSummary`]), never an outcome or a plan.
//!
//! Each key is computed once. [`OnceMap`] gives every key its own cell, so a
//! slow key holds no other key's caller, and a caller that finds its key
//! being computed waits for it. A computation that fails leaves the cell
//! empty, and the next caller computes it again.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::Hash;
use std::sync::Arc;

use coca_obs::Counter;
use coca_traces::EnvironmentTrace;
use parking_lot::Mutex;
use serde::Value;

use crate::{Cluster, CostParams, SimOutcome};

/// A map whose every key is computed once, by the first caller that asks
/// for it; concurrent callers of the same key wait for that one.
#[derive(Debug)]
pub struct OnceMap<K, V> {
    cells: Mutex<HashMap<K, Arc<Mutex<Option<V>>>>>,
}

impl<K, V> Default for OnceMap<K, V> {
    fn default() -> Self {
        Self { cells: Mutex::new(HashMap::new()) }
    }
}

impl<K: Eq + Hash, V: Clone> OnceMap<K, V> {
    /// The value of `key` and whether this call computed it. The map lock
    /// is held only to find the key's cell; `init` runs under the cell's
    /// own lock. An `init` error is returned and leaves the key unset.
    ///
    /// # Errors
    /// The error of `init`.
    pub fn get_or_try_init<E>(
        &self,
        key: K,
        init: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let cell = Arc::clone(self.cells.lock().entry(key).or_default());
        let mut slot = cell.lock();
        if let Some(value) = slot.as_ref() {
            return Ok((value.clone(), false));
        }
        let value = init()?;
        *slot = Some(value.clone());
        Ok((value, true))
    }
}

/// How many passes of one kind a memo executed, and how many it served
/// from an earlier one.
#[derive(Debug, Clone, Default)]
pub struct PassCounts {
    /// Passes run.
    pub executed: Arc<Counter>,
    /// Passes answered from an earlier run of the same key.
    pub shared: Arc<Counter>,
}

impl PassCounts {
    fn tally(&self, executed: bool) {
        if executed { &self.executed } else { &self.shared }.inc();
    }
}

/// What the searches and reports read of one simulated lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    total_cost: f64,
    avg_hourly_cost: f64,
    avg_hourly_deficit: f64,
    total_brown_energy: f64,
    carbon_neutral: bool,
    peak_queue: Option<f64>,
}

impl RunSummary {
    /// The summary of `out`; `peak_queue` is the lane's peak deficit queue,
    /// `None` for a policy that keeps none.
    pub fn of(out: &SimOutcome, peak_queue: Option<f64>) -> Self {
        Self {
            total_cost: out.total_cost(),
            avg_hourly_cost: out.avg_hourly_cost(),
            avg_hourly_deficit: out.avg_hourly_deficit(),
            total_brown_energy: out.total_brown_energy(),
            carbon_neutral: out.is_carbon_neutral(),
            peak_queue,
        }
    }

    /// [`SimOutcome::total_cost`].
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }

    /// [`SimOutcome::avg_hourly_cost`].
    pub fn avg_hourly_cost(&self) -> f64 {
        self.avg_hourly_cost
    }

    /// [`SimOutcome::avg_hourly_deficit`].
    pub fn avg_hourly_deficit(&self) -> f64 {
        self.avg_hourly_deficit
    }

    /// [`SimOutcome::total_brown_energy`].
    pub fn total_brown_energy(&self) -> f64 {
        self.total_brown_energy
    }

    /// [`SimOutcome::is_carbon_neutral`].
    pub fn is_carbon_neutral(&self) -> bool {
        self.carbon_neutral
    }

    /// The lane's peak deficit queue (kWh), if it keeps one.
    pub fn peak_queue(&self) -> Option<f64> {
        self.peak_queue
    }
}

/// What a budget search reads of one OPT μ-sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Plain cost `Σ g(t)` of the sweep's plan.
    pub cost: f64,
    /// Brown energy `Σ y(t)` of the sweep's plan.
    pub brown: f64,
    /// The solver's warm state after the sweep, as its `snapshot_state`
    /// gives it.
    pub warm_after: Value,
}

/// The inputs of one COCA run at constant V: the key of a
/// [`PassMemo::coca_run`] entry. The controller solves P3 with the
/// symmetric solver and α = 1, over the whole trace as its horizon.
#[derive(Debug, Clone, Copy)]
pub struct CocaPass<'a> {
    /// The fleet.
    pub cluster: &'a Cluster,
    /// Cost parameters (engine and controller).
    pub cost: CostParams,
    /// The environment trace.
    pub trace: &'a EnvironmentTrace,
    /// RECs Z (kWh).
    pub rec_total: f64,
    /// The constant V.
    pub v: f64,
    /// Frame length T.
    pub frame: usize,
    /// Workload overestimation φ.
    pub phi: f64,
}

/// The inputs of one frame of an OPT plan: with μ and the solver's warm
/// state, the key of a [`PassMemo::opt_sweep`] entry.
#[derive(Debug, Clone, Copy)]
pub struct SweepFrame<'a> {
    /// The fleet.
    pub cluster: &'a Cluster,
    /// Cost parameters.
    pub cost: CostParams,
    /// λ(t) over the frame.
    pub workload: &'a [f64],
    /// r(t) over the frame.
    pub onsite: &'a [f64],
    /// w(t) over the frame.
    pub price: &'a [f64],
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct CocaKey {
    fleet: usize,
    cost: [u64; 4],
    /// Workload, on-site, off-site and price series.
    series: [usize; 4],
    rec_total: u64,
    v: u64,
    frame: usize,
    phi: u64,
}

#[derive(Debug, PartialEq, Eq, Hash)]
struct SweepKey {
    fleet: usize,
    cost: [u64; 4],
    /// Workload, on-site and price series of the frame.
    series: [usize; 3],
    mu: u64,
    /// The warm state, encoded by [`write_value_key`].
    warm: String,
}

/// Each distinct value once; its index identifies it in keys.
#[derive(Debug)]
struct Pool<T>(Mutex<Vec<T>>);

impl<T> Default for Pool<T> {
    fn default() -> Self {
        Self(Mutex::new(Vec::new()))
    }
}

impl<T> Pool<T> {
    fn id(&self, same: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> usize {
        let mut items = self.0.lock();
        items.iter().position(same).unwrap_or_else(|| {
            items.push(make());
            items.len() - 1
        })
    }
}

fn cost_bits(cost: CostParams) -> [u64; 4] {
    // Destructured, so a new field cannot be left out of the key.
    let CostParams { beta, gamma, pue, switch_energy_kwh } = cost;
    [beta, gamma, pue, switch_energy_kwh].map(f64::to_bits)
}

/// Appends an exact, unambiguous encoding of `value` to `out`.
fn write_value_key(value: &Value, out: &mut String) {
    // Writing to a `String` cannot fail.
    let _ = match value {
        Value::Null => write!(out, "n"),
        Value::Bool(b) => write!(out, "b{}", u8::from(*b)),
        Value::Int(i) => write!(out, "i{i};"),
        Value::Float(f) => write!(out, "f{:x};", f.to_bits()),
        Value::Str(s) => write!(out, "s{}:{s}", s.len()),
        Value::Seq(items) => {
            out.push('[');
            items.iter().for_each(|item| write_value_key(item, out));
            write!(out, "]")
        }
        Value::Map(entries) => {
            out.push('{');
            for (k, v) in entries {
                let _ = write!(out, "{}:{k}", k.len());
                write_value_key(v, out);
            }
            write!(out, "}}")
        }
    };
}

/// The passes one batch context has run (see the module docs).
#[derive(Debug, Default)]
pub struct PassMemo {
    fleets: Pool<Cluster>,
    series: Pool<Vec<f64>>,
    coca: OnceMap<CocaKey, RunSummary>,
    sweeps: OnceMap<SweepKey, SweepSummary>,
    coca_counts: PassCounts,
    sweep_counts: PassCounts,
}

impl PassMemo {
    /// An empty memo, for a caller with nothing to share.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty memo that tallies its COCA runs and OPT sweeps into the
    /// given counters.
    pub fn counted(coca_runs: PassCounts, opt_sweeps: PassCounts) -> Self {
        Self { coca_counts: coca_runs, sweep_counts: opt_sweeps, ..Self::default() }
    }

    /// COCA runs executed and shared.
    pub fn coca_runs(&self) -> &PassCounts {
        &self.coca_counts
    }

    /// OPT μ-sweeps executed and shared. A plan rebuilt from a shared
    /// sweep counts its rebuild as executed.
    pub fn opt_sweeps(&self) -> &PassCounts {
        &self.sweep_counts
    }

    fn fleet_id(&self, cluster: &Cluster) -> usize {
        self.fleets.id(|c| c == cluster, || cluster.clone())
    }

    fn series_id(&self, series: &[f64]) -> usize {
        let same = |s: &Vec<f64>| {
            s.len() == series.len() && s.iter().zip(series).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        self.series.id(same, || series.to_vec())
    }

    /// The summary of the COCA run `pass` and whether this call ran it:
    /// `execute` runs only when no earlier call has run the same inputs.
    ///
    /// # Errors
    /// The error of `execute`.
    pub fn coca_run<E>(
        &self,
        pass: CocaPass<'_>,
        execute: impl FnOnce() -> Result<RunSummary, E>,
    ) -> Result<(RunSummary, bool), E> {
        let EnvironmentTrace { workload, onsite, offsite, price } = pass.trace;
        let key = CocaKey {
            fleet: self.fleet_id(pass.cluster),
            cost: cost_bits(pass.cost),
            series: [workload, onsite, offsite, price].map(|s| self.series_id(s)),
            rec_total: pass.rec_total.to_bits(),
            v: pass.v.to_bits(),
            frame: pass.frame,
            phi: pass.phi.to_bits(),
        };
        let (summary, executed) = self.coca.get_or_try_init(key, execute)?;
        self.coca_counts.tally(executed);
        Ok((summary, executed))
    }

    /// The summary of the μ-sweep of `frame` from the solver warm state
    /// `warm_before`, and whether this call ran it: `execute` runs only
    /// when no earlier call has swept the same frame at the same μ from the
    /// same warm state. After a shared sweep the caller restores
    /// [`SweepSummary::warm_after`] into its solver.
    ///
    /// # Errors
    /// The error of `execute`.
    pub fn opt_sweep<E>(
        &self,
        frame: SweepFrame<'_>,
        mu: f64,
        warm_before: &Value,
        execute: impl FnOnce() -> Result<SweepSummary, E>,
    ) -> Result<(SweepSummary, bool), E> {
        let mut warm = String::new();
        write_value_key(warm_before, &mut warm);
        let key = SweepKey {
            fleet: self.fleet_id(frame.cluster),
            cost: cost_bits(frame.cost),
            series: [frame.workload, frame.onsite, frame.price].map(|s| self.series_id(s)),
            mu: mu.to_bits(),
            warm,
        };
        let (summary, executed) = self.sweeps.get_or_try_init(key, execute)?;
        self.sweep_counts.tally(executed);
        Ok((summary, executed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_map_computes_each_key_once_and_retries_failures() {
        let map: OnceMap<u32, u32> = OnceMap::default();
        assert_eq!(map.get_or_try_init(1, || Ok::<_, ()>(10)), Ok((10, true)));
        assert_eq!(map.get_or_try_init(1, || Ok::<_, ()>(11)), Ok((10, false)));
        assert_eq!(map.get_or_try_init(2, || Err::<u32, _>("boom")), Err("boom"));
        assert_eq!(map.get_or_try_init(2, || Ok::<_, &str>(20)), Ok((20, true)));
    }

    #[test]
    fn concurrent_callers_of_one_key_wait_for_its_first_computation() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let map: &OnceMap<u32, u32> = &OnceMap::default();
        let (entered, first_inside) = channel();
        let (overlap, overlapped) = channel();
        let (first, second) = std::thread::scope(|s| {
            let first = s.spawn(move || {
                map.get_or_try_init(7, || {
                    entered.send(()).expect("test thread alive");
                    // A second computation of the key, run beside this one,
                    // would report here.
                    let overlapping = overlapped.recv_timeout(Duration::from_millis(100)).is_ok();
                    Ok::<_, ()>(if overlapping { 0 } else { 70 })
                })
            });
            first_inside.recv().expect("first caller computes");
            let second = s.spawn(move || {
                map.get_or_try_init(7, || {
                    let _ = overlap.send(());
                    Ok::<_, ()>(71)
                })
            });
            (first.join().expect("first caller"), second.join().expect("second caller"))
        });
        assert_eq!((first, second), (Ok((70, true)), Ok((70, false))));
    }

    #[test]
    fn value_keys_are_exact_and_unambiguous() {
        let key = |v: &Value| {
            let mut s = String::new();
            write_value_key(v, &mut s);
            s
        };
        let pair = |a, b| Value::Seq(vec![Value::Int(a), Value::Int(b)]);
        assert_ne!(key(&Value::Seq(vec![pair(1, 2)])), key(&Value::Seq(vec![pair(12, 0)])));
        assert_ne!(key(&Value::Float(0.0)), key(&Value::Float(-0.0)));
        assert_ne!(key(&Value::Null), key(&Value::Seq(Vec::new())));
        let map = |k: &str, v: &str| Value::Map(vec![(k.into(), Value::Str(v.into()))]);
        assert_ne!(key(&map("a", "bc")), key(&map("ab", "c")));
    }

    #[test]
    fn sweep_keys_include_mu_and_the_warm_state() {
        let cluster = Cluster::homogeneous(2, 5);
        let series = [1.0, 2.0, 3.0];
        let frame = SweepFrame {
            cluster: &cluster,
            cost: CostParams::default(),
            workload: &series,
            onsite: &series,
            price: &series,
        };
        let memo = PassMemo::new();
        let warm = |level| Value::Seq(vec![Value::Seq(vec![Value::Int(level), Value::Int(2)])]);
        let sweep =
            |cost| move || Ok::<_, ()>(SweepSummary { cost, brown: 1.0, warm_after: warm(1) });
        let first = memo.opt_sweep(frame, 0.5, &warm(3), sweep(1.0)).unwrap();
        assert!(first.1);
        assert_eq!(memo.opt_sweep(frame, 0.5, &warm(3), sweep(2.0)).unwrap().0.cost, 1.0);
        let copy = series.to_vec();
        let same = SweepFrame { workload: &copy, ..frame };
        assert!(!memo.opt_sweep(same, 0.5, &warm(3), sweep(2.0)).unwrap().1);
        for (mu, w) in [(0.5, warm(2)), (0.5, Value::Null), (0.25, warm(3))] {
            let fresh = memo.opt_sweep(frame, mu, &w, sweep(2.0)).unwrap();
            assert_eq!(fresh, (sweep(2.0)().unwrap(), true));
        }
        assert_eq!((memo.opt_sweeps().executed.get(), memo.opt_sweeps().shared.get()), (4, 2));
    }

    #[test]
    fn coca_keys_compare_inputs_by_value() {
        let cluster = Cluster::homogeneous(2, 5);
        let trace = coca_traces::TraceConfig { hours: 24, ..Default::default() }.generate();
        let memo = PassMemo::new();
        let pass = CocaPass {
            cluster: &cluster,
            cost: CostParams::default(),
            trace: &trace,
            rec_total: 1.0,
            v: 2.0,
            frame: 24,
            phi: 1.0,
        };
        let summary = RunSummary {
            total_cost: 1.0,
            avg_hourly_cost: 1.0,
            avg_hourly_deficit: 0.0,
            total_brown_energy: 1.0,
            carbon_neutral: true,
            peak_queue: Some(0.5),
        };
        let run = || Ok::<_, ()>(summary);
        assert!(memo.coca_run(pass, run).unwrap().1, "first run executes");
        // Equal copies of every input: shared.
        let (cluster2, trace2) = (cluster.clone(), trace.clone());
        let copy = CocaPass { cluster: &cluster2, trace: &trace2, ..pass };
        assert_eq!(memo.coca_run(copy, run), Ok((summary, false)));
        // One off-site value, the sign of a zero, V or φ differs: executed.
        let mut other = trace.clone();
        other.offsite[3] += 1e-9;
        let cost = CostParams { switch_energy_kwh: -0.0, ..CostParams::default() };
        for differs in [
            CocaPass { trace: &other, ..pass },
            CocaPass { cost, ..pass },
            CocaPass { v: 2.000_000_000_000_001, ..pass },
            CocaPass { phi: 1.05, ..pass },
            CocaPass { frame: 12, ..pass },
        ] {
            assert!(memo.coca_run(differs, run).unwrap().1, "{differs:?}");
        }
        assert_eq!((memo.coca_runs().executed.get(), memo.coca_runs().shared.get()), (6, 1));
    }
}
