//! Damaged engine checkpoints have defined behaviour. A real checkpoint
//! (one COCA lane, 24 slots in) is truncated at every byte offset and,
//! separately, has single bytes overwritten; each variant goes through
//! `read_checkpoint` and `SimEngine::restore`, and one `step` when it
//! restores. Every variant must be restored and stepped or rejected with a
//! typed error, never a panic, and every strict truncation must be
//! rejected. A state-only lane (the resident
//! service's checkpoint, a few hundred bytes) gets every overwrite byte at
//! every offset; a lane that keeps its record history (the batch runner's,
//! ~9 KB) gets one per offset, rotating through the set.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use coca::core::symmetric::SymmetricSolver;
use coca::core::{CocaConfig, CocaController, VSchedule};
use coca::dcsim::{
    read_checkpoint, write_checkpoint, Cluster, CostParams, EngineBuilder, RecordSink, SimEngine,
    SummarySink, VecSink,
};
use coca::traces::{EnvironmentTrace, TraceConfig, WorkloadKind};

const SLOTS: usize = 24;
const REC_TOTAL: f64 = 20.0;

/// Digits and a sign that keep a number parseable, JSON structure, a
/// letter, and a byte that is not UTF-8.
const OVERWRITES: [u8; 8] = [b'0', b'9', b'-', b'"', b'}', b']', b'x', 0xFF];

struct Fixture {
    cluster: Arc<Cluster>,
    env: EnvironmentTrace,
    keep_history: bool,
    dir: PathBuf,
}

impl Fixture {
    fn new(keep_history: bool) -> Self {
        let cluster = Arc::new(Cluster::scaled_paper_datacenter(4, 5));
        let env = TraceConfig {
            hours: 2 * SLOTS,
            workload_kind: WorkloadKind::Fiu,
            peak_arrival_rate: 0.5 * cluster.max_capacity(),
            onsite_energy_kwh: 2.0,
            offsite_energy_kwh: 4.0,
            mean_price: 0.5,
            seed: 11,
            ..Default::default()
        }
        .generate();
        let pid = std::process::id();
        let dir = std::env::temp_dir().join(format!("coca_ckpt_damage_{pid}_{keep_history}"));
        std::fs::create_dir_all(&dir).expect("temp dir");
        Self { cluster, env, keep_history, dir }
    }

    fn engine(&self) -> SimEngine<'_, &EnvironmentTrace> {
        let cost = CostParams::default();
        let cfg = CocaConfig {
            v: VSchedule::Constant(100.0),
            frame_length: SLOTS,
            horizon: 2 * SLOTS,
            alpha: 1.0,
            rec_total: REC_TOTAL,
        };
        let coca = Box::new(CocaController::new(
            Arc::clone(&self.cluster),
            cost,
            cfg,
            SymmetricSolver::new(),
        ));
        let sink: Box<dyn RecordSink> = if self.keep_history {
            Box::new(VecSink::new())
        } else {
            Box::new(SummarySink::new())
        };
        EngineBuilder::new(Arc::clone(&self.cluster), cost)
            .rec_total(REC_TOTAL)
            .policy_with_sink(coca, sink)
            .build(&self.env)
            .expect("engine builds")
    }

    /// Reads the checkpoint at `path` into a fresh engine and steps it
    /// once; `Err` carries the typed error's message.
    fn load(&self, path: &Path) -> Result<(), String> {
        let state = read_checkpoint(path).map_err(|e| e.to_string())?;
        let mut engine = self.engine();
        engine.restore(&state).map_err(|e| e.to_string())?;
        engine.step().map(drop).map_err(|e| e.to_string())
    }

    /// Loads `bytes` as a checkpoint file; a panic fails the test naming
    /// the variant.
    fn load_variant(&self, bytes: &[u8], what: impl Fn() -> String) -> Result<(), String> {
        let path = self.dir.join("variant.ckpt");
        std::fs::write(&path, bytes).expect("variant written");
        catch_unwind(AssertUnwindSafe(|| self.load(&path)))
            .unwrap_or_else(|_| panic!("{}: read_checkpoint + restore + step panicked", what()))
    }
}

/// Checkpoints after [`SLOTS`] slots, truncates the file at every offset,
/// then overwrites each offset with `per_offset` bytes of [`OVERWRITES`].
/// Returns how many overwrites restored and how many were rejected.
fn sweep(fx: &Fixture, per_offset: usize) -> (usize, usize) {
    let mut engine = fx.engine();
    for _ in 0..SLOTS {
        engine.step().expect("step");
    }
    let path = fx.dir.join("engine.ckpt");
    write_checkpoint(&path, &engine.checkpoint().expect("checkpoint")).expect("written");
    assert_eq!(fx.load(&path), Ok(()), "the undamaged checkpoint restores and steps");
    let bytes = std::fs::read(&path).expect("checkpoint reads");

    for len in 0..bytes.len() {
        let outcome = fx.load_variant(&bytes[..len], || format!("truncated to {len}"));
        assert!(outcome.is_err(), "truncation to {len} of {} bytes was accepted", bytes.len());
    }
    let (mut restored, mut rejected) = (0, 0);
    let mut damaged = bytes.clone();
    for at in 0..bytes.len() {
        for &b in OVERWRITES.iter().cycle().skip(at % OVERWRITES.len()).take(per_offset) {
            if b == bytes[at] {
                continue;
            }
            damaged[at] = b;
            match fx.load_variant(&damaged, || format!("byte {at} set to {b:#04x}")) {
                Ok(()) => restored += 1,
                Err(_) => rejected += 1,
            }
        }
        damaged[at] = bytes[at];
    }
    std::fs::remove_dir_all(&fx.dir).ok();
    (restored, rejected)
}

#[test]
fn damaged_state_only_checkpoints_yield_typed_errors() {
    let (restored, rejected) = sweep(&Fixture::new(false), OVERWRITES.len());
    // Overwrites inside numbers still parse; structural ones must not.
    assert!(restored > 0 && rejected > restored, "{restored} restored, {rejected} rejected");
}

#[test]
fn damaged_history_checkpoints_yield_typed_errors() {
    let (restored, rejected) = sweep(&Fixture::new(true), 1);
    assert!(restored > 0 && rejected > restored, "{restored} restored, {rejected} rejected");
}
