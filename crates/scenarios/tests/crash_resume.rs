//! Crash-resume soundness: a batch interrupted at an arbitrary point —
//! between runs (`kill_after`) and/or mid-run at a checkpoint boundary
//! (`abort_runs_at_slot`) — and then resumed must produce run result files
//! byte-identical to an uninterrupted batch. This is the property that
//! makes resumable orchestration trustworthy: a restored run is the same
//! run, not a similar one.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use coca_experiments::ExperimentScale;
use coca_scenarios::{manifest, BatchOptions, BatchRunner, Manifest, Spec};
use proptest::prelude::*;

/// Three cheap lockstep runs (constant-V COCA, no calibration) so each
/// proptest case costs a handful of 336-slot simulations. The `recorded`
/// run differs from the first `sweep` run only in what it reports, so the
/// two share one simulation, and kill points and crashes fall inside it.
const SPEC_JSON: &str = r#"{
  "name": "crash_resume_probe",
  "groups": [
    {"id": "sweep", "kind": "lockstep",
     "sweep": {"switch_kwh": [0.0, 0.01]},
     "lanes": [{"label": "coca", "policy": "coca", "v_mode": "mult", "v_mult": 1.0}]},
    {"id": "recorded", "kind": "lockstep",
     "params": {"switch_kwh": 0.0, "record": ["cumavg_cost"]},
     "lanes": [{"label": "coca", "policy": "coca", "v_mode": "mult", "v_mult": 1.0}]}
  ],
  "figures": []
}"#;

fn probe_manifest() -> &'static Manifest {
    static M: OnceLock<Manifest> = OnceLock::new();
    M.get_or_init(|| {
        let spec = Spec::from_json(SPEC_JSON).expect("spec parses");
        manifest::materialize(&spec, ExperimentScale::small()).expect("materialize")
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coca_crash_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_batch(
    dir: &Path,
    resume: bool,
    kill_after: Option<usize>,
    abort_runs_at_slot: Option<usize>,
) -> (coca_scenarios::BatchSummary, BatchRunner<'static>) {
    let runner = BatchRunner::new(
        probe_manifest(),
        BatchOptions {
            dir: dir.to_path_buf(),
            workers: 1,
            resume,
            kill_after,
            abort_runs_at_slot,
            ..Default::default()
        },
    );
    let summary = runner.run().expect("batch executes");
    (summary, runner)
}

/// Reads every per-run result file, keyed by run ID.
fn run_bytes(runner: &BatchRunner<'_>) -> HashMap<String, Vec<u8>> {
    let runs_dir = runner.runs_dir();
    probe_manifest()
        .runs
        .iter()
        .map(|r| {
            let path = runs_dir.join(format!("{}.json", r.id));
            (r.id.clone(), std::fs::read(&path).expect("result file"))
        })
        .collect()
}

/// The uninterrupted reference batch, run once and shared by every case.
fn baseline() -> &'static HashMap<String, Vec<u8>> {
    static B: OnceLock<HashMap<String, Vec<u8>>> = OnceLock::new();
    B.get_or_init(|| {
        let dir = fresh_dir("baseline");
        let (summary, runner) = run_batch(&dir, false, None, None);
        assert!(summary.is_complete(), "baseline incomplete: {summary:?}");
        let bytes = run_bytes(&runner);
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

#[test]
fn mid_run_abort_restores_from_checkpoint() {
    let dir = fresh_dir("deterministic");
    // Both simulations die at the first checkpoint at or past slot 100,
    // failing all three runs.
    let (first, _) = run_batch(&dir, false, None, Some(100));
    assert_eq!(first.failures.len(), 3, "every run should crash: {first:?}");
    let (second, runner) = run_batch(&dir, true, None, None);
    assert!(second.is_complete(), "resume incomplete: {second:?}");
    assert_eq!(second.resumed, 3, "every run should restore from a checkpoint");
    assert!(run_bytes(&runner) == *baseline(), "restored run files differ from the baseline");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn completed_results_are_skipped_not_rerun() {
    let dir = fresh_dir("skip");
    let (first, _) = run_batch(&dir, false, None, None);
    assert!(first.is_complete());
    let (second, runner) = run_batch(&dir, true, None, None);
    assert!(second.is_complete());
    assert_eq!(second.skipped, 3);
    assert_eq!(second.resumed, 0);
    assert!(run_bytes(&runner) == *baseline(), "skipped run files differ from the baseline");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_result_files_rerun_on_resume() {
    // A zero-length file and a torn one (say, the data of a rename lost
    // by a filesystem that was not fsync'd) must count as not completed.
    // The zeroed run shares its simulation with the `recorded` run, whose
    // result stays, so that simulation re-runs for one of its two runs.
    let dir = fresh_dir("truncated");
    let (first, runner) = run_batch(&dir, false, None, None);
    assert!(first.is_complete());
    let manifest_bytes = std::fs::read(dir.join("manifest.json")).expect("manifest");
    let ids: Vec<&String> = probe_manifest().runs.iter().map(|r| &r.id).collect();
    let zero = runner.runs_dir().join(format!("{}.json", ids[0]));
    std::fs::write(&zero, b"").expect("truncate to zero");
    let torn = runner.runs_dir().join(format!("{}.json", ids[1]));
    let bytes = std::fs::read(&torn).expect("result file");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("truncate to half");

    let (second, runner) = run_batch(&dir, true, None, None);
    assert!(second.is_complete(), "resume incomplete: {second:?}");
    assert_eq!((second.completed, second.skipped), (2, 1), "both runs must execute again");
    assert!(run_bytes(&runner) == *baseline(), "re-run files differ from the baseline");
    assert_eq!(std::fs::read(dir.join("manifest.json")).expect("manifest"), manifest_bytes);
    assert_eq!(runner.load_results().expect("results load").len(), 3);

    // Once repaired, the next resume skips all three.
    let (third, _) = run_batch(&dir, true, None, None);
    assert_eq!(third.skipped, 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_inside_a_shared_simulation_resumes_bit_identical() {
    let dir = fresh_dir("shared");
    // The crash falls inside the shared simulation: both of its runs fail.
    let (first, _) = run_batch(&dir, false, None, Some(100));
    assert_eq!(first.failures.len(), 3, "every run should crash: {first:?}");
    // The restored shared simulation writes one of its runs; the kill
    // point falls before the other's result file.
    let (second, _) = run_batch(&dir, true, Some(1), None);
    assert_eq!((second.completed, second.resumed, second.pending), (1, 1, 2), "{second:?}");
    // The run left pending simulates alone, from scratch; the other
    // pending run restores from its checkpoint.
    let (third, runner) = run_batch(&dir, true, None, None);
    assert!(third.is_complete(), "resume incomplete: {third:?}");
    assert_eq!((third.completed, third.resumed, third.skipped), (2, 1, 1), "{third:?}");
    assert!(run_bytes(&runner) == *baseline(), "resumed run files differ from the baseline");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Kill the batch after a random number of runs, optionally also
    /// crashing in-flight runs at a random checkpoint; one resume pass must
    /// complete the batch with results bit-identical to the baseline.
    #[test]
    fn interrupted_batch_resumes_bit_identical(
        kill_after in 0usize..4,
        abort_slot in 1usize..400,
        use_abort in proptest::bool::ANY,
    ) {
        let dir = fresh_dir(&format!("p{kill_after}_{abort_slot}_{use_abort}"));
        let kill = (kill_after < 3).then_some(kill_after);
        let abort = use_abort.then_some(abort_slot);
        let (first, _) = run_batch(&dir, false, kill, abort);
        prop_assert_eq!(first.total, 3);

        let (second, runner) = run_batch(&dir, true, None, None);
        prop_assert!(second.is_complete(), "resume incomplete: {:?}", second);
        prop_assert_eq!(second.skipped, first.completed, "completed runs must not re-run");
        let resumed = run_bytes(&runner);
        prop_assert!(resumed == *baseline(), "resumed run files differ from the baseline");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
