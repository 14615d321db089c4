//! One queue for several manifests changes nothing on disk: specs run
//! together through `BatchRunner::batch` — sharing one context and one
//! worker pool — leave every `manifest.json`, `status.json` and
//! `runs/*.json` byte-identical to the same specs run one at a time
//! through `BatchRunner::new`, at one worker and at two.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use coca_experiments::ExperimentScale;
use coca_obs::MetricsRegistry;
use coca_scenarios::{manifest, BatchOptions, BatchRunner, Manifest, Spec};

/// Two cheap specs on the same (small, fiu, 0.92) context: constant-V
/// lockstep runs, and GSD traces plus a workload trace.
const SPECS: [&str; 2] = [
    r#"{
      "name": "queue_lockstep",
      "groups": [
        {"id": "sweep", "kind": "lockstep",
         "sweep": {"switch_kwh": [0.0, 0.01]},
         "lanes": [{"label": "coca", "policy": "coca", "v_mode": "mult", "v_mult": 1.0}]},
        {"id": "ref", "kind": "lockstep",
         "lanes": [{"label": "carbon-unaware", "policy": "unaware"}]}
      ]
    }"#,
    r#"{
      "name": "queue_points",
      "groups": [
        {"id": "gsd", "kind": "gsd_trace",
         "params": {"slot": 100, "v_mult": 1.0, "iterations": 50},
         "sweep": {"delta_mult": [2.0, 50.0]}},
        {"id": "trace", "kind": "workloads", "params": {"workload": "fiu", "hours": 168}}
      ]
    }"#,
];

fn manifests() -> Vec<Manifest> {
    SPECS
        .iter()
        .map(|json| {
            let spec = Spec::from_json(json).expect("spec parses");
            manifest::materialize(&spec, ExperimentScale::small()).expect("materialize")
        })
        .collect()
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("coca_queue_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file under `dir`, keyed by its path relative to `dir`.
fn tree(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("dir lists") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.insert(rel, std::fs::read(&path).expect("file reads"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn one_queue_matches_per_spec_runs_byte_for_byte() {
    let manifests = manifests();
    let reference = fresh_dir("per_spec");
    for m in &manifests {
        let opts = BatchOptions { dir: reference.join(&m.spec), workers: 1, ..Default::default() };
        let summary = BatchRunner::new(m, opts).run().expect("per-spec batch runs");
        assert!(summary.is_complete(), "{}: {summary:?}", m.spec);
    }
    let want = tree(&reference);
    assert_eq!(
        want.keys().filter(|p| p.ends_with("status.json")).count(),
        manifests.len(),
        "one status file per spec"
    );

    let runs: usize = manifests.iter().map(|m| m.runs.len()).sum();
    for workers in [1, 2] {
        let dir = fresh_dir(&format!("batch_w{workers}"));
        let registry = Arc::new(MetricsRegistry::new());
        let runner = BatchRunner::batch(
            &manifests,
            BatchOptions {
                dir: dir.clone(),
                workers,
                registry: Some(Arc::clone(&registry)),
                ..Default::default()
            },
        );
        let summaries = runner.run_each().expect("batch runs");
        assert_eq!(summaries.len(), manifests.len());
        for (m, s) in manifests.iter().zip(&summaries) {
            assert!(s.is_complete(), "{}: {s:?}", m.spec);
            assert_eq!(s.completed, m.runs.len());
        }
        let got = tree(&dir);
        assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>(), "same files");
        for (path, bytes) in &want {
            assert!(got[path] == *bytes, "workers {workers}: {} differs", path.display());
        }
        for (k, m) in manifests.iter().enumerate() {
            assert_eq!(runner.spec_results(k).expect("results load").len(), m.runs.len());
        }
        // `batch_run_seconds` observes every executed run once.
        let snap = registry.snapshot();
        assert_eq!(snap.counter("batch_runs_completed_total"), Some(runs as u64));
        let timed = snap.histogram("batch_run_seconds").map(|h| h.count);
        assert_eq!(timed, Some(runs as u64), "workers {workers}: every run timed");
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&reference);
}

#[test]
fn specs_sharing_a_batch_directory_are_refused() {
    let manifests = manifests();
    let twice = [&manifests[0], &manifests[0]];
    let dir = fresh_dir("twice");
    let err = BatchRunner::batch(twice, BatchOptions { dir: dir.clone(), ..Default::default() })
        .run_each()
        .expect_err("two manifests cannot share one directory");
    assert!(err.contains("share the batch directory"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
