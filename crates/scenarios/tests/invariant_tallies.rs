//! The paper-invariant tallies are per thread, and `invariant::counts()`
//! sums them: the same specs run through one worker and through two must
//! leave equal count deltas for every check, so no tally is lost when a
//! worker thread exits and none is read twice. The counters are
//! process-wide, which is why this test has a binary to itself.

use std::path::Path;

use coca_core::invariant;
use coca_experiments::ExperimentScale;
use coca_scenarios::{manifest, BatchOptions, BatchRunner, Manifest, Spec};

const SPECS: [&str; 2] = ["fig5_switching.json", "portfolio.json"];

fn manifests() -> Vec<Manifest> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    SPECS
        .iter()
        .map(|name| {
            let spec = Spec::load(&dir.join(name)).expect("spec parses");
            manifest::materialize(&spec, ExperimentScale::small()).expect("materialize")
        })
        .collect()
}

/// Runs `manifests` through a fresh batch at `workers` and returns how much
/// each check's count grew, by check name.
fn count_deltas(manifests: &[Manifest], workers: usize) -> Vec<(&'static str, u64)> {
    let dir = std::env::temp_dir().join(format!("coca_tallies_{}_{workers}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let before = invariant::counts();
    let opts = BatchOptions { dir: dir.clone(), workers, ..BatchOptions::default() };
    let summary = BatchRunner::batch(manifests, opts).run().expect("batch runs");
    assert!(summary.is_complete(), "workers {workers}: {summary:?}");
    let after = invariant::counts();
    let _ = std::fs::remove_dir_all(&dir);
    before.iter().zip(after).map(|(&(name, b), (_, a))| (name, a - b)).collect()
}

#[test]
fn counts_are_equal_at_one_and_two_workers() {
    let manifests = manifests();
    let serial = count_deltas(&manifests, 1);
    let parallel = count_deltas(&manifests, 2);
    assert_eq!(serial, parallel, "check counts at workers 1 vs 2");
    for check in ["deficit-nonnegative", "frame-reset", "load-conservation", "speed-membership"] {
        let n = serial.iter().find(|(name, _)| *name == check).map_or(0, |&(_, n)| n);
        assert!(n > 0, "the batch never ran the {check} check");
    }
}
