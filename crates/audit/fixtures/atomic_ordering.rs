//! Atomic-ordering fixture: contract annotations, CAS ordering sanity,
//! dropped results, scope (a non-atomic `load` is ignored), and both
//! waiver outcomes (honored and mismatched-therefore-unused).

use std::sync::atomic::{AtomicU64, Ordering};

fn unannotated(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

fn annotated(c: &AtomicU64) {
    // audit:atomic(statistics counter; relaxed on purpose)
    c.store(1, Ordering::Relaxed);
}

fn empty_contract(c: &AtomicU64) {
    // audit:atomic()
    c.store(2, Ordering::Relaxed);
}

fn failure_stronger(c: &AtomicU64) -> bool {
    // audit:atomic(one-shot claim; the failure ordering here is the bug under test)
    c.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Acquire).is_ok()
}

fn dropped_result(c: &AtomicU64) {
    // audit:atomic(racy init; the ignored result is the bug under test)
    c.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
}

fn config_load_is_out_of_scope(cfg: &Loader) -> u64 {
    cfg.load(42)
}

fn honored_waiver(c: &AtomicU64) {
    // audit:allow(atomic-ordering)
    c.store(3, Ordering::SeqCst);
}

fn mismatched_waiver_stays_unwaived(c: &AtomicU64) -> u64 {
    // audit:allow(nan-guard)
    c.load(Ordering::Acquire)
}
