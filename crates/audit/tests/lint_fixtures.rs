//! Lint-pass self-test: runs the audit rules against fixture files with
//! known violations — checking rule ids, line numbers, and waiver status
//! per rule — and then against the live workspace, which must carry zero
//! unwaived violations.
//!
//! Fixtures live in `crates/audit/fixtures/` (outside any `src/` tree) so
//! they are neither compiled nor picked up by [`coca_audit::run_lint`];
//! each test lints one under a *pretend* path so the path-gated rules
//! (hot-path, must-use crates) fire deterministically.

use std::path::Path;

use coca_audit::{lint_source, run_lint, Report};

/// Lints fixture `text` as if it lived at `pretend_path`.
fn lint_fixture(pretend_path: &str, text: &str) -> Report {
    let mut report = Report::default();
    lint_source(pretend_path, text, &mut report);
    report
}

/// `(rule, line, waived)` triples in file order, for compact assertions.
fn triples(report: &Report) -> Vec<(&str, usize, bool)> {
    report.violations.iter().map(|v| (v.rule, v.line, v.waived)).collect()
}

#[test]
fn no_panic_fixture_flags_each_panic_site() {
    let r = lint_fixture(
        "crates/opt/src/waterfill.rs",
        include_str!("../fixtures/no_panic.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("no-panic", 5, false),  // bare `.unwrap()`
            ("no-panic", 6, false),  // bare `.expect(...)`
            ("no-panic", 8, false),  // `panic!`
            ("no-panic", 12, false), // `unreachable!`
            ("no-panic", 18, true),  // waived via audit:allow(no-panic)
        ],
        "{r}"
    );
}

#[test]
fn no_panic_fixture_is_quiet_outside_hot_paths() {
    let r = lint_fixture(
        "crates/experiments/src/fixture.rs",
        include_str!("../fixtures/no_panic.rs"),
    );
    assert_eq!(triples(&r), vec![], "{r}");
}

#[test]
fn float_eq_fixture_flags_raw_float_comparisons() {
    let r = lint_fixture(
        "crates/traces/src/fixture.rs",
        include_str!("../fixtures/float_eq.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("float-eq", 5, false),  // power == 0.0
            ("float-eq", 9, false),  // q != 0.0
            ("float-eq", 13, false), // x * 1.5 == target
            ("float-eq", 22, true),  // waived via audit:allow(float-eq)
        ],
        "{r}"
    );
}

#[test]
fn nan_guard_fixture_flags_unguarded_operations() {
    let r = lint_fixture(
        "crates/opt/src/dual.rs",
        include_str!("../fixtures/nan_guard.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("nan-guard", 5, false),  // unguarded .ln()
            ("nan-guard", 9, false),  // unguarded .sqrt()
            ("nan-guard", 13, false), // unguarded identifier division
            ("nan-guard", 31, true),  // waived via audit:allow(nan-guard)
        ],
        "{r}"
    );
}

#[test]
fn must_use_fixture_flags_unannotated_result_types() {
    let r = lint_fixture(
        "crates/opt/src/fixture.rs",
        include_str!("../fixtures/must_use.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("must-use", 6, false), // FixtureSolution lacks #[must_use]
            ("must-use", 26, true), // waived via audit:allow(must-use)
            ("must-use", 38, false), // FixtureBOutcome: the attribute above is AOutcome's
        ],
        "{r}"
    );
}

#[test]
fn hot_alloc_fixture_flags_allocations_in_declared_regions_only() {
    let r = lint_fixture(
        "crates/traces/src/fixture.rs",
        include_str!("../fixtures/hot_alloc.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("hot-alloc", 10, false), // `.to_vec()` in the delta-update path
            ("hot-alloc", 12, false), // `format!` in the delta-update path
            ("hot-alloc", 24, true),  // waived via audit:allow(hot-alloc)
            ("hot-alloc", 34, false), // `.lock()` written directly in a region
        ],
        "{r}"
    );
}

#[test]
fn cfg_test_on_a_braceless_item_covers_that_item_only() {
    let r = lint_fixture(
        "crates/core/src/gsd.rs",
        include_str!("../fixtures/cfg_test_item.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("float-eq", 8, false), // the real fn after a `#[cfg(test)] use`
            ("no-panic", 8, false),
        ],
        "{r}"
    );
}

#[test]
fn slot_loop_fixture_flags_hand_rolled_slot_loops() {
    let r = lint_fixture(
        "crates/experiments/src/fixture.rs",
        include_str!("../fixtures/slot_loop.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("slot-loop", 6, false),  // for t in 0..trace.len()
            ("slot-loop", 14, false), // for slot in 0..env_trace.len()
            ("slot-loop", 22, false), // for t in 0..num_slots
            ("slot-loop", 39, true),  // waived via audit:allow(slot-loop)
        ],
        "{r}"
    );
}

#[test]
fn slot_loop_fixture_is_quiet_in_engine_and_traces() {
    for allowed in ["crates/dcsim/src/engine.rs", "crates/traces/src/fixture.rs"] {
        let r = lint_fixture(allowed, include_str!("../fixtures/slot_loop.rs"));
        assert!(
            r.violations.iter().all(|v| v.rule != "slot-loop"),
            "{allowed}: {r}"
        );
    }
}

#[test]
fn no_print_fixture_flags_each_print_site() {
    let r = lint_fixture(
        "crates/experiments/src/fixture.rs",
        include_str!("../fixtures/no_print.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("no-print", 5, false),  // println!
            ("no-print", 9, false),  // eprintln!
            ("no-print", 13, false), // dbg!
            ("no-print", 17, false), // print!
            ("no-print", 22, true),  // waived via audit:allow(no-print)
        ],
        "{r}"
    );
}

#[test]
fn no_print_fixture_is_quiet_on_designated_print_surfaces() {
    for allowed in [
        "crates/scenarios/src/bin/repro.rs",
        "crates/obs/src/logger.rs",
        "crates/audit/src/main.rs",
    ] {
        let r = lint_fixture(allowed, include_str!("../fixtures/no_print.rs"));
        assert!(
            r.violations.iter().all(|v| v.rule != "no-print"),
            "{allowed}: {r}"
        );
    }
}

#[test]
fn unit_mix_fixture_flags_cross_unit_arithmetic() {
    let r = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/unit_mix.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("unit-mix", 5, false),  // battery_kwh + total_usd (suffix inference)
            ("unit-mix", 11, false), // annotated kWh binding < cost_usd
            ("unit-mix", 30, true),  // waived via audit:allow(unit-mix)
            ("unit-mix", 35, false), // float-eq waiver does not cover unit-mix
        ],
        "{r}"
    );
}

#[test]
fn atomic_ordering_fixture_flags_each_contract_gap() {
    let r = lint_fixture(
        "crates/obs/src/fixture.rs",
        include_str!("../fixtures/atomic_ordering.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("atomic-ordering", 8, false),  // load without a contract annotation
            ("atomic-ordering", 18, false), // audit:atomic() with empty contract
            ("atomic-ordering", 23, false), // CAS failure ordering stronger than success
            ("atomic-ordering", 28, false), // CAS result silently dropped
            ("atomic-ordering", 37, true),  // waived via audit:allow(atomic-ordering)
            ("atomic-ordering", 42, false), // no-print waiver does not cover atomic-ordering
        ],
        "{r}"
    );
}

#[test]
fn clean_fixture_passes_every_rule_even_on_a_hot_path() {
    let r = lint_fixture(
        "crates/core/src/solver.rs",
        include_str!("../fixtures/clean.rs"),
    );
    assert_eq!(triples(&r), vec![], "{r}");
}

#[test]
fn live_workspace_has_no_unwaived_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let report = run_lint(&root).expect("workspace lint run");
    assert_eq!(report.unwaived_count(), 0, "unwaived violations:\n{report}");
    assert!(report.is_clean());
    // The documented waivers (e.g. the protocol panics in the distributed
    // GSD loop) must stay visible in the report rather than vanish.
    assert!(report.waived_count() > 0, "expected documented waivers:\n{report}");
    // Fixtures sit outside src/ and must not be swept into the real run.
    assert!(
        report.violations.iter().all(|v| !v.file.contains("fixtures/")),
        "{report}"
    );
}
