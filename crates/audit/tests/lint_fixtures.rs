//! Lint-pass self-test: runs the audit pipeline against single fixture
//! files with known violations — checking rule ids, line numbers, and
//! waiver status per rule — and then against the live workspace, which
//! must carry zero unwaived violations.
//!
//! Fixtures live in `crates/audit/fixtures/` (outside any `src/` tree) so
//! they are neither compiled nor picked up by [`coca_audit::run_lint`];
//! each test lints one under a *pretend* path so the path-gated rules
//! (hot-path, must-use crates) fire deterministically.

use std::path::Path;

use coca_audit::{lint_sources, run_lint, Report};

/// Lints fixture `text` as if it lived at `pretend_path`.
fn lint_fixture(pretend_path: &str, text: &str) -> Report {
    lint_sources(&[(pretend_path.to_string(), text.to_string())])
}

/// `(rule, line, waived)` triples in file order, for compact assertions.
fn triples(report: &Report) -> Vec<(&str, usize, bool)> {
    report.violations.iter().map(|v| (v.rule, v.line, v.waived)).collect()
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
fn hot_direct_fixture_flags_allocations_in_declared_regions_only() {
    let r = lint_fixture(
        "crates/traces/src/fixture.rs",
        include_str!("../fixtures/hot_direct.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("hot-path-reach", 10, false), // `.to_vec()` in the delta-update path
            ("hot-path-reach", 12, false), // `format!` in the delta-update path
            ("hot-path-reach", 24, true),  // waived via audit:allow(hot-path-reach)
            ("hot-path-reach", 34, false), // `.lock()` written directly in a region
            ("hot-path-reach", 41, false), // turbofish `.collect::<Vec<_>>()`
            ("hot-path-reach", 42, false), // `HashMap::with_capacity`
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
        vec![("float-eq", 8, false)], // the real fn after a `#[cfg(test)] use`
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
fn unit_local_fixture_flags_cross_unit_arithmetic() {
    let r = lint_fixture(
        "crates/core/src/fixture.rs",
        include_str!("../fixtures/unit_local.rs"),
    );
    assert_eq!(
        triples(&r),
        vec![
            ("unit-flow", 5, false),  // battery_kwh + total_usd (suffix inference)
            ("unit-flow", 11, false), // annotated kWh binding < cost_usd
            ("unit-flow", 30, true),  // waived via audit:allow(unit-flow)
            ("stale-waiver", 34, false), // the float-eq waiver suppresses nothing…
            ("unit-flow", 35, false), // …and does not cover unit-flow
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
            ("stale-waiver", 41, false),    // the nan-guard waiver suppresses nothing…
            ("atomic-ordering", 42, false), // …and does not cover atomic-ordering
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
    // The documented waivers (e.g. the exact-sentinel float comparisons)
    // must stay visible in the report rather than vanish.
    assert!(report.waived_count() > 0, "expected documented waivers:\n{report}");
    // Fixtures sit outside src/ and must not be swept into the real run.
    assert!(
        report.violations.iter().all(|v| !v.file.contains("fixtures/")),
        "{report}"
    );
}
