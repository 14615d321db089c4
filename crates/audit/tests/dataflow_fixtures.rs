//! Interprocedural-pass self-tests: the `unit-flow`, `hot-path-reach`,
//! `snapshot-complete`, `nondet-reach` and `stale-waiver` analyses
//! against fixture files whose defects need the symbol table or the call
//! graph. Every test drives [`coca_audit::lint_sources`] under *pretend*
//! workspace paths, like the per-file fixture tests.

use coca_audit::{lint_sources, Report};

/// Lints fixture texts as if they lived at the given workspace paths.
fn lint(files: &[(&str, &str)]) -> Report {
    let sources: Vec<(String, String)> = files
        .iter()
        .map(|(path, text)| (path.to_string(), text.to_string()))
        .collect();
    lint_sources(&sources)
}

/// `(rule, file, line, waived)` tuples in report order.
fn tuples(report: &Report) -> Vec<(&str, &str, usize, bool)> {
    report
        .violations
        .iter()
        .map(|v| (v.rule, v.file.as_str(), v.line, v.waived))
        .collect()
}

const FLOW_LIB: &str = "crates/core/src/flow_lib.rs";
const FLOW_USE: &str = "crates/core/src/flow_use.rs";
const HOT_FIX: &str = "crates/core/src/hot_fixture.rs";
const STALE_FIX: &str = "crates/core/src/stale_fixture.rs";

#[test]
fn unit_flow_fixture_flags_cross_file_defects_only() {
    let r = lint(&[
        (FLOW_LIB, include_str!("../fixtures/unit_flow_lib.rs")),
        (FLOW_USE, include_str!("../fixtures/unit_flow_use.rs")),
    ]);
    assert_eq!(
        tuples(&r),
        vec![
            // Conflicting inference lands on the callee's definition.
            ("unit-flow", FLOW_LIB, 20, false), // `scale`'s `amount`: kWh vs USD callers
            ("unit-flow", FLOW_USE, 6, false),  // kWh return into USD parameter
            ("unit-flow", FLOW_USE, 7, false),  // inferred kWh − local USD
            ("unit-flow", FLOW_USE, 23, true),  // waived via audit:allow(unit-flow)
        ],
        "{r}"
    );
}

#[test]
fn unit_flow_findings_carry_the_cross_file_evidence() {
    let r = lint(&[
        (FLOW_LIB, include_str!("../fixtures/unit_flow_lib.rs")),
        (FLOW_USE, include_str!("../fixtures/unit_flow_use.rs")),
    ]);
    // Argument-vs-parameter: related location points at the declaration.
    let arg = r
        .violations
        .iter()
        .find(|v| v.file == FLOW_USE && v.line == 6)
        .expect("arg-vs-param finding");
    assert!(arg.message.contains("total_usd"), "{}", arg.message);
    assert_eq!(arg.related.len(), 1, "{arg:?}");
    assert_eq!((arg.related[0].file.as_str(), arg.related[0].line), (FLOW_LIB, 15));
    // Inferred mix: related location explains where kWh was inferred.
    let mix = r
        .violations
        .iter()
        .find(|v| v.file == FLOW_USE && v.line == 7)
        .expect("inferred-mix finding");
    assert_eq!((mix.related[0].file.as_str(), mix.related[0].line), (FLOW_LIB, 6));
    assert!(mix.related[0].message.contains("kWh"), "{:?}", mix.related[0]);
    // Conflict: each contributing call site is a related location.
    let conflict = r
        .violations
        .iter()
        .find(|v| v.file == FLOW_LIB && v.line == 20)
        .expect("conflict finding");
    let sites: Vec<(&str, usize)> =
        conflict.related.iter().map(|rl| (rl.file.as_str(), rl.line)).collect();
    assert_eq!(sites, vec![(FLOW_USE, 13), (FLOW_USE, 18)], "{conflict:?}");
}

#[test]
fn hot_reach_fixture_flags_direct_and_hidden_sinks() {
    let r = lint(&[(HOT_FIX, include_str!("../fixtures/hot_reach.rs"))]);
    assert_eq!(
        tuples(&r),
        vec![
            ("hot-path-reach", HOT_FIX, 32, false), // refresh → rebuild → Vec::with_capacity
            ("hot-path-reach", HOT_FIX, 33, false), // the in-region `format!`, 0 calls deep
            ("hot-path-reach", HOT_FIX, 34, false), // ping → pong → to_string (cycle terminates)
            ("hot-path-reach", HOT_FIX, 50, false), // gather → `.collect::<Vec<_>>()`
            ("hot-path-reach", HOT_FIX, 51, false), // index → `HashMap::with_capacity`
        ],
        "{r}"
    );
}

#[test]
fn hot_reach_chain_is_rendered_hop_by_hop() {
    let r = lint(&[(HOT_FIX, include_str!("../fixtures/hot_reach.rs"))]);
    let v = r
        .violations
        .iter()
        .find(|v| v.rule == "hot-path-reach" && v.line == 32)
        .expect("two-hop finding");
    assert!(v.message.contains("2 calls deep"), "{}", v.message);
    let hops: Vec<usize> = v.related.iter().map(|rl| rl.line).collect();
    // refresh's def, rebuild's def, then the sink line itself.
    assert_eq!(hops, vec![5, 10, 11], "{v:?}");
    assert!(v.related[2].message.contains("Vec::with_capacity"), "{v:?}");
}

#[test]
fn stale_waiver_fixture_flags_each_hygiene_gap() {
    let r = lint(&[(STALE_FIX, include_str!("../fixtures/stale_waiver.rs"))]);
    assert_eq!(
        tuples(&r),
        vec![
            ("float-eq", STALE_FIX, 6, true),      // live waiver: stays used
            ("stale-waiver", STALE_FIX, 11, false), // nan-guard waiver suppresses nothing
            ("stale-waiver", STALE_FIX, 16, false), // unknown rule id
            ("stale-waiver", STALE_FIX, 21, true),  // kept waiver, waived as such
            ("stale-waiver", STALE_FIX, 24, false), // audit:unit binds nothing
            ("stale-waiver", STALE_FIX, 26, false), // audit:atomic with no atomic op
        ],
        "{r}"
    );
}

const SNAP_FIX: &str = "crates/core/src/snap_fixture.rs";
const NONDET_FIX: &str = "crates/core/src/nondet_fixture.rs";

#[test]
fn snapshot_complete_fixture_flags_each_coverage_gap() {
    let r = lint(&[(SNAP_FIX, include_str!("../fixtures/snapshot_complete.rs"))]);
    assert_eq!(
        tuples(&r),
        vec![
            ("snapshot-complete", SNAP_FIX, 6, false), // `lost`: neither side
            ("snapshot-complete", SNAP_FIX, 8, true),  // `scratch`: reasoned transient
            ("snapshot-complete", SNAP_FIX, 10, false), // `half`: empty reason never waives
            ("stale-waiver", SNAP_FIX, 11, false), // transient on a fully covered field
            ("snapshot-complete", SNAP_FIX, 21, false), // `snap_only`: restore never writes it
        ],
        "{r}"
    );
}

#[test]
fn snapshot_complete_findings_name_the_field() {
    let r = lint(&[(SNAP_FIX, include_str!("../fixtures/snapshot_complete.rs"))]);
    let missing = r
        .violations
        .iter()
        .find(|v| v.rule == "snapshot-complete" && v.line == 6)
        .expect("neither-side finding");
    assert!(missing.message.contains("`lost`"), "{}", missing.message);
    assert!(missing.message.contains("`Ctl`"), "{}", missing.message);
    // The restore-side asymmetry lands on the restore definition and
    // points back at the field declaration.
    let asym = r
        .violations
        .iter()
        .find(|v| v.rule == "snapshot-complete" && v.line == 21)
        .expect("snap-only finding");
    assert!(asym.message.contains("`snap_only`"), "{}", asym.message);
    assert!(asym.message.contains("never writes"), "{}", asym.message);
    assert_eq!(asym.related.len(), 1, "{asym:?}");
    assert_eq!((asym.related[0].file.as_str(), asym.related[0].line), (SNAP_FIX, 13));
}

#[test]
fn nondet_reach_fixture_flags_each_sink_once() {
    let r = lint(&[(NONDET_FIX, include_str!("../fixtures/nondet_reach.rs"))]);
    assert_eq!(
        tuples(&r),
        vec![
            ("nondet-reach", NONDET_FIX, 10, false), // for-loop over hash map in to_json
            ("nondet-reach", NONDET_FIX, 23, false), // two-hop: encode → walk → .iter()
            ("nondet-reach", NONDET_FIX, 33, false), // through the ping/pong cycle, once
            ("nondet-reach", NONDET_FIX, 44, false), // Instant::now in sweep
            ("nondet-reach", NONDET_FIX, 59, true),  // waived via audit:ordered(…)
            ("stale-waiver", NONDET_FIX, 64, false), // ordered annotation excusing nothing
        ],
        "{r}"
    );
}

#[test]
fn nondet_reach_chain_is_rendered_hop_by_hop() {
    let r = lint(&[(NONDET_FIX, include_str!("../fixtures/nondet_reach.rs"))]);
    let v = r
        .violations
        .iter()
        .find(|v| v.rule == "nondet-reach" && v.line == 23)
        .expect("two-hop finding");
    assert!(v.message.contains("2 fns deep"), "{}", v.message);
    assert!(v.message.contains("`encode`"), "{}", v.message);
    // encode's def, walk's def, then the sink line itself.
    let hops: Vec<usize> = v.related.iter().map(|rl| rl.line).collect();
    assert_eq!(hops, vec![18, 22, 23], "{v:?}");
    assert!(v.related[0].message.contains("state-affecting root"), "{v:?}");
    assert!(v.related[2].message.contains("hash-ordered iteration"), "{v:?}");
}
