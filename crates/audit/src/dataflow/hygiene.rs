//! `stale-waiver`: waiver and annotation hygiene.
//!
//! Waivers and annotations are load-bearing documentation — a
//! `// audit:allow(no-panic)` that no longer suppresses anything, or an
//! `// audit:atomic(…)` next to code that stopped being atomic, is a lie
//! waiting to mislead the next reader. This pass runs *after* every other
//! rule and flags:
//!
//! - an `audit:allow(<rule>)` waiver that no finding of `<rule>` resolves
//!   through (on its line or the line below);
//! - an `audit:allow(<rule>)` naming a rule id the pass does not have;
//! - an `audit:unit(<tag>)` annotation that binds no identifier;
//! - an `audit:atomic(<contract>)` annotation with no atomic operation on
//!   its line or the line below;
//! - an `audit:transient(<reason>)` annotation with no `snapshot-complete`
//!   finding on its line or the line below — the field it once excused is
//!   now covered (or was never part of an indexed snapshot type);
//! - an `audit:ordered(<contract>)` annotation with no `nondet-reach`
//!   finding on its line or the line below.
//!
//! Staleness is itself waivable — `audit:allow(stale-waiver)` on a waiver
//! kept deliberately (e.g. documenting a rule that fires only on some
//! platforms). That makes usage *depend on the pass's own findings*, so
//! the check iterates to a fixpoint: each round recomputes which waivers
//! are used given the findings of the previous round, until the finding
//! set stabilizes. `stale-waiver` waivers themselves are exempt from
//! staleness (a self-justifying waiver would oscillate forever — see the
//! `self_waiver_does_not_oscillate` test).

use std::collections::HashSet;

use crate::ast::Ast;
use crate::report::Report;
use crate::semantic::{atomic, units};
use crate::Violation;

/// One declared waiver site: file index, 1-based line, rule id.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WaiverSite {
    file: usize,
    line: usize,
    rule: String,
}

/// Computes which declared waivers are *used* by the given findings: a
/// waived violation resolves through the waiver [`Ast::waiver_line`]
/// names (its own line first, else the line above).
fn used_waivers<'a>(
    files: &[Ast],
    findings: impl Iterator<Item = &'a Violation>,
) -> HashSet<WaiverSite> {
    let mut used = HashSet::new();
    for v in findings.filter(|v| v.waived) {
        let Some(file) = files.iter().position(|f| f.path == v.file) else { continue };
        if let Some(line) = files[file].waiver_line(v.line, v.rule) {
            used.insert(WaiverSite { file, line, rule: v.rule.to_string() });
        }
    }
    used
}

/// Runs the pass and appends `stale-waiver` findings to `report`.
/// `known_rules` is the full rule-id vocabulary ([`crate::ALL_RULES`]).
pub fn check(files: &[Ast], known_rules: &[&str], report: &mut Report) {
    // Annotation hygiene is independent of waiver usage: compute once.
    let mut base: Vec<Violation> = Vec::new();
    for file in files {
        for issue in build_unit_issues(file) {
            base.push(finding(
                file,
                issue.line,
                format!("`audit:unit({})` does not cover any binding", issue.tag),
            ));
        }
        let ops = atomic::op_lines(file);
        for c in &file.comments {
            if crate::ast::annotation_payload(&c.text, "audit:atomic(").is_none() {
                continue;
            }
            if !ops.iter().any(|&l| l == c.line || l == c.line + 1) {
                base.push(finding(
                    file,
                    c.line,
                    "`audit:atomic(…)` annotation with no atomic operation on its line \
                     or the line below"
                        .to_string(),
                ));
            }
        }
        // Field-coverage and ordering annotations are earned by the
        // findings they waive: an annotation with no finding of its rule
        // on its line or the line below excuses nothing and is stale.
        // (The covered finding may itself be unwaived — an empty-reason
        // annotation — in which case that finding already carries the
        // signal and staleness stays quiet.)
        for (needle, rule, syntax) in [
            ("audit:transient(", super::SNAPSHOT_COMPLETE, "audit:transient(…)"),
            ("audit:ordered(", super::NONDET_REACH, "audit:ordered(…)"),
        ] {
            for c in &file.comments {
                if crate::ast::annotation_payload(&c.text, needle).is_none() {
                    continue;
                }
                let covers = report.violations.iter().any(|v| {
                    v.rule == rule
                        && v.file == file.path
                        && (v.line == c.line || v.line == c.line + 1)
                });
                if !covers {
                    base.push(finding(
                        file,
                        c.line,
                        format!(
                            "`{syntax}` annotation with no `{rule}` finding on its line \
                             or the line below; delete the stale annotation"
                        ),
                    ));
                }
            }
        }
    }

    // Declared waivers, except `stale-waiver` ones (exempt from
    // staleness to keep the fixpoint well-founded).
    let mut declared: Vec<WaiverSite> = Vec::new();
    for (fi, ast) in files.iter().enumerate() {
        for (idx, line) in ast.lines.iter().enumerate() {
            for rule in &line.waivers {
                if rule != super::STALE_WAIVER {
                    declared.push(WaiverSite { file: fi, line: idx + 1, rule: rule.clone() });
                }
            }
        }
    }

    // Fixpoint over waiver usage: `audit:allow(stale-waiver)` waivers are
    // used exactly when they suppress one of this pass's own findings.
    let mut extra: Vec<Violation> = Vec::new();
    for _round in 0..4 {
        let used = used_waivers(
            files,
            report.violations.iter().chain(&base).chain(&extra),
        );
        let mut next = Vec::new();
        for site in &declared {
            let file = &files[site.file];
            if !known_rules.contains(&site.rule.as_str()) {
                next.push(finding(
                    file,
                    site.line,
                    format!("`audit:allow({})` names an unknown rule id", site.rule),
                ));
            } else if !used.contains(site) {
                next.push(finding(
                    file,
                    site.line,
                    format!(
                        "`audit:allow({})` suppresses no finding; delete the stale waiver",
                        site.rule
                    ),
                ));
            }
        }
        if next == extra {
            break;
        }
        extra = next;
    }

    for v in base.into_iter().chain(extra) {
        report.push(v);
    }
}

/// Builds a `stale-waiver` violation at a 1-based line, resolving its own
/// waiver status.
fn finding(file: &Ast, line: usize, message: String) -> Violation {
    Violation {
        file: file.path.clone(),
        line,
        rule: super::STALE_WAIVER,
        message,
        waived: file.waived(line, super::STALE_WAIVER),
        related: Vec::new(),
    }
}

/// Unbound `audit:unit` annotations of one file.
fn build_unit_issues(ast: &Ast) -> Vec<units::EnvIssue> {
    let (_, issues) = units::build_env(ast);
    issues.into_iter().filter(|i| !i.unknown_tag).collect()
}
