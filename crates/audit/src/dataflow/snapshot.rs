//! `snapshot-complete`: checkpoint field-coverage analysis.
//!
//! Every bit-exactness guarantee in the workspace — lockstep ≡ individual
//! lanes, crash-resume ≡ uninterrupted batches, stream ≡ batch service —
//! rests on snapshot/restore pairs capturing *all* decision-relevant
//! state. The failure mode is silent: add a field to `CocaController`,
//! forget to thread it through `snapshot`/`restore`, and every byte-compare
//! test still passes until the one resume path that exercises the field
//! diverges. This analysis catches that at lint time:
//!
//! 1. **Pair indexing** — every type owning both a snapshot-like method
//!    ([`SNAPSHOT_FNS`]: `snapshot`, `snapshot_state`, `checkpoint`) and a
//!    restore-like method ([`RESTORE_FNS`]: `restore`, `restore_state`) is
//!    indexed, provided its named-field `struct` declaration is in the
//!    linted set (trait defaults and blanket `impl … for Box<…>` bodies
//!    have no such struct and are skipped).
//! 2. **Coverage** — a field is *snapshot-covered* when any snapshot-like
//!    method of the pair mentions `self.<field>`, *restore-covered* when
//!    any restore-like method does. Mentions are syntactic: a read, a
//!    write, or a delegating call like `self.solver.snapshot_state()` all
//!    count (DESIGN.md §18 spells out the resulting soundness caveats).
//! 3. **Findings** — a field covered by *neither* side is flagged at its
//!    declaration unless annotated `// audit:transient(<reason>)` (empty
//!    reasons do not waive: every waiver carries its why). A field the
//!    snapshot captures but the restore never writes is flagged at the
//!    restore definition — this is the "deleted a field write from
//!    `restore`" regression, and it names the field. The reverse direction
//!    (restore-only mentions) is deliberately not flagged: restores
//!    legitimately *read* config fields for shape validation.
//!
//! A stale `audit:transient` (annotating a field that is in fact covered,
//! or not part of any indexed snapshot type) is flagged by the
//! [`super::hygiene`] pass.

use std::collections::{HashMap, HashSet};

use super::symbols::SymbolTable;
use crate::ast::visit::RunVisitor;
use crate::ast::{Ast, Node};
use crate::report::Violation;
use crate::Report;

/// Method names treated as the capture side of a checkpoint pair.
pub const SNAPSHOT_FNS: &[&str] = &["snapshot", "snapshot_state", "checkpoint"];
/// Method names treated as the restore side of a checkpoint pair.
pub const RESTORE_FNS: &[&str] = &["restore", "restore_state"];

/// Collects every field name mentioned as `self.<field>` in a body forest.
fn self_field_mentions(nodes: &[Node]) -> HashSet<String> {
    struct Mentions(HashSet<String>);
    impl RunVisitor for Mentions {
        fn run(&mut self, run: &[Node], _depth: usize) {
            for i in 0..run.len() {
                if run[i].is_ident("self")
                    && run.get(i + 1).is_some_and(|n| n.is_punct("."))
                {
                    if let Some(name) = run.get(i + 2).and_then(Node::ident) {
                        self.0.insert(name.to_string());
                    }
                }
            }
        }
    }
    let mut v = Mentions(HashSet::new());
    crate::ast::visit::walk_runs(nodes, &mut v);
    v.0
}

/// Runs the analysis and reports `snapshot-complete` findings.
pub fn check(files: &[Ast], symbols: &SymbolTable, report: &mut Report) {
    let file_of: HashMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();

    // Owner type → (snapshot-side FnIds, restore-side FnIds).
    let mut pairs: HashMap<&str, (Vec<usize>, Vec<usize>)> = HashMap::new();
    for (id, f) in symbols.fns.iter().enumerate() {
        let Some(owner) = f.owner.as_deref() else { continue };
        if !f.has_self || f.in_test {
            continue;
        }
        if SNAPSHOT_FNS.contains(&f.name.as_str()) {
            pairs.entry(owner).or_default().0.push(id);
        } else if RESTORE_FNS.contains(&f.name.as_str()) {
            pairs.entry(owner).or_default().1.push(id);
        }
    }

    // Deterministic owner order for reporting.
    let mut owners: Vec<&str> = pairs.keys().copied().collect();
    owners.sort_unstable();

    for owner in owners {
        let (snaps, rests) = &pairs[owner];
        if snaps.is_empty() || rests.is_empty() {
            continue; // not a pair (e.g. a lone metrics `snapshot()`)
        }
        let Some(st) = symbols.struct_named(owner, &symbols.fns[snaps[0]].file) else {
            continue; // enum, tuple struct, or foreign/blanket owner
        };
        let snap_set: HashSet<String> = snaps
            .iter()
            .flat_map(|&id| self_field_mentions(&symbols.fns[id].body.children))
            .collect();
        let rest_set: HashSet<String> = rests
            .iter()
            .flat_map(|&id| self_field_mentions(&symbols.fns[id].body.children))
            .collect();

        let snap_name = &symbols.fns[snaps[0]].name;
        let rest = &symbols.fns[rests[0]];
        let Some(&struct_file) = file_of.get(st.file.as_str()) else { continue };
        let sast = &files[struct_file];

        for field in &st.fields {
            let in_snap = snap_set.contains(&field.name);
            let in_rest = rest_set.contains(&field.name);
            if !in_snap && !in_rest {
                // Waivable in place via a *reasoned* transient annotation
                // (or a plain audit:allow).
                let transient = sast
                    .annotation(field.line, "transient")
                    .is_some_and(|reason| !reason.is_empty());
                let waived = transient || sast.waived(field.line, super::SNAPSHOT_COMPLETE);
                report.push(Violation {
                    file: sast.path.clone(),
                    line: field.line,
                    rule: super::SNAPSHOT_COMPLETE,
                    message: format!(
                        "field `{}` of `{owner}` is covered by neither `{snap_name}` nor \
                         `{}`; checkpoints silently miss it — capture and restore it, or \
                         annotate `// audit:transient(<reason>)`",
                        field.name, rest.name,
                    ),
                    waived,
                    related: Vec::new(),
                });
            } else if in_snap && !in_rest {
                let Some(&rest_file) = file_of.get(rest.file.as_str()) else { continue };
                report.flag(
                    &files[rest_file],
                    rest.line,
                    super::SNAPSHOT_COMPLETE,
                    format!(
                        "`{}` never writes field `{}` of `{owner}`, but `{snap_name}` \
                         captures it — a restored instance would keep stale state",
                        rest.name, field.name,
                    ),
                    vec![crate::report::Related {
                        file: st.file.clone(),
                        line: field.line,
                        message: format!("field `{}` declared here", field.name),
                    }],
                );
            }
        }
    }
}
