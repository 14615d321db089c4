//! Static lint pass for the COCA workspace: per-file rules, semantic
//! rules and interprocedural analyses, all over one parse of each file.
//!
//! The pass holds only the project-specific rules. Generic ones belong to
//! clippy: the solver hot paths deny its panic lints (`unwrap_used`,
//! `expect_used`, `panic`, `unreachable`) in a module-level `#![deny]`,
//! and every library crate root except `coca-obs` denies `print_stdout` and
//! `print_stderr`, so diagnostics go through `coca_obs::logger` and only
//! binaries print. A test here keeps that scoping in step with
//! [`rules`]' hot-path list and the linted crates.
//!
//! The build environment has no registry access, so the pass cannot lean
//! on syn/quote. [`ast`] is the hand-rolled substitute: a span-tracking
//! lexer with comment trivia, balanced token trees, per-line facts
//! (`#[cfg(test)]` code, `audit:hot-path` regions, `audit:allow` waivers)
//! and a run visitor. Every rule reads the same [`ast::Ast`]:
//!
//! **Per-file rules** ([`rules`]):
//!
//! - [`rules::FLOAT_EQ`] — no raw f64 `==`/`!=` comparisons in non-test
//!   code; continuous quantities compare against tolerances.
//! - [`rules::NAN_GUARD`] — no `ln`/`sqrt`/identifier division in hot
//!   paths without a guard on the operand within 12 lines above.
//! - [`rules::MUST_USE`] — solver result types must carry `#[must_use]`.
//! - [`rules::HOT_ALLOC`] — no allocation, locking or IO inside declared
//!   `audit:hot-path` regions (the `hot-path-reach` sink table).
//! - [`rules::SLOT_LOOP`] — no hand-rolled per-slot loops outside the
//!   streaming engine; slots flow through `SimEngine`/`SlotSource`.
//!
//! **Semantic rules** ([`semantic`]):
//!
//! - [`semantic::UNIT_MIX`] — units-of-measure dataflow: terms tagged
//!   kWh / kW / USD (identifier suffixes, `// audit:unit(<tag>)`
//!   annotations, known core types) must not meet across `+`, `-`,
//!   compound assignment, or comparisons.
//! - [`semantic::ATOMIC_ORDERING`] — every atomic op carries an
//!   `// audit:atomic(<contract>)` annotation; CAS failure ordering must
//!   not exceed success ordering; CAS results must not be dropped.
//!
//! **Interprocedural rules** ([`dataflow`], over a workspace symbol
//! table and call graph; multi-file driver only):
//!
//! - `unit-flow` — kWh / kW / USD tags propagated through parameters and
//!   returns to a fixpoint; a mis-unitted argument is caught any number
//!   of calls from the annotation that tagged it.
//! - `hot-path-reach` — allocation, locking, or IO transitively
//!   reachable from calls on `audit:hot-path` lines, with the call chain
//!   attached as related locations.
//! - `snapshot-complete` — every struct with a snapshot/restore pair
//!   accounts for each declared field; non-checkpointed state is
//!   declared `// audit:transient(<reason>)`.
//! - `nondet-reach` — hash-ordered iteration, wall-clock reads, and
//!   channel receives reachable from state-affecting roots (engine
//!   stepping, checkpointing, serializers, batch orchestration); waived
//!   sink-by-sink with `// audit:ordered(<contract>)`.
//! - `stale-waiver` — waivers and annotations that no longer suppress or
//!   tag anything must be deleted; iterated to a fixpoint since
//!   staleness is itself waivable.
//!
//! Any finding can be waived with `// audit:allow(<rule>)` on the
//! offending line or the line above; waivers are reported and counted but
//! do not fail the run. The `coca-audit` binary
//! (`cargo run -p coca-audit -- lint [--format text|json|sarif]`) exits
//! non-zero on unwaived violations, and `coca-audit explain <rule-id>`
//! ([`explain`]) prints any rule's contract, annotation syntax, and a
//! minimal example; `schemas/audit.schema.json` pins the
//! JSON format and the `validate-audit` binary ([`schema`]) checks it in
//! CI. The lint engines are dependency-free; the machine formats reuse
//! the workspace's vendored serde/serde_json shims.

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod ast;
pub mod dataflow;
pub mod explain;
pub mod report;
pub mod rules;
pub mod schema;
pub mod semantic;

use std::path::{Path, PathBuf};

pub use report::{Report, Violation};

/// Directories under the workspace root whose `src/` trees are linted.
/// Bench and test harness code is intentionally out of scope: panics are
/// the correct failure mode there.
const LINTED_CRATES: &[&str] = &[
    "crates/audit",
    "crates/baselines",
    "crates/core",
    "crates/dcsim",
    "crates/experiments",
    "crates/obs",
    "crates/opt",
    "crates/scenarios",
    "crates/serve",
    "crates/traces",
];

/// Every rule id the pass can emit, in stable order (used by the SARIF
/// driver metadata and the JSON schema's enum).
pub const ALL_RULES: &[&str] = &[
    rules::FLOAT_EQ,
    rules::NAN_GUARD,
    rules::MUST_USE,
    rules::HOT_ALLOC,
    rules::SLOT_LOOP,
    semantic::UNIT_MIX,
    semantic::ATOMIC_ORDERING,
    dataflow::UNIT_FLOW,
    dataflow::HOT_PATH_REACH,
    dataflow::SNAPSHOT_COMPLETE,
    dataflow::NONDET_REACH,
    dataflow::STALE_WAIVER,
];

/// Recursively collects `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.collect::<std::io::Result<Vec<_>>>()?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every in-scope source file under `workspace_root` and returns the
/// aggregated report.
///
/// # Errors
/// Returns an I/O error if the workspace layout cannot be read, or if no
/// in-scope sources exist under `workspace_root` at all — a mistyped root
/// must not produce a vacuously clean report.
pub fn run_lint(workspace_root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    for krate in LINTED_CRATES {
        let src = workspace_root.join(krate).join("src");
        if src.is_dir() {
            rust_files(&src, &mut files)?;
        }
    }
    if files.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no linted crate sources under {}", workspace_root.display()),
        ));
    }
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let text = std::fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(workspace_root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, text));
    }
    Ok(lint_sources(&sources))
}

/// Lints a set of in-memory sources with the full multi-pass pipeline:
/// pass 1 parses every file once; pass 2 applies every per-file and
/// semantic rule to each; pass 3 runs the interprocedural [`dataflow`]
/// analyses (`unit-flow`, `hot-path-reach`, `snapshot-complete`,
/// `nondet-reach`, and finally `stale-waiver` hygiene over the
/// accumulated findings). The report is sorted by `(file, line, rule)`.
pub fn lint_sources(sources: &[(String, String)]) -> Report {
    let parsed: Vec<ast::Ast> =
        sources.iter().map(|(rel, text)| ast::Ast::parse(rel, text)).collect();
    let mut report = Report::default();
    for ast in &parsed {
        rules::apply_all(ast, &mut report);
        semantic::apply_all(ast, &mut report);
    }
    dataflow::apply_all(&parsed, &mut report);
    report.sort();
    report
}

/// Lints a single file's contents (entry point shared by the fixture
/// self-tests and the rule unit tests). The interprocedural [`dataflow`]
/// analyses do not run — use [`lint_sources`] to exercise `unit-flow`,
/// `hot-path-reach`, `snapshot-complete`, `nondet-reach` or
/// `stale-waiver`.
pub fn lint_source(rel_path: &str, text: &str, report: &mut Report) {
    let ast = ast::Ast::parse(rel_path, text);
    rules::apply_all(&ast, report);
    semantic::apply_all(&ast, report);
    report.sort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Ast, Delim, Node};

    /// The lint paths (`clippy::panic`, …) that the file's top-level
    /// `#![deny(...)]` attributes name.
    fn inner_denies(path: &str) -> Vec<String> {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text = std::fs::read_to_string(root.join(path)).expect("readable workspace source");
        let mut lints = Vec::new();
        for w in Ast::parse(path, &text).nodes.windows(3) {
            let inner = w[0].is_punct("#") && w[1].is_punct("!");
            let attr = w[2].group().filter(|g| inner && g.delim == Delim::Bracket);
            if let Some([deny, Node::Group(list)]) = attr.map(|g| g.children.as_slice()) {
                if deny.is_ident("deny") {
                    lints.extend(list.children.split(|n| n.is_punct(",")).map(|lint| {
                        lint.iter().filter_map(Node::tok).map(|t| t.text.as_str()).collect()
                    }));
                }
            }
        }
        lints
    }

    /// `cargo test` does not run clippy, so this is what notices a hot path
    /// or library crate that lost its `#![deny]`.
    #[test]
    fn clippy_scoping_covers_hot_paths_and_library_crates() {
        let panics =
            ["clippy::unwrap_used", "clippy::expect_used", "clippy::panic", "clippy::unreachable"];
        let prints = ["clippy::print_stdout", "clippy::print_stderr"];
        // `coca-obs` owns the logger's stderr emitter; binaries are crate
        // roots of their own and stay free to print.
        let libs = LINTED_CRATES.iter().filter(|&&k| k != "crates/obs");
        let libs = libs.map(|k| (format!("{k}/src/lib.rs"), &prints[..]));
        let wanted = rules::HOT_PATHS.iter().map(|p| (p.to_string(), &panics[..]));
        for (path, lints) in wanted.chain(libs) {
            let denied = inner_denies(&path);
            for lint in lints {
                let found = denied.iter().any(|d| d == lint);
                assert!(found, "{path} lacks `#![deny({lint})]`: {denied:?}");
            }
        }
    }
}
