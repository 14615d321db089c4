//! `nondet-reach`: nondeterminism reachable from state-affecting paths.
//!
//! The workspace's replay guarantees (lockstep ≡ lanes, crash-resume ≡
//! uninterrupted, stream ≡ batch) are checked dynamically by byte-compare
//! tests — which only cover the paths they run. This analysis walks the
//! call graph from every *state-affecting root* and flags each reachable
//! *nondeterminism sink*, with the discovered call chain attached as
//! related locations (rendered as SARIF `relatedLocations`, like
//! `hot-path-reach`).
//!
//! **Roots** ([`ROOTS`], name-matched with an optional owner filter):
//! engine advance paths (`step`, `step_wait`, `run_to_end`,
//! `run_service`, `run_lockstep`), checkpoint serializers (`snapshot`,
//! `restore`, `snapshot_state`, `restore_state`, `checkpoint`),
//! serialized-output and wire encoders (`to_json`, `to_prometheus`,
//! `to_line`, `encode`), scenario identity hashing (`run_id`,
//! `canonical_json`, `canonicalize`, `materialize`), batch orchestration
//! (`BatchRunner::run`, `sweep`), and trace ingestion (`read_vm_cpu`,
//! `read_task_usage` — their output *is* replayed state).
//!
//! **Sinks** found in reachable non-test bodies:
//!
//! - iteration over a binding the analysis knows to be a std `HashMap` /
//!   `HashSet` (a field of the owning type — scoped to that type's own
//!   methods — or a param / local declared type, or a `HashMap::new()`
//!   initializer) — via `.iter()`-family calls or `for … in` loops —
//!   *unless* the statement collects into a `BTreeMap` / `BTreeSet` or
//!   the collected binding is sorted later in the same block. `Fx`-hashed maps (`BuildHasherDefault`) iterate in
//!   deterministic (insertion-history) order per seed and are exempt;
//! - wall-clock reads: `Instant::now`, `SystemTime::now`;
//! - channel receives (`.recv()`, `.try_recv()`, `.recv_timeout()`),
//!   whose arrival order depends on worker scheduling.
//!
//! Findings land on the *sink line* — the place a fix or a contract
//! belongs — waivable there with `// audit:ordered(<contract>)` (the
//! contract must be non-empty) or a plain `audit:allow(nondet-reach)`.
//! Type knowledge is name-based with no inference; a map reached through
//! a lock guard or an alias is invisible (DESIGN.md §18).

use std::collections::{HashMap, HashSet};

use super::callgraph::{chain_related, CallGraph};
use super::symbols::{type_text, FnDef, FnId, SymbolTable};
use crate::ast::visit::{find_method_calls, RunVisitor};
use crate::ast::{Ast, Node, TokKind};
use crate::report::Violation;
use crate::Report;

/// Root set: `(fn name, required impl owner)` — `None` matches any
/// definition of that name (free fns and methods alike).
pub const ROOTS: &[(&str, Option<&str>)] = &[
    ("step", Some("SimEngine")),
    ("step_wait", Some("SimEngine")),
    ("run_to_end", Some("SimEngine")),
    ("run_service", Some("SimEngine")),
    ("run_lockstep", None),
    ("snapshot", None),
    ("restore", None),
    ("snapshot_state", None),
    ("restore_state", None),
    ("checkpoint", None),
    ("to_json", None),
    ("to_prometheus", None),
    ("to_line", None),
    ("encode", None),
    ("run_id", None),
    ("canonical_json", None),
    ("canonicalize", None),
    ("materialize", None),
    ("run", Some("BatchRunner")),
    ("sweep", None),
    ("read_vm_cpu", None),
    ("read_task_usage", None),
];

/// Iterator-yielding methods whose order follows the hasher.
const ITER_METHODS: &[&str] = &[
    "iter", "iter_mut", "keys", "values", "values_mut", "into_iter", "into_keys", "into_values",
    "drain",
];

/// Channel-receive methods (arrival order is scheduler-dependent).
const RECV_METHODS: &[&str] = &["recv", "try_recv", "recv_timeout"];

/// Sort-family methods that restore a deterministic order.
const SORT_METHODS: &[&str] = &[
    "sort", "sort_unstable", "sort_by", "sort_by_key", "sort_unstable_by",
    "sort_unstable_by_key", "sort_by_cached_key",
];

/// True when a rendered type names a randomly-seeded std hash container.
fn hashy_type(ty: &str) -> bool {
    (ty.contains("HashMap") || ty.contains("HashSet"))
        && !ty.contains("Fx")
        && !ty.contains("BuildHasherDefault")
}

/// One nondeterminism sink found in a function body.
#[derive(Debug)]
struct Sink {
    line: usize,
    what: String,
}

/// Last identifier of a receiver-chain slice (`self.per_vm_hour` →
/// `per_vm_hour`; `rx` → `rx`).
fn chain_key(chain: &[Node]) -> Option<&str> {
    chain.iter().rev().find_map(Node::ident)
}

/// Names of hash-container bindings *local* to one body: `let [mut] name:
/// Ty = …` with a hashy declared type, or `let [mut] name = HashMap::…`.
fn local_hashy_names(nodes: &[Node], out: &mut HashSet<String>) {
    struct Locals<'a>(&'a mut HashSet<String>);
    impl RunVisitor for Locals<'_> {
        fn run(&mut self, run: &[Node], _depth: usize) {
            for i in 0..run.len() {
                if !run[i].is_ident("let") {
                    continue;
                }
                let mut k = i + 1;
                while run.get(k).is_some_and(|n| n.is_ident("mut") || n.is_ident("ref")) {
                    k += 1;
                }
                let Some(name) = run.get(k).and_then(Node::ident) else { continue };
                // Statement text from the binding to the terminator.
                let end = (k..run.len())
                    .find(|&j| run[j].is_punct(";"))
                    .unwrap_or(run.len());
                if hashy_type(&type_text(&run[k + 1..end])) {
                    self.0.insert(name.to_string());
                }
            }
        }
    }
    let mut v = Locals(out);
    crate::ast::visit::walk_runs(nodes, &mut v);
}

/// Statement start for suppression purposes: unlike
/// [`stmt_start`], a top-level brace group (a preceding `for`/`if`/`match`
/// statement body) also ends the previous statement — `let` bindings right
/// after a loop must still be recognized as `let` statements.
fn suppress_stmt_start(run: &[Node], idx: usize) -> usize {
    (0..idx)
        .rev()
        .find(|&k| {
            run[k].is_punct(";")
                || matches!(&run[k], Node::Group(g) if g.delim == crate::ast::Delim::Brace)
        })
        .map_or(0, |k| k + 1)
}

/// True when the sink's statement (or a later sort of its binding in the
/// same block) restores a deterministic order.
fn order_restored(run: &[Node], idx: usize) -> bool {
    let s = suppress_stmt_start(run, idx);
    let e = (idx..run.len()).find(|&j| run[j].is_punct(";")).unwrap_or(run.len());
    let stmt = &run[s..e];
    if stmt.iter().any(|n| n.is_ident("BTreeMap") || n.is_ident("BTreeSet")) {
        return true;
    }
    let sorted_here = find_method_calls(stmt)
        .iter()
        .any(|c| SORT_METHODS.contains(&c.name));
    if sorted_here {
        return true;
    }
    // `let [mut] binding = <hash iteration>.collect(); … binding.sort…()`
    if stmt.first().is_some_and(|n| n.is_ident("let")) {
        let mut k = 1;
        while stmt.get(k).is_some_and(|n| n.is_ident("mut") || n.is_ident("ref")) {
            k += 1;
        }
        if let Some(binding) = stmt.get(k).and_then(Node::ident) {
            return find_method_calls(&run[e..]).iter().any(|c| {
                SORT_METHODS.contains(&c.name)
                    && chain_key(&run[e + c.recv_start..e + c.dot_idx]) == Some(binding)
            });
        }
    }
    false
}

/// Scans one body for nondeterminism sinks given the known hashy names.
fn body_sinks(f: &FnDef, field_names: &HashSet<String>) -> Vec<Sink> {
    let mut hashy: HashSet<String> = field_names.clone();
    for (name, ty) in f.params.iter().zip(&f.param_tys) {
        if hashy_type(ty) {
            hashy.insert(name.clone());
        }
    }
    local_hashy_names(&f.body.children, &mut hashy);

    struct Sinks<'a> {
        hashy: &'a HashSet<String>,
        out: Vec<Sink>,
    }
    impl RunVisitor for Sinks<'_> {
        fn run(&mut self, run: &[Node], _depth: usize) {
            for call in find_method_calls(run) {
                let key = chain_key(&run[call.recv_start..call.dot_idx]);
                if ITER_METHODS.contains(&call.name) {
                    if let Some(key) = key.filter(|k| self.hashy.contains(*k)) {
                        if !order_restored(run, call.dot_idx) {
                            self.out.push(Sink {
                                line: call.line,
                                what: format!(
                                    "hash-ordered iteration (`.{}()` on `{key}`)",
                                    call.name
                                ),
                            });
                        }
                    }
                } else if RECV_METHODS.contains(&call.name) {
                    self.out.push(Sink {
                        line: call.line,
                        what: format!("channel-arrival-order receive (`.{}()`)", call.name),
                    });
                }
            }
            for i in 0..run.len() {
                let Some(tok) = run[i].tok() else { continue };
                if tok.kind != TokKind::Ident {
                    continue;
                }
                // `for <pat> in <hashy>` loops.
                if tok.is_ident("for") {
                    let in_idx = (i + 1..run.len())
                        .take_while(|&j| {
                            !matches!(&run[j], Node::Group(g) if g.delim == crate::ast::Delim::Brace)
                        })
                        .find(|&j| run[j].is_ident("in"));
                    if let Some(in_idx) = in_idx {
                        let key = crate::ast::visit::term_after(run, in_idx + 1)
                            .map(|t| t.key);
                        if let Some(key) = key.filter(|k| self.hashy.contains(k)) {
                            if !order_restored(run, in_idx) {
                                self.out.push(Sink {
                                    line: tok.line,
                                    what: format!("for-loop over hash-ordered `{key}`"),
                                });
                            }
                        }
                    }
                }
                // `Instant::now()` / `SystemTime::now()` wall-clock reads.
                if (tok.is_ident("Instant") || tok.is_ident("SystemTime"))
                    && run.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && run.get(i + 2).is_some_and(|n| n.is_ident("now"))
                {
                    self.out.push(Sink {
                        line: tok.line,
                        what: format!("wall-clock read (`{}::now`)", tok.text),
                    });
                }
            }
        }
    }
    let mut v = Sinks { hashy: &hashy, out: Vec::new() };
    crate::ast::visit::walk_runs(&f.body.children, &mut v);
    v.out
}

/// Runs the analysis and reports `nondet-reach` findings.
pub fn check(files: &[Ast], symbols: &SymbolTable, graph: &CallGraph, report: &mut Report) {
    let file_of: HashMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();

    // Hash-container field names, scoped per owning struct: tainting by
    // bare name workspace-wide would condemn every `items` because *one*
    // struct has a hashy `items` field. A body only inherits the fields
    // of the type its `impl` block names; cross-struct field access
    // (`other.map.iter()`) is invisible (DESIGN.md §18).
    let empty: HashSet<String> = HashSet::new();
    let mut fields_of: HashMap<&str, HashSet<String>> = HashMap::new();
    for s in symbols.structs.iter().filter(|s| !s.in_test) {
        let hashy: HashSet<String> = s
            .fields
            .iter()
            .filter(|f| hashy_type(&f.ty))
            .map(|f| f.name.clone())
            .collect();
        fields_of.entry(s.name.as_str()).or_default().extend(hashy);
    }

    // One walk from every root at once: first discovery wins the chain.
    // Roots seed it in symbol order, so output is stable.
    let roots: Vec<FnId> = symbols
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.in_test
                && ROOTS.iter().any(|(name, owner)| {
                    f.name == *name && owner.is_none_or(|o| f.owner.as_deref() == Some(o))
                })
        })
        .map(|(id, _)| id)
        .collect();

    let reach = graph.reach(&roots);

    let mut reported: HashSet<(String, usize, String)> = HashSet::new();
    for &cur in &reach.order {
        let f = &symbols.fns[cur];
        if f.in_test {
            continue;
        }
        let Some(&fi) = file_of.get(f.file.as_str()) else { continue };
        let sast = &files[fi];
        let field_names = f
            .owner
            .as_deref()
            .and_then(|o| fields_of.get(o))
            .unwrap_or(&empty);
        for sink in body_sinks(f, field_names) {
            if sast.in_test(sink.line) {
                continue;
            }
            let key = (f.file.clone(), sink.line, sink.what.clone());
            if !reported.insert(key) {
                continue;
            }
            let chain = reach.chain(cur);
            let root_def = &symbols.fns[chain[0]];
            let related =
                chain_related(symbols, &chain, "state-affecting root", sink.line, &sink.what);
            // Waivable in place via a *contracted* ordered annotation (or
            // a plain audit:allow).
            let ordered = sast
                .annotation(sink.line, "ordered")
                .is_some_and(|contract| !contract.is_empty());
            let waived =
                ordered || sast.waived(sink.line, super::NONDET_REACH);
            let depth = chain.len();
            let message = format!(
                "state-affecting path from `{}` reaches {} in `{}` ({} fn{} deep) — \
                 make the order deterministic or annotate \
                 `// audit:ordered(<contract>)`",
                root_def.name,
                sink.what,
                f.name,
                depth,
                if depth == 1 { "" } else { "s" },
            );
            let dup = report.violations.iter().any(|v| {
                v.file == *f.file && v.line == sink.line && v.rule == super::NONDET_REACH
                    && v.message == message
            });
            if !dup {
                report.push(Violation {
                    file: f.file.clone(),
                    line: sink.line,
                    rule: super::NONDET_REACH,
                    message,
                    waived,
                    related,
                });
            }
        }
    }
}
