//! `hot-path-reach`: allocation / locking / IO reachable from
//! `audit:hot-path` regions, zero or more calls away.
//!
//! A sink written *directly on* a hot-region line is a zero-hop reach,
//! reported at its own line. A hot line calling an innocuous-looking
//! helper that allocates two frames down is the same defect further
//! away: every resolved call on a hot-region line is a *root*, the
//! shared [`CallGraph::reach`] walk finds what it reaches, and each
//! reachable body is scanned for the same sink operations:
//!
//! - **allocation** — `Vec::new`, `vec![…]`, `Box::new`, `format!`,
//!   `with_capacity`, `.clone()`, `.to_vec()`, `.to_owned()`,
//!   `.to_string()`, `.collect()`, `String::new`/`from`;
//! - **locking** — `.lock()`, `.read()`, `.write()` (the blocking guard
//!   acquisitions);
//! - **IO** — `File::open`/`create`, `fs::…` calls, `read_to_string`,
//!   `read_dir`, stdout/stderr handles.
//!
//! `.push` is deliberately *not* a sink: the workspace's hot-path
//! contract is capacity reuse (push into pre-sized scratch is the whole
//! point). A reachable body's sinks on hot-region lines are the zero-hop
//! findings of their own line, so the walk skips them; test code never
//! sinks.
//!
//! A zero-hop finding lands on the sink line; a reach finding lands on
//! the *root call line*, carrying the discovered call chain hop by hop as
//! related locations, ending at the sink line. Both are waivable where
//! they land with `// audit:allow(hot-path-reach)`.

use std::collections::HashMap;

use super::callgraph::{chain_related, raw_calls, CallGraph};
use super::symbols::SymbolTable;
use crate::ast::visit::{find_macro_calls, find_method_calls, RunVisitor};
use crate::ast::{Ast, Node};
use crate::Report;

/// Method-call sinks: `(name, what)` flagged when called as `.name(…)` or
/// `.name::<…>(…)`.
const METHOD_SINKS: &[(&str, &str)] = &[
    ("clone", "allocates (`.clone()`)"),
    ("to_vec", "allocates (`.to_vec()`)"),
    ("to_owned", "allocates (`.to_owned()`)"),
    ("to_string", "allocates (`.to_string()`)"),
    ("collect", "allocates (`.collect()`)"),
    ("with_capacity", "allocates (`with_capacity`)"),
    ("lock", "takes a lock (`.lock()`)"),
    ("read", "takes a lock (`.read()`)"),
    ("write", "takes a lock (`.write()`)"),
    ("read_to_string", "performs IO (`read_to_string`)"),
    ("write_all", "performs IO (`write_all`)"),
    ("flush", "performs IO (`flush`)"),
];

/// Qualified sinks: `Qualifier::name` paths.
const PATH_SINKS: &[(&str, &str, &str)] = &[
    ("Vec", "new", "allocates (`Vec::new`)"),
    ("Vec", "with_capacity", "allocates (`Vec::with_capacity`)"),
    ("String", "new", "allocates (`String::new`)"),
    ("String", "from", "allocates (`String::from`)"),
    ("String", "with_capacity", "allocates (`String::with_capacity`)"),
    ("Box", "new", "allocates (`Box::new`)"),
    ("HashMap", "new", "allocates (`HashMap::new`)"),
    ("HashMap", "with_capacity", "allocates (`HashMap::with_capacity`)"),
    ("BTreeMap", "new", "allocates (`BTreeMap::new`)"),
    ("VecDeque", "new", "allocates (`VecDeque::new`)"),
    ("File", "open", "performs IO (`File::open`)"),
    ("File", "create", "performs IO (`File::create`)"),
    ("fs", "read_to_string", "performs IO (`fs::read_to_string`)"),
    ("fs", "read_dir", "performs IO (`fs::read_dir`)"),
    ("fs", "write", "performs IO (`fs::write`)"),
    ("io", "stdout", "performs IO (`io::stdout`)"),
    ("io", "stderr", "performs IO (`io::stderr`)"),
];

/// Macro sinks: `name!(…)`.
const MACRO_SINKS: &[(&str, &str)] = &[
    ("vec", "allocates (`vec![…]`)"),
    ("format", "allocates (`format!`)"),
];

/// One sink operation found in a token forest.
#[derive(Debug)]
struct Sink {
    /// 1-based line of the sink.
    line: usize,
    /// What the sink does, e.g. "allocates (`format!`)".
    what: &'static str,
}

/// Scans a forest (a function body, or a whole file) for sink operations.
fn body_sinks(nodes: &[Node]) -> Vec<Sink> {
    struct Sinks(Vec<Sink>);
    impl RunVisitor for Sinks {
        fn run(&mut self, run: &[Node], _depth: usize) {
            for call in find_method_calls(run) {
                if let Some((_, what)) = METHOD_SINKS.iter().find(|(n, _)| *n == call.name) {
                    self.0.push(Sink { line: call.line, what });
                }
            }
            // `Qualifier::name` sink paths.
            for w in run.windows(3) {
                let [q, sep, name] = w else { continue };
                let (Some(q), Some(name)) = (q.ident(), name.ident()) else { continue };
                if !sep.is_punct("::") {
                    continue;
                }
                if let Some((_, _, what)) =
                    PATH_SINKS.iter().find(|(pq, pn, _)| *pq == q && *pn == name)
                {
                    self.0.push(Sink { line: w[0].line(), what });
                }
            }
            for tok in find_macro_calls(run) {
                if let Some((_, what)) = MACRO_SINKS.iter().find(|(n, _)| tok.is_ident(n)) {
                    self.0.push(Sink { line: tok.line, what });
                }
            }
        }
    }
    let mut v = Sinks(Vec::new());
    crate::ast::visit::walk_runs(nodes, &mut v);
    v.0
}

/// Runs the analysis and reports `hot-path-reach` findings.
pub fn check(files: &[Ast], symbols: &SymbolTable, graph: &CallGraph, report: &mut Report) {
    // Zero hops: sinks written on hot-region lines themselves.
    for file in files {
        for sink in body_sinks(&file.nodes) {
            if file.in_hot(sink.line) && !file.in_test(sink.line) {
                let message = format!(
                    "code that {} sits on an `audit:hot-path` line (0 calls deep); reuse a \
                     pre-sized scratch buffer and keep locks and IO off the hot path",
                    sink.what
                );
                report.flag(file, sink.line, super::HOT_PATH_REACH, message, Vec::new());
            }
        }
    }

    let file_of: HashMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();
    // Sinks per function, minus hot-region lines (reported above, at
    // their own line) and test code.
    let sinks: Vec<Vec<Sink>> = symbols
        .fns
        .iter()
        .map(|f| {
            let file = &files[file_of[f.file.as_str()]];
            body_sinks(&f.body.children)
                .into_iter()
                .filter(|s| !file.in_hot(s.line) && !file.in_test(s.line))
                .collect()
        })
        .collect();

    // One or more hops: resolved calls sitting on hot-region lines, per file.
    for file in files {
        for raw in raw_calls(&file.nodes) {
            if !file.in_hot(raw.line) || file.in_test(raw.line) {
                continue;
            }
            let roots = symbols.resolve(&raw.name, raw.argc, raw.qualifier.as_deref(), raw.kind);
            for root in roots {
                let reach = graph.reach(&[root]);
                let mut reported = Vec::new();
                for &cur in &reach.order {
                    for sink in &sinks[cur] {
                        let key = (symbols.fns[cur].file.as_str(), sink.line, sink.what);
                        if reported.contains(&key) {
                            continue;
                        }
                        reported.push(key);
                        let chain = reach.chain(cur);
                        let depth = chain.len();
                        report.flag(
                            file,
                            raw.line,
                            super::HOT_PATH_REACH,
                            format!(
                                "hot-path call `{}` reaches code that {} in `{}` \
                                 ({} call{} deep)",
                                raw.name,
                                sink.what,
                                symbols.fns[cur].name,
                                depth,
                                if depth == 1 { "" } else { "s" }
                            ),
                            chain_related(symbols, &chain, "via", sink.line, sink.what),
                        );
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::dataflow::HOT_PATH_REACH;
    use crate::Report;

    fn lint(path: &str, src: &str) -> Report {
        crate::lint_sources(&[(path.to_string(), src.to_string())])
    }

    #[test]
    fn direct_sinks_fire_only_inside_declared_regions() {
        let src = "\
fn setup() -> Vec<f64> { Vec::new() }
// audit:hot-path: begin
fn delta(&mut self, xs: &[usize]) {
    let copy = xs.to_vec();
    self.scratch.clear();
    self.scratch.push(1.0);
}
// audit:hot-path: end
fn teardown() -> Vec<f64> { vec![0.0] }
";
        let r = lint("crates/dcsim/src/engine.rs", src);
        let hits: Vec<usize> =
            r.unwaived().filter(|v| v.rule == HOT_PATH_REACH).map(|v| v.line).collect();
        assert_eq!(hits, vec![4], "{r}");
        assert!(r.violations[0].message.contains("(0 calls deep)"), "{r}");
    }

    #[test]
    fn direct_sinks_honor_waivers() {
        let src = "\
// audit:hot-path: begin
fn delta(&mut self) {
    // Error path only, never taken per-proposal. audit:allow(hot-path-reach)
    let msg = format!(\"bad\");
}
// audit:hot-path: end
";
        let r = lint("crates/opt/src/waterfill.rs", src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
        assert_eq!(r.violations.iter().filter(|v| v.rule == HOT_PATH_REACH).count(), 1);
    }
}
