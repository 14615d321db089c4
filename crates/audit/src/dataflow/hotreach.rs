//! `hot-path-reach`: transitive allocation / locking / IO detection for
//! `audit:hot-path` regions.
//!
//! The `hot-alloc` rule flags sinks written *directly on* hot-region
//! lines, reading the same sink table as this analysis. What it cannot see
//! is a hot line calling an innocuous-looking helper that allocates two
//! frames down. This analysis
//! takes every resolved call on a hot-region line as a *root*, walks the
//! call graph breadth-first, and scans each reachable body for sink
//! operations:
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
//! point), and `hot-alloc` agrees. Sinks on lines that are themselves
//! inside a hot region are skipped — `hot-alloc` owns those sites, so no
//! site is reported by both rules — and test code never sinks.
//!
//! Each finding lands on the *root call line* (waivable there with
//! `// audit:allow(hot-path-reach)`), carrying the discovered call chain
//! hop by hop as related locations, ending at the sink line.

use std::collections::HashMap;

use super::callgraph::{raw_calls, CallGraph};
use super::symbols::{FnId, SymbolTable};
use crate::ast::visit::{find_macro_calls, find_method_calls, RunVisitor};
use crate::ast::{Ast, Node};
use crate::report::Related;
use crate::Report;

/// Method-call sinks: `(name, what)` flagged when called with no
/// turbofish directly as `.name(…)`.
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
pub(crate) struct Sink {
    /// 1-based line of the sink.
    pub(crate) line: usize,
    /// What the sink does, e.g. "allocates (`format!`)".
    pub(crate) what: &'static str,
}

/// Scans a forest (a function body, or a whole file for `hot-alloc`) for
/// sink operations.
pub(crate) fn body_sinks(nodes: &[Node]) -> Vec<Sink> {
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
    let file_of: HashMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();
    // Sinks per function, minus hot-region lines (`hot-alloc` territory)
    // and test code.
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

    // Roots: resolved calls sitting on hot-region lines, per file.
    for file in files {
        for raw in raw_calls(&file.nodes) {
            if !file.in_hot(raw.line) || file.in_test(raw.line) {
                continue;
            }
            let roots = symbols.resolve(&raw.name, raw.argc, raw.qualifier.as_deref(), raw.kind);
            for root in roots {
                // BFS with first-discovery parents for chain rendering.
                let mut parent: HashMap<FnId, FnId> = HashMap::new();
                let mut queue = std::collections::VecDeque::from([root]);
                let mut visited = vec![root];
                let mut reported = Vec::new();
                while let Some(cur) = queue.pop_front() {
                    for sink in &sinks[cur] {
                        let key = (symbols.fns[cur].file.clone(), sink.line, sink.what);
                        if reported.contains(&key) {
                            continue;
                        }
                        reported.push(key);
                        // Chain: root → … → cur, then the sink line.
                        let mut chain = vec![cur];
                        while let Some(&p) = parent.get(chain.last().unwrap()) {
                            chain.push(p);
                        }
                        chain.reverse();
                        let mut related: Vec<Related> = chain
                            .iter()
                            .map(|&id| {
                                let f = &symbols.fns[id];
                                Related {
                                    file: f.file.clone(),
                                    line: f.line,
                                    message: format!("via `{}`, defined here", f.name),
                                }
                            })
                            .collect();
                        related.push(Related {
                            file: symbols.fns[cur].file.clone(),
                            line: sink.line,
                            message: format!("{} here", sink.what),
                        });
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
                            related,
                        );
                    }
                    for next in graph.callees(cur) {
                        if !visited.contains(&next) {
                            visited.push(next);
                            parent.insert(next, cur);
                            queue.push_back(next);
                        }
                    }
                }
            }
        }
    }
}
