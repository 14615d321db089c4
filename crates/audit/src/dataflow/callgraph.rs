//! Call-site extraction and the workspace call graph.
//!
//! A *raw call* is any of the three syntactic call shapes the token trees
//! expose: `recv.name(args)` method calls, `Qualifier::name(args)`
//! qualified calls, and bare `name(args)` free calls. Macros (`name!(…)`)
//! are naturally excluded — the `!` breaks ident/group adjacency — and
//! uppercase-initial bare calls (`Some(x)`, tuple-struct constructors)
//! are skipped. The same extractor serves the call graph (edges per
//! function body) and the hot-path analysis (root sites per file line).
//!
//! [`CallGraph::reach`] is the one reachability walk: `hot-path-reach`
//! runs it from each hot-line call, `nondet-reach` from all
//! state-affecting roots at once, and both render a finding's
//! first-discovery chain with [`chain_related`].

use std::collections::{HashMap, VecDeque};

use super::symbols::{CallKind, FnId, SymbolTable, KEYWORDS};
use crate::ast::tree::{Delim, Group, Node};
use crate::ast::visit::{find_method_calls, split_commas, term_spanning, RunVisitor};
use crate::ast::visit::Term;
use crate::report::Related;

/// One syntactic call site, before resolution.
#[derive(Debug)]
pub struct RawCall {
    /// Callee name as written (last path segment).
    pub name: String,
    /// 1-based line of the callee name token.
    pub line: usize,
    /// Number of arguments in the parentheses.
    pub argc: usize,
    /// `Type` in `Type::name(…)` calls, when syntactically present.
    pub qualifier: Option<String>,
    /// Which call shape this site is.
    pub kind: CallKind,
    /// Per-argument single-chain terms (`None` for compound arguments
    /// like `a + b`) — the unit-flow analysis reads units off these.
    pub args: Vec<Option<Term>>,
}

/// Argument count of a call's parentheses group.
pub fn arg_count(args: &Group) -> usize {
    if args.children.is_empty() {
        0
    } else {
        split_commas(args).len()
    }
}

/// Per-argument spanning terms of a call's parentheses group.
fn arg_terms(args: &Group) -> Vec<Option<Term>> {
    if args.children.is_empty() {
        Vec::new()
    } else {
        split_commas(args).iter().map(|s| term_spanning(s)).collect()
    }
}

/// Collects every raw call in a forest (all runs, depth-first).
pub fn raw_calls(nodes: &[Node]) -> Vec<RawCall> {
    struct Calls(Vec<RawCall>);
    impl RunVisitor for Calls {
        fn run(&mut self, run: &[Node], _depth: usize) {
            for call in find_method_calls(run) {
                self.0.push(RawCall {
                    name: call.name.to_string(),
                    line: call.line,
                    argc: arg_count(call.args),
                    qualifier: None,
                    kind: CallKind::Method,
                    args: arg_terms(call.args),
                });
            }
            for i in 0..run.len() {
                let Some(tok) = run[i].tok() else { continue };
                if tok.kind != crate::ast::TokKind::Ident
                    || KEYWORDS.contains(&tok.text.as_str())
                    || tok.text.starts_with(|c: char| c.is_ascii_uppercase())
                {
                    continue;
                }
                let Some(args) = run.get(i + 1).and_then(Node::group) else { continue };
                if args.delim != Delim::Paren {
                    continue;
                }
                let prev = i.checked_sub(1).map(|k| &run[k]);
                if prev.is_some_and(|p| p.is_punct(".") || p.is_ident("fn")) {
                    continue; // method call (handled above) or definition
                }
                let qualifier = match prev {
                    Some(p) if p.is_punct("::") => run
                        .get(i.wrapping_sub(2))
                        .and_then(Node::ident)
                        .map(str::to_string),
                    _ => None,
                };
                let kind = if qualifier.is_some() { CallKind::Qualified } else { CallKind::Free };
                self.0.push(RawCall {
                    name: tok.text.clone(),
                    line: tok.line,
                    argc: arg_count(args),
                    qualifier,
                    kind,
                    args: arg_terms(args),
                });
            }
        }
    }
    let mut v = Calls(Vec::new());
    crate::ast::visit::walk_runs(nodes, &mut v);
    v.0
}

/// One resolved call-graph edge.
#[derive(Debug)]
pub struct CallSite {
    /// Callee candidate this edge points at.
    pub callee: FnId,
    /// 1-based line of the call in the *caller's* file.
    pub line: usize,
    /// Callee name as written at the site.
    pub name: String,
}

/// The workspace call graph: resolved outgoing edges per function.
pub struct CallGraph {
    /// Outgoing edges, indexed by caller [`FnId`]. One raw call with N
    /// candidate resolutions contributes N edges.
    pub calls: Vec<Vec<CallSite>>,
    /// Callers per callee — the transpose, for worklist scheduling.
    pub callers: Vec<Vec<FnId>>,
}

impl CallGraph {
    /// Resolves every function body's raw calls against the table.
    pub fn build(symbols: &SymbolTable) -> Self {
        let n = symbols.fns.len();
        let mut calls = Vec::with_capacity(n);
        let mut callers: Vec<Vec<FnId>> = vec![Vec::new(); n];
        for (caller, f) in symbols.fns.iter().enumerate() {
            let mut edges = Vec::new();
            for raw in raw_calls(&f.body.children) {
                for callee in
                    symbols.resolve(&raw.name, raw.argc, raw.qualifier.as_deref(), raw.kind)
                {
                    if !callers[callee].contains(&caller) {
                        callers[callee].push(caller);
                    }
                    edges.push(CallSite { callee, line: raw.line, name: raw.name.clone() });
                }
            }
            calls.push(edges);
        }
        CallGraph { calls, callers }
    }

    /// Deduplicated callee set of one function (used by reachability).
    pub fn callees(&self, id: FnId) -> Vec<FnId> {
        let mut out: Vec<FnId> = self.calls[id].iter().map(|c| c.callee).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Breadth-first walk from `roots`: every function they reach, each
    /// with the parent it was first discovered from.
    pub fn reach(&self, roots: &[FnId]) -> Reach {
        let mut parent = vec![None; self.calls.len()];
        let mut seen = vec![false; self.calls.len()];
        for &r in roots {
            seen[r] = true;
        }
        let mut queue: VecDeque<FnId> = roots.iter().copied().collect();
        let mut order = Vec::new();
        while let Some(cur) = queue.pop_front() {
            order.push(cur);
            for next in self.callees(cur) {
                if !seen[next] {
                    seen[next] = true;
                    parent[next] = Some(cur);
                    queue.push_back(next);
                }
            }
        }
        Reach { order, parent }
    }
}

/// The functions a [`CallGraph::reach`] walk found.
pub struct Reach {
    /// Reached functions in discovery order, roots first.
    pub order: Vec<FnId>,
    /// First-discovery parent of each reached non-root.
    parent: Vec<Option<FnId>>,
}

impl Reach {
    /// The discovery chain from a root to `to`, both ends included.
    pub fn chain(&self, to: FnId) -> Vec<FnId> {
        let mut chain = vec![to];
        while let Some(p) = chain.last().and_then(|&c| self.parent[c]) {
            chain.push(p);
        }
        chain.reverse();
        chain
    }
}

/// `chain` hop by hop as related locations, one per definition — the
/// first one introduced as `root`, the others as `via` — then the sink:
/// `what` on `sink_line` of the last hop's file.
pub fn chain_related(
    symbols: &SymbolTable,
    chain: &[FnId],
    root: &str,
    sink_line: usize,
    what: &str,
) -> Vec<Related> {
    let mut related: Vec<Related> = chain
        .iter()
        .enumerate()
        .map(|(hop, &id)| {
            let f = &symbols.fns[id];
            let role = if hop == 0 { root } else { "via" };
            Related {
                file: f.file.clone(),
                line: f.line,
                message: format!("{role} `{}`, defined here", f.name),
            }
        })
        .collect();
    if let Some(&last) = chain.last() {
        related.push(Related {
            file: symbols.fns[last].file.clone(),
            line: sink_line,
            message: format!("{what} here"),
        });
    }
    related
}

/// Convenience: name → FnId lookup map for tests and diagnostics.
pub fn name_index(symbols: &SymbolTable) -> HashMap<&str, FnId> {
    symbols
        .fns
        .iter()
        .enumerate()
        .map(|(id, f)| (f.name.as_str(), id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Ast;

    fn graph(src: &str) -> (SymbolTable, CallGraph) {
        let symbols = SymbolTable::build(&[Ast::parse("crates/core/src/x.rs", src)]);
        let g = CallGraph::build(&symbols);
        (symbols, g)
    }

    #[test]
    fn free_method_and_qualified_calls_resolve() {
        let src = "\
fn leaf(x: f64) -> f64 { x }
struct S;
impl S {
    fn new() -> S { S }
    fn step(&self) -> f64 { leaf(1.0) }
}
fn driver(s: &S) -> f64 {
    let s2 = S::new();
    s.step() + leaf(2.0)
}
";
        let (sym, g) = graph(src);
        let ids = name_index(&sym);
        let driver_edges = &g.calls[ids["driver"]];
        let mut names: Vec<&str> = driver_edges.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, vec!["leaf", "new", "step"]);
        assert_eq!(g.callees(ids["step"]), vec![ids["leaf"]]);
        assert!(g.callers[ids["leaf"]].contains(&ids["driver"]));
        assert!(g.callers[ids["leaf"]].contains(&ids["step"]));
    }

    #[test]
    fn macros_and_constructors_are_not_calls() {
        let src = "fn f() -> Option<u8> {\n    format!(\"x\");\n    Some(1)\n}\n";
        let (sym, g) = graph(src);
        let ids = name_index(&sym);
        assert!(g.calls[ids["f"]].is_empty());
    }

    #[test]
    fn foreign_assoc_fns_resolve_to_nothing() {
        let src = "fn new() -> u8 { 0 }\nfn f() -> Vec<u8> { let v = Vec::new(); v }\n";
        let (sym, g) = graph(src);
        let ids = name_index(&sym);
        assert!(
            g.calls[ids["f"]].is_empty(),
            "Vec::new must not alias the workspace free fn `new`"
        );
    }

    #[test]
    fn std_colliding_method_names_resolve_only_when_qualified() {
        let src = "\
struct Q;
impl Q {
    fn push(&self, x: u8) -> u8 { x }
}
fn driver(q: &Q, v: &mut Vec<u8>) {
    v.push(1);
    q.push(2);
    Q::push(q, 3);
}
";
        let (sym, g) = graph(src);
        let ids = name_index(&sym);
        let edges = &g.calls[ids["driver"]];
        assert_eq!(
            edges.len(),
            1,
            "bare `.push(…)` must not alias the workspace method: {edges:?}"
        );
        assert_eq!(edges[0].callee, ids["push"]);
        assert_eq!(edges[0].line, 8, "only the qualified `Q::push` call resolves");
    }

    #[test]
    fn recursion_forms_a_cycle() {
        let src = "fn a(n: u8) { b(n) }\nfn b(n: u8) { a(n) }\n";
        let (sym, g) = graph(src);
        let ids = name_index(&sym);
        assert_eq!(g.callees(ids["a"]), vec![ids["b"]]);
        assert_eq!(g.callees(ids["b"]), vec![ids["a"]]);
    }
}
