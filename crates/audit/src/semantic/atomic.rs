//! `atomic-ordering`: every atomic operation must state its contract.
//!
//! The observability layer is all `Ordering::Relaxed` *on purpose* (each
//! metric is an independent statistic), and the danger with such code is
//! drift: someone adds a load that guards a store, or strengthens one
//! ordering "to be safe", and the reasoning that made Relaxed sound is
//! nowhere to be found. This rule makes the reasoning load-bearing:
//!
//! 1. every atomic call site — a method in the atomic vocabulary
//!    (`load`, `store`, `swap`, `fetch_*`, `compare_exchange*`,
//!    `fetch_update`) whose arguments name an `Ordering` — must carry an
//!    `// audit:atomic(<contract>)` annotation on its line or the line
//!    above, with a non-empty contract;
//! 2. `compare_exchange` / `compare_exchange_weak` must not use a failure
//!    ordering *stronger* than the success ordering (the reverse of what
//!    a CAS loop ever needs, and in this workspace always a mistake);
//! 3. a CAS result must not be silently dropped (`x.compare_exchange(…);`
//!    or `let _ = …`) — losing the `Err` means losing the retry.
//!
//! Requiring an explicit `Ordering` argument in the call is what keeps
//! ordinary `load(path)`-style methods out of scope. The annotations are
//! backed dynamically: `crates/obs/tests/loom.rs` model-checks the
//! annotated primitives under every interleaving (`--cfg loom`).

use super::ATOMIC_ORDERING;
use crate::ast::visit::{find_method_calls, split_commas, stmt_start, RunVisitor};
use crate::ast::{Ast, Node};
use crate::report::Report;

/// The atomic method vocabulary.
const ATOMIC_METHODS: &[&str] = &[
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
    "compare_and_swap",
];

/// Memory-ordering names ranked by strength. `Acquire` and `Release`
/// order different halves but are incomparable with each other; ranking
/// them equal keeps the "failure stronger than success" check honest for
/// the orderings a failure argument may legally take.
fn ordering_rank(name: &str) -> Option<u8> {
    match name {
        "Relaxed" => Some(0),
        "Acquire" | "Release" => Some(1),
        "AcqRel" => Some(2),
        "SeqCst" => Some(3),
        _ => None,
    }
}

/// True when any leaf of `nodes` is one of the `Ordering` variants or the
/// `Ordering` path ident itself.
fn mentions_ordering(nodes: &[Node]) -> bool {
    nodes.iter().any(|n| match n {
        Node::Tok(t) => t.is_ident("Ordering") || ordering_rank(&t.text).is_some(),
        Node::Group(g) => mentions_ordering(&g.children),
    })
}

/// The ordering named in one argument slice (last ordering ident wins,
/// covering both `Ordering::SeqCst` and a bare imported `SeqCst`).
fn arg_ordering(arg: &[Node]) -> Option<(&str, u8)> {
    arg.iter().rev().find_map(|n| {
        let t = n.tok()?;
        let rank = ordering_rank(&t.text)?;
        Some((t.text.as_str(), rank))
    })
}

struct Atomics<'a> {
    ast: &'a Ast,
    findings: Vec<(usize, String)>,
}

impl RunVisitor for Atomics<'_> {
    fn run(&mut self, nodes: &[Node], _depth: usize) {
        for call in find_method_calls(nodes) {
            if !ATOMIC_METHODS.contains(&call.name) {
                continue;
            }
            if !mentions_ordering(&call.args.children) {
                continue; // not an atomic: no Ordering in the call
            }
            if self.ast.in_test(call.line) {
                continue;
            }

            // (1) Contract annotation.
            match self.ast.annotation(call.line, "atomic") {
                None => self.findings.push((
                    call.line,
                    format!(
                        "atomic `{}` without an `// audit:atomic(<contract>)` \
                         annotation stating its ordering contract",
                        call.name
                    ),
                )),
                Some(c) if c.is_empty() => self.findings.push((
                    call.line,
                    format!("`audit:atomic(…)` on `{}` has an empty contract", call.name),
                )),
                Some(_) => {}
            }

            let is_cas = matches!(call.name, "compare_exchange" | "compare_exchange_weak");

            // (2) Failure ordering stronger than success.
            if is_cas {
                let args = split_commas(call.args);
                if args.len() >= 4 {
                    let success = arg_ordering(args[args.len() - 2]);
                    let failure = arg_ordering(args[args.len() - 1]);
                    if let (Some((s, sr)), Some((f, fr))) = (success, failure) {
                        if fr > sr {
                            self.findings.push((
                                call.line,
                                format!(
                                    "`{}` failure ordering `{f}` is stronger than \
                                     success ordering `{s}`",
                                    call.name
                                ),
                            ));
                        }
                    }
                }
            }

            // (3) Silently dropped CAS result.
            if is_cas {
                let terminated = nodes
                    .get(call.after_idx)
                    .is_none_or(|n| n.is_punct(";"));
                if terminated {
                    let s = stmt_start(nodes, call.recv_start);
                    let stmt_call = s == call.recv_start;
                    let let_underscore = nodes.get(s).is_some_and(|n| n.is_ident("let"))
                        && nodes.get(s + 1).is_some_and(|n| n.is_ident("_"))
                        && nodes.get(s + 2).is_some_and(|n| n.is_punct("="));
                    if stmt_call || let_underscore {
                        self.findings.push((
                            call.line,
                            format!(
                                "result of `{}` silently dropped; handle the `Err` \
                                 (retry loop or explicit policy)",
                                call.name
                            ),
                        ));
                    }
                }
            }
        }
    }
}

/// 1-based lines holding a genuine atomic operation (an atomic-vocabulary
/// method with an `Ordering` in its arguments), *including* test lines.
/// The hygiene pass uses this to spot `audit:atomic` annotations that no
/// longer sit next to any atomic op.
pub(crate) fn op_lines(ast: &Ast) -> Vec<usize> {
    struct Ops(Vec<usize>);
    impl RunVisitor for Ops {
        fn run(&mut self, nodes: &[Node], _depth: usize) {
            for call in find_method_calls(nodes) {
                if ATOMIC_METHODS.contains(&call.name)
                    && mentions_ordering(&call.args.children)
                {
                    self.0.push(call.line);
                }
            }
        }
    }
    let mut v = Ops(Vec::new());
    crate::ast::visit::walk_runs(&ast.nodes, &mut v);
    v.0
}

/// Runs the rule over one parsed file.
pub fn check(ast: &Ast, report: &mut Report) {
    let mut v = Atomics { ast, findings: Vec::new() };
    crate::ast::visit::walk_runs(&ast.nodes, &mut v);
    for (line, msg) in v.findings {
        report.flag(ast, line, ATOMIC_ORDERING, msg, Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Report {
        let ast = Ast::parse("crates/obs/src/x.rs", src);
        let mut r = Report::default();
        check(&ast, &mut r);
        r
    }

    #[test]
    fn unannotated_atomic_is_flagged() {
        let r = lint("fn f(a: &AtomicU64) -> u64 { a.load(Ordering::Relaxed) }\n");
        assert_eq!(r.unwaived_count(), 1, "{r}");
        assert!(r.violations[0].message.contains("audit:atomic"));
    }

    #[test]
    fn annotated_atomic_passes() {
        let src = "\
fn f(a: &AtomicU64) -> u64 {
    // audit:atomic(diagnostic read; no cross-variable ordering)
    a.load(Ordering::Relaxed)
}
";
        assert_eq!(lint(src).unwaived_count(), 0);
    }

    #[test]
    fn empty_contract_is_flagged() {
        let src = "\
fn f(a: &AtomicU64) {
    // audit:atomic()
    a.store(1, Ordering::Relaxed);
}
";
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 1, "{r}");
        assert!(r.violations[0].message.contains("empty contract"));
    }

    #[test]
    fn non_atomic_load_is_out_of_scope() {
        assert_eq!(lint("fn f(c: &Config) { c.load(path); }\n").unwaived_count(), 0);
    }

    #[test]
    fn cas_failure_stronger_than_success_is_flagged() {
        let src = "\
fn f(a: &AtomicU64) {
    // audit:atomic(handoff)
    let _r = a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Acquire);
}
";
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 1, "{r}");
        assert!(r.violations[0].message.contains("stronger"));
    }

    #[test]
    fn cas_equal_orderings_pass() {
        let src = "\
fn f(a: &AtomicU64) {
    // audit:atomic(single-cell RMW retry loop)
    match a.compare_exchange_weak(0, 1, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => {}
        Err(_) => {}
    }
}
";
        assert_eq!(lint(src).unwaived_count(), 0);
    }

    #[test]
    fn dropped_cas_result_is_flagged() {
        let src = "\
fn f(a: &AtomicU64) {
    // audit:atomic(racy init)
    a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed);
    // audit:atomic(racy init)
    let _ = a.compare_exchange(0, 2, Ordering::Relaxed, Ordering::Relaxed);
}
";
        let r = lint(src);
        let dropped: Vec<_> =
            r.violations.iter().filter(|v| v.message.contains("silently dropped")).collect();
        assert_eq!(dropped.len(), 2, "{r}");
    }

    #[test]
    fn consumed_cas_result_passes() {
        let src = "\
fn f(a: &AtomicU64) -> bool {
    // audit:atomic(one-shot claim)
    a.compare_exchange(0, 1, Ordering::Relaxed, Ordering::Relaxed).is_ok()
}
";
        assert_eq!(lint(src).unwaived_count(), 0);
    }

    #[test]
    fn multi_line_call_annotation_binds_to_method_line() {
        let src = "\
fn f(a: &AtomicU64, cur: u64, next: u64) {
    // audit:atomic(retry loop)
    let r = a.compare_exchange_weak(
        cur,
        next,
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    use_result(r);
}
";
        assert_eq!(lint(src).unwaived_count(), 0);
    }

    #[test]
    fn tests_are_exempt_and_waivers_apply() {
        let src = "\
fn f(a: &AtomicU64) {
    // audit:allow(atomic-ordering)
    a.store(1, Ordering::SeqCst);
}
#[cfg(test)]
mod tests {
    fn t(a: &AtomicU64) { a.store(2, Ordering::SeqCst); }
}
";
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
        assert_eq!(r.waived_count(), 1);
    }
}
