//! The per-file lint rules. Each rule reads one file's token runs through
//! the [`crate::ast::visit`] helpers, and test code, hot-path regions and
//! waivers through the same [`Ast`]'s line facts.

use crate::ast::visit::{find_method_calls, term_after, walk_runs, RunVisitor};
use crate::ast::{Ast, Delim, Node, TokKind, Token};
use crate::report::Report;

/// Rule id: no raw f64 `==`/`!=` comparisons.
pub const FLOAT_EQ: &str = "float-eq";
/// Rule id: no unguarded `ln`/`sqrt`/identifier division in hot paths.
pub const NAN_GUARD: &str = "nan-guard";
/// Rule id: solver result types must be `#[must_use]`.
pub const MUST_USE: &str = "must-use";
/// Rule id: no hand-rolled slot loops outside the streaming engine.
pub const SLOT_LOOP: &str = "slot-loop";

/// Solver hot paths: a NaN here corrupts the per-slot control loop whose
/// behavior the paper's Theorem 2 bounds. Each of these files also denies
/// clippy's panic lints in an inner `#![deny]` (a test keeps the two in
/// step).
pub(crate) const HOT_PATHS: &[&str] = &[
    "crates/opt/src/waterfill.rs",
    "crates/opt/src/bisect.rs",
    "crates/opt/src/dual.rs",
    "crates/opt/src/gibbs.rs",
    "crates/core/src/gsd.rs",
    "crates/core/src/gsd_distributed.rs",
    "crates/core/src/solver.rs",
    "crates/core/src/symmetric.rs",
];

/// Crates whose public `*Solution`/`*Outcome`/`*Result` structs must be
/// `#[must_use]`.
const MUST_USE_CRATES: &[&str] = &["crates/opt/", "crates/core/", "crates/dcsim/"];

/// Files allowed to iterate slot indices by hand: the streaming engine
/// itself, and the traces crate (trace synthesis/serialization is inherently
/// an indexed pass and produces the very data the engine streams).
const SLOT_LOOP_ALLOWED: &[&str] = &["crates/dcsim/src/engine.rs", "crates/traces/"];

/// How many preceding lines count as "nearby" when looking for a guard
/// before a NaN-capable operation.
const GUARD_WINDOW: usize = 12;

/// Runs every rule applicable to `ast`'s path.
pub fn apply_all(ast: &Ast, report: &mut Report) {
    let path = ast.path.as_str();
    let hot = HOT_PATHS.iter().any(|p| path.ends_with(p));
    let mut rules = Rules {
        guards: if hot { Some(guard_lines(ast)) } else { None },
        slot_loop: !SLOT_LOOP_ALLOWED.iter().any(|p| path.contains(p)),
        must_use: MUST_USE_CRATES.iter().any(|p| path.contains(p)),
        hits: Vec::new(),
    };
    walk_runs(&ast.nodes, &mut rules);
    for (line, rule, message) in rules.hits {
        if !ast.in_test(line) {
            report.flag(ast, line, rule, message, Vec::new());
        }
    }
}

/// The rules that look at one run at a time, with their path gates.
struct Rules {
    /// `Some` on solver hot paths, where `nan-guard` runs.
    guards: Option<Vec<GuardLine>>,
    slot_loop: bool,
    must_use: bool,
    hits: Hits,
}

/// `(line, rule, message)` findings in discovery order; those on test lines
/// are dropped when they are reported.
type Hits = Vec<(usize, &'static str, String)>;

impl RunVisitor for Rules {
    fn run(&mut self, run: &[Node], _depth: usize) {
        if let Some(guards) = &self.guards {
            nan_guard(run, guards, &mut self.hits);
        }
        float_eq(run, &mut self.hits);
        if self.slot_loop {
            slot_loop(run, &mut self.hits);
        }
        if self.must_use {
            must_use(run, &mut self.hits);
        }
    }
}

/// The token at `run[i]`, when it is one of `kind`.
fn tok_of(run: &[Node], i: usize, kind: TokKind) -> Option<&Token> {
    run.get(i).and_then(Node::tok).filter(|t| t.kind == kind)
}

/// True when `t` is a float literal (`1.0`, `2.`, `1e-6`, `3f64`) or an
/// identifier naming a float type (`f64`, `as_f32`).
fn is_float_evidence(t: &Token) -> bool {
    match t.kind {
        TokKind::Ident => t.text.contains("f64") || t.text.contains("f32"),
        TokKind::Number => {
            let s = t.text.as_str();
            if s.starts_with("0x") || s.starts_with("0o") || s.starts_with("0b") {
                return false;
            }
            let exponent = s.find(['e', 'E']).is_some_and(|at| {
                s[at + 1..].trim_start_matches(['+', '-']).starts_with(|c: char| c.is_ascii_digit())
            });
            s.contains('.') || exponent || s.ends_with("f64") || s.ends_with("f32")
        }
        _ => false,
    }
}

/// The operand tokens on each side of the comparison at `run[op]`. Both
/// stay on the operator's line and stop at a bracket group, `,`, `;` or
/// `&&`; the left one also stops at an assignment or `=>`, so a binding's
/// type annotation (`let m: Option<f64> = …`) is not read as an operand.
fn operands(run: &[Node], op: usize) -> (Vec<&Token>, Vec<&Token>) {
    fn leaf(n: &Node, line: usize) -> Option<&Token> {
        n.tok().filter(|t| t.line == line && ![",", ";", "&&"].iter().any(|p| t.is_punct(p)))
    }
    let line = run[op].line();
    let mut left: Vec<&Token> = run[..op]
        .iter()
        .rev()
        .map_while(|n| leaf(n, line))
        .take_while(|t| !["=", "+=", "-=", "*=", "/=", "=>"].iter().any(|p| t.is_punct(p)))
        .collect();
    left.reverse();
    (left, run[op + 1..].iter().map_while(|n| leaf(n, line)).collect())
}

/// Source text of same-line tokens with their original spacing.
fn render(toks: &[&Token]) -> String {
    let mut out = String::new();
    for (k, t) in toks.iter().enumerate() {
        if k > 0 {
            out.extend(std::iter::repeat_n(' ', t.col.saturating_sub(toks[k - 1].end_col())));
        }
        out.push_str(&t.text);
    }
    out
}

/// `float-eq`: `==` or `!=` where either operand shows float evidence.
fn float_eq(run: &[Node], hits: &mut Hits) {
    for (i, n) in run.iter().enumerate() {
        let Some(op) = n.tok().filter(|t| t.is_punct("==") || t.is_punct("!=")) else {
            continue;
        };
        let (left, right) = operands(run, i);
        if !left.iter().chain(&right).any(|t| is_float_evidence(t)) {
            continue;
        }
        let kind = if op.text == "==" { "equality" } else { "inequality" };
        let message = format!(
            "raw float {kind} comparison (`{}` {} `{}`); compare against a tolerance",
            render(&left),
            op.text,
            render(&right),
        );
        hits.push((op.line, FLOAT_EQ, message));
    }
}

/// What `nan-guard` knows about one line: whether it carries a guard
/// marker, and the identifier, number and lifetime tokens on it.
#[derive(Default)]
struct GuardLine {
    marker: bool,
    words: Vec<String>,
}

/// True when `run[i]` starts a guard for a NaN-capable operation: an
/// assertion, a finiteness or emptiness check, a clamp or floor
/// (`.max(…)`, `clamp`, `min_positive`, `abs()`, `…pos(…)`), or a
/// sign/zero comparison (`> 0`, `>=`, `!= 0`).
fn guard_marker(run: &[Node], i: usize) -> bool {
    let next = run.get(i + 1);
    let call = next.and_then(Node::group).filter(|g| g.delim == Delim::Paren);
    if let Some(id) = run[i].ident() {
        return ["assert", "is_finite", "is_nan", "clamp", "is_empty", "min_positive"]
            .iter()
            .any(|m| id.contains(m))
            || (id == "max" && i > 0 && run[i - 1].is_punct(".") && call.is_some())
            || (id.ends_with("pos") && call.is_some())
            || (id.ends_with("abs") && call.is_some_and(|g| g.children.is_empty()));
    }
    let zero = next
        .and_then(Node::tok)
        .is_some_and(|t| t.kind == TokKind::Number && t.text.starts_with('0'));
    run[i].is_punct(">=") || ((run[i].is_punct(">") || run[i].is_punct("!=")) && zero)
}

/// Indexes guard markers and words by line (index 0 = line 1).
fn guard_lines(ast: &Ast) -> Vec<GuardLine> {
    struct Index(Vec<GuardLine>);
    impl RunVisitor for Index {
        fn run(&mut self, run: &[Node], _depth: usize) {
            for (i, n) in run.iter().enumerate() {
                let line = n.line();
                if self.0.len() < line {
                    self.0.resize_with(line, GuardLine::default);
                }
                let entry = &mut self.0[line - 1];
                entry.marker |= guard_marker(run, i);
                if let Some(t) = n.tok().filter(|t| {
                    matches!(t.kind, TokKind::Ident | TokKind::Number | TokKind::Lifetime)
                }) {
                    entry.words.push(t.text.clone());
                }
            }
        }
    }
    let mut index = Index(Vec::new());
    walk_runs(&ast.nodes, &mut index);
    index.0
}

/// True when a guard marker appears on `line` or the [`GUARD_WINDOW`]
/// source lines before it (by the tokens' line numbers, so blank and
/// comment lines count), on a line that mentions `ident` when one is known.
fn guarded(guards: &[GuardLine], line: usize, ident: Option<&str>) -> bool {
    let lo = line.saturating_sub(GUARD_WINDOW).max(1);
    guards
        .get(lo - 1..line.min(guards.len()))
        .unwrap_or_default()
        .iter()
        .any(|g| g.marker && ident.is_none_or(|id| g.words.iter().any(|w| w.contains(id))))
}

/// `nan-guard`: `ln()`/`sqrt()` calls and identifier divisions must have a
/// nearby guard on the operand.
fn nan_guard(run: &[Node], guards: &[GuardLine], hits: &mut Hits) {
    for call in find_method_calls(run) {
        if !matches!(call.name, "ln" | "sqrt") || !call.args.children.is_empty() {
            continue;
        }
        let ident =
            tok_of(run, call.dot_idx.wrapping_sub(1), TokKind::Ident).map(|t| t.text.as_str());
        if !guarded(guards, call.line, ident) {
            let message = format!(
                "`{}.{}()` without a nearby guard on the operand",
                ident.unwrap_or("<expr>"),
                call.name
            );
            hits.push((call.line, NAN_GUARD, message));
        }
    }
    // Identifier divisions: `a / b` where the divisor is a plain value
    // identifier or field chain (a literal divisor cannot be zero at
    // runtime; a call, path or macro divisor is left alone).
    for (i, n) in run.iter().enumerate() {
        if !n.is_punct("/") {
            continue;
        }
        let Some(first) = tok_of(run, i + 1, TokKind::Ident) else {
            continue;
        };
        let after = run.get(i + 2);
        if after.is_some_and(|a| {
            a.is_punct("::")
                || a.is_punct("!")
                || a.group().is_some_and(|g| g.delim == Delim::Paren)
        }) {
            continue;
        }
        // Constants by convention (SCREAMING_SNAKE) are not runtime zeros.
        if first.text.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()) {
            continue;
        }
        let chain: Vec<&Token> = run[i + 1..]
            .iter()
            .map_while(Node::tok)
            .take_while(|t| matches!(t.kind, TokKind::Ident | TokKind::Number) || t.is_punct("."))
            .collect();
        let key = chain.iter().rev().find(|t| !t.is_punct(".")).map_or("", |t| t.text.as_str());
        if !guarded(guards, n.line(), Some(key)) {
            let full: String = chain.iter().map(|t| t.text.as_str()).collect();
            hits.push((
                n.line(),
                NAN_GUARD,
                format!("division by `{full}` without a nearby guard"),
            ));
        }
    }
}

/// `slot-loop`: a hand-rolled per-slot simulation loop (`for t in
/// 0..trace.len()` and friends) in non-test code outside the engine
/// module. Every per-slot pass must go through `SimEngine`/`SlotSource`
/// so lockstep runs, checkpointing, and record routing stay uniform; a
/// bespoke loop silently forks the simulation semantics.
///
/// A loop is "slotty" when it ranges over `0..bound` and either the loop
/// variable is `t`/`slot`, or the bound mentions a trace/env/slot-named
/// quantity. Plain index loops (`for pi in 0..parts.len()`) are untouched.
fn slot_loop(run: &[Node], hits: &mut Hits) {
    for (i, n) in run.iter().enumerate() {
        if !n.is_ident("for") {
            continue;
        }
        let Some(var) = tok_of(run, i + 1, TokKind::Ident) else {
            continue;
        };
        let from_zero = run.get(i + 2).is_some_and(|n| n.is_ident("in"))
            && tok_of(run, i + 3, TokKind::Number).is_some_and(|t| t.text == "0")
            && run.get(i + 4).is_some_and(|n| n.is_punct("..") || n.is_punct("..="));
        if !from_zero {
            continue;
        }
        let bound: Vec<&Node> = run[i + 5..]
            .iter()
            .take_while(|n| {
                n.tok().is_some_and(|t| {
                    matches!(t.kind, TokKind::Ident | TokKind::Number) || t.is_punct(".")
                }) || n.group().is_some_and(|g| g.delim == Delim::Paren)
            })
            .collect();
        let over_len = matches!(
            bound.as_slice(),
            [.., dot, len, Node::Group(g)] if dot.is_punct(".") && len.is_ident("len") && g.children.is_empty()
        );
        let receiver = &bound[..bound.len() - if over_len { 3 } else { 0 }];
        let last_segment = receiver.rsplit(|n| n.is_punct(".")).next().unwrap_or_default();
        let slotty_bound = last_segment.iter().filter_map(|n| n.ident()).any(|id| {
            let id = id.to_lowercase();
            id.contains("trace") || id.contains("env") || id.contains("slot")
        });
        let slotty_var = var.text == "t" || var.text == "slot";
        if (over_len && (slotty_var || slotty_bound)) || (slotty_var && slotty_bound) {
            let bound = term_after(run, i + 5).map(|t| t.text).unwrap_or_default();
            let message = format!(
                "hand-rolled slot loop `for {} in 0..{bound}`; \
                 drive slots through `SimEngine`/`SlotSource` instead",
                var.text
            );
            hits.push((n.line(), SLOT_LOOP, message));
        }
    }
}

/// `must-use`: `pub struct Foo{Solution,Outcome,Result}` must carry
/// `#[must_use]` among its own attributes.
fn must_use(run: &[Node], hits: &mut Hits) {
    for (i, n) in run.iter().enumerate() {
        if !(n.is_ident("pub") && run.get(i + 1).is_some_and(|s| s.is_ident("struct"))) {
            continue;
        }
        let Some(name) = run.get(i + 2).and_then(Node::ident) else {
            continue;
        };
        if !["Solution", "Outcome", "Result"].iter().any(|s| name.ends_with(s)) {
            continue;
        }
        // Walk back over the attributes directly in front of the item.
        let mut at = i;
        let mut annotated = false;
        while at >= 2 && run[at - 2].is_punct("#") {
            let Some(attr) = run[at - 1].group().filter(|g| g.delim == Delim::Bracket) else {
                break;
            };
            annotated |= attr.children.first().is_some_and(|c| c.is_ident("must_use"));
            at -= 2;
        }
        if !annotated {
            let message = format!("solver result type `{name}` lacks `#[must_use]`");
            hits.push((n.line(), MUST_USE, message));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(path: &str, src: &str) -> Report {
        crate::lint_sources(&[(path.to_string(), src.to_string())])
    }

    #[test]
    fn float_eq_detects_literal_comparisons() {
        let r = lint("crates/dcsim/src/metrics.rs", "fn f(x: f64) -> bool { x == 0.0 }\n");
        assert_eq!(r.unwaived().filter(|v| v.rule == FLOAT_EQ).count(), 1);
        assert!(r.violations[0].message.contains("(`x` == `0.0`)"), "{r}");
        let ok = lint(
            "crates/dcsim/src/metrics.rs",
            "fn f(x: f64) -> bool { (x - 0.5).abs() < 1e-9 }\nfn g(n: usize) -> bool { n == 0 }\n",
        );
        assert_eq!(ok.unwaived().filter(|v| v.rule == FLOAT_EQ).count(), 0, "{ok}");
    }

    #[test]
    fn float_eq_ignores_int_and_compound_operators() {
        let src = "fn f(n: usize, x: f64) { if n != 3 && x <= 2.0 && x >= 1.0 { g(); } }\n";
        let r = lint("crates/core/src/lyapunov.rs", src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
    }

    #[test]
    fn nan_guard_requires_guard_for_ln() {
        let bad = lint("crates/opt/src/dual.rs", "fn f(x: f64) -> f64 { x.ln() }\n");
        assert_eq!(bad.unwaived().filter(|v| v.rule == NAN_GUARD).count(), 1);
        let good = lint(
            "crates/opt/src/dual.rs",
            "fn f(x: f64) -> f64 {\n    assert!(x > 0.0);\n    x.ln()\n}\n",
        );
        assert_eq!(good.unwaived().filter(|v| v.rule == NAN_GUARD).count(), 0, "{good}");
    }

    #[test]
    fn nan_guard_window_is_twelve_lines() {
        let at = |gap: usize| {
            let src = format!(
                "fn f(x: f64) -> f64 {{\n    assert!(x > 0.0);\n{}    x.ln()\n}}\n",
                "\n".repeat(gap)
            );
            lint("crates/opt/src/dual.rs", &src).unwaived_count()
        };
        assert_eq!(at(11), 0, "guard 12 lines above still counts");
        assert_eq!(at(12), 1, "guard 13 lines above is out of the window");
    }

    #[test]
    fn nan_guard_division_by_identifier() {
        let bad = lint("crates/core/src/solver.rs", "fn f(a: f64, b: f64) -> f64 { a / b }\n");
        assert_eq!(bad.unwaived().filter(|v| v.rule == NAN_GUARD).count(), 1);
        let clamped =
            lint("crates/core/src/solver.rs", "fn f(a: f64, b: f64) -> f64 { a / b.max(1e-12) }\n");
        assert_eq!(clamped.unwaived_count(), 0, "{clamped}");
        let literal = lint("crates/core/src/solver.rs", "fn f(a: f64) -> f64 { a / 2.0 }\n");
        assert_eq!(literal.unwaived_count(), 0, "{literal}");
        let constant = lint("crates/core/src/solver.rs", "fn f(a: f64) -> f64 { a / SCALE }\n");
        assert_eq!(constant.unwaived_count(), 0, "{constant}");
    }

    #[test]
    fn must_use_fires_on_unannotated_result_types() {
        let bad = "/// Doc.\npub struct FooSolution {\n    pub x: f64,\n}\n";
        let r = lint("crates/opt/src/foo.rs", bad);
        assert_eq!(r.unwaived().filter(|v| v.rule == MUST_USE).count(), 1);
        let good = "/// Doc.\n#[must_use]\n#[derive(Debug)]\npub struct FooSolution {\n    pub x: f64,\n}\n";
        let r = lint("crates/opt/src/foo.rs", good);
        assert_eq!(r.unwaived().filter(|v| v.rule == MUST_USE).count(), 0);
        let other_crate = lint("crates/traces/src/foo.rs", bad);
        assert_eq!(other_crate.unwaived_count(), 0);
    }

    #[test]
    fn float_eq_not_fooled_by_binding_type_annotations() {
        let src =
            "fn f(w: usize) { let m: Option<f64> = if w == 0 { Some(0.5) } else { None }; }\n";
        let r = lint("crates/dcsim/src/engine.rs", src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
    }

    #[test]
    fn slot_loop_flags_trace_iteration_outside_the_engine() {
        let bad = "fn f(trace: &[f64]) { for t in 0..trace.len() { g(t); } }\n";
        let r = lint("crates/experiments/src/figures.rs", bad);
        assert_eq!(r.unwaived().filter(|v| v.rule == SLOT_LOOP).count(), 1, "{r}");
        assert!(r.violations[0].message.contains("`for t in 0..trace.len()`"), "{r}");
        let planner = "fn f(num_slots: usize) { for t in 0..num_slots { g(t); } }\n";
        let r = lint("crates/baselines/src/offline.rs", planner);
        assert_eq!(r.unwaived().filter(|v| v.rule == SLOT_LOOP).count(), 1, "{r}");
    }

    #[test]
    fn slot_loop_allows_engine_traces_and_plain_index_loops() {
        let bad = "fn f(trace: &[f64]) { for t in 0..trace.len() { g(t); } }\n";
        let engine = lint("crates/dcsim/src/engine.rs", bad);
        assert_eq!(engine.unwaived().filter(|v| v.rule == SLOT_LOOP).count(), 0, "{engine}");
        let traces = lint("crates/traces/src/csv.rs", bad);
        assert_eq!(traces.unwaived().filter(|v| v.rule == SLOT_LOOP).count(), 0, "{traces}");
        let plain = "fn f(parts: &[f64]) { for pi in 0..parts.len() { g(pi); } }\n";
        let r = lint("crates/core/src/symmetric.rs", plain);
        assert_eq!(r.unwaived().filter(|v| v.rule == SLOT_LOOP).count(), 0, "{r}");
    }

    #[test]
    fn float_evidence_heuristics() {
        let evidence = |src: &str| crate::ast::lexer::lex(src).0.iter().any(is_float_evidence);
        assert!(evidence("0.0"));
        assert!(evidence("x as f64"));
        assert!(evidence("1e-9"));
        assert!(evidence("2."));
        assert!(evidence("3f32"));
        assert!(!evidence("n"));
        assert!(!evidence("vec[0]"));
        assert!(!evidence("0..10"));
        assert!(!evidence("3.max(k)"));
        assert!(!evidence("0x1e5"));
        assert!(!evidence("\"1.0 f64\""));
    }
}
