//! `unit-flow`: units-of-measure inference, local and interprocedural.
//!
//! The COCA cost pipeline moves between three dimensions — energy (kWh),
//! power (kW), and money (USD) — and the P3 objective is the one place
//! they legitimately meet. Everywhere else, adding a price to an energy or
//! comparing power against dollars is a transcription bug of exactly the
//! kind that silently skews a reproduction.
//!
//! Units are spelled locally (`semantic::units`): identifier suffixes and
//! `// audit:unit(<tag>)` annotations. This analysis propagates those
//! tags **through calls**: argument units flow into parameter summaries,
//! return-expression units flow out as return summaries, and both iterate
//! to a fixpoint over the call graph, so a kWh produced two calls away
//! from any annotation still carries its dimension. Three checks ride on
//! the converged summaries:
//!
//! 1. **argument vs declared parameter** — a call passing a kWh term into
//!    a parameter whose own name/annotation declares USD;
//! 2. **conflicting inference** — an undeclared parameter that receives
//!    *different* known units from different call sites (the lattice hits
//!    ⊤); each contributing site becomes a related location;
//! 3. **arithmetic mix** — a `+`, `-`, compound assignment or comparison
//!    whose operands carry different units, each read from the local
//!    environment or, for a call, from its return summary; a summary the
//!    unit came from becomes a related location. Multiplication and
//!    division never flag: they change dimension.
//!
//! An `audit:unit(<tag>)` with an unknown tag is itself a finding.
//! Findings are waivable at the *call/operator* site with
//! `// audit:allow(unit-flow)`, and test code is exempt throughout.

use std::collections::HashMap;

use super::callgraph::{raw_calls, RawCall};
use super::fixpoint::{solve, Lattice};
use super::symbols::{CallKind, FnId, SymbolTable};
use crate::ast::visit::{term_after, term_before, term_spanning, RunVisitor, Term};
use crate::ast::{Ast, Node, TokKind, Token};
use crate::report::Related;
use crate::semantic::units::{build_env, suffix_unit, Env, Unit};
use crate::Report;

/// Operators requiring both operands to share a dimension.
const SAME_DIM_OPS: &[&str] = &["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!="];

/// True when the operator token `op` at `run[i]` reads as one: a bare
/// `<` / `>` doubles as a generic bracket, so it counts as a comparison
/// only with spacing on both sides.
fn reads_as_operator(run: &[Node], i: usize, op: &Token) -> bool {
    if !matches!(op.text.as_str(), "<" | ">") {
        return true;
    }
    let spaced_left = run
        .get(i.wrapping_sub(1))
        .and_then(Node::tok)
        .is_none_or(|p| p.line != op.line || p.end_col() < op.col);
    let spaced_right = run.get(i + 1).is_none_or(|nx| {
        let (l, c) = match nx {
            Node::Tok(t) => (t.line, t.col),
            Node::Group(g) => (g.line, g.col),
        };
        l != op.line || c > op.col + 1
    });
    spaced_left && spaced_right
}

/// Per-function summary: one lattice point per parameter plus the return.
#[derive(Default)]
struct Summary {
    params: Vec<Lattice<Unit>>,
    ret: Lattice<Unit>,
}

/// A resolved call with argument terms, cached per caller.
struct Call {
    raw: RawCall,
    cands: Vec<FnId>,
}

/// Maps a call's argument index to the callee's parameter index —
/// `Type::method(recv, a)` passes the receiver as argument 0.
fn param_index(call: &Call, callee: &super::symbols::FnDef, arg: usize) -> Option<usize> {
    if call.raw.kind == CallKind::Qualified
        && callee.has_self
        && call.raw.argc == callee.arity() + 1
    {
        arg.checked_sub(1)
    } else {
        Some(arg)
    }
}

/// Return-expression terms of a body: every `return <term>` plus the
/// single-chain tail expression, if any.
fn return_terms(body: &crate::ast::Group) -> Vec<Term> {
    struct Rets(Vec<Term>);
    impl RunVisitor for Rets {
        fn run(&mut self, run: &[Node], _depth: usize) {
            for (i, n) in run.iter().enumerate() {
                if n.is_ident("return") {
                    if let Some(t) = term_after(run, i + 1) {
                        self.0.push(t);
                    }
                }
            }
        }
    }
    let mut v = Rets(Vec::new());
    crate::ast::visit::walk_runs(&body.children, &mut v);
    let run = &body.children;
    // The tail expression starts after the last top-level `;` *or* the
    // last top-level brace group — `for`/`while`/`if` statements end in a
    // block, not a semicolon. A body whose tail *is* a block expression
    // yields no term here, an accepted miss (§14 soundness caveats).
    let tail_start = (0..run.len())
        .rev()
        .find(|&k| {
            run[k].is_punct(";")
                || matches!(&run[k], Node::Group(g) if g.delim == crate::ast::Delim::Brace)
        })
        .map_or(0, |k| k + 1);
    if let Some(t) = term_spanning(&run[tail_start..]) {
        v.0.push(t);
    }
    v.0
}

/// The analysis context shared by seeding, transfer, and reporting.
struct Flow<'a> {
    symbols: &'a SymbolTable,
    envs: Vec<Env>,
    file_of: HashMap<&'a str, usize>,
    calls: Vec<Vec<Call>>,
    rets: Vec<Vec<Term>>,
    declared: Vec<Vec<Option<Unit>>>,
    ret_declared: Vec<Option<Unit>>,
    state: Vec<Summary>,
    /// Functions whose transfer must rerun when fn `k`'s summary moves.
    dependents: Vec<Vec<FnId>>,
}

impl<'a> Flow<'a> {
    fn build(files: &'a [Ast], symbols: &'a SymbolTable, envs: Vec<Env>) -> Self {
        let file_of: HashMap<&str, usize> =
            files.iter().enumerate().map(|(i, f)| (f.path.as_str(), i)).collect();
        let n = symbols.fns.len();
        let mut calls = Vec::with_capacity(n);
        let mut rets = Vec::with_capacity(n);
        let mut declared = Vec::with_capacity(n);
        let mut ret_declared = Vec::with_capacity(n);
        let mut state = Vec::with_capacity(n);
        for f in &symbols.fns {
            let env = &envs[file_of[f.file.as_str()]];
            calls.push(
                raw_calls(&f.body.children)
                    .into_iter()
                    .map(|raw| {
                        let cands =
                            symbols.resolve(&raw.name, raw.argc, raw.qualifier.as_deref(), raw.kind);
                        Call { raw, cands }
                    })
                    .collect::<Vec<_>>(),
            );
            rets.push(return_terms(&f.body));
            declared.push(f.params.iter().map(|p| env.unit_of(p)).collect());
            ret_declared.push(env.unit_of(&f.name));
            state.push(Summary { params: vec![Lattice::Unknown; f.arity()], ret: Lattice::Unknown });
        }
        // Dependency edges: fn k's summary feeds every fn whose body
        // names k — as a direct call or as a call term in an argument or
        // return position.
        let mut dependents: Vec<Vec<FnId>> = vec![Vec::new(); n];
        for (c, cs) in calls.iter().enumerate() {
            let mut note = |name: &str| {
                for &k in symbols.by_name(name) {
                    if !dependents[k].contains(&c) {
                        dependents[k].push(c);
                    }
                }
            };
            for call in cs {
                note(&call.raw.name);
                for t in call.raw.args.iter().flatten() {
                    if t.is_call {
                        note(&t.key);
                    }
                }
            }
            for t in &rets[c] {
                if t.is_call {
                    note(&t.key);
                }
            }
        }
        let mut flow = Flow {
            symbols,
            envs,
            file_of,
            calls,
            rets,
            declared,
            ret_declared,
            state,
            dependents,
        };
        // Seed: declared parameter/return units are facts, not inferences.
        for k in 0..n {
            for (i, d) in flow.declared[k].clone().into_iter().enumerate() {
                if let Some(u) = d {
                    flow.state[k].params[i].join(Lattice::Known(u));
                }
            }
            if let Some(u) = flow.ret_declared[k] {
                flow.state[k].ret.join(Lattice::Known(u));
            }
        }
        flow
    }

    /// Joined return summary of every workspace fn named `name`; falls
    /// back to the suffix convention for out-of-workspace callees.
    fn ret_unit(&self, name: &str) -> Option<Unit> {
        let ids = self.symbols.by_name(name);
        if ids.is_empty() {
            return suffix_unit(name);
        }
        let mut acc = Lattice::Unknown;
        for &k in ids {
            acc.join(self.state[k].ret);
        }
        acc.known()
    }

    /// Unit of a term in `env`'s file: local lookup for plain chains,
    /// return summary for call chains.
    fn term_unit(&self, term: &Term, env: &Env) -> Option<Unit> {
        if term.is_call {
            self.ret_unit(&term.key)
        } else {
            env.unit_of(&term.key)
        }
    }

    /// Where a call term's unit came from: each workspace definition of
    /// the callee with a known return summary. Empty for a plain chain.
    fn ret_evidence(&self, term: &Term) -> Vec<Related> {
        if !term.is_call {
            return Vec::new();
        }
        let defs = self.symbols.by_name(&term.key).iter();
        defs.filter_map(|&k| {
            let u = self.state[k].ret.known()?;
            let f = &self.symbols.fns[k];
            let message = format!("`{}` returns {} (inferred here)", term.key, u.label());
            Some(Related { file: f.file.clone(), line: f.line, message })
        })
        .collect()
    }

    /// One transfer step for caller `c`: push argument units into callee
    /// parameter summaries, recompute `c`'s return summary. Returns the
    /// fns whose inputs changed.
    fn step(&mut self, c: FnId) -> Vec<FnId> {
        let mut changed = Vec::new();
        let env_idx = self.file_of[self.symbols.fns[c].file.as_str()];
        for ci in 0..self.calls[c].len() {
            for ki in 0..self.calls[c][ci].cands.len() {
                let k = self.calls[c][ci].cands[ki];
                for ai in 0..self.calls[c][ci].raw.args.len() {
                    let Some(u) = self.calls[c][ci].raw.args[ai]
                        .as_ref()
                        .and_then(|t| self.term_unit(t, &self.envs[env_idx]))
                    else {
                        continue;
                    };
                    let Some(pi) =
                        param_index(&self.calls[c][ci], &self.symbols.fns[k], ai)
                    else {
                        continue;
                    };
                    if pi < self.state[k].params.len()
                        && self.state[k].params[pi].join(Lattice::Known(u))
                        && !changed.contains(&k)
                    {
                        changed.push(k);
                    }
                }
            }
        }
        let mut ret = Lattice::Unknown;
        for t in &self.rets[c] {
            if let Some(u) = self.term_unit(t, &self.envs[env_idx]) {
                ret.join(Lattice::Known(u));
            }
        }
        if self.state[c].ret.join(ret) {
            for &d in &self.dependents[c] {
                if !changed.contains(&d) {
                    changed.push(d);
                }
            }
        }
        changed
    }
}

/// Contributing call site for an undeclared parameter:
/// (file index, line, inferred unit, argument text).
type ArgSite = (usize, usize, Unit, String);

/// Runs the analysis and reports `unit-flow` findings.
pub fn check(files: &[Ast], symbols: &SymbolTable, report: &mut Report) {
    let (envs, issues): (Vec<Env>, Vec<_>) = files.iter().map(build_env).unzip();
    for (ast, issues) in files.iter().zip(issues) {
        for i in issues.iter().filter(|i| i.unknown_tag) {
            let message = format!(
                "unknown unit tag `{}` in `audit:unit(…)`; \
                 expected kwh, kw, usd, or dimensionless",
                i.tag
            );
            report.flag(ast, i.line, super::UNIT_FLOW, message, Vec::new());
        }
    }
    let mut flow = Flow::build(files, symbols, envs);
    let n = symbols.fns.len();
    solve(n, |c| flow.step(c));

    // Checks 1 and 2 read the same argument sites. Check 1: an argument's
    // unit against the callee's declared parameter unit, at the call.
    // Check 2 keeps each undeclared parameter's sites, so a conflict can
    // list every one of them as a related location.
    let mut sites: HashMap<(FnId, usize), Vec<ArgSite>> = HashMap::new();
    for c in 0..n {
        let fi = flow.file_of[symbols.fns[c].file.as_str()];
        let file = &files[fi];
        for call in &flow.calls[c] {
            for &k in &call.cands {
                let callee = &symbols.fns[k];
                for (ai, term) in call.raw.args.iter().enumerate() {
                    let Some(term) = term else { continue };
                    let Some(u) = flow.term_unit(term, &flow.envs[fi]) else { continue };
                    let Some(pi) = param_index(call, callee, ai) else { continue };
                    let Some(&declared) = flow.declared[k].get(pi) else { continue };
                    match declared {
                        None => sites.entry((k, pi)).or_default().push((
                            fi,
                            call.raw.line,
                            u,
                            term.text.clone(),
                        )),
                        Some(d) if d != u && !file.in_test(call.raw.line) => report.flag(
                            file,
                            call.raw.line,
                            super::UNIT_FLOW,
                            format!(
                                "`{}` ({}) flows into parameter `{}` ({}) of `{}`",
                                term.text,
                                u.label(),
                                callee.params[pi],
                                d.label(),
                                callee.name
                            ),
                            vec![Related {
                                file: callee.file.clone(),
                                line: callee.line,
                                message: format!(
                                    "parameter `{}` declared {} here",
                                    callee.params[pi],
                                    d.label()
                                ),
                            }],
                        ),
                        Some(_) => {}
                    }
                }
            }
        }
    }
    let mut conflicts: Vec<(&(FnId, usize), &Vec<ArgSite>)> =
        sites.iter().filter(|((k, _), v)| {
            !symbols.fns[*k].in_test && v.iter().any(|s| s.2 != v[0].2)
        }).collect();
    conflicts.sort_by_key(|((k, pi), _)| (*k, *pi));
    for ((k, pi), contributions) in conflicts {
        let callee = &symbols.fns[*k];
        let fi = flow.file_of[callee.file.as_str()];
        let labels: Vec<&str> = {
            let mut us: Vec<&str> = contributions.iter().map(|s| s.2.label()).collect();
            us.sort_unstable();
            us.dedup();
            us
        };
        let related = contributions
            .iter()
            .map(|(sfi, line, u, text)| Related {
                file: files[*sfi].path.clone(),
                line: *line,
                message: format!("`{}` ({}) passed here", text, u.label()),
            })
            .collect();
        report.flag(
            &files[fi],
            callee.line,
            super::UNIT_FLOW,
            format!(
                "parameter `{}` of `{}` receives conflicting units ({}) across call sites",
                callee.params[*pi],
                callee.name,
                labels.join(" vs ")
            ),
            related,
        );
    }

    // Check 3: same-dimension operators between different units.
    for (fi, ast) in files.iter().enumerate() {
        struct Mix<'x, 'a> {
            flow: &'x Flow<'a>,
            env: &'x Env,
            findings: Vec<(usize, String, Vec<Related>)>,
        }
        impl RunVisitor for Mix<'_, '_> {
            fn run(&mut self, nodes: &[Node], _depth: usize) {
                for (i, nd) in nodes.iter().enumerate() {
                    let Some(op) = nd.tok().filter(|t| {
                        t.kind == TokKind::Punct && SAME_DIM_OPS.contains(&t.text.as_str())
                    }) else {
                        continue;
                    };
                    if !reads_as_operator(nodes, i, op) {
                        continue;
                    }
                    let (Some(lhs), Some(rhs)) = (term_before(nodes, i), term_after(nodes, i + 1))
                    else {
                        continue;
                    };
                    let (Some(lu), Some(ru)) =
                        (self.flow.term_unit(&lhs, self.env), self.flow.term_unit(&rhs, self.env))
                    else {
                        continue;
                    };
                    if lu != ru {
                        let mut related = self.flow.ret_evidence(&lhs);
                        related.extend(self.flow.ret_evidence(&rhs));
                        let message = format!(
                            "`{}` ({}) {} `{}` ({}) mixes units of measure",
                            lhs.text,
                            lu.label(),
                            op.text,
                            rhs.text,
                            ru.label()
                        );
                        self.findings.push((op.line, message, related));
                    }
                }
            }
        }
        let mut v = Mix { flow: &flow, env: &flow.envs[fi], findings: Vec::new() };
        crate::ast::visit::walk_runs(&ast.nodes, &mut v);
        for (line, msg, related) in v.findings {
            if !ast.in_test(line) {
                report.flag(ast, line, super::UNIT_FLOW, msg, related);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Report;

    fn lint(src: &str) -> Report {
        crate::lint_sources(&[("crates/core/src/x.rs".to_string(), src.to_string())])
    }

    #[test]
    fn suffix_mix_is_flagged() {
        let r = lint("fn f(a_kwh: f64, b_usd: f64) -> f64 { a_kwh + b_usd }\n");
        assert_eq!(r.unwaived_count(), 1, "{r}");
        assert!(r.violations[0].message.contains("kWh"));
        assert!(r.violations[0].message.contains("USD"));
    }

    #[test]
    fn same_unit_and_unknown_terms_pass() {
        let r = lint("fn f(a_kwh: f64, b_kwh: f64, x: f64) -> f64 { a_kwh + b_kwh + x }\n");
        assert_eq!(r.unwaived_count(), 0, "{r}");
    }

    #[test]
    fn multiplication_changes_dimension_and_passes() {
        let r = lint(
            "fn f(price_usd_per_kwh: f64, e_kwh: f64) -> f64 { price_usd_per_kwh * e_kwh }\n",
        );
        assert_eq!(r.unwaived_count(), 0, "{r}");
    }

    #[test]
    fn annotation_tags_a_binding() {
        let src = "\
fn f(y: f64, cost_usd: f64) -> f64 {
    // audit:unit(kwh)
    let q = y;
    q + cost_usd
}
";
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 1, "{r}");
        assert!(r.violations[0].message.contains("`q` (kWh)"), "{r}");
    }

    #[test]
    fn dimensionless_annotation_suppresses_suffix() {
        let src = "\
fn f(b_usd: f64) -> f64 {
    // audit:unit(dimensionless)
    let scale_kwh = 2.0;
    scale_kwh + b_usd
}
";
        assert_eq!(lint(src).unwaived_count(), 0);
    }

    #[test]
    fn unknown_tag_is_itself_a_finding() {
        let r = lint("// audit:unit(joules)\nlet q = 1.0;\n");
        assert_eq!(r.unwaived_count(), 1, "{r}");
        assert!(r.violations[0].message.contains("unknown unit tag"));
    }

    #[test]
    fn generics_are_not_comparisons() {
        let r = lint("fn f(xs: Vec<f64>, total_kwh: f64, c_usd: f64) {}\n");
        assert_eq!(r.unwaived_count(), 0, "{r}");
    }

    #[test]
    fn spaced_comparison_between_units_is_flagged() {
        let r = lint("fn f(p_kw: f64, e_kwh: f64) -> bool { p_kw < e_kwh }\n");
        assert_eq!(r.unwaived_count(), 1, "{r}");
    }

    #[test]
    fn compound_assignment_is_covered() {
        let r = lint("fn f(mut total_usd: f64, e_kwh: f64) { total_usd += e_kwh; }\n");
        assert_eq!(r.unwaived_count(), 1, "{r}");
    }

    #[test]
    fn waiver_applies() {
        let src = "\
fn f(a_kwh: f64, b_usd: f64) -> f64 {
    // Lyapunov drift-plus-penalty deliberately mixes dimensions. audit:allow(unit-flow)
    a_kwh + b_usd
}
";
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
        assert_eq!(r.waived_count(), 1);
    }

    #[test]
    fn tests_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(a_kwh: f64, b_usd: f64) -> f64 { a_kwh + b_usd }
}
";
        assert_eq!(lint(src).unwaived_count(), 0);
    }
}
