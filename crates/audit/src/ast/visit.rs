//! Visitor infrastructure shared by every rule.
//!
//! The central shape is the **run**: one group's children (or the
//! top-level forest) as a flat slice of [`Node`]s. Every expression-level
//! pattern the rules match — a method call, a binary operator, a statement
//! boundary — is local to a run, so a rule implements [`RunVisitor`] and
//! receives every run in the file exactly once, depth-first.

use super::lexer::{TokKind, Token};
use super::tree::{Delim, Group, Node};

/// A rule's hook: called once per run (sibling slice), outermost first.
pub trait RunVisitor {
    /// Inspects one run. `depth` is the group-nesting depth (0 = file
    /// top level).
    fn run(&mut self, nodes: &[Node], depth: usize);
}

/// Walks every run of the forest depth-first, calling `v.run` on each.
pub fn walk_runs(nodes: &[Node], v: &mut dyn RunVisitor) {
    fn inner(nodes: &[Node], depth: usize, v: &mut dyn RunVisitor) {
        v.run(nodes, depth);
        for n in nodes {
            if let Node::Group(g) = n {
                inner(&g.children, depth + 1, v);
            }
        }
    }
    inner(nodes, 0, v);
}

/// A `recv.name(args)` site found in a run.
#[derive(Debug)]
pub struct MethodCall<'a> {
    /// Index of the `.` token in the run.
    pub dot_idx: usize,
    /// Index where the receiver chain starts (see [`find_method_calls`]).
    pub recv_start: usize,
    /// Method name.
    pub name: &'a str,
    /// 1-based line of the method-name token.
    pub line: usize,
    /// Argument group.
    pub args: &'a Group,
    /// Index of the node *after* the argument group (== run length when
    /// the call ends the run).
    pub after_idx: usize,
}

/// Finds every `recv . name ( … )` pattern in one run. The receiver chain
/// extends left over identifiers, `.`/`::` separators, and postfix groups
/// (`xs[i].load(…)`, `f().store(…)`).
pub fn find_method_calls<'a>(run: &'a [Node]) -> Vec<MethodCall<'a>> {
    let mut out = Vec::new();
    for i in 0..run.len() {
        if !run[i].is_punct(".") {
            continue;
        }
        let Some(name_tok) = run.get(i + 1).and_then(Node::tok) else { continue };
        if name_tok.kind != TokKind::Ident {
            continue;
        }
        let Some(args) = run.get(i + 2).and_then(Node::group) else { continue };
        if args.delim != Delim::Paren {
            continue;
        }
        let mut start = i;
        while start > 0 {
            let prev = &run[start - 1];
            let chains = prev.ident().is_some()
                || prev.is_punct(".")
                || prev.is_punct("::")
                || matches!(prev, Node::Group(g) if g.delim != Delim::Brace);
            if chains {
                start -= 1;
            } else {
                break;
            }
        }
        out.push(MethodCall {
            dot_idx: i,
            recv_start: start,
            name: &name_tok.text,
            line: name_tok.line,
            args,
            after_idx: i + 3,
        });
    }
    out
}

/// Finds every `name!(…)` / `name![…]` / `name!{…}` macro call in one run,
/// returning the name tokens.
pub fn find_macro_calls(run: &[Node]) -> Vec<&Token> {
    run.windows(3)
        .filter(|w| w[1].is_punct("!") && w[2].group().is_some())
        .filter_map(|w| w[0].tok().filter(|t| t.kind == TokKind::Ident))
        .collect()
}

/// Splits a group's children on top-level commas (argument lists).
pub fn split_commas(g: &Group) -> Vec<&[Node]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, n) in g.children.iter().enumerate() {
        if n.is_punct(",") {
            out.push(&g.children[start..i]);
            start = i + 1;
        }
    }
    out.push(&g.children[start..]);
    if out.last().is_some_and(|s| s.is_empty()) && out.len() > 1 {
        out.pop(); // trailing comma
    }
    out
}

/// Index of the first node of the statement containing `idx`: the node
/// after the previous top-level `;` (or 0).
pub fn stmt_start(run: &[Node], idx: usize) -> usize {
    (0..idx).rev().find(|&k| run[k].is_punct(";")).map_or(0, |k| k + 1)
}

/// A value *term* adjacent to a binary operator: the longest
/// ident/`.`/`::`/postfix-group chain, e.g. `self.battery_kwh`,
/// `cost_usd(x)`, `xs[i]`.
#[derive(Debug, PartialEq, Eq)]
pub struct Term {
    /// Last identifier of the chain that names a *value* (the identifier
    /// before a call's argument group, or the final field/binding name).
    pub key: String,
    /// Rendered chain for diagnostics.
    pub text: String,
    /// True when the chain ends in a call's argument parentheses
    /// (`cost(x)`, `self.energy()`): `key` then names the callee, and
    /// interprocedural analyses may consult its return summary.
    pub is_call: bool,
}

/// True for a node that continues a value chain: an identifier, a number,
/// a `.`/`::` separator, or a postfix (non-brace) group.
fn chains(n: &Node) -> bool {
    n.ident().is_some()
        || n.is_punct(".")
        || n.is_punct("::")
        || n.tok().is_some_and(|t| t.kind == TokKind::Number)
        || matches!(n, Node::Group(g) if g.delim != Delim::Brace)
}

/// The chain starting at `idx` after an optional unary borrow, deref or
/// negation, as `(first, end)` indices into the run.
fn chain_after(run: &[Node], idx: usize) -> (usize, usize) {
    let unary = |n: &&Node| n.is_punct("&") || n.is_punct("*") || n.is_punct("-");
    let first = idx + run.get(idx..).unwrap_or_default().iter().take_while(unary).count();
    (first, first + run.get(first..).unwrap_or_default().iter().take_while(|n| chains(n)).count())
}

/// Scans the term ending just before `idx` (exclusive) in the run.
pub fn term_before(run: &[Node], idx: usize) -> Option<Term> {
    let start = idx - run[..idx].iter().rev().take_while(|n| chains(n)).count();
    (start < idx).then(|| make_term(&run[start..idx]))
}

/// Scans the term starting at `idx` in the run.
pub fn term_after(run: &[Node], idx: usize) -> Option<Term> {
    let (first, end) = chain_after(run, idx);
    (end > first).then(|| make_term(&run[first..end]))
}

/// The term covering the *entire* run, or `None` when the run holds more
/// than a single chain (an arithmetic expression, a block, a cast).
/// Call-argument slices attribute a unit only when the whole argument is
/// one term — `f(a_kwh)` carries kWh, `f(a_kwh * r)` carries nothing.
pub fn term_spanning(run: &[Node]) -> Option<Term> {
    let (first, end) = chain_after(run, 0);
    (end == run.len() && end > first).then(|| make_term(&run[first..end]))
}

/// Builds a [`Term`] from a chain slice.
fn make_term(chain: &[Node]) -> Term {
    let mut text = String::new();
    for n in chain {
        match n {
            Node::Tok(t) => text.push_str(&t.text),
            Node::Group(g) => {
                let (o, c) = match g.delim {
                    Delim::Paren => ('(', ')'),
                    Delim::Bracket => ('[', ']'),
                    Delim::Brace => ('{', '}'),
                };
                text.push(o);
                if !g.children.is_empty() {
                    text.push('…');
                }
                text.push(c);
            }
        }
    }
    // The value-naming identifier: last ident leaf in the chain (a call
    // `cost_usd(x)` names `cost_usd`; a field chain `self.q` names `q`;
    // an index `xs[i]` names `xs`).
    let key = chain
        .iter()
        .rev()
        .find_map(Node::ident)
        .unwrap_or_default()
        .to_string();
    let is_call = matches!(chain.last(), Some(Node::Group(g)) if g.delim == Delim::Paren)
        && chain.len() >= 2
        && chain[chain.len() - 2].ident().is_some();
    Term { key, text, is_call }
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::super::tree::build;
    use super::*;

    fn forest(src: &str) -> Vec<Node> {
        build(lex(src).0)
    }

    #[test]
    fn walk_visits_every_run() {
        struct Count(usize);
        impl RunVisitor for Count {
            fn run(&mut self, _: &[Node], _: usize) {
                self.0 += 1;
            }
        }
        let f = forest("fn f(a: u8) { g(a); }");
        let mut c = Count(0);
        walk_runs(&f, &mut c);
        // top level + param parens + body + call parens
        assert_eq!(c.0, 4);
    }

    #[test]
    fn method_calls_found_with_receiver_chains() {
        let f = forest("self.bits.compare_exchange(a, b, x, y);");
        let calls = find_method_calls(&f);
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "compare_exchange");
        assert_eq!(calls[0].recv_start, 0);
        assert_eq!(split_commas(calls[0].args).len(), 4);
    }

    #[test]
    fn stmt_start_respects_semicolons() {
        let f = forest("a(); b.c();");
        let calls = find_method_calls(&f);
        let bc = calls.iter().find(|c| c.name == "c").unwrap();
        assert_eq!(stmt_start(&f, bc.recv_start), 3);
    }

    #[test]
    fn terms_extract_value_keys() {
        let f = forest("x = self.total_usd + energy_kwh;");
        let plus = f.iter().position(|n| n.is_punct("+")).unwrap();
        assert_eq!(term_before(&f, plus).unwrap().key, "total_usd");
        assert_eq!(term_after(&f, plus + 1).unwrap().key, "energy_kwh");
        let g = forest("a + cost_usd(x)");
        let plus = g.iter().position(|n| n.is_punct("+")).unwrap();
        assert_eq!(term_after(&g, plus + 1).unwrap().key, "cost_usd");
    }

    #[test]
    fn terms_mark_calls() {
        let f = forest("a + cost(x)");
        let plus = f.iter().position(|n| n.is_punct("+")).unwrap();
        assert!(term_after(&f, plus + 1).unwrap().is_call);
        let g = forest("a + self.total_usd");
        let plus = g.iter().position(|n| n.is_punct("+")).unwrap();
        assert!(!term_after(&g, plus + 1).unwrap().is_call);
        // An index expression ends in a bracket group, not a call.
        let h = forest("a + xs[i]");
        let plus = h.iter().position(|n| n.is_punct("+")).unwrap();
        assert!(!term_after(&h, plus + 1).unwrap().is_call);
    }

    #[test]
    fn term_spanning_requires_the_whole_run() {
        let f = forest("stored(a, b)");
        let t = term_spanning(&f).unwrap();
        assert_eq!(t.key, "stored");
        assert!(t.is_call);
        assert!(term_spanning(&forest("a + b")).is_none());
        assert!(term_spanning(&[]).is_none());
    }
}
