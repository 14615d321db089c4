//! `unit-mix`: units-of-measure dataflow lint.
//!
//! The COCA cost pipeline moves between three dimensions — energy (kWh),
//! power (kW), and money (USD) — and the P3 objective is the one place
//! they legitimately meet. Everywhere else, adding a price to an energy or
//! comparing power against dollars is a transcription bug of exactly the
//! kind that silently skews a reproduction. This rule tags value *terms*
//! with a unit and flags `+`, `-`, `+=`, `-=`, and comparisons whose two
//! sides carry **different** known units.
//!
//! A term's unit comes from, in precedence order:
//!
//! 1. an `// audit:unit(<tag>)` annotation on the term's binding line
//!    (or the line above) — tags: `kwh`, `kw`, `usd`, `dimensionless`;
//! 2. a type ascription to a known dimension-carrying core type
//!    (`EnergyKwh`, `PowerKw`, `CostUsd`);
//! 3. the identifier suffix: `…_kwh`, `…_kw`, `…_usd` (or the bare names
//!    `kwh` / `kw` / `usd`).
//!
//! Names containing `_per_` are ratios and deliberately untagged — a
//! `usd_per_kwh` price times an energy is how units are *supposed* to
//! cancel. Multiplication and division never flag (they change dimension);
//! only same-dimension operators do. Terms with no known unit never flag:
//! the lint is opt-in via naming and annotations, so it cannot drown the
//! workspace in guesses.

use std::collections::HashMap;

use super::UNIT_MIX;
use crate::ast::visit::{term_after, term_before, RunVisitor};
use crate::ast::{Ast, Node, TokKind};
use crate::report::Report;

/// A physical dimension the lint tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Energy, kilowatt-hours.
    Kwh,
    /// Power, kilowatts.
    Kw,
    /// Money, US dollars.
    Usd,
}

impl Unit {
    /// Human-facing label used in messages.
    pub(crate) fn label(self) -> &'static str {
        match self {
            Unit::Kwh => "kWh",
            Unit::Kw => "kW",
            Unit::Usd => "USD",
        }
    }

    /// Parses an `audit:unit(<tag>)` tag.
    pub(crate) fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "kwh" => Some(Unit::Kwh),
            "kw" => Some(Unit::Kw),
            "usd" => Some(Unit::Usd),
            _ => None,
        }
    }
}

/// Dimension-carrying core types recognized in ascriptions (`let x:
/// EnergyKwh = …`). The workspace currently encodes units in names rather
/// than newtypes; this table is the hook for when that changes.
const TYPE_UNITS: &[(&str, Unit)] = &[
    ("EnergyKwh", Unit::Kwh),
    ("PowerKw", Unit::Kw),
    ("CostUsd", Unit::Usd),
];

/// Unit of a bare identifier by suffix convention.
pub(crate) fn suffix_unit(name: &str) -> Option<Unit> {
    if name.contains("_per_") {
        return None; // ratio: dimension already divided out of the name
    }
    if name == "kwh" || name.ends_with("_kwh") {
        Some(Unit::Kwh)
    } else if name == "kw" || name.ends_with("_kw") {
        Some(Unit::Kw)
    } else if name == "usd" || name.ends_with("_usd") {
        Some(Unit::Usd)
    } else {
        None
    }
}

/// Operators that require both operands to share a dimension.
const SAME_DIM_OPS: &[&str] = &["+", "-", "+=", "-=", "<", ">", "<=", ">=", "==", "!="];

/// Per-file binding environment: names tagged by annotation or ascription.
/// Shared with the interprocedural unit-flow analysis, which seeds
/// parameter and return summaries from the same environment.
pub(crate) struct Env {
    /// Explicitly tagged names (annotation or known-type ascription).
    tagged: HashMap<String, Unit>,
    /// Names annotated `dimensionless`: suppress suffix inference.
    dimensionless: Vec<String>,
}

impl Env {
    /// Unit of a term key: explicit tag, then dimensionless suppression,
    /// then suffix convention.
    pub(crate) fn unit_of(&self, key: &str) -> Option<Unit> {
        if let Some(u) = self.tagged.get(key) {
            return Some(*u);
        }
        if self.dimensionless.iter().any(|n| n == key) {
            return None;
        }
        suffix_unit(key)
    }
}

/// Collects every leaf token (depth-first) of a forest.
fn leaf_tokens<'a>(nodes: &'a [Node], out: &mut Vec<&'a crate::ast::Token>) {
    for n in nodes {
        match n {
            Node::Tok(t) => out.push(t),
            Node::Group(g) => leaf_tokens(&g.children, out),
        }
    }
}

/// A defect found while building the environment. Unknown tags are
/// reported here under `unit-mix`; unbound annotations belong to the
/// workspace-wide hygiene pass (`stale-waiver`), which also checks
/// whether they bind a *function* line instead of a local.
pub(crate) struct EnvIssue {
    /// 1-based line of the annotation comment.
    pub(crate) line: usize,
    /// The tag text inside `audit:unit(…)`.
    pub(crate) tag: String,
    /// True when the tag is not a recognized unit name; false when the
    /// annotation failed to cover any binding identifier.
    pub(crate) unknown_tag: bool,
}

/// Builds the binding environment: for each `audit:unit(<tag>)` comment,
/// binds the identifier declared on the covered line; plus known-type
/// ascriptions anywhere in the file. Pure — defects come back as
/// [`EnvIssue`]s for the caller to report under the right rule.
pub(crate) fn build_env(ast: &Ast) -> (Env, Vec<EnvIssue>) {
    let mut env = Env { tagged: HashMap::new(), dimensionless: Vec::new() };
    let mut issues = Vec::new();
    let mut toks = Vec::new();
    leaf_tokens(&ast.nodes, &mut toks);

    // Keywords that precede the bound name on a binding/field line.
    const SKIP: &[&str] =
        &["let", "pub", "mut", "const", "static", "ref", "crate", "self", "in", "super", "fn"];

    for c in &ast.comments {
        // Marker-start only (like hot-path markers): prose that merely
        // mentions `audit:unit(…)` must not bind anything.
        let Some(rest) = crate::ast::annotation_payload(&c.text, "audit:unit(") else {
            continue;
        };
        let Some(end) = rest.find(')') else { continue };
        let tag = rest[..end].trim().to_string();
        // The annotation covers its own line when code shares it,
        // otherwise the line below (comment-above style).
        let covered = if toks.iter().any(|t| t.line == c.line) { c.line } else { c.line + 1 };
        let Some(name) = toks
            .iter()
            .filter(|t| t.line == covered && t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .find(|t| !SKIP.contains(t))
        else {
            issues.push(EnvIssue { line: c.line, tag, unknown_tag: false });
            continue;
        };
        if tag == "dimensionless" {
            env.dimensionless.push(name.to_string());
        } else if let Some(u) = Unit::from_tag(&tag) {
            env.tagged.insert(name.to_string(), u);
        } else {
            issues.push(EnvIssue { line: c.line, tag, unknown_tag: true });
        }
    }

    // `name : KnownType` ascriptions (bindings, fields, parameters).
    for w in toks.windows(3) {
        let [n, colon, ty] = w else { continue };
        if n.kind == TokKind::Ident && colon.is_punct(":") && ty.kind == TokKind::Ident {
            if let Some((_, u)) = TYPE_UNITS.iter().find(|(t, _)| ty.is_ident(t)) {
                env.tagged.insert(n.text.clone(), *u);
            }
        }
    }
    (env, issues)
}

/// Visitor that flags mixed-unit same-dimension operators in every run.
struct Mix<'a> {
    ast: &'a Ast,
    env: &'a Env,
    findings: Vec<(usize, String)>,
}

impl RunVisitor for Mix<'_> {
    fn run(&mut self, nodes: &[Node], _depth: usize) {
        for (i, n) in nodes.iter().enumerate() {
            let Some(op) = n.tok().filter(|t| t.kind == TokKind::Punct) else { continue };
            if !SAME_DIM_OPS.contains(&op.text.as_str()) {
                continue;
            }
            if self.ast.in_test(op.line) {
                continue;
            }
            // Bare `<` / `>` double as generic brackets; require spacing
            // on both sides before reading them as comparisons.
            if matches!(op.text.as_str(), "<" | ">") {
                let spaced_left = nodes.get(i.wrapping_sub(1)).and_then(Node::tok).is_none_or(
                    |p| p.line != op.line || p.end_col() < op.col,
                );
                let spaced_right = nodes.get(i + 1).is_none_or(|nx| {
                    let (l, c) = match nx {
                        Node::Tok(t) => (t.line, t.col),
                        Node::Group(g) => (g.line, g.col),
                    };
                    l != op.line || c > op.col + 1
                });
                if !(spaced_left && spaced_right) {
                    continue;
                }
            }
            let Some(lhs) = term_before(nodes, i) else { continue };
            let Some(rhs) = term_after(nodes, i + 1) else { continue };
            let (Some(lu), Some(ru)) =
                (self.env.unit_of(&lhs.key), self.env.unit_of(&rhs.key))
            else {
                continue;
            };
            if lu != ru {
                self.findings.push((
                    op.line,
                    format!(
                        "`{}` ({}) {} `{}` ({}) mixes units of measure",
                        lhs.text,
                        lu.label(),
                        op.text,
                        rhs.text,
                        ru.label()
                    ),
                ));
            }
        }
    }
}

/// Runs the rule over one parsed file.
pub fn check(ast: &Ast, report: &mut Report) {
    let (env, issues) = build_env(ast);
    for i in issues.iter().filter(|i| i.unknown_tag) {
        report.flag(
            ast,
            i.line,
            UNIT_MIX,
            format!(
                "unknown unit tag `{}` in `audit:unit(…)`; \
                 expected kwh, kw, usd, or dimensionless",
                i.tag
            ),
            Vec::new(),
        );
    }
    let mut v = Mix { ast, env: &env, findings: Vec::new() };
    crate::ast::visit::walk_runs(&ast.nodes, &mut v);
    for (line, msg) in v.findings {
        report.flag(ast, line, UNIT_MIX, msg, Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Report {
        let ast = Ast::parse("crates/core/src/x.rs", src);
        let mut r = Report::default();
        check(&ast, &mut r);
        r
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
        let r = lint(
            "fn f(a_kwh: f64, b_kwh: f64, x: f64) -> f64 { a_kwh + b_kwh + x }\n",
        );
        assert_eq!(r.unwaived_count(), 0, "{r}");
    }

    #[test]
    fn multiplication_changes_dimension_and_passes() {
        let r = lint("fn f(price_usd_per_kwh: f64, e_kwh: f64) -> f64 { price_usd_per_kwh * e_kwh }\n");
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
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
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
    // Lyapunov drift-plus-penalty deliberately mixes dimensions. audit:allow(unit-mix)
    a_kwh + b_usd
}
";
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
        assert_eq!(r.waived_count(), 1);
    }

    #[test]
    fn known_type_ascription_tags_binding() {
        let r = lint("fn f(e: EnergyKwh, c: CostUsd) -> f64 { e + c }\n");
        assert_eq!(r.unwaived_count(), 1, "{r}");
    }

    #[test]
    fn tests_are_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(a_kwh: f64, b_usd: f64) -> f64 { a_kwh + b_usd }
}
";
        let r = lint(src);
        assert_eq!(r.unwaived_count(), 0, "{r}");
    }
}
