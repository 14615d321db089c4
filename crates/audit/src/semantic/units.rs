//! The units-of-measure vocabulary `unit-flow` reads: the three
//! dimensions the COCA cost pipeline moves between (energy in kWh, power
//! in kW, money in USD) and each file's binding environment.
//!
//! A name's unit comes from, in precedence order:
//!
//! 1. an `// audit:unit(<tag>)` annotation on the name's binding line
//!    (or the line above) — tags: `kwh`, `kw`, `usd`, `dimensionless`;
//! 2. the identifier suffix: `…_kwh`, `…_kw`, `…_usd` (or the bare names
//!    `kwh` / `kw` / `usd`).
//!
//! Names containing `_per_` are ratios and deliberately untagged — a
//! `usd_per_kwh` price times an energy is how units are *supposed* to
//! cancel. Names with no known unit stay untagged: the vocabulary is
//! opt-in via naming and annotations, so it cannot drown the workspace in
//! guesses.

use std::collections::HashMap;

use crate::ast::{Ast, Node, TokKind};

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

/// Per-file binding environment: names tagged by annotation. `unit-flow`
/// reads operand units from it and seeds parameter and return summaries
/// with it.
pub(crate) struct Env {
    /// Names tagged by annotation.
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

/// A defect found while building the environment. `unit-flow` reports
/// unknown tags; unbound annotations belong to the hygiene pass
/// (`stale-waiver`).
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
/// binds the identifier declared on the covered line. Pure — defects
/// come back as [`EnvIssue`]s for the caller to report under the right
/// rule.
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
    (env, issues)
}
