//! The audit's one parse of a source file.
//!
//! The registry-less build environment rules out `syn`, so this module is
//! the workspace's own substitute, scoped to what a linter needs:
//!
//! * [`lexer`] — a tolerant, span-tracking lexer whose comments survive as
//!   trivia (rules read `audit:…(…)` annotations and waivers from them);
//! * [`tree`] — balanced token trees over the token stream;
//! * [`lines`] — per-line facts computed once from the trees and the
//!   trivia: `#[cfg(test)]` code, `audit:hot-path` regions, and the
//!   `audit:allow` waivers each line carries;
//! * [`visit`] — the run visitor and the expression-level pattern helpers
//!   (method and macro calls, argument splitting, statement bounds,
//!   operand terms) every rule builds on.
//!
//! Every rule — per-file, semantic and interprocedural — reads the same
//! [`Ast`], so what counts as code, a comment, a string, test code or a
//! waiver is decided in exactly one place. Rules see *structure*: a
//! `compare_exchange` call knows its argument list even when it spans four
//! lines, and a `+` knows its operands even through field chains and
//! calls.

pub mod lexer;
pub mod lines;
pub mod tree;
pub mod visit;

pub use lexer::{Comment, TokKind, Token};
pub use tree::{Delim, Group, Node};

/// One parsed source file: token forest, comment trivia and line facts.
#[derive(Debug)]
pub struct Ast {
    /// Workspace-relative path, used in reports.
    pub path: String,
    /// Top-level token forest.
    pub nodes: Vec<Node>,
    /// Comment trivia in source order.
    pub comments: Vec<Comment>,
    /// Per-line facts, index 0 = line 1.
    pub lines: Vec<lines::Line>,
}

impl Ast {
    /// Parses `text`. Never fails — unlexable regions degrade to puncts
    /// and imbalanced brackets are recovered (see [`tree::build`]).
    pub fn parse(path: &str, text: &str) -> Self {
        let (tokens, comments) = lexer::lex(text);
        let nodes = tree::build(tokens);
        let lines = lines::facts(text.lines().count(), &nodes, &comments);
        Ast { path: path.to_string(), nodes, comments, lines }
    }

    fn line(&self, line: usize) -> Option<&lines::Line> {
        self.lines.get(line.wrapping_sub(1))
    }

    /// True when the 1-based `line` is `#[cfg(test)]` code.
    pub fn in_test(&self, line: usize) -> bool {
        self.line(line).is_some_and(|l| l.in_test)
    }

    /// True when the 1-based `line` sits inside an `audit:hot-path` region.
    pub fn in_hot(&self, line: usize) -> bool {
        self.line(line).is_some_and(|l| l.in_hot)
    }

    /// The line whose `audit:allow(<rule>)` waiver covers a finding on the
    /// 1-based `line`: the line itself, else the line immediately above.
    pub fn waiver_line(&self, line: usize, rule: &str) -> Option<usize> {
        [line, line.wrapping_sub(1)]
            .into_iter()
            .find(|&l| self.line(l).is_some_and(|f| f.waivers.iter().any(|w| w == rule)))
    }

    /// True when a finding of `rule` on the 1-based `line` is waived.
    pub fn waived(&self, line: usize, rule: &str) -> bool {
        self.waiver_line(line, rule).is_some()
    }

    /// Looks up an `audit:<key>(<payload>)` annotation covering `line`
    /// (1-based): on the line itself or the line immediately above —
    /// the same placement convention as `audit:allow` waivers. Returns
    /// the payload text, trimmed (possibly empty for `audit:key()`).
    ///
    /// The annotation must *start* the comment (after the comment
    /// leader), like the hot-path region markers — so doc prose that
    /// merely mentions the syntax cannot bind or satisfy anything.
    pub fn annotation(&self, line: usize, key: &str) -> Option<String> {
        let needle = format!("audit:{key}(");
        self.comments
            .iter()
            .filter(|c| c.line == line || c.line + 1 == line)
            .find_map(|c| {
                let rest = annotation_payload(&c.text, &needle)?;
                let end = rest.find(')')?;
                Some(rest[..end].trim().to_string())
            })
    }
}

/// Strips the comment leader and returns the text after `needle` when the
/// comment *starts* with it.
pub(crate) fn annotation_payload<'a>(comment: &'a str, needle: &str) -> Option<&'a str> {
    comment.trim_start_matches(['/', '*', '!']).trim_start().strip_prefix(needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotation_same_line_and_line_above() {
        let src = "\
// audit:unit(kwh)
let battery = 0.0;
let x = 1; // audit:atomic(single cell)
";
        let ast = Ast::parse("x.rs", src);
        assert_eq!(ast.annotation(2, "unit").as_deref(), Some("kwh"));
        assert_eq!(ast.annotation(3, "atomic").as_deref(), Some("single cell"));
        assert_eq!(ast.annotation(2, "atomic"), None);
        assert_eq!(ast.annotation(1, "unit").as_deref(), Some("kwh"));
    }

    #[test]
    fn empty_annotation_payload_is_distinguishable() {
        let ast = Ast::parse("x.rs", "x.load(o); // audit:atomic()\n");
        assert_eq!(ast.annotation(1, "atomic").as_deref(), Some(""));
    }

    #[test]
    fn prose_mentioning_the_syntax_is_not_an_annotation() {
        let src = "// docs explain the audit:atomic(contract) convention\nx.load(o);\n";
        let ast = Ast::parse("x.rs", src);
        assert_eq!(ast.annotation(2, "atomic"), None);
    }
}
