//! Per-line facts of one parsed file, computed once from its token trees
//! and comment trivia: whether a line is `#[cfg(test)]` code, whether it
//! sits inside an `audit:hot-path` region, and which `audit:allow`
//! waivers its plain comments declare. Every rule reads them through
//! [`super::Ast`].

use super::lexer::Comment;
use super::tree::{Delim, Node};

/// What the audit knows about one source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// True when the line belongs to an item marked `#[cfg(test)]` (from
    /// the attribute through the item's last token), or to a module whose
    /// body opens with `#![cfg(test)]`.
    pub in_test: bool,
    /// True between a `// audit:hot-path: begin` and a
    /// `// audit:hot-path: end` comment; the marker lines themselves are
    /// outside.
    pub in_hot: bool,
    /// Rule ids named by `audit:allow(…)` in this line's plain comments.
    pub waivers: Vec<String>,
}

/// Computes the facts of lines `1..=count`.
pub fn facts(count: usize, nodes: &[Node], comments: &[Comment]) -> Vec<Line> {
    let mut lines = vec![Line::default(); count];
    mark_tests(nodes, (1, count), &mut lines);
    mark_hot(comments, &mut lines);
    for c in comments {
        for (line, rule) in waivers(c) {
            if let Some(l) = lines.get_mut(line - 1) {
                l.waivers.push(rule);
            }
        }
    }
    lines
}

/// True for a `[cfg(test)]` attribute body.
fn is_cfg_test(node: Option<&Node>) -> bool {
    let Some(attr) = node.and_then(Node::group).filter(|g| g.delim == Delim::Bracket) else {
        return false;
    };
    match attr.children.as_slice() {
        [cfg, Node::Group(args)] => {
            cfg.is_ident("cfg")
                && args.delim == Delim::Paren
                && matches!(args.children.as_slice(), [t] if t.is_ident("test"))
        }
        _ => false,
    }
}

/// Index of the last node of the item starting at `run[start]`: its first
/// `;`, or — unless it is a `use` or an `=` item (`const`, `static`,
/// `type`, `let`), which always end at `;` — its first brace group or a
/// `,` outside generics and `where` clauses (a field, variant or arm).
fn item_end(run: &[Node], start: usize) -> usize {
    let (mut to_semicolon, mut in_where, mut angle) = (false, false, 0i32);
    for (k, n) in run.iter().enumerate().skip(start) {
        if n.is_punct(";") {
            return k;
        }
        to_semicolon |= n.is_punct("=") || n.is_ident("use");
        in_where |= n.is_ident("where");
        angle += i32::from(n.is_punct("<")) - i32::from(n.is_punct(">"));
        let brace = n.group().is_some_and(|g| g.delim == Delim::Brace);
        let comma = n.is_punct(",") && angle <= 0 && !in_where;
        if !to_semicolon && (brace || comma) {
            return k;
        }
    }
    run.len().saturating_sub(1)
}

/// Marks lines `lo..=hi` as test code.
fn mark_test_lines(lines: &mut [Line], lo: usize, hi: usize) {
    for l in lines.iter_mut().take(hi).skip(lo.saturating_sub(1)) {
        l.in_test = true;
    }
}

/// Marks the test items of one run (spanning lines `span`) and recurses
/// into the groups of the rest.
fn mark_tests(run: &[Node], span: (usize, usize), lines: &mut [Line]) {
    let mut i = 0;
    while i < run.len() {
        if run[i].is_punct("#") {
            if run.get(i + 1).is_some_and(|n| n.is_punct("!")) && is_cfg_test(run.get(i + 2)) {
                mark_test_lines(lines, span.0, span.1);
                return;
            }
            if is_cfg_test(run.get(i + 1)) {
                let end = item_end(run, i + 2);
                mark_test_lines(lines, run[i].line(), run[end].end_line());
                i = end + 1;
                continue;
            }
        }
        if let Node::Group(g) = &run[i] {
            mark_tests(&g.children, (g.line, g.end_line), lines);
        }
        i += 1;
    }
}

/// The hot-path marker a comment starts with: `Some(true)` for begin,
/// `Some(false)` for end. Prose that merely mentions the marker — this
/// crate's own rule documentation, say — does not toggle a region.
fn hot_marker(comment: &str) -> Option<bool> {
    let t = super::annotation_payload(comment, "audit:hot-path: ")?;
    if t.starts_with("begin") {
        Some(true)
    } else if t.starts_with("end") {
        Some(false)
    } else {
        None
    }
}

/// Marks the lines strictly between begin and end markers as hot.
fn mark_hot(comments: &[Comment], lines: &mut [Line]) {
    let mut markers =
        comments.iter().filter_map(|c| Some((c.line, hot_marker(&c.text)?))).peekable();
    let mut hot = false;
    for (idx, line) in lines.iter_mut().enumerate() {
        let mut begins = false;
        while let Some((_, begin)) = markers.next_if(|(l, _)| *l == idx + 1) {
            begins |= begin;
            hot &= begin;
        }
        line.in_hot = hot;
        hot |= begins;
    }
}

/// `(line, rule)` for every `audit:allow(a, b)` rule a comment names. Doc
/// comments (`///`, `//!`, `/**`, `/*!`) never waive: they are rendered
/// prose, and this crate's own documentation mentions the marker
/// constantly.
fn waivers(c: &Comment) -> Vec<(usize, String)> {
    let text = c.text.as_str();
    if ["///", "//!", "/**", "/*!"].iter().any(|doc| text.starts_with(doc)) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find("audit:allow(") {
        let start = from + pos + "audit:allow(".len();
        let Some(len) = text[start..].find(')') else {
            break;
        };
        let line = c.line + text[..start].matches('\n').count();
        for rule in text[start..start + len].split(',').map(str::trim).filter(|r| !r.is_empty()) {
            out.push((line, rule.to_string()));
        }
        from = start + len + 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::ast::{Ast, Node};

    /// Identifier texts whose token starts on 1-based `line`.
    fn idents_on(ast: &Ast, line: usize) -> Vec<String> {
        fn walk(nodes: &[Node], line: usize, out: &mut Vec<String>) {
            for n in nodes {
                match n {
                    Node::Tok(t) if t.line == line && n.ident().is_some() => {
                        out.push(t.text.clone())
                    }
                    Node::Group(g) => walk(&g.children, line, out),
                    Node::Tok(_) => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&ast.nodes, line, &mut out);
        out
    }

    fn has(ast: &Ast, line: usize, ident: &str) -> bool {
        idents_on(ast, line).iter().any(|t| t == ident)
    }

    #[test]
    fn strings_and_comments_hide_their_text() {
        let ast = Ast::parse(
            "x.rs",
            "let s = \"a.unwrap() / b\"; // real unwrap() here\nlet t = x.unwrap();\n",
        );
        assert!(!has(&ast, 1, "unwrap"));
        assert!(has(&ast, 2, "unwrap"));
    }

    #[test]
    fn block_comments_span_lines() {
        let ast = Ast::parse("x.rs", "/* panic!\n still comment */ let a = 1;\n");
        assert!(!has(&ast, 1, "panic") && !has(&ast, 2, "still"));
        assert!(has(&ast, 2, "let") && has(&ast, 2, "a"));
    }

    #[test]
    fn string_literals_span_lines() {
        let src = "let s = format!(\"first line \\\n    second /divisor line\");\nlet x = a / b;\n";
        let ast = Ast::parse("x.rs", src);
        assert!(!has(&ast, 2, "divisor"), "{:?}", idents_on(&ast, 2));
        assert!(has(&ast, 3, "a") && has(&ast, 3, "b"));
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let ast = Ast::parse("x.rs", "let q = '\"'; let u = v.unwrap();\n");
        assert!(has(&ast, 1, "unwrap"));
    }

    #[test]
    fn lifetimes_survive() {
        let ast = Ast::parse("x.rs", "fn f<'a>(x: &'a str) -> &'a str { x }\n");
        assert!(has(&ast, 1, "str"));
    }

    #[test]
    fn cfg_test_region_tracked() {
        let src = "fn real() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let ast = Ast::parse("x.rs", src);
        assert!(!ast.in_test(1));
        assert!(ast.in_test(2) && ast.in_test(3), "attribute and item head");
        assert!(ast.in_test(4), "body of cfg(test) mod");
        assert!(ast.in_test(5), "closing brace");
        assert!(!ast.in_test(6), "after the mod closes");
    }

    #[test]
    fn cfg_test_attaches_to_the_next_item_only() {
        let src = "\
#[cfg(test)]
use std::collections::HashMap;

pub fn real(x: Option<f64>) -> bool {
    x.unwrap() == 0.0
}
struct S {
    #[cfg(test)]
    probe: HashMap<u8, u8>,
    live: u8,
}
#[cfg(test)]
#[derive(Debug)]
struct T<A, B> where A: Clone, B: Copy { a: A, b: B }
fn later() {}
";
        let ast = Ast::parse("x.rs", src);
        assert!(ast.in_test(1) && ast.in_test(2));
        assert!(!ast.in_test(4) && !ast.in_test(5), "a braceless item does not arm later code");
        assert!(ast.in_test(8) && ast.in_test(9));
        assert!(!ast.in_test(10), "a field attribute ends at its comma");
        assert!(ast.in_test(14) && !ast.in_test(15), "generics and where clauses");
    }

    #[test]
    fn inner_cfg_test_covers_its_module() {
        let ast = Ast::parse(
            "x.rs",
            "fn a() {}\nmod m {\n    #![cfg(test)]\n    fn b() {}\n}\nfn c() {}\n",
        );
        assert!(!ast.in_test(1) && ast.in_test(2) && ast.in_test(4) && !ast.in_test(6));
    }

    #[test]
    fn waivers_parsed_from_comments() {
        let ast = Ast::parse(
            "x.rs",
            "// audit:allow(hot-alloc, float-eq)\nlet x = y.to_vec();\nlet z = 1; // audit:allow(nan-guard)\n",
        );
        assert_eq!(ast.lines[0].waivers, vec!["hot-alloc", "float-eq"]);
        assert!(ast.waived(2, "hot-alloc"), "waiver on preceding line applies");
        assert!(ast.waived(2, "float-eq"));
        assert!(!ast.waived(2, "nan-guard"));
        assert!(ast.waived(3, "nan-guard"), "same-line waiver applies");
        assert_eq!(ast.waiver_line(3, "nan-guard"), Some(3));
        assert_eq!(ast.waiver_line(2, "hot-alloc"), Some(1));
    }

    #[test]
    fn doc_comments_do_not_declare_waivers() {
        let src = "\
/// Findings can be waived with `audit:allow(hot-alloc)` comments.
//! Module prose mentioning audit:allow(float-eq) is not a waiver.
/** Block doc
    audit:allow(nan-guard) on a continuation line is still prose. */
fn f() {}
let x = y.to_vec(); // audit:allow(hot-alloc)
/* plain block
   audit:allow(hot-alloc) */
";
        let ast = Ast::parse("x.rs", src);
        for line in 0..4 {
            assert!(ast.lines[line].waivers.is_empty(), "doc line {}", line + 1);
        }
        assert_eq!(ast.lines[5].waivers, vec!["hot-alloc"], "plain comments still waive");
        assert_eq!(ast.lines[7].waivers, vec!["hot-alloc"], "on the line that names it");
    }

    #[test]
    fn hot_path_regions_tracked() {
        let src = "\
fn cold() { work(); }
// audit:hot-path: begin — per-proposal delta update
fn hot(&mut self) {
    self.counts[i] += 1;
}
// audit:hot-path: end
fn cold_again() {}
/// Prose about `// audit:hot-path: begin` markers opens nothing.
fn still_cold() {}
";
        let ast = Ast::parse("x.rs", src);
        assert!(!ast.in_hot(1), "before the region");
        assert!(!ast.in_hot(2), "begin marker line itself is outside");
        assert!(ast.in_hot(3), "region body");
        assert!(ast.in_hot(5), "region body end");
        assert!(!ast.in_hot(6), "end marker line itself is outside");
        assert!(!ast.in_hot(7), "after the region");
        assert!(!ast.in_hot(9), "doc prose is not a marker");
    }
}
