//! Balanced token trees over the lexer's token stream.
//!
//! Brackets (`()`, `[]`, `{}`) nest into [`Group`]s; everything else stays
//! a leaf token. The builder is tolerant of imbalance (a truncated or
//! macro-mangled file closes whatever is open at EOF and drops stray
//! closers) — a linter must degrade, not die.

use super::lexer::{TokKind, Token};

/// Bracket family of a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delim {
    /// `( … )`
    Paren,
    /// `[ … ]`
    Bracket,
    /// `{ … }`
    Brace,
}

impl Delim {
    fn open(c: &str) -> Option<Self> {
        match c {
            "(" => Some(Delim::Paren),
            "[" => Some(Delim::Bracket),
            "{" => Some(Delim::Brace),
            _ => None,
        }
    }

    fn close(c: &str) -> Option<Self> {
        match c {
            ")" => Some(Delim::Paren),
            "]" => Some(Delim::Bracket),
            "}" => Some(Delim::Brace),
            _ => None,
        }
    }
}

/// A bracketed group with its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Bracket family.
    pub delim: Delim,
    /// 1-based line of the opening bracket.
    pub line: usize,
    /// 1-based column of the opening bracket.
    pub col: usize,
    /// 1-based line of the closing bracket (of the last token inside when
    /// the group is left open at end of file).
    pub end_line: usize,
    /// Child nodes in source order.
    pub children: Vec<Node>,
}

/// One node of the token tree: a leaf token or a bracketed group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// Non-bracket token.
    Tok(Token),
    /// Bracketed group.
    Group(Group),
}

impl Node {
    /// The leaf token, if this node is one.
    pub fn tok(&self) -> Option<&Token> {
        match self {
            Node::Tok(t) => Some(t),
            Node::Group(_) => None,
        }
    }

    /// The group, if this node is one.
    pub fn group(&self) -> Option<&Group> {
        match self {
            Node::Group(g) => Some(g),
            Node::Tok(_) => None,
        }
    }

    /// 1-based line of the node's first character.
    pub fn line(&self) -> usize {
        match self {
            Node::Tok(t) => t.line,
            Node::Group(g) => g.line,
        }
    }

    /// 1-based line of the node's last character (a group's closing
    /// bracket).
    pub fn end_line(&self) -> usize {
        match self {
            Node::Tok(t) => t.line,
            Node::Group(g) => g.end_line,
        }
    }

    /// True for a leaf punct with this exact text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.tok().is_some_and(|t| t.is_punct(text))
    }

    /// True for a leaf identifier with this exact text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.tok().is_some_and(|t| t.is_ident(text))
    }

    /// Identifier text, if this node is an identifier leaf.
    pub fn ident(&self) -> Option<&str> {
        match self.tok() {
            Some(t) if t.kind == TokKind::Ident => Some(&t.text),
            _ => None,
        }
    }
}

/// Open-group frame: header (`None` only for the bottom-level forest)
/// plus the children collected so far.
type Frame = (Option<(Delim, usize, usize)>, Vec<Node>);

/// Pops the innermost open group, closed on `end_line`, into its parent.
fn close_group(stack: &mut Vec<Frame>, end_line: usize) {
    let (header, children) = stack.pop().expect("caller keeps the bottom frame");
    let (delim, line, col) = header.expect("non-bottom frame has a header");
    stack
        .last_mut()
        .expect("bottom frame remains")
        .1
        .push(Node::Group(Group { delim, line, col, end_line, children }));
}

/// Builds the token forest from a flat token stream.
pub fn build(tokens: Vec<Token>) -> Vec<Node> {
    // Stack of open groups; the bottom Vec is the top-level forest.
    let mut stack: Vec<Frame> = vec![(None, Vec::new())];
    let mut last_line = 1;
    for tok in tokens {
        last_line = tok.line;
        if tok.kind == TokKind::Punct {
            if let Some(d) = Delim::open(&tok.text) {
                stack.push((Some((d, tok.line, tok.col)), Vec::new()));
                continue;
            }
            if Delim::close(&tok.text).is_some() {
                // Close the innermost group, keeping its opening delim
                // even on mismatch (recovery); on empty stack drop the
                // stray closer.
                if stack.len() > 1 {
                    close_group(&mut stack, tok.line);
                }
                continue;
            }
        }
        stack.last_mut().expect("stack never empty").1.push(Node::Tok(tok));
    }
    // Close anything left open at EOF, innermost first.
    while stack.len() > 1 {
        close_group(&mut stack, last_line);
    }
    stack.pop().expect("bottom frame").1
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::*;

    fn forest(src: &str) -> Vec<Node> {
        build(lex(src).0)
    }

    #[test]
    fn groups_nest() {
        let f = forest("fn f(a: u8) { g(a); }");
        // fn, f, (…), {…}
        assert!(f[0].is_ident("fn"));
        assert_eq!(f[2].group().unwrap().delim, Delim::Paren);
        let body = f[3].group().unwrap();
        assert_eq!(body.delim, Delim::Brace);
        assert!(body.children[0].is_ident("g"));
        assert_eq!(body.children[1].group().unwrap().delim, Delim::Paren);
    }

    #[test]
    fn imbalance_recovers() {
        // Unclosed brace and a stray closer both survive.
        let f = forest("fn f() { g(");
        assert!(!f.is_empty());
        let g = forest(") x");
        assert!(g.iter().any(|n| n.is_ident("x")));
    }

    #[test]
    fn group_records_open_position_and_closing_line() {
        let f = forest("a\n  (b\n\n)");
        let g = f[1].group().unwrap();
        assert_eq!((g.line, g.col, g.end_line), (2, 3, 4));
        assert_eq!(forest("{ x\n y")[0].end_line(), 2, "open at EOF");
    }
}
