//! Span-tracking lexer for one Rust source file — the audit's only lexer.
//!
//! Every token carries its 1-based line and column, and comments are kept
//! as *trivia* (with their own lines): the rules read `audit:allow(...)`
//! waivers, `audit:hot-path` region markers and `audit:unit(...)` /
//! `audit:atomic(...)` annotations out of them, and string, char and
//! comment text never reaches a rule as code. The lexer is deliberately
//! tolerant: it never fails, and anything it cannot classify becomes a
//! one-character punctuation token. That is the right trade-off for a
//! linter — a garbled region degrades to "no findings there", not a crash.

/// Token classification. Just enough structure for the rules;
/// no keyword table (rules match identifier text directly).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`self`, `let`, `fetch_add`, …).
    Ident,
    /// Lifetime (`'a`) — kept distinct so it cannot be confused with a
    /// char literal.
    Lifetime,
    /// Integer or float literal, including suffixed forms (`1.5e-6f64`).
    Number,
    /// String / raw-string / byte-string literal (text is the full
    /// literal including quotes).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Punctuation; multi-character operators the rules care about are
    /// glued (`::`, `->`, `=>`, `==`, `!=`, `<=`, `>=`, `&&`, `||`,
    /// `..=`, `..`, and the compound assignments `+=` `-=` `*=` `/=`).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Exact source text.
    pub text: String,
    /// 1-based line of the first character.
    pub line: usize,
    /// 1-based column (in characters) of the first character.
    pub col: usize,
}

impl Token {
    /// True for a punctuation token with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }

    /// True for an identifier token with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// Column just past the last character (for adjacency checks).
    pub fn end_col(&self) -> usize {
        self.col + self.text.chars().count()
    }
}

/// One comment, kept as trivia. Block comments spanning several lines are
/// recorded at their *starting* line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Comment text including the leader (`// …` or `/* … */`).
    pub text: String,
    /// 1-based line of the first character.
    pub line: usize,
}

/// Operators glued into a single punct token, longest first.
const GLUED: &[&str] = &[
    "..=", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "+=", "-=", "*=", "/=",
];

/// Lexes `text` into tokens plus comment trivia. Never fails.
// One flat scan loop on purpose: splitting it would thread the line/col
// bookkeeping and the shared cursor through every helper.
#[allow(clippy::cognitive_complexity)]
pub fn lex(text: &str) -> (Vec<Token>, Vec<Comment>) {
    let chars: Vec<char> = text.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    let mut col = 1usize;

    // Advances past `n` characters, updating line/col bookkeeping.
    macro_rules! bump {
        ($n:expr) => {{
            for _ in 0..$n {
                if chars[i] == '\n' {
                    line += 1;
                    col = 1;
                } else {
                    col += 1;
                }
                i += 1;
            }
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol) = (line, col);

        // Whitespace.
        if c.is_whitespace() {
            bump!(1);
            continue;
        }

        // Line comment (also covers `///` and `//!` docs).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = i;
            while i < chars.len() && chars[i] != '\n' {
                bump!(1);
            }
            comments.push(Comment { text: chars[start..i].iter().collect(), line: tline });
            continue;
        }

        // Block comment, nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = i;
            let mut depth = 0u32;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    bump!(2);
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    bump!(2);
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump!(1);
                }
            }
            comments.push(Comment { text: chars[start..i].iter().collect(), line: tline });
            continue;
        }

        // Raw / byte strings: r"…", r#"…"#, b"…", br#"…"#.
        if matches!(c, 'r' | 'b') {
            if let Some(len) = raw_or_byte_string_len(&chars, i) {
                let text: String = chars[i..i + len].iter().collect();
                bump!(len);
                toks.push(Token { kind: TokKind::Str, text, line: tline, col: tcol });
                continue;
            }
        }

        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                bump!(1);
            }
            toks.push(Token {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Number literal.
        if c.is_ascii_digit() {
            let len = number_len(&chars, i);
            let text: String = chars[i..i + len].iter().collect();
            bump!(len);
            toks.push(Token { kind: TokKind::Number, text, line: tline, col: tcol });
            continue;
        }

        // Ordinary string.
        if c == '"' {
            let len = quoted_len(&chars, i, '"');
            let text: String = chars[i..i + len].iter().collect();
            bump!(len);
            toks.push(Token { kind: TokKind::Str, text, line: tline, col: tcol });
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            if let Some(len) = char_literal_len(&chars, i) {
                let text: String = chars[i..i + len].iter().collect();
                bump!(len);
                toks.push(Token { kind: TokKind::Char, text, line: tline, col: tcol });
            } else {
                // Lifetime: `'` + identifier.
                let start = i;
                bump!(1);
                while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    bump!(1);
                }
                toks.push(Token {
                    kind: TokKind::Lifetime,
                    text: chars[start..i].iter().collect(),
                    line: tline,
                    col: tcol,
                });
            }
            continue;
        }

        // Glued multi-character operator.
        if let Some(op) = GLUED.iter().find(|op| {
            op.chars().enumerate().all(|(k, oc)| chars.get(i + k) == Some(&oc))
        }) {
            bump!(op.chars().count());
            toks.push(Token {
                kind: TokKind::Punct,
                text: (*op).to_string(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Single-character punct (fallback for anything else).
        bump!(1);
        toks.push(Token { kind: TokKind::Punct, text: c.to_string(), line: tline, col: tcol });
    }

    (toks, comments)
}

/// Length of a raw/byte string literal starting at `i`, if one starts
/// there (`r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `br"…"`).
fn raw_or_byte_string_len(chars: &[char], i: usize) -> Option<usize> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    let raw = chars.get(j) == Some(&'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    if raw {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) != Some(&'"') {
        return None;
    }
    // Plain `b"…"` is an escaped string; `r…` ends at `"` + hashes.
    if !raw {
        if j == i {
            return None; // plain `"` handled elsewhere
        }
        return Some(j - i + quoted_len(chars, j, '"'));
    }
    j += 1;
    while j < chars.len() {
        if chars[j] == '"' && (0..hashes).all(|k| chars.get(j + 1 + k) == Some(&'#')) {
            return Some(j + 1 + hashes - i);
        }
        j += 1;
    }
    Some(chars.len() - i)
}

/// Length of an escape-aware quoted literal starting at `i` (which must be
/// the opening quote).
fn quoted_len(chars: &[char], i: usize, quote: char) -> usize {
    let mut j = i + 1;
    while j < chars.len() {
        match chars[j] {
            '\\' => j += 2,
            c if c == quote => return j + 1 - i,
            _ => j += 1,
        }
    }
    chars.len() - i
}

/// Length of a char literal starting at the `'` at `i`, or `None` when the
/// quote starts a lifetime instead.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escaped char; scan to the closing quote (covers `\u{…}`).
            let mut j = i + 2;
            while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                j += 1;
            }
            (chars.get(j) == Some(&'\'')).then_some(j + 1 - i)
        }
        c if c.is_alphanumeric() || *c == '_' => {
            // `'a'` is a char only when immediately closed; `'a` (no
            // close) is a lifetime.
            (chars.get(i + 2) == Some(&'\'')).then_some(3)
        }
        '\'' => None, // `''` — malformed; let punct fallback eat it
        _ => {
            // Punctuation char literal like `'('`.
            (chars.get(i + 2) == Some(&'\'')).then_some(3)
        }
    }
}

/// Length of a number literal starting at the digit at `i`: integer part,
/// optional fraction (not a `..` range, not a method call `1.max`),
/// optional exponent, optional type suffix, hex/octal/binary forms.
fn number_len(chars: &[char], i: usize) -> usize {
    let mut j = i;
    let digit_run = |chars: &[char], mut k: usize, hex: bool| {
        while k < chars.len()
            && (chars[k].is_ascii_digit()
                || chars[k] == '_'
                || (hex && chars[k].is_ascii_hexdigit()))
        {
            k += 1;
        }
        k
    };
    let hex = chars.get(j) == Some(&'0')
        && matches!(chars.get(j + 1), Some('x' | 'X' | 'o' | 'b'));
    if hex {
        j = digit_run(chars, j + 2, true);
        // Type suffix (`0xFFu64`) is consumed by the hexdigit run already
        // for hex; consume any remaining ident chars.
        while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
            j += 1;
        }
        return j - i;
    }
    j = digit_run(chars, j, false);
    if chars.get(j) == Some(&'.') {
        let after = chars.get(j + 1).copied();
        let is_range = after == Some('.');
        let is_method = after.is_some_and(|c| c.is_alphabetic() || c == '_');
        if !is_range && !is_method {
            j = digit_run(chars, j + 1, false);
        }
    }
    if matches!(chars.get(j), Some('e' | 'E')) {
        let mut k = j + 1;
        if matches!(chars.get(k), Some('+' | '-')) {
            k += 1;
        }
        if chars.get(k).is_some_and(char::is_ascii_digit) {
            j = digit_run(chars, k, false);
        }
    }
    // Type suffix: `1f64`, `3usize`.
    while j < chars.len() && (chars[j].is_alphanumeric() || chars[j] == '_') {
        j += 1;
    }
    j - i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src).0.into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_numbers_and_glued_puncts() {
        let toks = kinds("let x = a.fetch_add(1, Ordering::Relaxed);");
        assert!(toks.contains(&(TokKind::Ident, "fetch_add".into())));
        assert!(toks.contains(&(TokKind::Punct, "::".into())));
        assert!(toks.contains(&(TokKind::Number, "1".into())));
    }

    #[test]
    fn float_literals_ranges_and_method_calls() {
        assert!(kinds("1.5e-6f64").contains(&(TokKind::Number, "1.5e-6f64".into())));
        let range = kinds("0..n");
        assert!(range.contains(&(TokKind::Number, "0".into())));
        assert!(range.contains(&(TokKind::Punct, "..".into())));
        let method = kinds("3.max(k)");
        assert!(method.contains(&(TokKind::Number, "3".into())));
        assert!(method.contains(&(TokKind::Ident, "max".into())));
    }

    #[test]
    fn comments_are_trivia_with_lines() {
        let (toks, comments) = lex("let a = 1; // audit:atomic(contract)\nb();\n");
        assert_eq!(comments.len(), 1);
        assert_eq!(comments[0].line, 1);
        assert!(comments[0].text.contains("audit:atomic(contract)"));
        assert!(toks.iter().any(|t| t.is_ident("b") && t.line == 2));
    }

    #[test]
    fn strings_and_chars_do_not_leak_tokens() {
        let toks = kinds("let s = \"a.unwrap() / b\"; let q = '\"'; f();");
        assert!(!toks.iter().any(|(_, t)| t == "unwrap"));
        assert!(toks.iter().any(|(k, t)| *k == TokKind::Char && t == "'\"'"));
        assert!(toks.iter().any(|(_, t)| t == "f"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) {}");
        assert!(toks.contains(&(TokKind::Lifetime, "'a".into())));
    }

    #[test]
    fn raw_strings_span_hash_fences() {
        let toks = kinds("let s = r#\"panic! \"inner\" \"#; g();");
        assert!(!toks.iter().any(|(_, t)| t == "panic"));
        assert!(toks.iter().any(|(_, t)| t == "g"));
    }

    #[test]
    fn spans_track_lines_and_columns() {
        let (toks, _) = lex("ab\n  cd");
        let cd = toks.iter().find(|t| t.is_ident("cd")).unwrap();
        assert_eq!((cd.line, cd.col), (2, 3));
        assert_eq!(cd.end_col(), 5);
    }
}
