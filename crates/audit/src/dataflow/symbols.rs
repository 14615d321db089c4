//! Workspace-wide function symbol table.
//!
//! Pass 1 of the interprocedural analyses: walk every parsed file's token
//! forest and record each `fn` item with a body — free functions, inherent
//! methods (tagged with their `impl` type), and trait impl methods.
//! Trait *declarations* (`fn f(…);` without a body) are skipped: there is
//! nothing to analyze and resolving calls to them would only add noise.
//!
//! Resolution is name-based with arity filtering and owner-type
//! preference — see [`SymbolTable::resolve`] for the exact tiering and
//! `DESIGN.md` §14 for the soundness caveats. There is no type inference:
//! a method call resolves to *every* same-name same-arity method in the
//! workspace when the receiver type is unknown.

use std::collections::HashMap;

use crate::ast::tree::{Delim, Group, Node};
use crate::ast::{Ast, TokKind};

/// Index of a function in [`SymbolTable::fns`].
pub type FnId = usize;

/// One function definition with a body.
#[derive(Debug)]
pub struct FnDef {
    /// Function name (last path segment as written at the definition).
    pub name: String,
    /// Workspace-relative path of the defining file.
    pub file: String,
    /// 1-based line of the `fn` name token.
    pub line: usize,
    /// Parameter names in order, excluding any `self` receiver. A
    /// parameter bound by a destructuring pattern gets an empty name.
    pub params: Vec<String>,
    /// Declared parameter types, parallel to `params`, rendered via
    /// `type_text` (container detection only).
    pub param_tys: Vec<String>,
    /// True for methods taking `self` (by value or reference).
    pub has_self: bool,
    /// The `impl` type this method belongs to, when directly inside an
    /// `impl` block (`impl Cluster { fn new … }` → `Some("Cluster")`).
    pub owner: Option<String>,
    /// True when the definition sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// The body token tree (cloned out of the file's forest).
    pub body: Group,
}

impl FnDef {
    /// Number of declared parameters, excluding `self`.
    pub fn arity(&self) -> usize {
        self.params.len()
    }
}

/// One named field of a struct declaration.
#[derive(Debug)]
pub struct FieldDef {
    /// Field name as written.
    pub name: String,
    /// 1-based line of the field-name token.
    pub line: usize,
    /// Declared type rendered as space-joined tokens (groups flattened) —
    /// enough for container detection, not a parseable type.
    pub ty: String,
}

/// One `struct Name { … }` declaration with named fields. Tuple structs,
/// unit structs, and enums are not collected: the field-coverage analyses
/// need named fields to cross-check against `self.<field>` accesses.
#[derive(Debug)]
pub struct StructDef {
    /// Struct name.
    pub name: String,
    /// Workspace-relative path of the declaring file.
    pub file: String,
    /// 1-based line of the struct-name token.
    pub line: usize,
    /// Declared fields in order.
    pub fields: Vec<FieldDef>,
    /// True when the declaration sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
}

/// All function definitions across the linted file set, indexed by name.
pub struct SymbolTable {
    /// Every collected definition; a [`FnId`] indexes this vector.
    pub fns: Vec<FnDef>,
    /// Every named-field struct declaration across the file set.
    pub structs: Vec<StructDef>,
    by_name: HashMap<String, Vec<FnId>>,
}

/// How a call site spells its callee — drives resolution tiering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(args)` — prefer methods (`self` receivers).
    Method,
    /// `Qualifier::name(args)` — prefer methods owned by `Qualifier`.
    Qualified,
    /// Bare `name(args)` — prefer free functions.
    Free,
}

impl SymbolTable {
    /// Builds the table over every parsed file.
    pub fn build(files: &[Ast]) -> Self {
        let mut fns = Vec::new();
        let mut structs = Vec::new();
        for ast in files {
            collect(&ast.nodes, ast, None, &mut fns);
            collect_structs(&ast.nodes, ast, &mut structs);
        }
        let mut by_name: HashMap<String, Vec<FnId>> = HashMap::new();
        for (id, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(id);
        }
        SymbolTable { fns, structs, by_name }
    }

    /// The non-test struct declaration named `name`, preferring one in
    /// `prefer_file` (the file its methods were found in). Returns `None`
    /// when the name is unknown, or ambiguous across files with no
    /// same-file candidate — analyses must skip rather than guess.
    pub fn struct_named(&self, name: &str, prefer_file: &str) -> Option<&StructDef> {
        let mut candidates = self
            .structs
            .iter()
            .filter(|s| s.name == name && !s.in_test);
        let first = candidates.next()?;
        match candidates.next() {
            None => Some(first),
            Some(_) => self
                .structs
                .iter()
                .find(|s| s.name == name && !s.in_test && s.file == prefer_file),
        }
    }

    /// Resolves a call to its candidate definitions, most specific tier
    /// first; an empty result means the callee is outside the workspace
    /// (std, vendored shims) or not a plain `fn` (closure, fn pointer).
    ///
    /// Tiering: (1) when the call is `Type::name(…)` and some candidate's
    /// `impl` owner matches `Type`, only those; a qualifier that matches
    /// *no* owner but starts uppercase is a foreign type and resolves to
    /// nothing (so `Vec::new()` never aliases a workspace `new`). A
    /// lowercase qualifier is a module path and falls through. (2) among
    /// the remaining candidates, exact arity matches win — `argc` against
    /// `arity()` for method calls and free functions, and additionally
    /// `arity()+1` for qualified calls passing the receiver explicitly.
    /// (3) otherwise every remaining candidate (tolerant fallback), so a
    /// default-argument-style wrapper mismatch degrades to over-reporting
    /// edges rather than silently dropping them.
    ///
    /// Exception to the tolerance: a bare `recv.name(…)` whose name
    /// collides with a ubiquitous std container method
    /// (`STD_COLLIDING_METHODS`) resolves to nothing — receiver-blind
    /// matching would attribute every `vec.push(x)` in the workspace to
    /// any workspace method that happens to be called `push`. Qualified
    /// calls (`Type::name(recv, …)`) still resolve, so such methods stay
    /// reachable when spelled unambiguously.
    pub fn resolve(&self, name: &str, argc: usize, qualifier: Option<&str>, kind: CallKind) -> Vec<FnId> {
        if kind == CallKind::Method && STD_COLLIDING_METHODS.contains(&name) {
            return Vec::new();
        }
        let Some(all) = self.by_name.get(name) else { return Vec::new() };
        let mut set: Vec<FnId> = all.clone();
        if let Some(q) = qualifier {
            let owned: Vec<FnId> =
                set.iter().copied().filter(|&id| self.fns[id].owner.as_deref() == Some(q)).collect();
            if !owned.is_empty() {
                set = owned;
            } else if q.starts_with(|c: char| c.is_ascii_uppercase()) {
                return Vec::new(); // foreign type's associated fn
            }
        }
        match kind {
            CallKind::Method => {
                set.retain(|&id| self.fns[id].has_self);
            }
            CallKind::Free => {
                set.retain(|&id| !self.fns[id].has_self);
            }
            CallKind::Qualified => {}
        }
        let exact: Vec<FnId> = set
            .iter()
            .copied()
            .filter(|&id| {
                let f = &self.fns[id];
                f.arity() == argc
                    || (kind == CallKind::Qualified && f.has_self && f.arity() + 1 == argc)
            })
            .collect();
        if exact.is_empty() {
            set
        } else {
            exact
        }
    }

    /// Every definition sharing `name`, regardless of arity — used for
    /// return-summary lookups where the argument count is unknown.
    pub fn by_name(&self, name: &str) -> &[FnId] {
        self.by_name.get(name).map_or(&[], Vec::as_slice)
    }
}

/// Method names that collide with ubiquitous std container / iterator
/// methods (`Vec::push`, `HashMap::insert`, `Option::take`, …). A bare
/// `recv.name(…)` call with one of these names is overwhelmingly the std
/// method, so method-call resolution skips them (see
/// [`SymbolTable::resolve`]).
pub(crate) const STD_COLLIDING_METHODS: &[&str] = &[
    "push", "pop", "insert", "remove", "append", "extend", "clear", "contains", "get", "take",
    "next",
];

/// Keywords that can be followed by a parenthesized expression and must
/// never be read as a callee or a function name.
pub(crate) const KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "return", "for", "loop", "in", "as", "move", "let", "mut",
    "ref", "break", "continue", "unsafe", "async", "await", "fn", "impl", "where", "pub", "use",
    "mod", "struct", "enum", "trait", "type", "const", "static", "dyn", "self", "Self", "super",
    "crate", "true", "false",
];

/// Maps each brace-group index in `run` that is an `impl` body to the
/// implemented type's name (`impl Foo { … }`, `impl Trait for Foo { … }`).
fn impl_bodies(run: &[Node]) -> HashMap<usize, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < run.len() {
        if !run[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // `impl` in type position (`-> impl Iterator`, `x: impl Fn()`,
        // `type X = impl T`) opens no body; only item-position `impl`
        // blocks do.
        let type_position = i > 0
            && run[i - 1]
                .tok()
                .is_some_and(|t| matches!(t.text.as_str(), "->" | ":" | "=" | "&" | "+" | ","));
        if type_position {
            i += 1;
            continue;
        }
        let mut angle = 0i32;
        let mut name: Option<String> = None;
        let mut j = i + 1;
        while j < run.len() {
            match &run[j] {
                Node::Tok(t) if t.is_punct("<") => angle += 1,
                Node::Tok(t) if t.is_punct(">") => angle -= 1,
                Node::Tok(t) if t.is_ident("for") && angle == 0 => name = None,
                Node::Tok(t) if t.kind == TokKind::Ident && angle == 0 && name.is_none() => {
                    let keyword = KEYWORDS.contains(&t.text.as_str());
                    // Skip path-prefix segments (`impl coca_core::Cluster`).
                    let prefixed = run.get(j + 1).is_some_and(|n| n.is_punct("::"));
                    if !keyword && !prefixed {
                        name = Some(t.text.clone());
                    }
                }
                Node::Group(g) if g.delim == Delim::Brace => {
                    if let Some(n) = name.take() {
                        out.insert(j, n);
                    }
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        i = j.max(i + 1);
    }
    out
}

/// Walks one run, recording `fn` items and recursing into child groups
/// with the right `impl` owner.
fn collect(run: &[Node], file: &Ast, owner: Option<&str>, out: &mut Vec<FnDef>) {
    let impls = impl_bodies(run);
    for (i, n) in run.iter().enumerate() {
        if let Node::Group(g) = n {
            // Only a direct impl body confers ownership; any other group
            // (a fn body, a mod) starts a fresh scope.
            collect(&g.children, file, impls.get(&i).map(String::as_str), out);
        } else if n.is_ident("fn") {
            if let Some(def) = parse_fn(run, i, file, owner) {
                out.push(def);
            }
        }
    }
}

/// Parses the `fn` item whose `fn` keyword sits at `run[at]`. Returns
/// `None` for bodyless declarations and `fn(…)` pointer types.
fn parse_fn(run: &[Node], at: usize, file: &Ast, owner: Option<&str>) -> Option<FnDef> {
    let name_tok = run.get(at + 1)?.tok()?;
    if name_tok.kind != TokKind::Ident || KEYWORDS.contains(&name_tok.text.as_str()) {
        return None; // `fn(u8) -> u8` type syntax, or recovery junk
    }
    let mut angle = 0i32;
    let mut params: Option<&Group> = None;
    for node in run.iter().skip(at + 2) {
        match node {
            Node::Tok(t) if t.is_punct("<") => angle += 1,
            Node::Tok(t) if t.is_punct(">") => angle -= 1,
            Node::Tok(t) if t.is_punct(";") && angle == 0 => return None, // trait decl
            Node::Group(g) if g.delim == Delim::Paren && angle == 0 && params.is_none() => {
                params = Some(g);
            }
            Node::Group(g) if g.delim == Delim::Brace && angle == 0 => {
                let p = params?;
                let (names, tys, has_self) = param_names(p);
                let line = name_tok.line;
                return Some(FnDef {
                    name: name_tok.text.clone(),
                    file: file.path.clone(),
                    line,
                    params: names,
                    param_tys: tys,
                    has_self,
                    owner: owner.map(str::to_string),
                    in_test: file.in_test(line),
                    body: g.clone(),
                });
            }
            _ => {}
        }
    }
    None
}

/// Walks one run collecting `struct Name { … }` declarations, recursing
/// into every child group (modules; structs inside fn bodies too).
fn collect_structs(run: &[Node], file: &Ast, out: &mut Vec<StructDef>) {
    for (i, n) in run.iter().enumerate() {
        if let Node::Group(g) = n {
            collect_structs(&g.children, file, out);
        } else if n.is_ident("struct") {
            if let Some(def) = parse_struct(run, i, file) {
                out.push(def);
            }
        }
    }
}

/// Parses the struct whose `struct` keyword sits at `run[at]`. Returns
/// `None` for tuple structs (`struct P(f64);`), unit structs, and
/// recovery junk. Generic parameters and `where` clauses are skipped via
/// angle-depth tracking (the lexer never glues `>>`, so depth bookkeeping
/// is exact in type position).
fn parse_struct(run: &[Node], at: usize, file: &Ast) -> Option<StructDef> {
    let name_tok = run.get(at + 1)?.tok()?;
    if name_tok.kind != TokKind::Ident || KEYWORDS.contains(&name_tok.text.as_str()) {
        return None;
    }
    let mut angle = 0i32;
    let mut in_where = false;
    for node in run.iter().skip(at + 2) {
        match node {
            Node::Tok(t) if t.is_punct("<") => angle += 1,
            Node::Tok(t) if t.is_punct(">") => angle -= 1,
            Node::Tok(t) if t.is_ident("where") && angle == 0 => in_where = true,
            Node::Tok(t) if t.is_punct(";") && angle == 0 => return None, // unit struct
            // A paren group in head position is a tuple struct; inside a
            // `where` clause it is an `Fn(…)` bound and decides nothing.
            Node::Group(g) if g.delim == Delim::Paren && angle == 0 && !in_where => return None,
            Node::Group(g) if g.delim == Delim::Brace && angle == 0 => {
                return Some(StructDef {
                    name: name_tok.text.clone(),
                    file: file.path.clone(),
                    line: name_tok.line,
                    fields: parse_struct_fields(g),
                    in_test: file.in_test(name_tok.line),
                });
            }
            _ => {}
        }
    }
    None
}

/// Splits on commas at angle depth 0 — a plain
/// [`crate::ast::visit::split_commas`] would split inside `HashMap<K, V>`
/// generics. The lexer never glues `>>`, so single-`>` depth tracking is
/// exact.
fn split_commas_outside_generics(children: &[Node]) -> Vec<&[Node]> {
    let mut slices: Vec<&[Node]> = Vec::new();
    let mut angle = 0i32;
    let mut start = 0;
    for (i, n) in children.iter().enumerate() {
        if n.is_punct("<") {
            angle += 1;
        } else if n.is_punct(">") {
            angle -= 1;
        } else if n.is_punct(",") && angle == 0 {
            slices.push(&children[start..i]);
            start = i + 1;
        }
    }
    slices.push(&children[start..]);
    slices
}

/// Splits a struct body on commas outside generics and extracts
/// `[pub] name: Type` fields.
fn parse_struct_fields(body: &Group) -> Vec<FieldDef> {
    let mut fields = Vec::new();
    for slice in split_commas_outside_generics(&body.children) {
        let mut k = 0;
        // Skip `#[…]` attributes and the optional `pub` / `pub(crate)`.
        while slice.get(k).is_some_and(|n| n.is_punct("#"))
            && slice.get(k + 1).and_then(Node::group).is_some_and(|g| g.delim == Delim::Bracket)
        {
            k += 2;
        }
        if slice.get(k).is_some_and(|n| n.is_ident("pub")) {
            k += 1;
            if slice.get(k).and_then(Node::group).is_some_and(|g| g.delim == Delim::Paren) {
                k += 1;
            }
        }
        let Some(name_tok) = slice.get(k).and_then(Node::tok) else { continue };
        if name_tok.kind != TokKind::Ident || !slice.get(k + 1).is_some_and(|n| n.is_punct(":")) {
            continue;
        }
        fields.push(FieldDef {
            name: name_tok.text.clone(),
            line: name_tok.line,
            ty: type_text(&slice[k + 2..]),
        });
    }
    fields
}

/// Renders a type slice as space-joined token texts, flattening groups —
/// `Mutex<HashMap<(u32, usize), f64>>` → `"Mutex < HashMap < ( u32 ,
/// usize ) , f64 > >"`. Container detection substring-matches this.
pub(crate) fn type_text(nodes: &[Node]) -> String {
    let mut out = String::new();
    fn push(nodes: &[Node], out: &mut String) {
        for n in nodes {
            match n {
                Node::Tok(t) => {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(&t.text);
                }
                Node::Group(g) => {
                    let (o, c) = match g.delim {
                        Delim::Paren => ("(", ")"),
                        Delim::Bracket => ("[", "]"),
                        Delim::Brace => ("{", "}"),
                    };
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(o);
                    push(&g.children, out);
                    out.push(' ');
                    out.push_str(c);
                }
            }
        }
    }
    push(nodes, &mut out);
    out
}

/// Extracts parameter names from a params group. `self` (with optional
/// `&`/`mut` prefixes) is reported separately, not as a parameter.
fn param_names(params: &Group) -> (Vec<String>, Vec<String>, bool) {
    let mut names = Vec::new();
    let mut tys = Vec::new();
    let mut has_self = false;
    for (idx, slice) in split_commas_outside_generics(&params.children).iter().enumerate() {
        if slice.is_empty() {
            continue;
        }
        // Name = last identifier before the first top-level `:` (skips
        // `mut` / `ref` prefixes); `self` receivers have no `:` at all.
        let colon = slice.iter().position(|n| n.is_punct(":"));
        let head = &slice[..colon.unwrap_or(slice.len())];
        if idx == 0 && colon.is_none() && head.iter().any(|n| n.is_ident("self")) {
            has_self = true;
            continue;
        }
        let name = head
            .iter()
            .rev()
            .find_map(Node::ident)
            .filter(|n| !matches!(*n, "mut" | "ref"))
            .unwrap_or_default();
        names.push(name.to_string());
        tys.push(colon.map_or_else(String::new, |c| type_text(&slice[c + 1..])));
    }
    (names, tys, has_self)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(src: &str) -> SymbolTable {
        SymbolTable::build(&[Ast::parse("crates/core/src/x.rs", src)])
    }

    #[test]
    fn free_fns_and_methods_collected() {
        let t = table(
            "fn helper(a_kwh: f64, b: f64) -> f64 { a_kwh }\n\
             struct Cluster;\n\
             impl Cluster {\n    fn new(n: usize) -> Self { Cluster }\n\
                 fn step(&mut self, dt: f64) {}\n}\n",
        );
        assert_eq!(t.fns.len(), 3);
        let helper = &t.fns[t.by_name("helper")[0]];
        assert_eq!(helper.params, vec!["a_kwh", "b"]);
        assert!(!helper.has_self);
        assert_eq!(helper.owner, None);
        let new = &t.fns[t.by_name("new")[0]];
        assert_eq!(new.owner.as_deref(), Some("Cluster"));
        assert!(!new.has_self);
        let step = &t.fns[t.by_name("step")[0]];
        assert!(step.has_self);
        assert_eq!(step.params, vec!["dt"]);
    }

    #[test]
    fn trait_impl_owner_is_the_implementing_type() {
        let t = table("impl Display for Report {\n    fn fmt(&self, f: &mut F) -> R { todo() }\n}\n");
        assert_eq!(t.fns[0].owner.as_deref(), Some("Report"));
    }

    #[test]
    fn bodyless_decls_and_fn_pointer_types_skipped() {
        let t = table("trait T {\n    fn required(&self);\n}\nfn taker(f: fn(u8) -> u8) {}\n");
        assert_eq!(t.fns.len(), 1);
        assert_eq!(t.fns[0].name, "taker");
        assert_eq!(t.fns[0].params, vec!["f"]);
    }

    #[test]
    fn generics_do_not_confuse_param_detection() {
        let t = table("fn g<T: Into<Vec<u8>>>(xs: T, n_kw: f64) -> f64 where T: Clone { n_kw }\n");
        assert_eq!(t.fns[0].params, vec!["xs", "n_kw"]);
    }

    #[test]
    fn resolution_tiers_by_owner_and_arity() {
        let t = table(
            "impl A {\n    fn make(x: u8) -> A { A }\n}\n\
             impl B {\n    fn make(x: u8, y: u8) -> B { B }\n}\n\
             fn make() -> u8 { 0 }\n",
        );
        // Owner match beats everything.
        let a = t.resolve("make", 1, Some("A"), CallKind::Qualified);
        assert_eq!(a.len(), 1);
        assert_eq!(t.fns[a[0]].owner.as_deref(), Some("A"));
        // Unknown uppercase qualifier: foreign type, no edges.
        assert!(t.resolve("make", 0, Some("Vec"), CallKind::Qualified).is_empty());
        // Bare call prefers free fns of matching arity.
        let free = t.resolve("make", 0, None, CallKind::Free);
        assert_eq!(free.len(), 1);
        assert_eq!(t.fns[free[0]].owner, None);
        // Unknown name resolves to nothing.
        assert!(t.resolve("absent", 0, None, CallKind::Free).is_empty());
    }

    #[test]
    fn nested_fns_in_bodies_are_collected_without_owner() {
        let t = table("impl A {\n    fn outer(&self) {\n        fn inner(k: u8) {}\n    }\n}\n");
        let inner = &t.fns[t.by_name("inner")[0]];
        assert_eq!(inner.owner, None);
        assert_eq!(t.fns[t.by_name("outer")[0]].owner.as_deref(), Some("A"));
    }

    #[test]
    fn return_position_impl_is_not_an_impl_block() {
        let t = table(
            "fn it() -> impl Iterator<Item = u8> {\n    fn inner() {}\n    empty()\n}\n",
        );
        assert_eq!(t.fns[t.by_name("inner")[0]].owner, None);
        assert_eq!(t.fns[t.by_name("it")[0]].params, Vec::<String>::new());
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let t = table("fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n");
        assert!(!t.fns[t.by_name("real")[0]].in_test);
        assert!(t.fns[t.by_name("helper")[0]].in_test);
    }

    #[test]
    fn struct_fields_collected_with_types() {
        let t = table(
            "pub struct Engine {\n    pub t: usize,\n    #[allow(dead_code)]\n    \
             index: std::collections::HashMap<String, u32>,\n    \
             lanes: Vec<(usize, f64)>,\n}\n",
        );
        let s = t.struct_named("Engine", "crates/core/src/x.rs").expect("Engine indexed");
        let names: Vec<&str> = s.fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["t", "index", "lanes"]);
        assert!(s.fields[1].ty.contains("HashMap"), "{:?}", s.fields[1]);
        assert!(s.fields[2].ty.contains("Vec"), "{:?}", s.fields[2]);
        assert_eq!(s.fields[0].line, 2);
    }

    #[test]
    fn unit_tuple_and_where_structs_are_not_field_structs() {
        let t = table(
            "struct Unit;\nstruct Pair(f64, f64);\n\
             struct Bound<F> where F: Fn(u8) -> u8 { f: F }\n",
        );
        assert!(t.struct_named("Unit", "crates/core/src/x.rs").is_none());
        assert!(t.struct_named("Pair", "crates/core/src/x.rs").is_none());
        // The where-clause `Fn(u8)` parens must not read as a tuple struct.
        let b = t.struct_named("Bound", "crates/core/src/x.rs").expect("Bound indexed");
        assert_eq!(b.fields.len(), 1);
        assert_eq!(b.fields[0].name, "f");
    }

    #[test]
    fn ambiguous_struct_names_resolve_same_file_or_not_at_all() {
        let t = SymbolTable::build(&[
            Ast::parse("crates/core/src/a.rs", "struct S { x: f64 }\n"),
            Ast::parse("crates/core/src/b.rs", "struct S { y: f64 }\n"),
        ]);
        let same = t.struct_named("S", "crates/core/src/b.rs").expect("same-file candidate");
        assert_eq!(same.fields[0].name, "y");
        assert!(t.struct_named("S", "crates/core/src/other.rs").is_none());
    }

    #[test]
    fn param_types_recorded_alongside_names() {
        let t = table(
            "fn f(m: &std::collections::HashMap<u32, u32>, n: usize) -> usize { n }\n\
             struct K;\nimpl K {\n    fn g(&self, xs: Vec<f64>) {}\n}\n",
        );
        let f = &t.fns[t.by_name("f")[0]];
        assert_eq!(f.params, vec!["m", "n"]);
        assert!(f.param_tys[0].contains("HashMap"), "{:?}", f.param_tys);
        assert_eq!(f.param_tys[1], "usize");
        let g = &t.fns[t.by_name("g")[0]];
        assert!(g.has_self);
        assert!(g.param_tys[0].contains("Vec"), "{:?}", g.param_tys);
    }
}
