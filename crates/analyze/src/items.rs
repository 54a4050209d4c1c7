//! Item extraction: token stream → per-file function inventory.
//!
//! A deliberately lightweight structural parser. It does not build an
//! AST; it walks the non-trivia token stream once, tracking a scope
//! stack (modules, `impl` blocks, functions, loops, plain blocks) by
//! brace matching, and records for every `fn` item:
//!
//! - its module path, owner type (for `impl Type` methods), and line,
//! - whether it is test-only code (`#[cfg(test)]` module / `#[test]`
//!   attribute / `tests/` file),
//! - the token range of its body,
//! - every call site in the body (bare calls, path calls with their
//!   last qualifier segment, method calls), and
//! - the token ranges of loop bodies (`for`/`while`/`loop`), which the
//!   alloc-in-hot-loop pass scans.
//!
//! Approximations are deliberate and always *over*-approximate the
//! call relation (a finding pass built on this can report a false
//! positive that the baseline absorbs, but a nondeterminism source
//! cannot hide behind a call the parser failed to see): `impl Trait
//! for Type` methods belong to `Type`; calls resolve by name; braces
//! inside parenthesized positions (closure bodies in arguments) do not
//! open scopes but their calls still belong to the enclosing function.

use crate::lexer::{lex, LineIndex, Token, TokenKind};

/// Rust keywords that can precede `(` without being calls.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield",
];

/// One call site inside a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Call {
    /// Callee name (last path segment for `a::b::c(...)`).
    pub name: String,
    /// For `Qual::name(...)`: the segment right before the callee
    /// (`Qual`). `None` for bare and method calls.
    pub qualifier: Option<String>,
    /// `true` for `.name(...)` method calls.
    pub method: bool,
    pub line: usize,
}

/// One extracted `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Workspace-relative file path (`/`-separated).
    pub file: String,
    /// Enclosing in-file module path (`a::b`; empty at file level).
    pub module: String,
    /// Owner type for `impl` methods (`impl Foo` / `impl T for Foo`).
    pub owner: Option<String>,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Test-only code: `#[cfg(test)]` module, `#[test]` fn, or a file
    /// under `tests/` / `benches/`.
    pub is_test: bool,
    /// Token-index range of the body (between the braces, exclusive).
    pub body: std::ops::Range<usize>,
    pub calls: Vec<Call>,
    /// Token-index ranges of loop bodies within this fn.
    pub loops: Vec<std::ops::Range<usize>>,
}

impl FnItem {
    /// Display name: `file-stem::module::name` — stable across line
    /// edits, unique enough for baselines and chains.
    pub fn qual(&self) -> String {
        let mut q = String::new();
        if !self.module.is_empty() {
            q.push_str(&self.module);
            q.push_str("::");
        }
        if let Some(o) = &self.owner {
            q.push_str(o);
            q.push_str("::");
        }
        q.push_str(&self.name);
        q
    }
}

/// A lexed, parsed source file ready for the passes.
#[derive(Debug)]
pub struct ParsedFile {
    pub path: String,
    pub content: String,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-trivia tokens, in order.
    pub code: Vec<usize>,
    pub lines: LineIndex,
}

impl ParsedFile {
    pub fn new(path: String, content: String) -> Self {
        let tokens = lex(&content);
        let code = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_trivia())
            .map(|(i, _)| i)
            .collect();
        let lines = LineIndex::new(&content);
        Self {
            path,
            content,
            tokens,
            code,
            lines,
        }
    }

    /// Text of the `i`-th *code* token (see [`ParsedFile::code`]).
    pub fn code_text(&self, i: usize) -> &str {
        self.code
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map(|t| t.text(&self.content))
            .unwrap_or("")
    }

    pub fn code_kind(&self, i: usize) -> Option<TokenKind> {
        self.code
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map(|t| t.kind)
    }

    pub fn code_line(&self, i: usize) -> usize {
        self.code
            .get(i)
            .and_then(|&ti| self.tokens.get(ti))
            .map(|t| self.lines.line_of(t.start))
            .unwrap_or(0)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Block,
    Mod { test: bool },
    Impl,
    Fn { item: usize },
    Loop,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    name: String,
    open: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Pending {
    Mod { name: String, test: bool },
    Impl { owner: Option<String> },
    Fn { item: usize },
    Loop,
}

/// Extract every `fn` item from a parsed file.
pub fn extract_fns(pf: &ParsedFile) -> Vec<FnItem> {
    let file_test = crate::rules::test_only_file(&pf.path);
    let mut fns: Vec<FnItem> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending: Option<Pending> = None;
    let mut attr_test = false;
    let mut paren_depth: i64 = 0;
    let n = pf.code.len();
    let mut i = 0usize;
    while i < n {
        let text = pf.code_text(i);
        match text {
            "#" => {
                // Attribute: `#[...]` or `#![...]`. Scan to the
                // matching `]`, noting `test` (without `not`).
                let mut j = i + 1;
                if pf.code_text(j) == "!" {
                    j += 1;
                }
                if pf.code_text(j) == "[" {
                    let mut depth = 0i64;
                    let mut saw_test = false;
                    let mut saw_not = false;
                    while j < n {
                        match pf.code_text(j) {
                            "[" => depth += 1,
                            "]" => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            "test" => saw_test = true,
                            "not" => saw_not = true,
                            _ => {}
                        }
                        j += 1;
                    }
                    if saw_test && !saw_not {
                        attr_test = true;
                    }
                    i = j + 1;
                    continue;
                }
            }
            "mod" if paren_depth == 0 && pf.code_kind(i + 1) == Some(TokenKind::Ident) => {
                let name = pf.code_text(i + 1).to_string();
                let enclosing_test = scopes
                    .iter()
                    .any(|s| matches!(s.kind, ScopeKind::Mod { test: true }));
                pending = Some(Pending::Mod {
                    name,
                    test: attr_test || enclosing_test,
                });
                attr_test = false;
                i += 2;
                continue;
            }
            "impl" if paren_depth == 0 => {
                // Item-position `impl` only: `fn f() -> impl Trait {`
                // must not steal the pending fn scope.
                if pending.is_none() {
                    pending = Some(Pending::Impl {
                        owner: parse_impl_owner(pf, i + 1),
                    });
                }
                i += 1;
                continue;
            }
            "fn" if paren_depth == 0 && pf.code_kind(i + 1) == Some(TokenKind::Ident) => {
                let name = pf.code_text(i + 1).to_string();
                let module = scopes
                    .iter()
                    .filter(|s| matches!(s.kind, ScopeKind::Mod { .. }))
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join("::");
                let in_test_mod = scopes
                    .iter()
                    .any(|s| matches!(s.kind, ScopeKind::Mod { test: true }));
                let owner = scopes
                    .iter()
                    .rev()
                    .find(|s| matches!(s.kind, ScopeKind::Impl))
                    .map(|s| s.name.clone())
                    .filter(|s| !s.is_empty());
                fns.push(FnItem {
                    file: pf.path.clone(),
                    module,
                    owner,
                    name,
                    line: pf.code_line(i),
                    is_test: file_test || in_test_mod || attr_test,
                    body: 0..0,
                    calls: Vec::new(),
                    loops: Vec::new(),
                });
                attr_test = false;
                pending = Some(Pending::Fn {
                    item: fns.len() - 1,
                });
                i += 2;
                continue;
            }
            "for" | "while" | "loop" if paren_depth == 0 => {
                let in_impl_header = matches!(pending, Some(Pending::Impl { .. }));
                let hrtb = text == "for" && pf.code_text(i + 1) == "<";
                let in_fn = scopes
                    .iter()
                    .any(|s| matches!(s.kind, ScopeKind::Fn { .. }));
                if !in_impl_header && !hrtb && in_fn && !matches!(pending, Some(Pending::Fn { .. }))
                {
                    pending = Some(Pending::Loop);
                }
                i += 1;
                continue;
            }
            "(" | "[" => paren_depth += 1,
            ")" | "]" => paren_depth = (paren_depth - 1).max(0),
            ";" if paren_depth == 0 => {
                // A bodiless fn (trait method decl) or any other
                // statement boundary cancels whatever was pending, and
                // a `#[cfg(test)]` attached to a non-item statement
                // (`#[cfg(test)] use ...;`) stops waiting.
                pending = None;
                attr_test = false;
            }
            "{" => {
                if paren_depth > 0 {
                    // Closure/struct-literal braces inside argument
                    // lists: no scope, but consume the pending marker
                    // so a loop header's own brace cannot bind later.
                    if matches!(pending, Some(Pending::Loop)) {
                        pending = None;
                    }
                } else {
                    let (kind, name) = match pending.take() {
                        Some(Pending::Mod { name, test }) => (ScopeKind::Mod { test }, name),
                        Some(Pending::Impl { owner }) => {
                            (ScopeKind::Impl, owner.unwrap_or_default())
                        }
                        Some(Pending::Fn { item }) => (ScopeKind::Fn { item }, String::new()),
                        Some(Pending::Loop) => (ScopeKind::Loop, String::new()),
                        None => (ScopeKind::Block, String::new()),
                    };
                    scopes.push(Scope {
                        kind,
                        name,
                        open: i,
                    });
                }
            }
            "}" if paren_depth == 0 => {
                if let Some(scope) = scopes.pop() {
                    match scope.kind {
                        ScopeKind::Fn { item } => {
                            if let Some(f) = fns.get_mut(item) {
                                f.body = scope.open + 1..i;
                            }
                        }
                        ScopeKind::Loop => {
                            // Attach to the innermost enclosing fn.
                            let encl = scopes.iter().rev().find_map(|s| match s.kind {
                                ScopeKind::Fn { item } => Some(item),
                                _ => None,
                            });
                            if let Some(item) = encl {
                                if let Some(f) = fns.get_mut(item) {
                                    f.loops.push(scope.open + 1..i);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
            _ => {}
        }

        // Call-site extraction, attributed to the innermost fn.
        if pf.code_kind(i) == Some(TokenKind::Ident) && !KEYWORDS.contains(&text) {
            let in_fn = scopes
                .iter()
                .rev()
                .find_map(|s| match s.kind {
                    ScopeKind::Fn { item } => Some(item),
                    _ => None,
                })
                .or(match pending {
                    Some(Pending::Fn { item }) => Some(item),
                    _ => None,
                });
            if let Some(item) = in_fn {
                if let Some(call) = call_at(pf, i) {
                    if let Some(f) = fns.get_mut(item) {
                        f.calls.push(call);
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

/// Owner type of an `impl` header starting right after the `impl`
/// token: the last path segment (at angle depth 0, before `where`/`{`)
/// of the implemented-on type — the segment after `for` when present.
fn parse_impl_owner(pf: &ParsedFile, mut i: usize) -> Option<String> {
    let n = pf.code.len();
    let mut angle = 0i64;
    let mut last: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < n {
        let t = pf.code_text(i);
        match t {
            "<" => angle += 1,
            ">" => angle = (angle - 1).max(0),
            "{" | ";" if angle == 0 => break,
            "where" if angle == 0 => break,
            "for" if angle == 0 => saw_for = true,
            _ => {
                if angle == 0 && pf.code_kind(i) == Some(TokenKind::Ident) {
                    if saw_for {
                        after_for = Some(t.to_string());
                    } else {
                        last = Some(t.to_string());
                    }
                }
            }
        }
        i += 1;
    }
    after_for.or(last)
}

/// Is the ident at code-index `i` a call head? Handles `name(`,
/// `Qual::name(`, `.name(`, and turbofish `name::<T>(`.
fn call_at(pf: &ParsedFile, i: usize) -> Option<Call> {
    let name = pf.code_text(i).to_string();
    let next = pf.code_text(i + 1);
    let method = pf.code_text(i.wrapping_sub(1)) == ".";
    let qualifier = if !method
        && pf.code_text(i.wrapping_sub(1)) == ":"
        && pf.code_text(i.wrapping_sub(2)) == ":"
        && pf.code_kind(i.wrapping_sub(3)) == Some(TokenKind::Ident)
    {
        Some(pf.code_text(i.wrapping_sub(3)).to_string())
    } else {
        None
    };
    if next == "(" {
        return Some(Call {
            name,
            qualifier,
            method,
            line: pf.code_line(i),
        });
    }
    if next == "!" && pf.code_text(i + 2) == "(" {
        // Macro invocation: not a graph edge (macro bodies are scanned
        // textually by the passes), so not a call.
        return None;
    }
    // Turbofish: `name::<...>(`.
    if next == ":" && pf.code_text(i + 2) == ":" && pf.code_text(i + 3) == "<" {
        let mut depth = 0i64;
        let mut j = i + 3;
        let limit = (i + 64).min(pf.code.len());
        while j < limit {
            match pf.code_text(j) {
                "<" => depth += 1,
                ">" => {
                    depth -= 1;
                    if depth == 0 {
                        if pf.code_text(j + 1) == "(" {
                            return Some(Call {
                                name,
                                qualifier,
                                method,
                                line: pf.code_line(i),
                            });
                        }
                        return None;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(path: &str, src: &str) -> (ParsedFile, Vec<FnItem>) {
        let pf = ParsedFile::new(path.to_string(), src.to_string());
        let fns = extract_fns(&pf);
        (pf, fns)
    }

    #[test]
    fn extracts_fns_with_modules_and_owners() {
        let src = "
            pub fn top() {}
            mod inner {
                impl Widget {
                    pub fn method(&self) {}
                }
                impl std::fmt::Display for Gadget {
                    fn fmt(&self) {}
                }
            }
        ";
        let (_, fns) = parse("crates/x/src/lib.rs", src);
        let quals: Vec<String> = fns.iter().map(|f| f.qual()).collect();
        assert_eq!(
            quals,
            ["top", "inner::Widget::method", "inner::Gadget::fmt"]
        );
        assert!(fns.iter().all(|f| !f.is_test));
    }

    #[test]
    fn marks_cfg_test_modules_and_test_fns() {
        let src = "
            fn lib() {}
            #[cfg(test)]
            mod tests {
                fn helper() {}
                #[test]
                fn case() {}
            }
            #[cfg(not(test))]
            mod real { fn deployed() {} }
            #[test]
            fn top_level_case() {}
        ";
        let (_, fns) = parse("crates/x/src/lib.rs", src);
        let tests: Vec<(&str, bool)> = fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert_eq!(
            tests,
            [
                ("lib", false),
                ("helper", true),
                ("case", true),
                ("deployed", false),
                ("top_level_case", true)
            ]
        );
    }

    #[test]
    fn files_under_tests_are_test_code() {
        let (_, fns) = parse("crates/x/tests/t.rs", "fn probe() {}");
        assert!(fns[0].is_test);
    }

    #[test]
    fn records_calls_with_qualifiers_and_methods() {
        let src = "
            fn caller() {
                helper(1);
                Widget::build(2);
                value.refresh();
                path::to::thing();
                parse::<u32>(s);
                not_a_call;
                if cond(x) {}
            }
        ";
        let (_, fns) = parse("crates/x/src/lib.rs", src);
        let calls: Vec<(&str, Option<&str>, bool)> = fns[0]
            .calls
            .iter()
            .map(|c| (c.name.as_str(), c.qualifier.as_deref(), c.method))
            .collect();
        assert_eq!(
            calls,
            [
                ("helper", None, false),
                ("build", Some("Widget"), false),
                ("refresh", None, true),
                ("thing", Some("to"), false),
                ("parse", None, false),
                ("cond", None, false),
            ]
        );
    }

    #[test]
    fn macro_invocations_are_not_calls() {
        let src = "fn f() { println!(\"x\"); vec![1]; assert!(g()); }";
        let (_, fns) = parse("crates/x/src/lib.rs", src);
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["g"]);
    }

    #[test]
    fn loop_bodies_are_recorded() {
        let src = "
            fn f(xs: &[u32]) {
                for x in xs { touch(x); }
                while go() { step(); }
                loop { spin(); break; }
            }
            impl Iterator for Thing { fn next(&mut self) {} }
        ";
        let (pf, fns) = parse("crates/x/src/lib.rs", src);
        assert_eq!(fns[0].loops.len(), 3);
        // `impl Iterator for Thing` must NOT be a loop body.
        assert_eq!(fns[1].loops.len(), 0);
        // Loop ranges cover the right calls.
        let in_first_loop: Vec<&str> = fns[0].loops[0]
            .clone()
            .filter_map(|ci| {
                let t = pf.code_text(ci);
                if t == "touch" {
                    Some("touch")
                } else {
                    None
                }
            })
            .collect();
        assert_eq!(in_first_loop, ["touch"]);
    }

    #[test]
    fn array_semicolons_do_not_cancel_fn_bodies() {
        let src = "fn f(x: [u8; 32]) { inner(); }";
        let (_, fns) = parse("crates/x/src/lib.rs", src);
        assert_eq!(fns[0].calls.len(), 1);
        assert!(!fns[0].body.is_empty());
    }

    #[test]
    fn trait_method_decls_have_no_body() {
        let src = "trait T { fn decl(&self); fn with_default(&self) { work(); } }";
        let (_, fns) = parse("crates/x/src/lib.rs", src);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_empty());
        assert_eq!(fns[1].calls.len(), 1);
    }

    #[test]
    fn calls_inside_closure_args_belong_to_the_fn() {
        let src = "fn f(xs: &[u32]) { xs.iter().map(|x| transform(x)).sum::<u32>(); }";
        let (_, fns) = parse("crates/x/src/lib.rs", src);
        let names: Vec<&str> = fns[0].calls.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"transform"), "{names:?}");
        assert!(names.contains(&"sum"), "{names:?}");
    }
}
