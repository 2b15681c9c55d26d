//! Item-level parser on top of the lexer: extracts every `fn` in a file
//! with its module/impl context, visibility, and the three site lists
//! the workspace rules consume — call sites (for the over-approximate
//! call graph), explicit panic sites, and allocation sites.
//!
//! This is *not* a Rust grammar. It is a single pass over the token
//! stream with a scope stack (`mod`/`impl`/`trait`/`fn`/plain blocks),
//! deliberately over-approximate where full resolution would need type
//! information:
//!
//! * a bare call `foo(…)` may resolve to any free fn named `foo`;
//! * a method call `x.foo(…)` may resolve to any impl fn named `foo`
//!   (with `self.foo(…)` resolved precisely to the enclosing impl type
//!   when that type defines `foo`);
//! * a qualified call `Type::foo(…)` resolves within `impl Type` blocks
//!   only — unknown qualifiers (std types, external modules) produce no
//!   edge, so `Vec::new(…)` never aliases the workspace's `new` fns.
//!
//! `macro_rules!` bodies are skipped entirely (their token soup is not
//! item syntax), and calls *through* macros are invisible — both are
//! documented limitations of the over-approximation, bounded by the
//! fact that this workspace's macros (`diag!`, telemetry probes) do not
//! route hot-path calls.

use crate::lexer::Tok;

/// Where a `fn` is visible from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Bare `pub` — part of the crate's public API surface.
    Public,
    /// `pub(crate)` / `pub(super)` / `pub(in …)` — internal.
    Restricted,
    /// No `pub` at all.
    Private,
}

/// How a call site names its callee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Receiver {
    /// `foo(…)` — a free-function call.
    Bare,
    /// `x.foo(…)` — a method call on an arbitrary receiver.
    Method,
    /// `self.foo(…)` — a method call on `self` (resolved precisely to
    /// the enclosing impl type when possible).
    SelfMethod,
    /// `Seg::foo(…)` — qualified by the last path segment before `::`.
    Qualified(String),
}

/// One call site inside a fn body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee-name resolution hint.
    pub receiver: Receiver,
    /// Callee name as written.
    pub name: String,
    /// 1-based source line.
    pub line: u32,
}

/// One explicit panic site (`panic!`, `assert!`, `.unwrap()`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// Display form: `panic!`, `assert_eq!`, `.unwrap()`, `.expect()`.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
    /// True for `.unwrap()`/`.expect()` — those stay under clippy's
    /// `unwrap_used`/`expect_used`, not `panic-reachable`.
    pub is_unwrap: bool,
}

/// One allocation site (constructor, allocating adapter, growth call,
/// or alloc macro).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllocSite {
    /// Display form: `Vec::new`, `.collect()`, `format!`, `.extend()`.
    pub what: String,
    /// 1-based source line.
    pub line: u32,
}

/// One parsed `fn` item.
#[derive(Debug, Clone)]
pub struct FnSym {
    /// Name as written.
    pub name: String,
    /// Enclosing `impl`/`trait` target type, if any.
    pub impl_type: Option<String>,
    /// Enclosing in-file `mod` path (outermost first).
    pub modules: Vec<String>,
    /// 1-based line of the fn name.
    pub line: u32,
    /// Visibility of the `fn` token itself.
    pub vis: Visibility,
    /// True when the fn lives under `#[cfg(test)]` (or the whole file
    /// is test/bench code).
    pub is_test: bool,
    /// False for bodyless trait-method declarations.
    pub has_body: bool,
    /// Call sites in the body (closures included — a closure's tokens
    /// belong to the innermost enclosing fn).
    pub calls: Vec<CallSite>,
    /// Explicit panic sites in the body.
    pub panics: Vec<PanicSite>,
    /// Allocation sites in the body.
    pub allocs: Vec<AllocSite>,
}

impl FnSym {
    /// `Type::name` or plain `name` — the display/matching form used by
    /// diagnostics and [`crate::config::LintConfig`]'s root patterns.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// Types whose associated constructors allocate.
pub const CTOR_TYPES: &[&str] = &[
    "Vec", "String", "Box", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque",
];
/// Allocating associated-fn names (checked after `Type::`).
pub const CTOR_FNS: &[&str] = &["new", "with_capacity", "from"];
/// Allocating adapter methods (`.collect()`, `.to_vec()`, …).
pub const ALLOC_METHODS: &[&str] = &[
    "collect",
    "clone",
    "cloned",
    "to_vec",
    "to_owned",
    "to_string",
];
/// Growth methods — the `push`-growth class the hot paths must not hit.
/// Bare `.push(…)` onto a recycled workspace buffer (cleared, capacity
/// retained) is the sanctioned zero-alloc idiom and is *not* flagged;
/// growth is caught where buffers are created or resized.
pub const GROWTH_METHODS: &[&str] = &["extend", "resize", "resize_with", "reserve", "append"];
/// Allocating macros.
pub const ALLOC_MACROS: &[&str] = &["vec", "format"];
/// Panic-family macros (`debug_assert*` deliberately absent — it
/// vanishes in release builds, where the reproducibility contract
/// lives).
pub const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that look like `ident (` but are never calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "unsafe", "else", "let",
    "mut", "ref", "fn", "use", "pub", "impl", "where", "async", "dyn", "crate", "super", "self",
    "Self",
];

/// Modifier idents that may sit between `pub` and `fn`.
const FN_MODIFIERS: &[&str] = &["unsafe", "const", "async", "extern"];

#[derive(Debug)]
enum ScopeKind {
    Block,
    Module(String),
    Type(Option<String>),
    Fn(usize),
}

#[derive(Debug)]
enum Pending {
    Module(String),
    Type(Option<String>),
    Fn(FnSym),
}

/// Parse every `fn` item out of a token stream. `in_test(i)` reports
/// whether token `i` sits under `#[cfg(test)]` (supplied by
/// [`crate::source::SourceFile`], which owns the test ranges).
pub fn parse_fns(toks: &[Tok], in_test: &dyn Fn(usize) -> bool) -> Vec<FnSym> {
    let mut fns: Vec<FnSym> = Vec::new();
    let mut scopes: Vec<ScopeKind> = Vec::new();
    let mut pending: Option<Pending> = None;
    // Paren/bracket depth inside a pending item header, so `;` inside
    // `[u8; 3]` does not cancel the pending fn.
    let mut pdepth = 0usize;
    let mut i = 0usize;

    while i < toks.len() {
        let t = &toks[i];
        let text = t.text.as_str();

        // `macro_rules! name { … }` — skip the body wholesale.
        if text == "macro_rules"
            && t.is_ident()
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("!")
        {
            i = skip_macro_rules(toks, i);
            continue;
        }

        match text {
            "mod" if t.is_ident() && pending.is_none() => {
                if let Some(name) = toks.get(i + 1).filter(|n| n.is_ident()) {
                    pending = Some(Pending::Module(name.text.clone()));
                    pdepth = 0;
                }
            }
            "impl" | "trait" if t.is_ident() && pending.is_none() => {
                pending = Some(Pending::Type(extract_type_name(toks, i)));
                pdepth = 0;
            }
            "fn" if t.is_ident() => {
                // `fn` as a pointer-type (`fn(u32) -> u32`) has no name
                // ident after it; only named fns become items. A nested
                // fn replaces any stale pending state.
                if let Some(name) = toks.get(i + 1).filter(|n| n.is_ident()) {
                    let impl_type = scopes.iter().rev().find_map(|s| match s {
                        ScopeKind::Type(t) => Some(t.clone()),
                        _ => None,
                    });
                    let modules = scopes
                        .iter()
                        .filter_map(|s| match s {
                            ScopeKind::Module(m) => Some(m.clone()),
                            _ => None,
                        })
                        .collect();
                    pending = Some(Pending::Fn(FnSym {
                        name: name.text.clone(),
                        impl_type: impl_type.flatten(),
                        modules,
                        line: name.line,
                        vis: visibility_of(toks, i),
                        is_test: in_test(i),
                        has_body: false,
                        calls: Vec::new(),
                        panics: Vec::new(),
                        allocs: Vec::new(),
                    }));
                    pdepth = 0;
                    i += 2;
                    continue;
                }
            }
            "(" | "[" if pending.is_some() => pdepth += 1,
            ")" | "]" if pending.is_some() => pdepth = pdepth.saturating_sub(1),
            ";" if pdepth == 0 => {
                // Bodyless item: `mod x;` vanishes, a trait-method
                // declaration is still a symbol (callable via the
                // trait), just with nothing to scan.
                if let Some(Pending::Fn(sym)) = pending.take() {
                    fns.push(sym);
                }
                pending = None;
            }
            "{" => {
                let kind = match pending.take() {
                    Some(Pending::Module(m)) => ScopeKind::Module(m),
                    Some(Pending::Type(t)) => ScopeKind::Type(t),
                    Some(Pending::Fn(mut sym)) => {
                        sym.has_body = true;
                        fns.push(sym);
                        ScopeKind::Fn(fns.len() - 1)
                    }
                    None => ScopeKind::Block,
                };
                scopes.push(kind);
            }
            "}" => {
                scopes.pop();
            }
            _ => {
                // Body-site detection: only inside a fn, and never while
                // a nested item header (signature) is pending — types
                // like `F: Fn(&T) -> R` must not read as calls.
                if pending.is_none() {
                    if let Some(fn_id) = scopes.iter().rev().find_map(|s| match s {
                        ScopeKind::Fn(id) => Some(*id),
                        _ => None,
                    }) {
                        detect_sites(toks, i, &mut fns[fn_id]);
                    }
                }
            }
        }
        i += 1;
    }
    fns
}

/// Skip `macro_rules! name { … }` starting at the `macro_rules` token;
/// returns the index just past the closing brace.
fn skip_macro_rules(toks: &[Tok], i: usize) -> usize {
    let mut j = i;
    while j < toks.len() && toks[j].text != "{" {
        j += 1;
    }
    let mut depth = 0usize;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" => depth += 1,
            "}" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Extract the target type name from an `impl`/`trait` header starting
/// at the keyword: the last path segment of the implemented-for type
/// (`impl Trait for Type` → `Type`; `impl Type` → `Type`;
/// `trait Name` → `Name`).
fn extract_type_name(toks: &[Tok], kw: usize) -> Option<String> {
    let mut j = kw + 1;
    // Skip the generic parameter list directly after the keyword.
    j = skip_angles(toks, j);
    let mut ty: Option<String> = None;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "{" | "where" | ";" => break,
            // `for<'a>` (HRTB) keeps the collected trait; a real
            // `Trait for Type` resets so the type wins.
            "for"
                if toks[j].is_ident() && toks.get(j + 1).map(|n| n.text.as_str()) != Some("<") =>
            {
                ty = None;
            }
            "dyn" | "mut" | "ref" | "&" | "*" | "const" | "unsafe" | "extern" => {}
            _ if toks[j].is_ident() => {
                ty = Some(toks[j].text.clone());
                // Generic args on the name (`Iter<'a>`) are noise.
                if toks.get(j + 1).map(|n| n.text.as_str()) == Some("<") {
                    j = skip_angles(toks, j + 1);
                    continue;
                }
            }
            _ => {}
        }
        j += 1;
    }
    ty
}

/// If `toks[j]` opens an angle-bracket group, return the index just
/// past its close (treating `<<`/`>>` as two); otherwise return `j`.
/// Bails at `{` so an unbalanced header cannot swallow the file.
fn skip_angles(toks: &[Tok], j: usize) -> usize {
    if toks.get(j).map(|t| t.text.as_str()) != Some("<") {
        return j;
    }
    let mut depth = 0isize;
    let mut k = j;
    while k < toks.len() {
        match toks[k].text.as_str() {
            "<" => depth += 1,
            "<<" => depth += 2,
            ">" => depth -= 1,
            ">>" => depth -= 2,
            "{" => return k,
            _ => {}
        }
        if depth <= 0 {
            return k + 1;
        }
        k += 1;
    }
    k
}

/// Visibility of the fn whose `fn` keyword is at `fn_i`: scan back over
/// modifiers (`unsafe`, `const`, `async`, `extern "C"`) to the optional
/// `pub` / `pub(…)`.
fn visibility_of(toks: &[Tok], fn_i: usize) -> Visibility {
    let mut k = fn_i;
    while k > 0 {
        k -= 1;
        let t = &toks[k];
        if t.is_ident() && FN_MODIFIERS.contains(&t.text.as_str()) {
            continue;
        }
        if t.kind == crate::lexer::TokKind::Str {
            continue; // the "C" of extern "C"
        }
        if t.text == "pub" {
            return Visibility::Public;
        }
        if t.text == ")" {
            // `pub(crate) fn` — walk back to the `(` and check for pub.
            let mut depth = 1usize;
            while k > 0 && depth > 0 {
                k -= 1;
                match toks[k].text.as_str() {
                    ")" => depth += 1,
                    "(" => depth -= 1,
                    _ => {}
                }
            }
            if k > 0 && toks[k - 1].text == "pub" {
                return Visibility::Restricted;
            }
            return Visibility::Private;
        }
        return Visibility::Private;
    }
    Visibility::Private
}

/// Detect call/panic/alloc sites anchored at token `i` inside `f`'s
/// body. Patterns deliberately mirror the v1 `hot-path-alloc` token
/// heuristics so existing suppressions stay live.
fn detect_sites(toks: &[Tok], i: usize, f: &mut FnSym) {
    let t = &toks[i];
    if !t.is_ident() {
        return;
    }
    let name = t.text.as_str();
    let next = toks.get(i + 1).map(|n| n.text.as_str());
    let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };

    // Macros: panic family and alloc macros; no call edges through
    // macros (documented limitation).
    if next == Some("!") {
        if PANIC_MACROS.contains(&name) {
            f.panics.push(PanicSite {
                what: format!("{name}!"),
                line: t.line,
                is_unwrap: false,
            });
        } else if ALLOC_MACROS.contains(&name) {
            f.allocs.push(AllocSite {
                what: format!("{name}!"),
                line: t.line,
            });
        }
        return;
    }

    // `Vec::new`-style constructors — with or without a following `(`
    // (bare `Vec::new` passed to `resize_with` still allocates).
    if CTOR_TYPES.contains(&name)
        && next == Some("::")
        && toks
            .get(i + 2)
            .is_some_and(|n| CTOR_FNS.contains(&n.text.as_str()))
    {
        f.allocs.push(AllocSite {
            what: format!("{}::{}", name, toks[i + 2].text),
            line: t.line,
        });
        return;
    }

    // Method position: `.name(` or `.name::<…>(`.
    if prev == "." && matches!(next, Some("(") | Some("::")) {
        if ALLOC_METHODS.contains(&name) || GROWTH_METHODS.contains(&name) {
            f.allocs.push(AllocSite {
                what: format!(".{name}()"),
                line: t.line,
            });
        }
        if (name == "unwrap" || name == "expect") && next == Some("(") {
            f.panics.push(PanicSite {
                what: format!(".{name}()"),
                line: t.line,
                is_unwrap: true,
            });
        }
        if call_follows(toks, i + 1) {
            let receiver = if i >= 2 && toks[i - 2].text == "self" {
                Receiver::SelfMethod
            } else {
                Receiver::Method
            };
            f.calls.push(CallSite {
                receiver,
                name: name.to_string(),
                line: t.line,
            });
        }
        return;
    }

    // Free or qualified call: `name(`, `Seg::name(`, `name::<T>(`.
    if call_follows(toks, i + 1) && !NON_CALL_KEYWORDS.contains(&name) {
        let receiver = if prev == "::" && i >= 2 && toks[i - 2].is_ident() {
            Receiver::Qualified(toks[i - 2].text.clone())
        } else if prev == "::" || prev == "." || prev == "fn" {
            return;
        } else {
            Receiver::Bare
        };
        f.calls.push(CallSite {
            receiver,
            name: name.to_string(),
            line: t.line,
        });
    }
}

/// Does a call argument list start at `toks[j]` — `(`, or a turbofish
/// `::<…>(`?
fn call_follows(toks: &[Tok], j: usize) -> bool {
    match toks.get(j).map(|t| t.text.as_str()) {
        Some("(") => true,
        Some("::") if toks.get(j + 1).map(|t| t.text.as_str()) == Some("<") => {
            let end = skip_angles(toks, j + 1);
            toks.get(end).map(|t| t.text.as_str()) == Some("(")
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Vec<FnSym> {
        parse_fns(&lex(src).toks, &|_| false)
    }

    #[test]
    fn fns_with_modules_impls_and_visibility() {
        let src = r#"
pub fn free() {}
pub(crate) fn internal() {}
fn private() {}
mod inner {
    pub fn nested() {}
}
struct S;
impl S {
    pub fn method(&self) {}
    fn helper() {}
}
impl Clone for S {
    fn clone(&self) -> S { S }
}
trait T {
    fn decl(&self);
    fn defaulted(&self) {}
}
"#;
        let fns = parse(src);
        let by_name = |n: &str| fns.iter().find(|f| f.name == n).unwrap();
        assert_eq!(by_name("free").vis, Visibility::Public);
        assert_eq!(by_name("internal").vis, Visibility::Restricted);
        assert_eq!(by_name("private").vis, Visibility::Private);
        assert_eq!(by_name("nested").modules, vec!["inner".to_string()]);
        assert_eq!(by_name("method").impl_type.as_deref(), Some("S"));
        assert_eq!(by_name("helper").impl_type.as_deref(), Some("S"));
        assert_eq!(by_name("clone").impl_type.as_deref(), Some("S"));
        assert_eq!(by_name("decl").impl_type.as_deref(), Some("T"));
        assert!(!by_name("decl").has_body);
        assert!(by_name("defaulted").has_body);
        assert_eq!(fns.len(), 9);
    }

    #[test]
    fn generic_impl_headers_resolve_the_type() {
        let src = "
impl<'a, T: Ord> Stack<'a, T> {
    fn push_it(&mut self) {}
}
impl<T> Iterator for Windows<T> where T: Copy {
    fn next(&mut self) -> Option<T> { None }
}
";
        let fns = parse(src);
        assert_eq!(fns[0].impl_type.as_deref(), Some("Stack"));
        assert_eq!(fns[1].impl_type.as_deref(), Some("Windows"));
    }

    #[test]
    fn calls_classified_by_receiver() {
        let src = "
fn caller(&self) {
    helper(1);
    self.own_method();
    other.method_call();
    Worker::assoc();
    deep::path::free_fn();
    turbo::<u32>(1);
}
";
        let fns = parse(src);
        let calls = &fns[0].calls;
        let find = |n: &str| calls.iter().find(|c| c.name == n).unwrap();
        assert_eq!(find("helper").receiver, Receiver::Bare);
        assert_eq!(find("own_method").receiver, Receiver::SelfMethod);
        assert_eq!(find("method_call").receiver, Receiver::Method);
        assert_eq!(find("assoc").receiver, Receiver::Qualified("Worker".into()));
        assert_eq!(find("free_fn").receiver, Receiver::Qualified("path".into()));
        assert_eq!(find("turbo").receiver, Receiver::Bare);
    }

    #[test]
    fn signatures_do_not_leak_calls() {
        // `Fn(&T) -> R` in a signature is a type, not a call.
        let src = "fn apply<F: Fn(u32) -> u32>(f: F, g: fn(u32) -> u32) { f(1); }";
        let fns = parse(src);
        assert!(
            fns[0].calls.iter().all(|c| c.name == "f"),
            "{:?}",
            fns[0].calls
        );
    }

    #[test]
    fn panic_and_alloc_sites() {
        let src = r#"
fn risky(x: Option<u32>) {
    panic!("boom");
    assert!(x.is_some());
    assert_eq!(1, 1);
    debug_assert!(true);
    let v = x.unwrap();
    let w = x.expect("msg");
    let a: Vec<u32> = Vec::new();
    let b = vec![1];
    let c = format!("x");
    let d = items.collect::<Vec<_>>();
    buf.extend(other);
    buf.resize_with(10, Vec::new);
    buf.push(1);
}
"#;
        let fns = parse(src);
        let panics: Vec<&str> = fns[0].panics.iter().map(|p| p.what.as_str()).collect();
        assert_eq!(
            panics,
            vec!["panic!", "assert!", "assert_eq!", ".unwrap()", ".expect()"]
        );
        assert!(fns[0].panics[3].is_unwrap && fns[0].panics[4].is_unwrap);
        let allocs: Vec<&str> = fns[0].allocs.iter().map(|a| a.what.as_str()).collect();
        assert_eq!(
            allocs,
            vec![
                "Vec::new",
                "vec!",
                "format!",
                ".collect()",
                ".extend()",
                ".resize_with()",
                "Vec::new",
            ],
            "push is sanctioned; resize_with flags both the growth call and its ctor arg"
        );
    }

    #[test]
    fn closure_sites_belong_to_the_enclosing_fn() {
        let src = "fn outer() { let f = |x: u32| { inner_call(x); panic!() }; }";
        let fns = parse(src);
        assert_eq!(fns.len(), 1);
        assert!(fns[0].calls.iter().any(|c| c.name == "inner_call"));
        assert_eq!(fns[0].panics.len(), 1);
    }

    #[test]
    fn nested_fn_owns_its_body() {
        let src = "fn outer() { fn inner() { panic!() } inner(); }";
        let fns = parse(src);
        let outer = fns.iter().find(|f| f.name == "outer").unwrap();
        let inner = fns.iter().find(|f| f.name == "inner").unwrap();
        assert!(outer.panics.is_empty());
        assert_eq!(inner.panics.len(), 1);
        assert!(outer.calls.iter().any(|c| c.name == "inner"));
    }

    #[test]
    fn macro_rules_bodies_are_skipped() {
        let src = "
macro_rules! gen {
    ($n:ident) => { fn $n() { panic!() } };
}
fn real() {}
";
        let fns = parse(src);
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "real");
    }

    #[test]
    fn array_len_semicolon_does_not_cancel_a_pending_fn() {
        let src = "fn f(x: [u8; 3]) { g(); }";
        let fns = parse(src);
        assert_eq!(fns.len(), 1);
        assert!(fns[0].has_body);
        assert_eq!(fns[0].calls.len(), 1);
    }

    #[test]
    fn test_flag_follows_cfg_ranges() {
        let toks = lex("fn a() {} fn b() {}").toks;
        let b_start = toks.iter().position(|t| t.text == "b").unwrap();
        let fns = parse_fns(&toks, &|i| i >= b_start - 1);
        assert!(!fns[0].is_test);
        assert!(fns[1].is_test);
    }
}
