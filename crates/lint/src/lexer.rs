//! A small hand-rolled Rust lexer — just enough token fidelity for the
//! source-level rules in this crate (see `rules/`), hermetic per the
//! workspace policy (no syn/proc-macro2).
//!
//! Produces a flat token stream with line numbers, plus the line
//! comments as a separate channel (rules read `// SAFETY:` and
//! `// lint:` directives from it). It is *not* a full Rust grammar:
//! no macro expansion, no type resolution. Rules that need more than
//! tokens (e.g. "which identifiers hold a `HashMap`") use documented
//! lexical heuristics with the inline-suppression escape hatch.
//!
//! Handled faithfully, because getting them wrong corrupts every rule
//! downstream: line/block comments (nested), string/raw-string/byte-
//! string literals, char literals vs lifetimes, numeric literals with
//! int/float distinction, and multi-character operators (`::`, `==`,
//! `..=`, …) as single tokens.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (keywords are not distinguished).
    Ident,
    /// `'a` lifetime (or loop label).
    Lifetime,
    /// Integer literal (any base, with or without suffix).
    Int,
    /// Float literal (`1.5`, `1e9`, `2f64`, …).
    Float,
    /// String, raw-string, or byte-string literal (content dropped).
    Str,
    /// Char or byte-char literal.
    Char,
    /// Operator or delimiter; multi-char operators are one token.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Kind of token.
    pub kind: TokKind,
    /// Exact source text. `Str`/`Char` tokens carry an empty string —
    /// literal content is dropped so it can never leak tokens into
    /// rules (property-tested in `tests/lexer_proptests.rs`).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
    /// Byte offset of the token start in the source — the span anchor
    /// the item parser sorts and slices by. Strictly increasing across
    /// the token stream (property-tested).
    pub pos: u32,
}

impl Tok {
    /// Is this an identifier/keyword token?
    pub fn is_ident(&self) -> bool {
        self.kind == TokKind::Ident
    }

    /// Is this a lifetime (or loop-label) token?
    pub fn is_lifetime(&self) -> bool {
        self.kind == TokKind::Lifetime
    }
}

/// One `//` comment: its 1-based line, whether any non-comment token
/// precedes it on that line (trailing), and its text after the slashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line.
    pub line: u32,
    /// True when code precedes the comment on the same line.
    pub trailing: bool,
    /// Text after `//`, `///`, or `//!` (untrimmed).
    pub text: String,
}

/// Lexer output: the token stream plus the comment channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All non-comment tokens in source order.
    pub toks: Vec<Tok>,
    /// All line comments in source order (block comments are skipped —
    /// directives and SAFETY markers are line comments by convention).
    pub comments: Vec<Comment>,
}

/// Multi-character operators recognized as single `Punct` tokens,
/// longest first so greedy matching is correct.
const MULTI_OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "..", "+=",
    "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>",
];

/// Tokenize Rust source text. Unterminated literals are tolerated (the
/// rest of the file becomes one literal token) — a linter must not
/// panic on odd input.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;
    // Tracks whether any token was produced on the current line, to
    // classify trailing comments.
    let mut code_on_line = false;

    let is_ident_start = |c: u8| c.is_ascii_alphabetic() || c == b'_' || c >= 0x80;
    let is_ident_cont = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c >= 0x80;

    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                code_on_line = false;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i + 2;
                // Skip the doc-comment marker char for the text, but keep
                // the full remainder of the line either way.
                let mut j = start;
                while j < b.len() && b[j] != b'\n' {
                    j += 1;
                }
                let mut text = &src[start..j];
                if let Some(rest) = text.strip_prefix('/').or_else(|| text.strip_prefix('!')) {
                    text = rest;
                }
                out.comments.push(Comment {
                    line,
                    trailing: code_on_line,
                    text: text.to_string(),
                });
                i = j;
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                // Nested block comment; count newlines inside.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < b.len() && depth > 0 {
                    if b[j] == b'\n' {
                        line += 1;
                        code_on_line = false;
                        j += 1;
                    } else if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                i = j;
            }
            b'r' | b'b'
                if matches!(b.get(i + 1), Some(&b'"') | Some(&b'#') | Some(&b'r'))
                    && starts_raw_or_byte_literal(b, i) =>
            {
                let (j, newlines) = scan_string_like(b, i);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                    pos: i as u32,
                });
                line += newlines;
                code_on_line = true;
                i = j;
            }
            b'"' => {
                let (j, newlines) = scan_plain_string(b, i);
                out.toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line,
                    pos: i as u32,
                });
                line += newlines;
                code_on_line = true;
                i = j;
            }
            b'\'' => {
                // Char literal vs lifetime. `'a'` is a char; `'a` (no
                // closing quote after one ident) is a lifetime.
                if let Some(j) = scan_char_literal(b, i) {
                    out.toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line,
                        pos: i as u32,
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < b.len() && is_ident_cont(b[j]) {
                        j += 1;
                    }
                    out.toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                        pos: i as u32,
                    });
                    i = j;
                }
                code_on_line = true;
            }
            c if c.is_ascii_digit() => {
                let (j, is_float) = scan_number(b, i);
                out.toks.push(Tok {
                    kind: if is_float {
                        TokKind::Float
                    } else {
                        TokKind::Int
                    },
                    text: src[i..j].to_string(),
                    line,
                    pos: i as u32,
                });
                code_on_line = true;
                i = j;
            }
            c if is_ident_start(c) => {
                let mut j = i + 1;
                while j < b.len() && is_ident_cont(b[j]) {
                    j += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    line,
                    pos: i as u32,
                });
                code_on_line = true;
                i = j;
            }
            _ => {
                let rest = &src[i..];
                let op = MULTI_OPS.iter().find(|op| rest.starts_with(**op));
                let text = match op {
                    Some(op) => (*op).to_string(),
                    None => src[i..i + 1].to_string(),
                };
                let pos = i as u32;
                i += text.len();
                out.toks.push(Tok {
                    kind: TokKind::Punct,
                    text,
                    line,
                    pos,
                });
                code_on_line = true;
            }
        }
    }
    out
}

/// Does `b[i..]` start a raw/byte string literal (`r"`, `r#"`, `b"`,
/// `br#"`, …) as opposed to an identifier beginning with r/b?
fn starts_raw_or_byte_literal(b: &[u8], i: usize) -> bool {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if j < b.len() && b[j] == b'r' {
        j += 1;
        while j < b.len() && b[j] == b'#' {
            j += 1;
        }
    }
    j < b.len() && b[j] == b'"' && j > i
}

/// Scan a raw/byte/plain string starting at a `r`/`b` prefix; returns
/// (end index, newline count).
fn scan_string_like(b: &[u8], i: usize) -> (usize, u32) {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    let raw = j < b.len() && b[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < b.len() && b[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    if j >= b.len() || b[j] != b'"' {
        return (j, 0); // tolerated malformed input
    }
    if raw {
        j += 1;
        let mut newlines = 0u32;
        while j < b.len() {
            if b[j] == b'\n' {
                newlines += 1;
                j += 1;
            } else if b[j] == b'"' {
                let mut k = j + 1;
                let mut seen = 0usize;
                while k < b.len() && b[k] == b'#' && seen < hashes {
                    seen += 1;
                    k += 1;
                }
                if seen == hashes {
                    return (k, newlines);
                }
                j += 1;
            } else {
                j += 1;
            }
        }
        (j, newlines)
    } else {
        let (end, newlines) = scan_plain_string(b, j);
        (end, newlines)
    }
}

/// Scan a `"…"` string with escapes starting at the opening quote.
fn scan_plain_string(b: &[u8], i: usize) -> (usize, u32) {
    let mut j = i + 1;
    let mut newlines = 0u32;
    while j < b.len() {
        match b[j] {
            b'\\' => j += 2,
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            b'"' => return (j + 1, newlines),
            _ => j += 1,
        }
    }
    (j, newlines)
}

/// Try to scan a char literal at a `'`; `None` means it is a lifetime.
fn scan_char_literal(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escape: consume to the closing quote (handles \u{…}).
        j += 1;
        while j < b.len() && b[j] != b'\'' {
            j += 1;
        }
        return (j < b.len()).then_some(j + 1);
    }
    // One scalar then a closing quote → char literal ('a', '�', '0').
    let len = match b[j] {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    };
    if b.get(j + len) == Some(&b'\'') {
        Some(j + len + 1)
    } else {
        None
    }
}

/// Scan a numeric literal; returns (end index, is_float).
fn scan_number(b: &[u8], i: usize) -> (usize, bool) {
    let mut j = i;
    let mut is_float = false;
    if b[j] == b'0' && matches!(b.get(j + 1), Some(&b'x') | Some(&b'o') | Some(&b'b')) {
        j += 2;
        while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
            j += 1;
        }
        return (j, false);
    }
    while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
        j += 1;
    }
    // Rust's rule: a `.` after the digits makes a float (`1.5`, and
    // `1.` on its own) unless `.`, `_` or an identifier start follows
    // it, so `0..5`, `1.max(2)` and tuple access `x.0` stay integer +
    // punct. Any non-ASCII byte counts as an identifier start.
    if j < b.len()
        && b[j] == b'.'
        && !b
            .get(j + 1)
            .is_some_and(|&c| c == b'.' || c == b'_' || c.is_ascii_alphabetic() || !c.is_ascii())
    {
        is_float = true;
        j += 1;
        while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
            j += 1;
        }
    }
    // Exponent.
    if j < b.len() && (b[j] == b'e' || b[j] == b'E') {
        let mut k = j + 1;
        if k < b.len() && (b[k] == b'+' || b[k] == b'-') {
            k += 1;
        }
        if k < b.len() && b[k].is_ascii_digit() {
            is_float = true;
            j = k;
            while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'_') {
                j += 1;
            }
        }
    }
    // Suffix (u32, f64, usize, …).
    let suffix_start = j;
    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
        j += 1;
    }
    if b[suffix_start..j].starts_with(b"f32") || b[suffix_start..j].starts_with(b"f64") {
        is_float = true;
    }
    (j, is_float)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .toks
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    #[test]
    fn idents_and_puncts() {
        let ts = kinds("let x = a::b(1);");
        assert_eq!(ts[0], (TokKind::Ident, "let".into()));
        assert_eq!(ts[1], (TokKind::Ident, "x".into()));
        assert_eq!(ts[2], (TokKind::Punct, "=".into()));
        assert_eq!(ts[4], (TokKind::Punct, "::".into()));
        assert_eq!(ts[6], (TokKind::Punct, "(".into()));
        assert_eq!(ts[7], (TokKind::Int, "1".into()));
    }

    #[test]
    fn float_vs_int_vs_range() {
        assert_eq!(kinds("1.5")[0].0, TokKind::Float);
        assert_eq!(kinds("2e9")[0].0, TokKind::Float);
        assert_eq!(kinds("3f64")[0].0, TokKind::Float);
        assert_eq!(kinds("7")[0].0, TokKind::Int);
        assert_eq!(kinds("0xff")[0].0, TokKind::Int);
        // `0..5` is Int, `..`, Int — the dot is not a fraction.
        let ts = kinds("0..5");
        assert_eq!(ts[0].0, TokKind::Int);
        assert_eq!(ts[1], (TokKind::Punct, "..".into()));
        assert_eq!(ts[2].0, TokKind::Int);
        // Tuple access and integer method calls stay integer.
        let ts = kinds("x.0");
        assert_eq!(ts[2].0, TokKind::Int);
        let ts = kinds("1.max(2)");
        assert_eq!(ts[0], (TokKind::Int, "1".into()));
        assert_eq!(ts[1], (TokKind::Punct, ".".into()));
        // A trailing dot ends a float literal, as in Rust.
        assert_eq!(kinds("1.")[0], (TokKind::Float, "1.".into()));
        let ts = kinds("x == 1.)");
        assert_eq!(ts[2], (TokKind::Float, "1.".into()));
        assert_eq!(ts[3], (TokKind::Punct, ")".into()));
        // Underscored literals.
        assert_eq!(kinds("630_000.0")[0].0, TokKind::Float);
        assert_eq!(kinds("1_000")[0].0, TokKind::Int);
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r#"
// a comment with Instant::now() inside
let s = "Instant::now() in a string";
/* block with unwrap() */
let t = 1; // trailing HashMap
"#;
        let l = lex(src);
        assert!(!l.toks.iter().any(|t| t.text == "Instant"));
        assert!(!l.toks.iter().any(|t| t.text == "unwrap"));
        assert!(!l.toks.iter().any(|t| t.text == "HashMap"));
        assert_eq!(l.comments.len(), 2);
        assert!(!l.comments[0].trailing);
        assert!(l.comments[1].trailing);
        assert!(l.comments[1].text.contains("HashMap"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let src = r##"let a = r#"raw "quoted" unwrap()"#; let b = b"bytes"; let c = r"plain";"##;
        let l = lex(src);
        assert!(!l.toks.iter().any(|t| t.text == "unwrap"));
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 3);
        // Identifiers starting with r/b are not eaten as strings.
        let ts = kinds("radius + brightness");
        assert_eq!(ts[0], (TokKind::Ident, "radius".into()));
        assert_eq!(ts[2], (TokKind::Ident, "brightness".into()));
    }

    #[test]
    fn char_vs_lifetime() {
        let ts = kinds("'a' 'x: &'a str '\\n'");
        assert_eq!(ts[0].0, TokKind::Char);
        assert_eq!(ts[1], (TokKind::Lifetime, "'x".into()));
        let lifetimes: Vec<_> = ts.iter().filter(|t| t.0 == TokKind::Lifetime).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(ts.last().unwrap().0, TokKind::Char);
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"two\nline string\"\nb\n/* block\ncomment */ c";
        let l = lex(src);
        let find = |name: &str| l.toks.iter().find(|t| t.text == name).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 6);
    }

    #[test]
    fn multi_char_operators_are_single_tokens() {
        let ts = kinds("a == b != c <= d >= e => f -> g ..= h");
        let ops: Vec<_> = ts
            .iter()
            .filter(|t| t.0 == TokKind::Punct)
            .map(|t| t.1.as_str())
            .collect();
        assert_eq!(ops, vec!["==", "!=", "<=", ">=", "=>", "->", "..="]);
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ x");
        assert_eq!(l.toks.len(), 1);
        assert_eq!(l.toks[0].text, "x");
    }

    #[test]
    fn doc_comment_markers_stripped() {
        let l = lex("/// doc text\n//! inner doc\n// plain");
        assert_eq!(l.comments[0].text, " doc text");
        assert_eq!(l.comments[1].text, " inner doc");
        assert_eq!(l.comments[2].text, " plain");
    }
}
