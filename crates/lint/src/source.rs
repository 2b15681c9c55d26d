//! Per-file analysis context shared by every rule: file classification,
//! `#[cfg(test)]` region detection, and `// lint:` directive parsing.

use crate::lexer::{lex, Comment, Lexed, Tok};
use crate::parser::{parse_fns, FnSym};

/// How a file participates in the build — rules scope themselves by
/// kind (e.g. `panic-reachable` patrols only `Lib`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source (`crates/*/src/**`, excluding `src/bin`).
    Lib,
    /// Binary source (`src/bin/**`, `src/main.rs`, `examples/*.rs`).
    Bin,
    /// Integration-test source (`tests/**`).
    Test,
    /// Bench source (`benches/**`) — timing is its job.
    Bench,
}

impl FileKind {
    /// Classify a workspace-relative path (forward slashes).
    pub fn classify(rel_path: &str) -> FileKind {
        if rel_path.contains("/benches/") {
            FileKind::Bench
        } else if rel_path.contains("/tests/") || rel_path.starts_with("tests/") {
            FileKind::Test
        } else if rel_path.contains("/src/bin/")
            || rel_path.ends_with("/main.rs")
            || (rel_path.starts_with("examples/") && !rel_path.ends_with("lib.rs"))
        {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    }
}

/// An inline `// lint: …` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `// lint: allow(<rule>) <reason>` — suppress `<rule>` on this
    /// line (trailing comment) or the next line (standalone comment).
    /// The reason is mandatory; a bare allow is itself a diagnostic.
    Allow {
        /// Rule name being suppressed.
        rule: String,
        /// Written justification (empty = `bare-allow` diagnostic).
        reason: String,
        /// Line of the directive comment.
        line: u32,
        /// True when the comment trails code on its line.
        trailing: bool,
    },
    /// `// lint: hot-path` — the next `fn` is a zero-alloc hot path;
    /// `hot-path-alloc` patrols its body.
    HotPath {
        /// Line of the directive comment.
        line: u32,
    },
    /// A `// lint:` comment that parses as neither of the above.
    Malformed {
        /// Line of the directive comment.
        line: u32,
    },
}

/// A fully-analyzed source file, ready for rules.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Build role of the file.
    pub kind: FileKind,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Line-comment channel.
    pub comments: Vec<Comment>,
    /// Parsed `// lint:` directives.
    pub directives: Vec<Directive>,
    /// Every `fn` item in the file, in declaration order (the symbol
    /// graph's raw material).
    pub fns: Vec<FnSym>,
    /// Parallel to [`SourceFile::fns`]: true when a `// lint: hot-path`
    /// directive marks that fn.
    pub hot_marked: Vec<bool>,
    /// Token-index ranges `[start, end)` under `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex and analyze `text` as the file at `rel_path`.
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        Self::parse_as(rel_path, text, FileKind::classify(rel_path))
    }

    /// [`SourceFile::parse`] with an explicit kind (fixture tests force
    /// kinds independent of where the fixture file happens to live).
    pub fn parse_as(rel_path: &str, text: &str, kind: FileKind) -> SourceFile {
        let Lexed { toks, comments } = lex(text);
        let test_ranges = find_cfg_test_ranges(&toks);
        let directives = parse_directives(&comments);
        let whole_file_test = matches!(kind, FileKind::Test | FileKind::Bench);
        let fns = parse_fns(&toks, &|i| {
            whole_file_test || test_ranges.iter().any(|&(s, e)| i >= s && i < e)
        });
        // A `// lint: hot-path` directive marks the nearest fn declared
        // after it (attributes in between are fine — matching is by
        // line, same as the file-local rule's next-fn-token scan).
        let hot_marked = fns
            .iter()
            .map(|f| {
                directives.iter().any(|d| match d {
                    Directive::HotPath { line } => {
                        *line < f.line && !fns.iter().any(|g| g.line > *line && g.line < f.line)
                    }
                    _ => false,
                })
            })
            .collect();
        SourceFile {
            path: rel_path.to_string(),
            kind,
            toks,
            comments,
            directives,
            fns,
            hot_marked,
            test_ranges,
        }
    }

    /// Is token `i` inside a `#[cfg(test)]` item (or is the whole file
    /// test/bench code)?
    pub fn in_test_code(&self, i: usize) -> bool {
        matches!(self.kind, FileKind::Test | FileKind::Bench)
            || self.test_ranges.iter().any(|&(s, e)| i >= s && i < e)
    }

    /// Comments on `line` (usually zero or one).
    pub fn comments_on_line(&self, line: u32) -> impl Iterator<Item = &Comment> {
        self.comments.iter().filter(move |c| c.line == line)
    }
}

/// Find `[start, end)` token ranges of items annotated `#[cfg(test)]`.
///
/// Heuristic, but exact for this workspace's idiom (`#[cfg(test)]` on a
/// `mod`/`fn`/`impl` item): match the attribute token sequence, then
/// brace-match the item body that follows.
fn find_cfg_test_ranges(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i + 5 < toks.len() {
        let is_attr = toks[i].text == "#"
            && toks[i + 1].text == "["
            && toks[i + 2].text == "cfg"
            && toks[i + 3].text == "("
            && toks[i + 4].text == "test";
        if !is_attr {
            i += 1;
            continue;
        }
        // Find the closing `]` of the attribute, then the item's `{`.
        let mut j = i + 5;
        while j < toks.len() && toks[j].text != "]" {
            j += 1;
        }
        let mut depth = 0usize;
        let start = i;
        let mut end = None;
        for (k, t) in toks.iter().enumerate().skip(j) {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = Some(k + 1);
                        break;
                    }
                }
                // An item ending before any `{` (e.g. `use …;` under
                // cfg(test)) terminates at the `;`.
                ";" if depth == 0 => {
                    end = Some(k + 1);
                    break;
                }
                _ => {}
            }
        }
        let end = end.unwrap_or(toks.len());
        ranges.push((start, end));
        i = end.max(i + 1);
    }
    ranges
}

/// Parse `// lint: …` comments into [`Directive`]s.
fn parse_directives(comments: &[Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        let Some(rest) = c.text.trim_start().strip_prefix("lint:") else {
            continue;
        };
        let rest = rest.trim();
        if rest == "hot-path" {
            out.push(Directive::HotPath { line: c.line });
        } else if let Some(args) = rest.strip_prefix("allow(") {
            match args.split_once(')') {
                Some((rule, reason)) => out.push(Directive::Allow {
                    rule: rule.trim().to_string(),
                    reason: reason.trim().to_string(),
                    line: c.line,
                    trailing: c.trailing,
                }),
                None => out.push(Directive::Malformed { line: c.line }),
            }
        } else {
            out.push(Directive::Malformed { line: c.line });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        assert_eq!(
            FileKind::classify("crates/graph/src/graph.rs"),
            FileKind::Lib
        );
        assert_eq!(
            FileKind::classify("crates/bench/src/bin/fig2_latency.rs"),
            FileKind::Bin
        );
        assert_eq!(
            FileKind::classify("crates/graph/tests/proptests.rs"),
            FileKind::Test
        );
        assert_eq!(FileKind::classify("tests/determinism.rs"), FileKind::Test);
        assert_eq!(
            FileKind::classify("crates/bench/benches/routing.rs"),
            FileKind::Bench
        );
        assert_eq!(FileKind::classify("examples/quickstart.rs"), FileKind::Bin);
        assert_eq!(FileKind::classify("examples/lib.rs"), FileKind::Lib);
    }

    #[test]
    fn cfg_test_region_covers_mod_body() {
        let src = r#"
fn lib_code() { x.unwrap(); }
#[cfg(test)]
mod tests {
    fn t() { y.unwrap(); }
}
fn more_lib() {}
"#;
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let idx = |name: &str| f.toks.iter().position(|t| t.text == name).unwrap();
        assert!(!f.in_test_code(idx("lib_code")));
        assert!(f.in_test_code(idx("t")));
        assert!(!f.in_test_code(idx("more_lib")));
    }

    #[test]
    fn test_files_are_all_test_code() {
        let f = SourceFile::parse("crates/x/tests/it.rs", "fn a() {}");
        assert!(f.in_test_code(0));
    }

    #[test]
    fn directives_parse() {
        let src = "
// lint: hot-path
fn hot() {}
let x = 1; // lint: allow(unseeded-rng) demo jitter only
// lint: allow(float-fastmath)
// lint: gibberish
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert_eq!(f.directives.len(), 4);
        assert_eq!(f.directives[0], Directive::HotPath { line: 2 });
        match &f.directives[1] {
            Directive::Allow {
                rule,
                reason,
                line,
                trailing,
            } => {
                assert_eq!(rule, "unseeded-rng");
                assert_eq!(reason, "demo jitter only");
                assert_eq!(*line, 4);
                assert!(*trailing);
            }
            other => panic!("expected Allow, got {other:?}"),
        }
        match &f.directives[2] {
            Directive::Allow { reason, .. } => assert!(reason.is_empty()),
            other => panic!("expected bare Allow, got {other:?}"),
        }
        assert_eq!(f.directives[3], Directive::Malformed { line: 6 });
    }

    #[test]
    fn fns_parsed_and_hot_marked() {
        let src = "
fn cold() {}
// lint: hot-path
#[inline]
fn hot() {}
fn also_cold() {}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let names: Vec<&str> = f.fns.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["cold", "hot", "also_cold"]);
        assert_eq!(f.hot_marked, vec![false, true, false]);
    }

    #[test]
    fn cfg_test_fns_carry_the_test_flag() {
        let src = "
fn lib_fn() {}
#[cfg(test)]
mod tests {
    fn test_helper() {}
}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let by = |n: &str| f.fns.iter().find(|s| s.name == n).unwrap();
        assert!(!by("lib_fn").is_test);
        assert!(by("test_helper").is_test);
    }

    #[test]
    fn cfg_test_use_item_does_not_swallow_rest_of_file() {
        let src = "
#[cfg(test)]
use std::collections::HashMap;
fn lib_code() {}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let idx = f.toks.iter().position(|t| t.text == "lib_code").unwrap();
        assert!(!f.in_test_code(idx));
    }
}
