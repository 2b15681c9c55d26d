//! leo-lint: source-level static analysis for the workspace's
//! determinism and hygiene invariants that rustc and clippy can't see.
//!
//! A hand-rolled lexer ([`lexer`]) feeds per-file analysis
//! ([`source::SourceFile`]) to four file-local rules ([`rules`]): no
//! hash-order iteration on result paths, seeded RNG only, zero-alloc
//! hot paths, and explicit float comparisons in tests. On top of the
//! lexer, an item parser ([`parser`]) builds a workspace symbol graph
//! ([`symgraph`]) for the reachability rules — `panic-reachable` and
//! the workspace half of `hot-path-alloc` — that check invariants
//! *across* files along the over-approximate call graph. Hermetic like
//! the rest of the workspace: depends only on `leo-util` and
//! `leo-core` (for the parallel map).
//!
//! Clippy owns the invariants it checks exactly, under `-D` in
//! `scripts/ci.sh`: no `.unwrap()`/`.expect()` or stdio in library code
//! (`unwrap_used`, `expect_used`, `print_stdout`, `print_stderr`,
//! `dbg_macro` on `--lib`), a `// SAFETY:` comment on every `unsafe`
//! block (`undocumented_unsafe_blocks`), and no wall-clock reads
//! (`disallowed_methods`/`disallowed_types`, configured in the root
//! `clippy.toml`). Their suppressions are
//! `#[expect(clippy::…, reason = "…")]`, which rustc's
//! `unfulfilled_lint_expectations` audits as `stale-allow` audits the
//! allows below. `unordered-iter` and `float-fastmath` stay here
//! because their clippy namesakes are not the same check:
//! `iter_over_hash_type` sees only `for` loops, and `float_cmp` both
//! misses comparisons against `0.0` and flags ones the rule allows.
//!
//! Suppressions are inline — `// lint: allow(<rule>) <reason>` — with
//! the reason mandatory, and every suppression is counted in the
//! report so the escape hatch stays visible. A suppression that
//! suppresses nothing is itself an error (`stale-allow`): the audit
//! trail must describe the tree as it is, not as it once was.
//! `// lint: hot-path` marks the next `fn` as a zero-alloc region for
//! `hot-path-alloc` (body checked file-locally, callees checked via
//! the graph).
//!
//! The run pipeline is two-phase: files parse and run file-local rules
//! in parallel ([`leo_core::par::parallel_map`], order-preserving),
//! then the symbol graph builds single-pass and workspace rules,
//! suppression, and `stale-allow` auditing run deterministically.
//! Output is bytewise independent of the thread count.

pub mod config;
pub mod diag;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod source;
pub mod symgraph;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use config::LintConfig;
use diag::{Diagnostic, LintReport};
use source::{Directive, FileKind, SourceFile};
use symgraph::SymbolGraph;

/// Current analyzer version, recorded in run manifests so a
/// `lint_clean` flag certifies against a known rule set (an old log
/// cannot silently pass a newer, stricter bar).
pub const LINT_VERSION: u32 = 3;

/// One file to lint: its workspace-relative path, full text, and an
/// optional forced [`FileKind`] (fixture corpora live under `tests/`
/// but pose as lib/bin files).
pub struct FileSpec {
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// Full source text.
    pub text: String,
    /// Forced kind, or `None` to classify from the path.
    pub kind: Option<FileKind>,
}

/// Lint outcome for one file.
#[derive(Debug, Default)]
pub struct FileOutcome {
    /// Surviving (unsuppressed) diagnostics, including any
    /// `stale-allow` findings for this file.
    pub diagnostics: Vec<Diagnostic>,
    /// `(rule, line)` of each applied suppression.
    pub suppressed: Vec<(String, u32)>,
}

/// Outcome of linting a set of files as one workspace.
pub struct WorkspaceOutcome {
    /// Per-file outcomes, sorted by path.
    pub outcomes: Vec<(String, FileOutcome)>,
    /// The symbol graph the workspace rules ran over.
    pub graph: SymbolGraph,
}

/// The rule runner: applies every rule, then the suppression pass.
pub struct Linter {
    cfg: LintConfig,
    rules: Vec<Box<dyn rules::Rule>>,
    ws_rules: Vec<Box<dyn rules::WorkspaceRule>>,
    known: Vec<&'static str>,
}

impl Linter {
    /// Build a runner over the full rule registry.
    pub fn new(cfg: LintConfig) -> Linter {
        Linter {
            cfg,
            rules: rules::all_rules(),
            ws_rules: rules::workspace_rules(),
            known: rules::known_rule_names(),
        }
    }

    /// The active configuration.
    pub fn cfg(&self) -> &LintConfig {
        &self.cfg
    }

    /// Lint `specs` as one workspace: parallel per-file parse + local
    /// rules, then graph build, workspace rules, suppression, and the
    /// stale-allow audit. `threads = 0` picks the hardware default;
    /// the result is bytewise identical at any thread count (files are
    /// sorted by path and [`leo_core::par::parallel_map`] preserves
    /// order).
    pub fn check_sources(&self, mut specs: Vec<FileSpec>, threads: usize) -> WorkspaceOutcome {
        specs.sort_by(|a, b| a.path.cmp(&b.path));

        // Phase A (parallel): parse + file-local rules.
        let mut parsed: Vec<(SourceFile, Vec<Diagnostic>)> =
            leo_core::par::parallel_map(&specs, threads, |spec| {
                let file = match spec.kind {
                    Some(k) => SourceFile::parse_as(&spec.path, &spec.text, k),
                    None => SourceFile::parse(&spec.path, &spec.text),
                };
                let mut raw = Vec::new();
                for rule in &self.rules {
                    rule.check(&file, &self.cfg, &mut raw);
                }
                (file, raw)
            });

        // Phase B (serial): symbol graph + workspace rules.
        let graph = SymbolGraph::build(parsed.iter().map(|(f, _)| f));
        let mut ws_raw: Vec<Diagnostic> = Vec::new();
        for rule in &self.ws_rules {
            rule.check(&graph, &self.cfg, &mut ws_raw);
        }
        // Route workspace diagnostics to their file (paths are sorted,
        // so binary search keeps this deterministic and O(log n)).
        for d in ws_raw {
            if let Ok(idx) = parsed.binary_search_by(|(f, _)| f.path.as_str().cmp(&d.path)) {
                parsed[idx].1.push(d);
            }
        }

        // Phase C: per-file suppression + stale-allow.
        let outcomes = parsed
            .into_iter()
            .map(|(file, raw)| {
                let out = self.suppress(&file, raw);
                (file.path, out)
            })
            .collect();
        WorkspaceOutcome { outcomes, graph }
    }

    /// Directive hygiene + the suppression pass for one file's raw
    /// diagnostics, then the stale-allow audit over its directives.
    fn suppress(&self, file: &SourceFile, mut raw: Vec<Diagnostic>) -> FileOutcome {
        let mut outcome = FileOutcome::default();
        // Directive hygiene: malformed comments and bare allows are
        // diagnostics themselves (and bare/unknown allows never
        // suppress — the reason is the price of the escape hatch).
        let mut allows: Vec<(&str, u32, bool, bool)> = Vec::new(); // (rule, line, trailing, used)
        for d in &file.directives {
            match d {
                Directive::Malformed { line } => raw.push(Diagnostic {
                    rule: "bad-directive",
                    path: file.path.clone(),
                    line: *line,
                    msg: "unparseable `// lint:` directive — expected `allow(<rule>) <reason>` \
                          or `hot-path`"
                        .into(),
                }),
                Directive::Allow {
                    rule,
                    reason,
                    line,
                    trailing,
                } => {
                    if !self.known.contains(&rule.as_str()) {
                        raw.push(Diagnostic {
                            rule: "bad-directive",
                            path: file.path.clone(),
                            line: *line,
                            msg: format!("`lint: allow({rule})` names an unknown rule"),
                        });
                    } else if reason.is_empty() {
                        raw.push(Diagnostic {
                            rule: "bare-allow",
                            path: file.path.clone(),
                            line: *line,
                            msg: format!(
                                "`lint: allow({rule})` without a written reason — say why \
                                 the invariant holds here"
                            ),
                        });
                    } else {
                        allows.push((rule, *line, *trailing, false));
                    }
                }
                Directive::HotPath { .. } => {}
            }
        }

        // Suppression pass: a trailing allow covers its own line; a
        // standalone allow covers itself and the next line.
        for d in raw {
            let hit = allows.iter_mut().find(|(rule, line, trailing, _)| {
                *rule == d.rule
                    && if *trailing {
                        d.line == *line
                    } else {
                        d.line == *line || d.line == *line + 1
                    }
            });
            match hit {
                Some(entry) => {
                    entry.3 = true;
                    outcome.suppressed.push((d.rule.to_string(), d.line));
                }
                None => outcome.diagnostics.push(d),
            }
        }
        // Stale-allow audit: a reasoned allow that suppressed nothing
        // is an error in its own right — and deliberately not
        // suppressible (allowing the audit would be circular).
        for (rule, line, _, used) in &allows {
            if !used {
                outcome.diagnostics.push(Diagnostic {
                    rule: "stale-allow",
                    path: file.path.clone(),
                    line: *line,
                    msg: format!(
                        "`lint: allow({rule})` suppresses nothing — remove it (stale \
                         suppressions rot the audit trail)"
                    ),
                });
            }
        }
        outcome
            .diagnostics
            .sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
        outcome
    }

    /// Lint source text as the file at `rel_path` (a one-file
    /// workspace: the reachability rules see this file's symbols only),
    /// optionally forcing the [`FileKind`].
    pub fn check_source(&self, rel_path: &str, text: &str, kind: Option<FileKind>) -> FileOutcome {
        let spec = FileSpec {
            path: rel_path.to_string(),
            text: text.to_string(),
            kind,
        };
        let mut ws = self.check_sources(vec![spec], 1);
        ws.outcomes.pop().map(|(_, o)| o).unwrap_or_default()
    }

    /// Walk `root`, lint every non-excluded `.rs` file, and aggregate
    /// the report. The symbol graph is always built from the *whole*
    /// workspace; `filters` (path prefixes) restrict which files'
    /// diagnostics are reported, not what the reachability rules see.
    pub fn run(
        &self,
        root: &Path,
        filters: &[String],
        threads: usize,
    ) -> io::Result<(LintReport, SymbolGraph)> {
        let mut specs = Vec::new();
        for rel in walk::rs_files(root)? {
            if self.cfg.is_excluded(&rel) {
                continue;
            }
            let text = fs::read_to_string(root.join(&rel))?;
            specs.push(FileSpec {
                path: rel,
                text,
                kind: None,
            });
        }
        let ws = self.check_sources(specs, threads);

        let mut report = LintReport::default();
        let mut counts: Vec<(String, usize)> = Vec::new();
        for (path, outcome) in ws.outcomes {
            if !filters.is_empty() && !filters.iter().any(|f| path.starts_with(f.as_str())) {
                continue;
            }
            report.files += 1;
            report.diagnostics.extend(outcome.diagnostics);
            for (rule, _) in outcome.suppressed {
                match counts.iter_mut().find(|(r, _)| *r == rule) {
                    Some((_, n)) => *n += 1,
                    None => counts.push((rule, 1)),
                }
            }
        }
        report
            .diagnostics
            .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
        counts.sort_unstable();
        report.suppressed = counts;
        Ok((report, ws.graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linter() -> Linter {
        Linter::new(LintConfig::default())
    }

    #[test]
    fn suppression_with_reason_applies_and_counts() {
        let src =
            "fn f() {\n    let r = thread_rng(); // lint: allow(unseeded-rng) demo jitter only\n}";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        assert!(out.diagnostics.is_empty(), "{:#?}", out.diagnostics);
        assert_eq!(out.suppressed, vec![("unseeded-rng".to_string(), 2)]);
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let src =
            "fn f() {\n    // lint: allow(unseeded-rng) demo jitter only\n    let r = thread_rng();\n}";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        assert!(out.diagnostics.is_empty());
        assert_eq!(out.suppressed.len(), 1);
    }

    #[test]
    fn bare_allow_is_a_diagnostic_and_does_not_suppress() {
        let src = "fn f() {\n    let r = thread_rng(); // lint: allow(unseeded-rng)\n}";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"bare-allow"), "{rules:?}");
        assert!(rules.contains(&"unseeded-rng"), "{rules:?}");
        assert!(out.suppressed.is_empty());
    }

    #[test]
    fn unknown_rule_and_malformed_directive_flagged() {
        // A rule that moved to clippy is unknown here: a leftover allow
        // of it is an error, not a silent no-op.
        let src = "// lint: allow(no-such-rule) because\n// lint: wat\n\
                   // lint: allow(unwrap-in-lib) moved to clippy::unwrap_used\nfn f() {}";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        assert_eq!(out.diagnostics.len(), 3, "{:#?}", out.diagnostics);
        assert!(out.diagnostics.iter().all(|d| d.rule == "bad-directive"));
    }

    #[test]
    fn stale_allow_is_an_error() {
        let src = "// lint: allow(unseeded-rng) nothing here actually\nfn f() {}";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        assert_eq!(out.diagnostics.len(), 1, "{:#?}", out.diagnostics);
        assert_eq!(out.diagnostics[0].rule, "stale-allow");
        assert_eq!(out.diagnostics[0].line, 1);
    }

    #[test]
    fn allowing_the_stale_allow_audit_is_circular_and_fails() {
        // `allow(stale-allow)` can never suppress anything (the audit
        // runs after suppression), so it is always itself stale.
        let src = "// lint: allow(stale-allow) trying to dodge the audit\nfn f() {}";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].rule, "stale-allow");
    }

    #[test]
    fn forced_kind_overrides_path() {
        // Under tests/ this would be exempt from panic-reachable;
        // forcing Lib makes it fire — the mechanism fixture corpora
        // rely on.
        let src = "pub fn f() { panic!(\"boom\"); }";
        let path = "crates/lint/tests/fixtures/u.rs";
        assert!(linter()
            .check_source(path, src, None)
            .diagnostics
            .is_empty());
        let out = linter().check_source(path, src, Some(FileKind::Lib));
        assert_eq!(out.diagnostics.len(), 1);
    }

    #[test]
    fn workspace_rules_fire_through_check_source() {
        let src = "pub fn api() { helper(); }\nfn helper() { panic!(\"boom\"); }";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        assert_eq!(out.diagnostics.len(), 1, "{:#?}", out.diagnostics);
        assert_eq!(out.diagnostics[0].rule, "panic-reachable");
        assert!(out.diagnostics[0].msg.contains("api → helper"));
    }

    #[test]
    fn workspace_diagnostics_are_suppressible_and_allows_count_as_used() {
        let src = "pub fn api() { helper(); }\n\
                   fn helper() {\n\
                       panic!(\"boom\"); // lint: allow(panic-reachable) unreachable: api guards\n\
                   }";
        let out = linter().check_source("crates/x/src/lib.rs", src, None);
        assert!(out.diagnostics.is_empty(), "{:#?}", out.diagnostics);
        assert_eq!(out.suppressed, vec![("panic-reachable".to_string(), 3)]);
    }

    #[test]
    fn cross_file_reachability_via_check_sources() {
        let specs = vec![
            FileSpec {
                path: "crates/a/src/lib.rs".into(),
                text: "pub fn api() { helper(); }".into(),
                kind: None,
            },
            FileSpec {
                path: "crates/b/src/lib.rs".into(),
                text: "pub(crate) fn helper() { todo!() }".into(),
                kind: None,
            },
        ];
        let ws = Linter::new(LintConfig::default()).check_sources(specs, 1);
        let all: Vec<&Diagnostic> = ws
            .outcomes
            .iter()
            .flat_map(|(_, o)| o.diagnostics.iter())
            .collect();
        assert_eq!(all.len(), 1, "{all:#?}");
        assert_eq!(all[0].path, "crates/b/src/lib.rs");
        assert!(all[0].msg.contains("api → helper"), "{}", all[0].msg);
    }
}
