//! The rule framework and registry.
//!
//! Two rule shapes:
//!
//! * [`Rule`] — a pure function over one analyzed [`SourceFile`]; runs
//!   in parallel across files (hence the `Sync` bound) and never does
//!   IO.
//! * [`WorkspaceRule`] — a pure function over the whole-workspace
//!   [`crate::symgraph::SymbolGraph`]; runs once after
//!   every file is parsed, for invariants (reachability) no single
//!   file can prove.
//!
//! Suppression handling lives in the runner ([`crate::Linter`]), not in
//! rules — every rule of either shape stays suppressible by the same
//! `// lint: allow(<rule>) <reason>` mechanism without per-rule code.
//! The one exception is `stale-allow` (also runner logic): it fires on
//! the suppression machinery itself, so allowing it would be circular —
//! an `allow(stale-allow)` never suppresses anything and is therefore
//! itself stale.

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::SourceFile;
use crate::symgraph::SymbolGraph;

mod float_fastmath;
mod hot_path_alloc;
mod hot_path_reach;
mod panic_reachable;
mod unordered_iter;
mod unseeded_rng;

pub use float_fastmath::FloatFastmath;
pub use hot_path_alloc::HotPathAlloc;
pub use hot_path_reach::HotPathReach;
pub use panic_reachable::PanicReachable;
pub use unordered_iter::UnorderedIter;
pub use unseeded_rng::UnseededRng;

/// A file-local invariant check.
pub trait Rule: Sync {
    /// Kebab-case rule name — the key used in `lint: allow(<name>)`
    /// suppressions.
    fn name(&self) -> &'static str;
    /// One line on what the rule enforces and why (shown by `--rules`).
    fn rationale(&self) -> &'static str;
    /// Append diagnostics for `file` to `out`.
    fn check(&self, file: &SourceFile, cfg: &LintConfig, out: &mut Vec<Diagnostic>);
}

/// A workspace-level invariant check over the symbol graph.
pub trait WorkspaceRule: Sync {
    /// Kebab-case rule name (may coincide with a file-local rule when
    /// the two are halves of one invariant — `hot-path-alloc`).
    fn name(&self) -> &'static str;
    /// One line on what the rule enforces and why (shown by `--rules`).
    fn rationale(&self) -> &'static str;
    /// Append diagnostics over the whole graph to `out`.
    fn check(&self, graph: &SymbolGraph, cfg: &LintConfig, out: &mut Vec<Diagnostic>);
}

/// Every shipped file-local rule, in stable order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(UnorderedIter),
        Box::new(UnseededRng),
        Box::new(HotPathAlloc),
        Box::new(FloatFastmath),
    ]
}

/// Every shipped workspace rule, in stable order.
pub fn workspace_rules() -> Vec<Box<dyn WorkspaceRule>> {
    vec![Box::new(PanicReachable), Box::new(HotPathReach)]
}

/// Names of every shipped rule (both shapes) plus the meta-diagnostics
/// the runner itself can emit (`bare-allow`, `bad-directive`,
/// `stale-allow`). Used to reject `allow(...)` of rules that do not
/// exist.
pub fn known_rule_names() -> Vec<&'static str> {
    let mut names: Vec<&'static str> = all_rules().iter().map(|r| r.name()).collect();
    for r in workspace_rules() {
        if !names.contains(&r.name()) {
            names.push(r.name());
        }
    }
    names.push("bare-allow");
    names.push("bad-directive");
    names.push("stale-allow");
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_kebab() {
        let rules = all_rules();
        let mut names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate rule names");
        for n in names {
            assert!(
                n.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule name `{n}` is not kebab-case"
            );
        }
        assert_eq!(rules.len(), 4, "the shipped file-local rule set");
        for r in rules {
            assert!(!r.rationale().is_empty());
        }
    }

    #[test]
    fn workspace_registry_and_known_names() {
        let ws = workspace_rules();
        assert_eq!(ws.len(), 2);
        let known = known_rule_names();
        for want in [
            "panic-reachable",
            "hot-path-alloc",
            "stale-allow",
            "bare-allow",
            "bad-directive",
        ] {
            assert!(known.contains(&want), "missing {want}");
        }
        // hot-path-alloc appears in both shapes but only once in the
        // known set.
        assert_eq!(known.iter().filter(|n| **n == "hot-path-alloc").count(), 1);
    }
}
