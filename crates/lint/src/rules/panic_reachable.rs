//! `panic-reachable`: explicit panic-family macros (`panic!`,
//! `unreachable!`, `todo!`, `unimplemented!`, `assert!`, `assert_eq!`,
//! `assert_ne!`) in non-test library code, transitively reachable from
//! a public library API, are errors — reported with the shortest call
//! chain from the API to the panic site.
//!
//! Division of labour with clippy: `.unwrap()`/`.expect()` stay under
//! `clippy::unwrap_used`/`expect_used` and their per-site
//! `#[expect(…, reason = …)]` proofs (they are value-level and
//! near-always local); this rule owns the *macro* family, whose
//! reachability from a public entry point is exactly what a caller of
//! the library cannot see. `debug_assert*` is deliberately out of
//! scope — it vanishes in release builds, where the reproducibility
//! contract lives.
//!
//! [`LintConfig::panic_allow`] path prefixes exempt files whose *job*
//! is panicking (the `leo_util::check` property-test harness asserts by
//! panicking).

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::FileKind;
use crate::symgraph::SymbolGraph;

use super::WorkspaceRule;

/// See the module docs.
pub struct PanicReachable;

impl WorkspaceRule for PanicReachable {
    fn name(&self) -> &'static str {
        "panic-reachable"
    }

    fn rationale(&self) -> &'static str {
        "panic! family reachable from a public library API aborts the pipeline mid-artifact; \
         return errors or justify each site"
    }

    fn check(&self, graph: &SymbolGraph, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        // Roots: every `pub fn` in non-test library code. Traversal is
        // restricted to the same stratum — a lib API never executes
        // bin/test/bench code, so edges into it are resolution noise.
        let lib = |n: &crate::symgraph::SymNode| n.kind == FileKind::Lib && !n.sym.is_test;
        let roots: Vec<u32> = (0..graph.nodes.len() as u32)
            .filter(|&i| {
                let n = &graph.nodes[i as usize];
                lib(n) && n.sym.vis == crate::parser::Visibility::Public
            })
            .collect();
        let reach = graph.reach(&roots, &|_, n| lib(n));

        for (i, n) in graph.nodes.iter().enumerate() {
            if !lib(n)
                || !reach.reached(i as u32)
                || LintConfig::path_matches(&n.path, &cfg.panic_allow)
            {
                continue;
            }
            for site in &n.sym.panics {
                if site.is_unwrap {
                    continue; // clippy's jurisdiction (unwrap_used/expect_used)
                }
                let chain = reach.chain(i as u32);
                out.push(Diagnostic {
                    rule: "panic-reachable",
                    path: n.path.clone(),
                    line: site.line,
                    msg: format!(
                        "`{}` reachable from public API `{}` (chain: {})",
                        site.what,
                        graph.nodes[chain[0] as usize].sym.qualified(),
                        graph.chain_display(&chain),
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn run(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let graph = SymbolGraph::build(&parsed);
        let mut out = Vec::new();
        PanicReachable.check(&graph, &LintConfig::default(), &mut out);
        out
    }

    #[test]
    fn multi_hop_chain_reported_at_the_panic_site() {
        let out = run(&[(
            "crates/a/src/lib.rs",
            "pub fn api() { mid(); }\nfn mid() { deep(); }\nfn deep() { panic!(\"x\"); }",
        )]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].line, 3);
        assert!(out[0].msg.contains("api → mid → deep"), "{}", out[0].msg);
    }

    #[test]
    fn unreachable_private_panic_is_silent() {
        let out = run(&[(
            "crates/a/src/lib.rs",
            "pub fn api() {}\nfn orphan() { panic!(\"never called\"); }",
        )]);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn test_code_and_unwraps_are_out_of_scope() {
        let out = run(&[(
            "crates/a/src/lib.rs",
            "pub fn api(x: Option<u32>) { let _ = x.unwrap(); }\n\
             #[cfg(test)]\nmod tests { pub fn t() { assert!(true); } }",
        )]);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn allow_paths_exempt_whole_files() {
        let files = [
            (
                "crates/util/src/check.rs",
                "pub fn assert_prop() { assert!(true); }",
            ),
            ("crates/a/src/lib.rs", "pub fn api() { assert_eq!(1, 1); }"),
        ];
        let out = run(&files);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].path, "crates/a/src/lib.rs");
    }

    #[test]
    fn cross_file_reachability() {
        let out = run(&[
            ("crates/a/src/lib.rs", "pub fn api() { helper(); }"),
            ("crates/b/src/lib.rs", "pub fn helper() { unreachable!(); }"),
        ]);
        // helper is itself pub, so the shortest chain is length 1.
        assert_eq!(out.len(), 1);
        assert!(out[0].msg.contains("chain: helper"), "{}", out[0].msg);
    }
}
