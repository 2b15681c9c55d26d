//! `hot-path-alloc` v2 — the workspace half of the rule: allocation in
//! any fn *transitively reachable* from a configured hot-path root
//! ([`LintConfig::hot_path_roots`]) or from a `// lint: hot-path`-marked
//! fn, reported with the shortest call chain from the root.
//!
//! The file-local half ([`super::HotPathAlloc`]) patrols the *bodies*
//! of marked fns; this half patrols everything those bodies (and the
//! configured roots) call. Marked fns are therefore used as roots but
//! their own sites are skipped here — one site, one rule, one allow.
//!
//! Beyond the v1 site set, the reachability pass also flags the buffer
//! *growth* methods (`.extend()`, `.resize()`, `.resize_with()`,
//! `.reserve()`, `.append()`). Bare `.push(…)` is deliberately not in
//! the set: pushing into a recycled workspace buffer (cleared each
//! round, capacity retained) is the sanctioned zero-alloc idiom, and
//! growth is caught where buffers are created or resized instead.
//!
//! [`LintConfig::hot_path_allow`] path prefixes exempt files wholesale
//! (e.g. cold-path config loaders dragged in by over-approximate
//! method resolution).

use crate::config::LintConfig;
use crate::diag::Diagnostic;
use crate::source::FileKind;
use crate::symgraph::SymbolGraph;

use super::WorkspaceRule;

/// See the module docs.
pub struct HotPathReach;

impl WorkspaceRule for HotPathReach {
    fn name(&self) -> &'static str {
        "hot-path-alloc"
    }

    fn rationale(&self) -> &'static str {
        "allocation reachable from a hot-path root multiplies by snapshot×pair counts; \
         hoist into pre-allocated workspaces"
    }

    fn check(&self, graph: &SymbolGraph, cfg: &LintConfig, out: &mut Vec<Diagnostic>) {
        let mut roots: Vec<u32> = Vec::new();
        for pat in &cfg.hot_path_roots {
            roots.extend(graph.match_pattern(pat));
        }
        roots.extend((0..graph.nodes.len() as u32).filter(|&i| graph.nodes[i as usize].hot_marked));
        roots.sort_unstable();
        roots.dedup();

        // The declared cold boundary: traversal stops at these fns.
        let mut cold = vec![false; graph.nodes.len()];
        for pat in &cfg.hot_path_cold {
            for i in graph.match_pattern(pat) {
                cold[i as usize] = true;
            }
        }

        // Hot paths live in library code; edges into bins/tests are
        // method-name resolution noise, not execution paths.
        let allowed = |i: u32, n: &crate::symgraph::SymNode| {
            n.kind == FileKind::Lib && !n.sym.is_test && !cold[i as usize]
        };
        let reach = graph.reach(&roots, &allowed);

        for (i, n) in graph.nodes.iter().enumerate() {
            if !reach.reached(i as u32)
                || n.hot_marked // body patrolled by the file-local half
                || LintConfig::path_matches(&n.path, &cfg.hot_path_allow)
            {
                continue;
            }
            for site in &n.sym.allocs {
                let chain = reach.chain(i as u32);
                out.push(Diagnostic {
                    rule: "hot-path-alloc",
                    path: n.path.clone(),
                    line: site.line,
                    msg: format!(
                        "`{}` allocates on a hot path (reached via {})",
                        site.what,
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

    fn run_cfg(files: &[(&str, &str)], cfg: &LintConfig) -> Vec<Diagnostic> {
        let parsed: Vec<SourceFile> = files.iter().map(|(p, s)| SourceFile::parse(p, s)).collect();
        let graph = SymbolGraph::build(&parsed);
        let mut out = Vec::new();
        HotPathReach.check(&graph, cfg, &mut out);
        out
    }

    fn cfg_with_root(root: &str) -> LintConfig {
        LintConfig {
            hot_path_roots: vec![root.to_string()],
            ..LintConfig::default()
        }
    }

    #[test]
    fn configured_root_reaches_through_two_hops() {
        let out = run_cfg(
            &[(
                "crates/a/src/lib.rs",
                "struct W;\n\
                 impl W { pub fn apply(&self) { relax(); } }\n\
                 fn relax() { settle(); }\n\
                 fn settle() { let v: Vec<u32> = Vec::new(); }",
            )],
            &cfg_with_root("W::apply"),
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 4);
        assert!(
            out[0].msg.contains("W::apply → relax → settle"),
            "{}",
            out[0].msg
        );
    }

    #[test]
    fn marked_fns_are_roots_but_their_bodies_are_v1_territory() {
        let out = run_cfg(
            &[(
                "crates/a/src/lib.rs",
                "// lint: hot-path\n\
                 fn hot() { let v = vec![1]; helper(); }\n\
                 fn helper() { let s = x.to_vec(); }",
            )],
            &LintConfig::default(),
        );
        // Only helper's site: hot()'s own vec! belongs to the local rule.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn growth_methods_flagged_but_push_sanctioned() {
        let out = run_cfg(
            &[(
                "crates/a/src/lib.rs",
                "struct W;\n\
                 impl W { pub fn apply(&self) { fill(); } }\n\
                 fn fill() { buf.push(1); buf.extend(other); }",
            )],
            &cfg_with_root("W::apply"),
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].msg.contains(".extend()"), "{}", out[0].msg);
    }

    #[test]
    fn cold_code_is_untouched() {
        let out = run_cfg(
            &[(
                "crates/a/src/lib.rs",
                "pub fn cold_setup() { let v: Vec<u32> = Vec::new(); }",
            )],
            &cfg_with_root("W::apply"),
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn cold_boundary_stops_traversal() {
        let mut cfg = cfg_with_root("W::apply");
        cfg.hot_path_cold = vec!["W::setup".into()];
        let out = run_cfg(
            &[(
                "crates/a/src/lib.rs",
                "struct W;\n\
                 impl W {\n\
                     pub fn apply(&self) { self.setup(); relax(); }\n\
                     fn setup(&self) { let v = vec![1]; init_tables(); }\n\
                 }\n\
                 fn init_tables() { let t: Vec<u32> = Vec::new(); }\n\
                 fn relax() { buf.extend(x); }",
            )],
            &cfg,
        );
        // setup and everything only-reachable-through-it is cold;
        // relax stays hot.
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].msg.contains(".extend()"), "{}", out[0].msg);
    }

    #[test]
    fn allow_paths_exempt_files() {
        let mut cfg = cfg_with_root("entry");
        cfg.hot_path_allow = vec!["crates/b/".into()];
        let out = run_cfg(
            &[
                ("crates/a/src/lib.rs", "pub fn entry() { load(); }"),
                ("crates/b/src/lib.rs", "pub fn load() { let v = vec![1]; }"),
            ],
            &cfg,
        );
        assert!(out.is_empty(), "{out:#?}");
    }
}
