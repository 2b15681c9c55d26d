//! End-to-end tests of the `leo-lint` binary: exit codes, output
//! forms, suppression accounting, and the real workspace staying clean
//! under `--deny`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_leo-lint"))
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

fn run(args: &[&str]) -> Output {
    let mut cmd = bin();
    cmd.args(args);
    cmd.output().expect("spawn leo-lint")
}

/// A throwaway tree with one violating lib file: a file-local and a
/// workspace finding.
fn bad_tree(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(v: &[u32]) -> u32 {\n    let _jitter = thread_rng();\n    assert!(!v.is_empty());\n    v[0]\n}\n",
    )
    .expect("write fixture");
    root
}

#[test]
fn findings_exit_zero_without_deny_and_one_with() {
    let root = bad_tree("cli_exit_codes");
    let rootarg = root.to_str().expect("utf8 tmpdir");

    let out = run(&["--root", rootarg]);
    assert!(out.status.success(), "no --deny must exit 0");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("crates/x/src/lib.rs:2: [unseeded-rng]"),
        "{text}"
    );
    assert!(
        text.contains("crates/x/src/lib.rs:3: [panic-reachable]"),
        "{text}"
    );
    assert!(text.contains("checked 1 files: 2 diagnostics"), "{text}");

    let out = run(&["--root", rootarg, "--deny"]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "--deny with findings must exit 1"
    );
}

#[test]
fn jsonl_output_parses_with_the_shared_parser() {
    let root = bad_tree("cli_jsonl");
    let out = run(&["--root", root.to_str().expect("utf8"), "--jsonl"]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}"); // 2 diagnostics + summary
    for l in &lines {
        let v = leo_util::telemetry::Json::parse(l).expect("valid JSONL");
        let ty = v.get("type").and_then(|t| t.as_str()).expect("type field");
        assert!(ty == "diagnostic" || ty == "lint_summary");
    }
    let summary = leo_util::telemetry::Json::parse(lines[2]).expect("summary");
    assert_eq!(
        summary.get("diagnostics").and_then(|n| n.as_num()),
        Some(2.0)
    );
}

#[test]
fn suppression_counting_reaches_the_cli_summary() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_suppression");
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn f(v: &[u32]) -> u32 {\n    // lint: allow(panic-reachable) caller contract: non-empty\n    assert!(!v.is_empty());\n    v[0]\n}\n",
    )
    .expect("write fixture");

    let out = run(&["--root", root.to_str().expect("utf8"), "--deny"]);
    assert!(out.status.success(), "suppressed finding must pass --deny");
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        text.contains("suppressions applied: 1 (panic-reachable×1)"),
        "{text}"
    );
    assert!(text.contains("checked 1 files: 0 diagnostics"), "{text}");
}

#[test]
fn unknown_flag_and_bad_root_exit_two() {
    let out = run(&["--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--root", "/nonexistent/definitely/missing"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn rules_listing_names_local_workspace_and_audit_rules() {
    let out = run(&["--rules"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    for rule in [
        "unordered-iter",
        "unseeded-rng",
        "hot-path-alloc",
        "float-fastmath",
        "panic-reachable",
        "stale-allow",
    ] {
        assert!(text.contains(rule), "missing {rule} in:\n{text}");
    }
    // The rules clippy checks exactly are clippy's alone.
    for moved in [
        "wall-clock",
        "unwrap-in-lib",
        "unsafe-undocumented",
        "print-in-lib",
    ] {
        assert!(!text.contains(moved), "{moved} still listed in:\n{text}");
    }
    assert!(text.contains("[workspace]"), "{text}");
    assert!(text.contains("[audit]"), "{text}");
}

/// A tree exercising all three v2 rules: a panic chain behind a public
/// API, an allocation below a marked hot-path root, and a stale allow.
fn v2_tree(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let src = root.join("crates/x/src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        src.join("lib.rs"),
        "pub fn api(x: u32) -> u32 { mid(x) }\n\
         fn mid(x: u32) -> u32 { deep(x) }\n\
         fn deep(x: u32) -> u32 { if x > 9 { panic!(\"x\"); } x }\n",
    )
    .expect("write lib.rs");
    std::fs::write(
        src.join("spt.rs"),
        "pub struct SptWorkspace;\n\
         // lint: hot-path\n\
         impl SptWorkspace { pub fn apply(&mut self) { relax(); } }\n\
         fn relax() { let v: Vec<u32> = Vec::new(); drop(v); }\n",
    )
    .expect("write spt.rs");
    std::fs::write(
        src.join("stale.rs"),
        "pub fn double(x: u32) -> u32 {\n    x * 2 // lint: allow(unseeded-rng) jitter term was removed\n}\n",
    )
    .expect("write stale.rs");
    root
}

#[test]
fn v2_rules_reach_jsonl_with_chains() {
    let root = v2_tree("cli_v2_jsonl");
    let out = run(&["--root", root.to_str().expect("utf8"), "--jsonl"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let mut rules = Vec::new();
    for l in text.lines() {
        let v = leo_util::telemetry::Json::parse(l).expect("valid JSONL");
        if v.get("type").and_then(|t| t.as_str()) == Some("diagnostic") {
            let rule = v
                .get("rule")
                .and_then(|r| r.as_str())
                .expect("rule")
                .to_string();
            let msg = v
                .get("msg")
                .and_then(|m| m.as_str())
                .expect("msg")
                .to_string();
            match rule.as_str() {
                "panic-reachable" => {
                    assert!(msg.contains("api → mid → deep"), "{msg}");
                }
                "hot-path-alloc" => {
                    assert!(msg.contains("SptWorkspace::apply → relax"), "{msg}");
                }
                _ => {}
            }
            rules.push(rule);
        }
    }
    rules.sort();
    assert_eq!(
        rules,
        ["hot-path-alloc", "panic-reachable", "stale-allow"],
        "{text}"
    );
}

/// Satellite contract: the parallel per-file pass must not leak thread
/// count into output — byte-identical at 1 and 8 workers.
#[test]
fn output_is_byte_identical_across_thread_counts() {
    let root = v2_tree("cli_threads");
    let rootarg = root.to_str().expect("utf8");
    let one = run(&["--root", rootarg, "--threads", "1"]);
    let eight = run(&["--root", rootarg, "--threads", "8"]);
    assert_eq!(one.status.code(), eight.status.code());
    assert_eq!(one.stdout, eight.stdout, "thread count leaked into output");
    let one_j = run(&["--root", rootarg, "--threads", "1", "--jsonl"]);
    let eight_j = run(&["--root", rootarg, "--threads", "8", "--jsonl"]);
    assert_eq!(
        one_j.stdout, eight_j.stdout,
        "thread count leaked into JSONL"
    );
}

#[test]
fn graph_out_persists_the_symbol_graph() {
    let root = v2_tree("cli_graph_out");
    let graph_path = root.join("symgraph.jsonl");
    let out = run(&[
        "--root",
        root.to_str().expect("utf8"),
        "--graph-out",
        graph_path.to_str().expect("utf8"),
    ]);
    assert!(
        out.status.success() || out.status.code() == Some(0),
        "{out:?}"
    );
    let text = std::fs::read_to_string(&graph_path).expect("graph file written");
    let mut types = std::collections::BTreeSet::new();
    for l in text.lines() {
        let v = leo_util::telemetry::Json::parse(l).expect("valid graph JSONL");
        types.insert(
            v.get("type")
                .and_then(|t| t.as_str())
                .expect("type")
                .to_string(),
        );
    }
    assert!(types.contains("lint_symbol"), "{types:?}");
    assert!(types.contains("lint_edge"), "{types:?}");
    assert!(types.contains("lint_graph_summary"), "{types:?}");
    // The summary counts must match the emitted records.
    let summary = text
        .lines()
        .find(|l| l.contains("lint_graph_summary"))
        .expect("summary line");
    let v = leo_util::telemetry::Json::parse(summary).expect("summary json");
    let symbols = v.get("symbols").and_then(|n| n.as_num()).expect("symbols");
    let n_sym = text
        .lines()
        .filter(|l| l.contains("\"lint_symbol\""))
        .count();
    assert_eq!(symbols as usize, n_sym);
}

/// The acceptance criterion made executable: the real workspace passes
/// `--deny`, so CI's lint lane cannot rot silently.
#[test]
fn real_workspace_is_lint_clean_under_deny() {
    let root = workspace_root();
    let out = run(&["--root", root.to_str().expect("utf8 root"), "--deny"]);
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        out.status.success(),
        "workspace must be lint-clean under --deny:\n{text}"
    );
    assert!(text.contains("0 diagnostics"), "{text}");
}
