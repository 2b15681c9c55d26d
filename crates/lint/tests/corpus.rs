//! Fixture corpus: one good/bad file pair per rule, run through the
//! library API with the file kind forced (fixtures live under `tests/`
//! on disk but pose as lib/bin/test files). The lints clippy owns have
//! their bad fixture in `fixtures/clippy/`, a stand-alone crate that
//! `scripts/ci.sh` runs clippy over.

use leo_lint::config::LintConfig;
use leo_lint::source::FileKind;
use leo_lint::{FileOutcome, Linter};

fn fixture(rel: &str) -> String {
    let path = format!("{}/tests/fixtures/{rel}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

fn check(rel: &str, presented_path: &str, kind: FileKind) -> FileOutcome {
    Linter::new(LintConfig::default()).check_source(presented_path, &fixture(rel), Some(kind))
}

/// (rule, fixture dir, presented path, forced kind, expected bad hits)
const CASES: &[(&str, &str, &str, FileKind, usize)] = &[
    (
        "unordered-iter",
        "unordered-iter",
        "crates/core/src/fixture.rs",
        FileKind::Lib,
        2,
    ),
    (
        "unseeded-rng",
        "unseeded-rng",
        "crates/x/src/lib.rs",
        FileKind::Lib,
        3,
    ),
    (
        "hot-path-alloc",
        "hot-path-alloc",
        "crates/graph/src/fixture.rs",
        FileKind::Lib,
        3,
    ),
    (
        "float-fastmath",
        "float-fastmath",
        "crates/x/tests/fixture.rs",
        FileKind::Test,
        3,
    ),
    (
        "panic-reachable",
        "panic-reachable",
        "crates/x/src/lib.rs",
        FileKind::Lib,
        1,
    ),
    // The workspace half of hot-path-alloc: the fixture marks its
    // `SptWorkspace::apply` as a hot-path root.
    (
        "hot-path-alloc",
        "hot-path-reach",
        "crates/x/src/lib.rs",
        FileKind::Lib,
        1,
    ),
];

#[test]
fn every_rule_fires_on_its_bad_fixture() {
    for &(rule, dir, path, kind, expected) in CASES {
        let out = check(&format!("{dir}/bad.rs"), path, kind);
        let hits = out.diagnostics.iter().filter(|d| d.rule == rule).count();
        assert_eq!(
            hits, expected,
            "rule {rule}: expected {expected} hits on bad.rs, got {hits}: {:#?}",
            out.diagnostics
        );
        // The bad fixture must not trip unrelated rules — diagnostics
        // stay attributable.
        assert!(
            out.diagnostics.iter().all(|d| d.rule == rule),
            "rule {rule}: bad.rs tripped other rules: {:#?}",
            out.diagnostics
        );
    }
}

#[test]
fn every_good_fixture_is_clean() {
    for &(rule, dir, path, kind, _) in CASES {
        let out = check(&format!("{dir}/good.rs"), path, kind);
        assert!(
            out.diagnostics.is_empty(),
            "rule {rule}: good.rs should be clean, got {:#?}",
            out.diagnostics
        );
        assert!(
            out.suppressed.is_empty(),
            "rule {rule}: good.rs needs no allows"
        );
    }
}

#[test]
fn kind_scoping_is_part_of_the_contract() {
    // panic-reachable's bad fixture is fine when presented as a bin…
    let out = check(
        "panic-reachable/bad.rs",
        "crates/x/src/bin/t.rs",
        FileKind::Bin,
    );
    assert!(out.diagnostics.is_empty());
    // …and float-fastmath's bad fixture is out of scope outside tests.
    let out = check(
        "float-fastmath/bad.rs",
        "crates/x/src/lib.rs",
        FileKind::Lib,
    );
    assert!(out.diagnostics.is_empty());
    // unseeded-rng holds in every kind: a test drawing entropy is a
    // flaky test.
    let out = check("unseeded-rng/bad.rs", "crates/x/tests/t.rs", FileKind::Test);
    assert_eq!(out.diagnostics.len(), 3, "{:#?}", out.diagnostics);
}

#[test]
fn reasoned_allow_suppresses_and_is_counted() {
    let out = check(
        "suppression/suppressed.rs",
        "crates/x/src/lib.rs",
        FileKind::Lib,
    );
    assert!(out.diagnostics.is_empty(), "{:#?}", out.diagnostics);
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].0, "unseeded-rng");
}

#[test]
fn reachability_diagnostics_carry_multi_hop_chains() {
    let out = check(
        "panic-reachable/bad.rs",
        "crates/x/src/lib.rs",
        FileKind::Lib,
    );
    assert!(
        out.diagnostics[0].msg.contains("api → mid → deep"),
        "{}",
        out.diagnostics[0].msg
    );
    let out = check(
        "hot-path-reach/bad.rs",
        "crates/x/src/lib.rs",
        FileKind::Lib,
    );
    assert!(
        out.diagnostics[0]
            .msg
            .contains("SptWorkspace::apply → relax → settle"),
        "{}",
        out.diagnostics[0].msg
    );
}

#[test]
fn stale_allows_are_errors_in_both_comment_positions() {
    let out = check("stale-allow/bad.rs", "crates/x/src/lib.rs", FileKind::Lib);
    let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
    assert_eq!(
        rules,
        ["stale-allow", "stale-allow"],
        "{:#?}",
        out.diagnostics
    );
    assert_eq!(out.diagnostics[0].line, 5, "trailing form");
    assert_eq!(out.diagnostics[1].line, 8, "standalone form");
    assert!(out.suppressed.is_empty());
}

#[test]
fn used_allow_is_a_suppression_not_a_stale_allow() {
    let out = check("stale-allow/good.rs", "crates/x/src/lib.rs", FileKind::Lib);
    assert!(out.diagnostics.is_empty(), "{:#?}", out.diagnostics);
    assert_eq!(out.suppressed.len(), 1);
    assert_eq!(out.suppressed[0].0, "panic-reachable");
}

#[test]
fn bare_allow_is_flagged_and_does_not_suppress() {
    let out = check("suppression/bare.rs", "crates/x/src/lib.rs", FileKind::Lib);
    let rules: Vec<&str> = out.diagnostics.iter().map(|d| d.rule).collect();
    assert!(rules.contains(&"bare-allow"), "{rules:?}");
    assert!(rules.contains(&"unseeded-rng"), "{rules:?}");
    assert!(out.suppressed.is_empty());
}
