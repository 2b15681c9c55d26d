//! Validate a telemetry run log (`RUN_<label>.jsonl`): every line must
//! parse as a known event type, the first must be `run_start`, and the
//! last must be the run manifest with its provenance fields. CI runs
//! this against a real figure run so schema drift fails the build.
//!
//! Usage: `validate_run [--require-lint-clean] <path/to/RUN_label.jsonl>`
//! — exits 0 and prints a one-line summary on success, exits 1 with the
//! offending line on failure, and exits 2 with the usage line on an
//! unknown flag, a missing path or a second one (a misspelt flag must not
//! turn the lint gate off).
//!
//! The manifest's `lint_clean` field records whether the producing tree
//! passed both clippy lanes of `scripts/ci.sh` and `leo-lint --deny`
//! (set by the bins from `LEO_LINT_CLEAN`). A
//! manifest saying `"false"` always fails validation; under
//! `--require-lint-clean` (the CI lane), anything but `"true"` fails —
//! results from an unlinted tree don't count as reproducible evidence.
//! The gate also pins the rule set: the manifest's `lint_version` and
//! `lint_rules` must match this binary's compiled-in analyzer, so a log
//! produced before a rule landed cannot pass today's gate.

use leo_util::telemetry::{validate_event_line, Json};

const USAGE: &str = "usage: validate_run [--require-lint-clean] <RUN_label.jsonl>";

fn fail(msg: &str) -> ! {
    eprintln!("validate_run: {msg}");
    std::process::exit(1);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("validate_run: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut require_lint_clean = false;
    let mut path = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--require-lint-clean" => require_lint_clean = true,
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag {flag}")),
            _ if path.is_some() => usage_error(&format!("more than one run log ({arg})")),
            _ => path = Some(arg),
        }
    }
    let path = path.unwrap_or_else(|| usage_error("no run log given"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        fail(&format!("{path}: empty run log"));
    }

    let mut counts: Vec<(&'static str, usize)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let last = i + 1 == lines.len();
        let ty = validate_event_line(line).unwrap_or_else(|e| {
            if last {
                // A malformed *final* line is almost always a run log cut
                // off mid-write (producer crashed, was killed, or is still
                // running) — say so instead of reporting a schema error.
                fail(&format!(
                    "{path}:{}: run log appears truncated — the final line \
                     is not a complete event ({e}) and no closing manifest \
                     was written (producer killed mid-run or still \
                     writing?)\n  {line}",
                    i + 1
                ));
            }
            fail(&format!("{path}:{}: {e}\n  {line}", i + 1))
        });
        match counts.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, n)) => *n += 1,
            None => counts.push((ty, 1)),
        }
        if i == 0 && ty != "run_start" {
            fail(&format!(
                "{path}: first event is `{ty}`, expected `run_start`"
            ));
        }
        if last && ty != "manifest" {
            fail(&format!(
                "{path}: last event is `{ty}`, expected `manifest` — the \
                 run log appears truncated (producer never reached \
                 `finish_run`)"
            ));
        }
        if ty == "manifest" && !last {
            fail(&format!("{path}:{}: manifest before end of log", i + 1));
        }
    }

    // The manifest's provenance fields, beyond schema validity.
    let manifest = Json::parse(lines[lines.len() - 1]).unwrap();
    let hash = manifest
        .get("config_hash")
        .and_then(Json::as_str)
        .unwrap_or_else(|| fail("manifest: missing config_hash"));
    if !hash.starts_with("0x") || hash.len() != 18 {
        fail(&format!(
            "manifest: config_hash `{hash}` is not a 0x-prefixed 64-bit hex hash"
        ));
    }
    for key in ["seed", "threads", "wall_ns"] {
        if manifest.get(key).and_then(Json::as_num).is_none() {
            fail(&format!("manifest: missing numeric field `{key}`"));
        }
    }
    if !matches!(manifest.get("phases"), Some(Json::Obj(_))) {
        fail("manifest: missing `phases` object");
    }
    let lint_clean = manifest.get("lint_clean").and_then(Json::as_str);
    if lint_clean == Some("false") {
        fail("manifest: lint_clean is \"false\" — the producing tree failed clippy or leo-lint");
    }
    if require_lint_clean && lint_clean != Some("true") {
        fail(&format!(
            "manifest: --require-lint-clean needs lint_clean=\"true\", got {:?} \
             (run under LEO_LINT_CLEAN=1 after the clippy lanes and `leo-lint --deny` pass)",
            lint_clean.unwrap_or("<absent>")
        ));
    }
    if require_lint_clean {
        // "Clean" is relative to a rule set: a manifest produced by an
        // older analyzer (fewer rules) must not satisfy today's gate.
        let version = manifest.get("lint_version").and_then(Json::as_str);
        let want_version = leo_lint::LINT_VERSION.to_string();
        if version != Some(want_version.as_str()) {
            fail(&format!(
                "manifest: lint_version {:?} does not match this analyzer's {want_version} \
                 — lint_clean was asserted against a different rule set",
                version.unwrap_or("<absent>")
            ));
        }
        let rules = manifest.get("lint_rules").and_then(Json::as_str);
        let want_rules = leo_lint::rules::known_rule_names().join(",");
        if rules != Some(want_rules.as_str()) {
            fail(&format!(
                "manifest: lint_rules {:?} does not match this analyzer's rule set ({want_rules})",
                rules.unwrap_or("<absent>")
            ));
        }
    }

    let summary: Vec<String> = counts.iter().map(|(t, n)| format!("{n} {t}")).collect();
    println!(
        "{path}: ok ({} events: {})",
        lines.len(),
        summary.join(", ")
    );
}
