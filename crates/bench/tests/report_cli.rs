//! CLI-level tests for `validate_run` and `leo-report`, driven through
//! the compiled binaries (`CARGO_BIN_EXE_*`) against synthetic run logs.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("leo_report_cli");
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

fn write_log(name: &str, lines: &[&str]) -> PathBuf {
    let p = tmp(name);
    std::fs::write(&p, lines.join("\n") + "\n").expect("write run log");
    p
}

fn validate(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_validate_run"))
        .args(args)
        .output()
        .expect("spawn validate_run")
}

fn report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_leo-report"))
        .args(args)
        .output()
        .expect("spawn leo-report")
}

const RUN_START: &str = r#"{"type":"run_start","label":"t","level":"info","t_ns":1}"#;
const SERIES: &str = r#"{"type":"series","t_ns":2,"name":"m","index":0,"t_s":0,"count":2,"low":0,"sum":3,"min":1,"max":2,"sub":32,"buckets":[[2048,2]]}"#;
const HEARTBEAT: &str = r#"{"type":"heartbeat","t_ns":3,"label":"t","done":1,"total":2,"rate_per_s":0.5,"eta_s":2,"rss_kb":3072,"peak_rss_kb":3072,"counters":{"c":3}}"#;
const COUNTER: &str = r#"{"type":"counter","name":"c","value":3}"#;

fn manifest(counter_value: u64) -> String {
    format!(
        r#"{{"type":"manifest","label":"t","config_hash":"0x0123456789abcdef","seed":1,"threads":2,"wall_ns":10,"level":"info","phases":{{"p":{{"count":1,"total_ns":5,"max_ns":5}}}},"counters":{{"c":{counter_value},"busy_ns":{}}},"hists":{{}},"peak_rss_kb":"3072"}}"#,
        counter_value * 100
    )
}

#[test]
fn validate_accepts_series_and_heartbeat_events() {
    let m = manifest(3);
    let p = write_log("ok.jsonl", &[RUN_START, SERIES, HEARTBEAT, COUNTER, &m]);
    let out = validate(&[p.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("1 series"), "{stdout}");
    assert!(stdout.contains("1 heartbeat"), "{stdout}");
}

#[test]
fn validate_diagnoses_truncated_final_line() {
    // A run log cut off mid-write: the final line is half a series event.
    let p = write_log(
        "truncated.jsonl",
        &[RUN_START, SERIES, r#"{"type":"series","t_ns":9,"na"#],
    );
    let out = validate(&[p.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("truncated"),
        "diagnostic should name truncation, got: {stderr}"
    );
    assert!(
        stderr.contains("manifest"),
        "diagnostic should mention the missing manifest, got: {stderr}"
    );
}

#[test]
fn validate_diagnoses_missing_manifest_on_valid_final_event() {
    // Every line valid, but the producer never reached finish_run.
    let p = write_log("no_manifest.jsonl", &[RUN_START, SERIES, COUNTER]);
    let out = validate(&[p.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated"), "{stderr}");
    assert!(stderr.contains("finish_run"), "{stderr}");
}

#[test]
fn report_single_run_renders_summaries() {
    let m = manifest(3);
    let p = write_log("single.jsonl", &[RUN_START, SERIES, HEARTBEAT, COUNTER, &m]);
    let out = report(&[p.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("phases"), "{stdout}");
    assert!(stdout.contains("counters"), "{stdout}");
    assert!(stdout.contains("series"), "{stdout}");
    assert!(stdout.contains("heartbeats: 1"), "{stdout}");
    assert!(stdout.contains("3.0 MiB"), "{stdout}");
}

#[test]
fn report_self_diff_is_clean_and_exits_zero() {
    let m = manifest(3);
    let a = write_log("diff_a.jsonl", &[RUN_START, SERIES, HEARTBEAT, COUNTER, &m]);
    let b = write_log("diff_b.jsonl", &[RUN_START, SERIES, HEARTBEAT, COUNTER, &m]);
    let out = report(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(!stdout.contains("REGRESSION"), "{stdout}");
}

#[test]
fn report_diff_flags_deterministic_counter_change_but_not_ns_noise() {
    let ma = manifest(3); // c=3, busy_ns=300
    let mb = manifest(4); // c=4, busy_ns=400
    let a = write_log("reg_a.jsonl", &[RUN_START, SERIES, &ma]);
    let b = write_log("reg_b.jsonl", &[RUN_START, SERIES, &mb]);
    let out = report(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "deterministic drift must fail");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "{stdout}");
    // The _ns counter drifted just as much but is informational-only.
    assert!(stdout.contains("counter busy_ns"), "{stdout}");
    assert!(!stdout.contains("busy_ns  REGRESSION"), "{stdout}");

    // A generous threshold waves the same drift through.
    let out = report(&[
        "--threshold-pct",
        "50",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success());
}

#[test]
fn report_diff_zero_baseline_counter_is_deterministic_regression() {
    // Regression: a 0 → n counter used to divide by the zero baseline
    // and print an astronomical junk percent. It must now report the
    // absolute delta and a deterministic REGRESSION verdict that no
    // --threshold-pct can wave through.
    let ma = manifest(0); // c=0
    let mb = manifest(4); // c=4
    let a = write_log("zero_a.jsonl", &[RUN_START, SERIES, &ma]);
    let b = write_log("zero_b.jsonl", &[RUN_START, SERIES, &mb]);
    let out = report(&[
        "--threshold-pct",
        "1000000",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "zero baseline must regress");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION (zero baseline)"), "{stdout}");
    assert!(stdout.contains("+4 (abs, zero baseline)"), "{stdout}");
    assert!(!stdout.contains("NaN%"), "{stdout}");
    assert!(!stdout.contains("inf%"), "{stdout}");
}

#[test]
fn report_diff_one_sided_counter_is_deterministic_regression() {
    // A deterministic counter present in only one run used to produce a
    // NaN percent that compared false against every threshold and was
    // silently dropped from the table.
    let ma = manifest(3);
    let mb = r#"{"type":"manifest","label":"t","config_hash":"0x0123456789abcdef","seed":1,"threads":2,"wall_ns":10,"level":"info","phases":{"p":{"count":1,"total_ns":5,"max_ns":5}},"counters":{"c":3,"busy_ns":300,"extra":7},"hists":{},"peak_rss_kb":"3072"}"#.to_string();
    let a = write_log("oneside_a.jsonl", &[RUN_START, SERIES, &ma]);
    let b = write_log("oneside_b.jsonl", &[RUN_START, SERIES, &mb]);
    let out = report(&[a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "one-sided counter must regress");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("counter extra"), "{stdout}");
    assert!(stdout.contains("REGRESSION (one run only)"), "{stdout}");
    assert!(!stdout.contains("NaN%"), "{stdout}");
}

#[test]
fn report_asserts_peak_rss_budget() {
    let m = manifest(3);
    let p = write_log("rss.jsonl", &[RUN_START, HEARTBEAT, &m]);
    // Peak is 3 MiB (3072 kB from heartbeat and manifest).
    let ok = report(&["--assert-peak-rss-mb", "4", p.to_str().unwrap()]);
    assert!(ok.status.success());
    let bad = report(&["--assert-peak-rss-mb", "2", p.to_str().unwrap()]);
    assert_eq!(bad.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("exceeds budget"), "{stderr}");
}

#[test]
fn validate_rejects_unknown_flags_and_a_second_path() {
    let m = manifest(3);
    let p = write_log("args.jsonl", &[RUN_START, SERIES, HEARTBEAT, COUNTER, &m]);
    let p = p.to_str().unwrap();
    // A misspelt flag must not pass as the path and switch the gate off.
    for args in [
        vec!["--require-lint-cleen", p],
        vec![p, "--require-lint-cleen"],
        vec![p, p],
        vec![],
    ] {
        let out = validate(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: validate_run"), "{args:?}: {stderr}");
    }
    // The flag itself is still taken: this log carries no lint_clean.
    let gated = validate(&["--require-lint-clean", p]);
    assert_eq!(gated.status.code(), Some(1));
}

#[test]
fn report_rejects_budgets_and_thresholds_that_pass_everything() {
    let m = manifest(3);
    let p = write_log("nan.jsonl", &[RUN_START, HEARTBEAT, &m]);
    let p = p.to_str().unwrap();
    for (flag, value) in [
        ("--assert-peak-rss-mb", "nan"),
        ("--assert-peak-rss-mb", "inf"),
        ("--assert-peak-rss-mb", "0"),
        ("--assert-peak-rss-mb", "-4"),
        ("--threshold-pct", "nan"),
        ("--threshold-pct", "inf"),
        ("--threshold-pct", "-1"),
    ] {
        let out = report(&[flag, value, p]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains("usage:"),
            "{stderr}"
        );
    }
    // Valid values still pass.
    assert!(
        report(&["--threshold-pct", "0", "--assert-peak-rss-mb", "4", p, p])
            .status
            .success()
    );
}
