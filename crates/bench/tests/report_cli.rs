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
fn report_merges_shard_logs_into_one_run() {
    // Two synthetic worker logs of one sharded run: counters sum, series
    // sketches merge (count 2+2), heartbeats sum, the `.s<i>of<K>` label
    // suffix strips, and per-shard extras that disagree are dropped.
    let mk = |i: usize| {
        format!(
            r#"{{"type":"manifest","label":"t.s{i}of2","config_hash":"0xabc","seed":1,"threads":2,"wall_ns":10,"level":"info","phases":{{"p":{{"count":1,"total_ns":5,"max_ns":5}}}},"counters":{{"c":3}},"hists":{{}},"peak_rss_kb":"{}","shard":"{i}/2"}}"#,
            3072 * (i + 1)
        )
    };
    let start =
        |i: usize| format!(r#"{{"type":"run_start","label":"t.s{i}of2","level":"info","t_ns":1}}"#);
    let (s0, m0) = (start(0), mk(0));
    let (s1, m1) = (start(1), mk(1));
    let a = write_log("merge_s0.jsonl", &[&s0, SERIES, HEARTBEAT, &m0]);
    let b = write_log("merge_s1.jsonl", &[&s1, SERIES, HEARTBEAT, &m1]);
    let out = report(&["--merge", a.to_str().unwrap(), b.to_str().unwrap()]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.contains("run t "),
        "label suffix must strip: {stdout}"
    );
    assert!(stdout.contains("c        6"), "counters must sum: {stdout}");
    assert!(stdout.contains("heartbeats: 2"), "{stdout}");
    // Peak RSS is the per-worker max: 6144 kB = 6 MiB.
    assert!(stdout.contains("6.0 MiB"), "{stdout}");
    // The per-shard `shard` extra disagrees across workers → dropped.
    assert!(!stdout.contains("shard = "), "{stdout}");
    assert!(stdout.contains("merged_shard_logs = 2"), "{stdout}");
    // Merged series: two events of count 2 each.
    assert!(
        stdout.contains("m       2      4"),
        "series must merge: {stdout}"
    );

    // The RSS assertion bounds the per-worker peak.
    let ok = report(&[
        "--merge",
        "--assert-peak-rss-mb",
        "7",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(ok.status.success());
    let bad = report(&[
        "--merge",
        "--assert-peak-rss-mb",
        "5",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert_eq!(bad.status.code(), Some(1));
}

#[test]
fn report_merge_rejects_mixed_configs() {
    let m_other = r#"{"type":"manifest","label":"t.s1of2","config_hash":"0xdef","seed":1,"threads":2,"wall_ns":10,"level":"info","phases":{},"counters":{},"hists":{}}"#;
    let m = manifest(3);
    let a = write_log("mixed_a.jsonl", &[RUN_START, &m]);
    let b = write_log("mixed_b.jsonl", &[RUN_START, m_other]);
    let out = report(&["--merge", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("config_hash"), "{stderr}");
}

/// The sketch-derived columns of every `rtt_ms_*` series row, with the
/// `snaps` column dropped (a sharded run emits per-worker snapshot
/// events, so snap *counts* differ while every derived statistic is
/// bit-identical).
fn rtt_series_stats(stdout: &str) -> Vec<Vec<String>> {
    stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("rtt_ms_"))
        .map(|l| {
            let mut cells: Vec<String> = l.split_whitespace().map(str::to_string).collect();
            cells.remove(1);
            cells
        })
        .collect()
}

#[test]
fn merged_shard_run_logs_match_single_run_series() {
    // End to end through the real driver: fig2 at tiny scale, once
    // sharded over 2 spawned workers, once unsharded. The merged worker
    // series must reproduce the single-process series statistics
    // exactly.
    let dir = std::env::temp_dir().join(format!("leo_report_merge_fig2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let fig2 = env!("CARGO_BIN_EXE_fig2_latency");
    let run = |args: &[&str]| {
        let out = Command::new(fig2)
            .args(["--scale", "tiny"])
            .args(args)
            .current_dir(&dir)
            .env("LEO_LOG", "info")
            .env("LEO_LOG_DIR", &dir)
            .output()
            .expect("spawn fig2_latency");
        assert!(
            out.status.success(),
            "fig2 {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    // Unsharded first: telemetry never overwrites, so a second run with
    // the same label lands in `RUN_<label>-01.jsonl` — the sharded
    // coordinator's log, which this test doesn't read.
    run(&[]);
    let shards = dir.join("shards");
    run(&["--shards", "2", "--shard-dir", shards.to_str().unwrap()]);
    let single = report(&[dir.join("RUN_fig2_latency.jsonl").to_str().unwrap()]);
    assert!(single.status.success());
    let merged = report(&[
        "--merge",
        dir.join("RUN_fig2_latency.s0of2.jsonl").to_str().unwrap(),
        dir.join("RUN_fig2_latency.s1of2.jsonl").to_str().unwrap(),
    ]);
    assert!(
        merged.status.success(),
        "{}",
        String::from_utf8_lossy(&merged.stderr)
    );
    let s = rtt_series_stats(&String::from_utf8_lossy(&single.stdout));
    let m = rtt_series_stats(&String::from_utf8_lossy(&merged.stdout));
    assert!(!s.is_empty(), "single run must report rtt_ms_* series");
    assert_eq!(s, m, "merged shard series must equal the single-run series");
    let _ = std::fs::remove_dir_all(&dir);
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
