//! CLI-level tests for the figure and extension binaries, driven
//! through the compiled binaries (`CARGO_BIN_EXE_*`) in scratch
//! directories (the bins write `results/` into their working directory).

use std::path::PathBuf;
use std::process::{Command, Output};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("leo_figure_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run(bin: &str, args: &[&str], name: &str) -> Output {
    let dir = scratch(name);
    let out = Command::new(bin)
        .args(args)
        .current_dir(&dir)
        .env("LEO_LOG", "off")
        .output()
        .expect("spawn figure binary");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn figure_bins_reject_flags_they_do_not_take() {
    let cases = [
        (
            env!("CARGO_BIN_EXE_fig2_latency"),
            "--scale tiny --shards 2",
        ),
        (
            env!("CARGO_BIN_EXE_fig4_throughput"),
            "--scale tiny --disconected",
        ),
    ];
    for (i, (bin, args)) in cases.into_iter().enumerate() {
        let args: Vec<&str> = args.split(' ').collect();
        let out = run(bin, &args, &format!("reject{i}"));
        let flag = args[2];
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {flag}: {stderr}");
        assert!(stderr.contains(flag), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
        assert!(out.stdout.is_empty(), "a rejected run prints no results");
    }
}

#[test]
fn fig4_disconnected_reports_the_disconnected_share() {
    let out = run(
        env!("CARGO_BIN_EXE_fig4_throughput"),
        &["--scale", "tiny", "--disconnected"],
        "fig4_disconnected",
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("disconnected satellites"), "{stderr}");
}

#[test]
fn million_pairs_holds_and_enforces_its_rss_budget() {
    let bin = env!("CARGO_BIN_EXE_ext_million_pairs");
    let small = ["--pairs", "20000", "--cities", "200", "--snapshots", "1"];
    let out = run(bin, &small, "million_ok");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("pairs ever reachable"), "{stdout}");

    let over = run(
        bin,
        &[&small[..], &["--max-rss-mb", "1"]].concat(),
        "million_over",
    );
    let stderr = String::from_utf8_lossy(&over.stderr);
    assert_eq!(over.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("over the 1 MiB budget"), "{stderr}");
}
