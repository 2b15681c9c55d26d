//! # leo-bench — figure harnesses and performance benches
//!
//! One binary per paper figure (run with `cargo run -p leo-bench --release
//! --bin figN_…`), each accepting `--scale tiny|bench|paper` (default
//! `bench`; `paper` reproduces the full 1,000-city / 5,000-pair / 96-
//! snapshot setup). Results print as aligned tables and are also written
//! as CSV under `results/`.

use leo_core::{ExperimentScale, StudyConfig};
use leo_shard::ShardSpec;
use leo_util::telemetry;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Parse `--scale <tiny|bench|paper>` from `std::env::args`, defaulting
/// to `bench`. Unknown values abort with a usage message.
pub fn scale_from_args() -> (ExperimentScale, Vec<String>) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = ExperimentScale::Bench;
    let mut rest = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if a == "--scale" {
            let v = it.next().unwrap_or_default();
            scale = ExperimentScale::parse(&v).unwrap_or_else(
                #[expect(
                    clippy::print_stderr,
                    reason = "CLI usage-error surface shared by every figure bin; exits immediately"
                )]
                || {
                    eprintln!("unknown scale '{v}'; use tiny|bench|paper");
                    std::process::exit(2);
                },
            );
        } else {
            rest.push(a);
        }
    }
    (scale, rest)
}

/// The CLI name of a scale (inverse of `ExperimentScale::parse`), for
/// re-spawning this binary as shard workers.
pub fn scale_name(scale: ExperimentScale) -> &'static str {
    match scale {
        ExperimentScale::Tiny => "tiny",
        ExperimentScale::Bench => "bench",
        ExperimentScale::Paper => "paper",
    }
}

/// `fig2_latency`'s sharding options, parsed from the args left over
/// after [`scale_from_args`] (`ext_million_pairs` has its own parser for
/// the same worker flags):
///
/// * `--shards K` — coordinator: run the study as `K` pair shards, each
///   a separate OS process (this binary re-invoked in worker mode), and
///   merge their spill files (output stays byte-identical to an
///   unsharded run).
/// * `--shard i/K` — worker mode: compute shard `i` only, spill it to
///   the shard dir, print nothing to stdout, and exit.
/// * `--shard-dir D` — where spill files live (default
///   `results/shards`).
#[derive(Debug, Clone, Default)]
pub struct ShardCli {
    /// Coordinator shard count; 0 = unsharded.
    pub shards: usize,
    /// Worker mode: the one shard this process computes.
    pub worker: Option<ShardSpec>,
    /// Spill directory override.
    pub dir: Option<PathBuf>,
    /// Args not consumed by the shard protocol.
    pub rest: Vec<String>,
}

/// Parse the shard protocol flags out of `rest`. Malformed values abort
/// with a usage message (CLI surface, same policy as
/// [`scale_from_args`]).
pub fn shard_cli(rest: Vec<String>) -> ShardCli {
    let mut cli = ShardCli::default();
    let mut it = rest.into_iter();
    #[expect(
        clippy::print_stderr,
        reason = "CLI usage-error surface shared by every figure bin; exits immediately"
    )]
    let bail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--shards" => {
                let v = it.next().unwrap_or_default();
                cli.shards = match v.parse::<usize>() {
                    Ok(k) if k >= 1 => k,
                    _ => bail(format!("--shards needs a count >= 1, got '{v}'")),
                };
            }
            "--shard" => {
                let v = it.next().unwrap_or_default();
                cli.worker = match ShardSpec::parse(&v) {
                    Ok(s) => Some(s),
                    Err(e) => bail(format!("--shard: {e}")),
                };
            }
            "--shard-dir" => {
                let v = it.next().unwrap_or_default();
                if v.is_empty() {
                    bail("--shard-dir needs a path".to_string());
                }
                cli.dir = Some(PathBuf::from(v));
            }
            _ => cli.rest.push(a),
        }
    }
    if cli.worker.is_some() && cli.shards > 0 {
        bail("--shard (worker mode) conflicts with --shards".to_string());
    }
    cli
}

/// The spill directory for this run (created on demand): the `--shard-dir`
/// override or `results/shards`.
pub fn shard_dir(cli: &ShardCli) -> PathBuf {
    let dir = cli
        .dir
        .clone()
        .unwrap_or_else(|| results_dir().join("shards"));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Worker-mode run-log label: `label.s<i>of<K>` — each worker gets its
/// own `RUN_*.jsonl` (own heartbeats, counters, and manifest), and
/// `validate_run` accepts them like any other run log.
pub fn shard_label(label: &str, spec: ShardSpec) -> String {
    format!("{label}.s{}of{}", spec.index, spec.count)
}

/// Re-invoke this binary once per shard as an OS worker process
/// (`--shard i/K --shard-dir D`, plus whatever `configure` adds — the
/// binary's own arguments and environment), wait for all of them, and
/// fail if any worker fails. Workers inherit stdio: their stdout stays
/// silent by protocol, diagnostics go to stderr.
pub fn spawn_shard_workers(
    count: usize,
    dir: &Path,
    configure: impl Fn(&mut Command),
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut children = Vec::with_capacity(count);
    for spec in ShardSpec::all(count) {
        let mut cmd = Command::new(&exe);
        cmd.arg("--shard")
            .arg(spec.to_string())
            .arg("--shard-dir")
            .arg(dir);
        configure(&mut cmd);
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn shard worker {spec}: {e}"))?;
        children.push((spec, child));
    }
    let mut failed = Vec::new();
    for (spec, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| format!("wait for shard worker {spec}: {e}"))?;
        if !status.success() {
            failed.push(format!("worker {spec} exited with {status}"));
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(failed.join("; "))
    }
}

/// The scale's config with at least `min_cities` cities — the named-pair
/// figures (Maceió–Durban, Delhi–Sydney, Brisbane–Tokyo) need the full
/// real-city list loaded.
pub fn config_with_cities(scale: ExperimentScale, min_cities: usize) -> StudyConfig {
    let mut cfg = scale.config();
    cfg.num_cities = cfg.num_cities.max(min_cities);
    cfg
}

/// Open the telemetry run log for a figure binary.
///
/// No-op (returns `None`) unless `LEO_LOG=info|debug` is set; when
/// logging, events stream to `RUN_<label>.jsonl` under `LEO_LOG_DIR`
/// (default: the working directory).
pub fn init_run(label: &str) -> Option<PathBuf> {
    telemetry::init(label)
}

/// Close the telemetry run with a provenance manifest: FNV-1a hash of
/// the config's canonical kv string, its RNG seed, and the machine's
/// resolved worker count (the bins all fan out with `threads = 0` =
/// one per core). No-op when telemetry is disabled.
pub fn finish_run(label: &str, cfg: &StudyConfig) -> Option<PathBuf> {
    finish_run_with(label, cfg, &[])
}

/// [`finish_run`] with extra manifest fields — shard workers record
/// their shard coordinate and pair range here, coordinators their
/// shard count and merge provenance.
pub fn finish_run_with(
    label: &str,
    cfg: &StudyConfig,
    extras: &[(&str, String)],
) -> Option<PathBuf> {
    let hash = telemetry::fnv1a_64(cfg.to_kv_string().as_bytes());
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    // Provenance: did the producing tree pass both clippy lanes and
    // `leo-lint --deny`? CI exports LEO_LINT_CLEAN=1 once all three
    // have passed; `validate_run --require-lint-clean` rejects
    // manifests that don't say "true".
    let lint_clean = match std::env::var("LEO_LINT_CLEAN").as_deref() {
        Ok("1") | Ok("true") => "true",
        Ok("0") | Ok("false") => "false",
        _ => "unknown",
    };
    // Sample RSS once more so the recorded peak covers the full run even
    // when no heartbeat fired near the high-water mark.
    let _ = telemetry::rss_kb();
    // `lint_clean` is only meaningful relative to a rule set: record the
    // analyzer version and the rules it enforced, so a manifest produced
    // before a rule landed can't masquerade as clean under the new set
    // (`validate_run --require-lint-clean` checks both against its own).
    let mut manifest = telemetry::RunManifest::new(label, hash, cfg.seed, threads)
        .with("cities", cfg.num_cities)
        .with("pairs", cfg.num_pairs)
        .with("lint_clean", lint_clean)
        .with("lint_version", leo_lint::LINT_VERSION)
        .with("lint_rules", leo_lint::rules::known_rule_names().join(","))
        .with("peak_rss_kb", telemetry::peak_rss_kb());
    for (k, v) in extras {
        manifest = manifest.with(k, v);
    }
    telemetry::finish_run(&manifest)
}

/// Directory where figure CSVs land (`results/`, created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    let _ = std::fs::create_dir_all(&dir);
    dir
}

/// Simple aligned two-column-or-more table printer.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    #[expect(
        clippy::print_stdout,
        reason = "stdout is the figure bins' data channel; this is their shared table reporter"
    )]
    {
        println!("\n== {title} ==");
    }
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    #[expect(
        clippy::print_stdout,
        reason = "stdout is the figure bins' data channel; this is their shared table reporter"
    )]
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(
                "{:<w$}  ",
                c,
                w = widths.get(i).copied().unwrap_or(8)
            ));
        }
        println!("{}", s.trim_end());
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for r in rows {
        line(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_respects_minimum() {
        let cfg = config_with_cities(ExperimentScale::Tiny, 340);
        assert!(cfg.num_cities >= 340);
        let cfg2 = config_with_cities(ExperimentScale::Paper, 340);
        assert_eq!(cfg2.num_cities, 1000);
    }
}
