//! # leo-bench — figure harnesses and performance benches
//!
//! One binary per paper figure (run with `cargo run -p leo-bench --release
//! --bin figN_…`), each accepting `--scale tiny|bench|paper` (default
//! `bench`; `paper` reproduces the full 1,000-city / 5,000-pair / 96-
//! snapshot setup). Results print as aligned tables and are also written
//! as CSV under `results/`.

use leo_core::{ExperimentScale, StudyConfig};
use leo_util::telemetry;
use std::path::PathBuf;

/// Parse the figure bins' command line: `--scale <tiny|bench|paper>`
/// (default `bench`) plus the boolean `flags` this bin takes. Returns
/// the scale and the flags that were given. Anything else, or an
/// unknown scale, exits 2 with a usage line.
pub fn scale_from_args(flags: &[&str]) -> (ExperimentScale, Vec<String>) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let bin = bin.rsplit('/').next().unwrap_or_default().to_string();
    #[expect(
        clippy::print_stderr,
        reason = "CLI usage-error surface shared by every figure bin; exits immediately"
    )]
    let usage = |msg: String| -> ! {
        let extra: String = flags.iter().map(|f| format!(" [{f}]")).collect();
        eprintln!("{bin}: {msg}");
        eprintln!("usage: {bin} [--scale tiny|bench|paper]{extra}");
        std::process::exit(2);
    };
    let mut scale = ExperimentScale::Bench;
    let mut given = Vec::new();
    while let Some(a) = args.next() {
        if a == "--scale" {
            let v = args.next().unwrap_or_default();
            scale = ExperimentScale::parse(&v)
                .unwrap_or_else(|| usage(format!("unknown scale '{v}'; use tiny|bench|paper")));
        } else if flags.contains(&a.as_str()) {
            given.push(a);
        } else {
            usage(format!("unknown argument '{a}'"));
        }
    }
    (scale, given)
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
    // `lint_clean` is only meaningful relative to a rule set: record the
    // analyzer version and the rules it enforced, so a manifest produced
    // before a rule landed can't masquerade as clean under the new set
    // (`validate_run --require-lint-clean` checks both against its own).
    let manifest = telemetry::RunManifest::new(label, hash, cfg.seed, threads)
        .with("cities", cfg.num_cities)
        .with("pairs", cfg.num_pairs)
        .with("lint_clean", lint_clean)
        .with("lint_version", leo_lint::LINT_VERSION)
        .with("lint_rules", leo_lint::rules::known_rule_names().join(","))
        .with("peak_rss_kb", telemetry::peak_rss_kb());
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
