//! `ext_million_pairs` — the pair-dimension scale harness: a
//! 1,000,000-pair BP latency sweep, folded in one process on all cores.
//!
//! The memory contract this harness *asserts*: it exits 1 when its own
//! peak RSS (the kernel's high-water mark) is over the budget (default
//! 512 MiB, `--max-rss-mb` to override).
//!
//! Usage:
//! `ext_million_pairs [--pairs N] [--cities N] [--snapshots S] [--max-rss-mb M]`

use leo_bench::{finish_run, init_run, print_table};
use leo_core::experiments::latency::latency_studies;
use leo_core::{ConstellationKind, Mode, NetworkConfig, StudyConfig, StudyContext};
use leo_util::diag;
use leo_util::sketch::QuantileSketch;
use leo_util::telemetry;

const LABEL: &str = "ext_million_pairs";
const MODES: [Mode; 1] = [Mode::BpOnly];

struct Args {
    pairs: usize,
    cities: usize,
    snapshots: usize,
    max_rss_mb: u64,
}

fn usage(msg: &str) -> ! {
    eprintln!("{LABEL}: {msg}");
    eprintln!("usage: {LABEL} [--pairs N] [--cities N] [--snapshots S] [--max-rss-mb M]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        pairs: 1_000_000,
        cities: 4_000,
        snapshots: 2,
        max_rss_mb: 512,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |name: &str| -> usize {
            let v = it.next().unwrap_or_default();
            v.parse::<usize>()
                .unwrap_or_else(|_| usage(&format!("{name} needs a number, got '{v}'")))
        };
        match a.as_str() {
            "--pairs" => args.pairs = num("--pairs"),
            "--cities" => args.cities = num("--cities"),
            "--snapshots" => args.snapshots = num("--snapshots").max(1),
            "--max-rss-mb" => args.max_rss_mb = num("--max-rss-mb") as u64,
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if args.cities < 2 {
        usage("--cities must be at least 2");
    }
    args
}

/// The study config: Starlink, BP-only, no relay grid (this harness
/// stresses the pair dimension, not the relay machinery).
fn build_config(a: &Args) -> StudyConfig {
    StudyConfig {
        constellation: ConstellationKind::Starlink,
        network: NetworkConfig::default(),
        num_cities: a.cities,
        num_pairs: a.pairs,
        min_pair_distance_m: 2_000_000.0,
        relay_grid_deg: None,
        relay_radius_m: 2_000_000.0,
        // The schedule requires a positive density; BP-only folds never
        // read it, so keep the tiny-scale baseline.
        flight_density: 0.5,
        snapshot_times_s: StudyConfig::day_snapshots(a.snapshots),
        seed: 42,
    }
}

fn main() {
    let a = parse_args();
    init_run(LABEL);
    diag!(
        "{LABEL}: {} pairs over {} cities, {} snapshots, rss budget {} MiB",
        a.pairs,
        a.cities,
        a.snapshots,
        a.max_rss_mb
    );
    let ctx = StudyContext::build(build_config(&a));
    let bp = latency_studies(&ctx, &MODES, 0).remove(0);

    // Summary of the reachable pairs' min RTTs.
    let mut sketch = QuantileSketch::new();
    for min_rtt in bp.iter().filter_map(|s| s.min_rtt_ms) {
        sketch.record(min_rtt);
    }
    let reachable_pairs = sketch.count();
    print_table(
        &format!("{LABEL}: BP min RTT"),
        &["metric", "value"],
        &[
            vec!["pairs".into(), bp.len().to_string()],
            vec![
                "snapshots".into(),
                ctx.config.snapshot_times_s.len().to_string(),
            ],
            vec!["pairs ever reachable".into(), reachable_pairs.to_string()],
            vec![
                "min RTT p50 (ms)".into(),
                format!("{:.1}", sketch.quantile(0.50)),
            ],
            vec![
                "min RTT p95 (ms)".into(),
                format!("{:.1}", sketch.quantile(0.95)),
            ],
            vec![
                "min RTT mean (ms)".into(),
                format!("{:.1}", sketch.sum() / reachable_pairs.max(1) as f64),
            ],
        ],
    );
    finish_run(LABEL, &ctx.config);

    let peak_mb = telemetry::peak_rss_kb() as f64 / 1024.0;
    if peak_mb > a.max_rss_mb as f64 {
        eprintln!(
            "{LABEL}: peak RSS {peak_mb:.1} MiB is over the {} MiB budget",
            a.max_rss_mb
        );
        std::process::exit(1);
    }
    diag!(
        "{LABEL}: peak RSS {peak_mb:.1} MiB within the {} MiB budget",
        a.max_rss_mb
    );
}
