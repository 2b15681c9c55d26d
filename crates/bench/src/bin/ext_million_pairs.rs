//! `ext_million_pairs` — the out-of-core scale harness: a
//! 1,000,000-pair latency sweep that no single process could hold
//! comfortably, executed as `K` pair-sharded OS workers with bounded
//! memory, then merged bit-exactly from the spill files.
//!
//! The acceptance contract this harness *asserts* (exit 1 on failure):
//! every worker's manifest-recorded `peak_rss_kb` stays at or below the
//! budget (default 512 MiB, `--max-worker-rss-mb` to override), and the
//! merged run covers every sampled pair exactly once.
//!
//! Usage:
//! `ext_million_pairs [--pairs N] [--cities N] [--snapshots S]`
//! `                  [--workers K] [--max-worker-rss-mb M]`
//!
//! (`--shard i/K --shard-dir D --threads T` is the internal worker
//! protocol — the coordinator re-invokes itself with those.)

use leo_bench::{
    finish_run_with, init_run, print_table, results_dir, shard_label, spawn_shard_workers,
};
use leo_core::{ConstellationKind, Mode, NetworkConfig, StudyConfig};
use leo_shard::runner::{merge_latency_files, shard_file_name, spill_latency_shard};
use leo_shard::ShardSpec;
use leo_util::diag;
use leo_util::telemetry::Json;
use std::path::{Path, PathBuf};

const LABEL: &str = "ext_million_pairs";
const MODES: [Mode; 1] = [Mode::BpOnly];

struct Args {
    pairs: usize,
    cities: usize,
    snapshots: usize,
    workers: usize,
    max_worker_rss_mb: u64,
    threads: usize,
    worker: Option<ShardSpec>,
    dir: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!("{LABEL}: {msg}");
    eprintln!(
        "usage: {LABEL} [--pairs N] [--cities N] [--snapshots S] [--workers K] [--max-worker-rss-mb M]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        pairs: 1_000_000,
        cities: 4_000,
        snapshots: 2,
        workers: 4,
        max_worker_rss_mb: 512,
        threads: 0,
        worker: None,
        dir: None,
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
            "--workers" => args.workers = num("--workers").max(1),
            "--max-worker-rss-mb" => args.max_worker_rss_mb = num("--max-worker-rss-mb") as u64,
            "--threads" => args.threads = num("--threads"),
            "--shard" => {
                let v = it.next().unwrap_or_default();
                args.worker =
                    Some(ShardSpec::parse(&v).unwrap_or_else(|e| usage(&format!("--shard: {e}"))));
            }
            "--shard-dir" => {
                let v = it.next().unwrap_or_default();
                args.dir = Some(PathBuf::from(v));
            }
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

/// Worker: fold one shard, spill, record the manifest (the coordinator
/// reads `peak_rss_kb` out of it), print nothing to stdout.
fn run_worker(a: &Args, spec: ShardSpec, dir: &Path) {
    let label = shard_label(LABEL, spec);
    init_run(&label);
    let cfg = build_config(a);
    let path = spill_latency_shard(&cfg, &MODES, spec, a.threads, dir, LABEL).unwrap_or_else(|e| {
        eprintln!("{LABEL} shard {spec}: {e}");
        std::process::exit(1);
    });
    let (header, _) = leo_shard::codec::read_shard(&path).unwrap_or_else(|e| {
        eprintln!("{LABEL} shard {spec}: re-reading spill: {e}");
        std::process::exit(1);
    });
    finish_run_with(
        &label,
        &cfg,
        &[
            ("shard", spec.to_string()),
            ("pair_lo", header.pair_lo.to_string()),
            ("pair_hi", header.pair_hi.to_string()),
        ],
    );
}

/// Read `peak_rss_kb` (and the shard's pair range) from a worker's run
/// log manifest.
fn worker_manifest(dir: &Path, spec: ShardSpec) -> Result<(u64, u64, u64), String> {
    let path = dir.join(format!("RUN_{}.jsonl", shard_label(LABEL, spec)));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "read {}: {e} (did the worker run with logging?)",
            path.display()
        )
    })?;
    let last = text
        .lines()
        .rfind(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{}: empty run log", path.display()))?;
    let manifest =
        Json::parse(last).map_err(|e| format!("{}: manifest parse: {e}", path.display()))?;
    // Manifest extras are written as JSON strings; core fields as
    // numbers. Accept either.
    let num = |key: &str| -> Result<u64, String> {
        let v = manifest
            .get(key)
            .ok_or_else(|| format!("{}: manifest missing `{key}`", path.display()))?;
        v.as_num()
            .map(|n| n as u64)
            .or_else(|| v.as_str().and_then(|s| s.parse::<u64>().ok()))
            .ok_or_else(|| format!("{}: manifest `{key}` is not a number", path.display()))
    };
    Ok((num("peak_rss_kb")?, num("pair_lo")?, num("pair_hi")?))
}

fn main() {
    let a = parse_args();
    let default_dir = || results_dir().join("shards").join(LABEL);
    if let Some(spec) = a.worker {
        let dir = a.dir.clone().unwrap_or_else(default_dir);
        run_worker(&a, spec, &dir);
        return;
    }

    init_run(LABEL);
    let dir = a.dir.clone().unwrap_or_else(default_dir);
    // Scratch dir owned by this run: stale spills or worker logs from a
    // previous invocation must not be merged by mistake.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| {
        eprintln!("{LABEL}: create {}: {e}", dir.display());
        std::process::exit(1);
    });

    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let threads_per_worker = (cores / a.workers).max(1);
    diag!(
        "{LABEL}: {} pairs over {} cities, {} snapshots, {} workers x {} threads, rss budget {} MiB",
        a.pairs,
        a.cities,
        a.snapshots,
        a.workers,
        threads_per_worker,
        a.max_worker_rss_mb
    );

    // Spawn the workers. Logging is forced on: the RSS assertion reads
    // each worker's manifest, so a silent worker is a failed worker.
    let spawned = spawn_shard_workers(a.workers, &dir, |cmd| {
        cmd.args(["--pairs", &a.pairs.to_string()])
            .args(["--cities", &a.cities.to_string()])
            .args(["--snapshots", &a.snapshots.to_string()])
            .args(["--threads", &threads_per_worker.to_string()])
            .env("LEO_LOG", "info")
            .env("LEO_LOG_DIR", &dir);
    });
    if let Err(e) = spawned {
        eprintln!("{LABEL}: {e}");
        std::process::exit(1);
    }
    let specs = ShardSpec::all(a.workers);

    // Merge the spill files into the full run.
    let files: Vec<PathBuf> = specs
        .iter()
        .map(|&s| dir.join(shard_file_name(LABEL, s)))
        .collect();
    let (run, keepers) = merge_latency_files(&files).unwrap_or_else(|e| {
        eprintln!("{LABEL}: merge: {e}");
        std::process::exit(1);
    });

    // Per-worker accounting + the RSS assertion.
    let budget_kb = a.max_worker_rss_mb * 1024;
    let mut rows = Vec::new();
    let mut over_budget = false;
    for &spec in &specs {
        let (rss_kb, lo, hi) = worker_manifest(&dir, spec).unwrap_or_else(|e| {
            eprintln!("{LABEL}: {e}");
            std::process::exit(1);
        });
        let ok = rss_kb <= budget_kb;
        over_budget |= !ok;
        rows.push(vec![
            spec.to_string(),
            format!("{lo}..{hi}"),
            (hi - lo).to_string(),
            format!("{:.1}", rss_kb as f64 / 1024.0),
            if ok {
                "ok".into()
            } else {
                "OVER BUDGET".into()
            },
        ]);
    }
    print_table(
        &format!(
            "{LABEL}: worker peak RSS (budget {} MiB)",
            a.max_worker_rss_mb
        ),
        &["worker", "pair range", "pairs", "peak RSS (MiB)", "status"],
        &rows,
    );

    // Merged-run summary from the keeper aggregates (no per-pair scan).
    let m = &keepers.modes[0];
    let sketch = &m.min_rtt_sketch;
    let reachable_pairs = sketch.count();
    print_table(
        &format!("{LABEL}: merged run"),
        &["metric", "value"],
        &[
            vec!["pairs".into(), run.n_pairs.to_string()],
            vec!["shards".into(), run.shard_count.to_string()],
            vec!["snapshots".into(), keepers.total.to_string()],
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

    let cfg = build_config(&a);
    assert_eq!(
        run.config_hash,
        leo_shard::runner::config_hash(&cfg),
        "merged shards were produced under a different config"
    );
    finish_run_with(
        LABEL,
        &cfg,
        &[
            ("workers", a.workers.to_string()),
            ("merged_pairs", run.n_pairs.to_string()),
            ("rss_budget_kb", budget_kb.to_string()),
        ],
    );
    if over_budget {
        eprintln!("{LABEL}: at least one worker exceeded the RSS budget");
        std::process::exit(1);
    }
}
