//! Fig. 2 — minimum RTT (a) and RTT variation (b) CDFs across city pairs,
//! BP vs hybrid, plus the §1/§4 headline summary numbers.
//!
//! Sharded execution (`leo-shard`): `--shards K` partitions the traffic
//! matrix into `K` pair shards and runs each as an OS worker process
//! through the same latency fold on a range-restricted context; the
//! workers spill keepers and this process merges them — the tables and
//! CSV are **byte-identical** to an unsharded run (CI diffs them).
//! `--shard i/K --shard-dir D` is the worker half of that protocol
//! (spills one shard, prints nothing to stdout).

use leo_bench::{
    config_with_cities, finish_run, finish_run_with, init_run, print_table, results_dir,
    scale_from_args, scale_name, shard_cli, shard_dir, shard_label, spawn_shard_workers,
};
use leo_core::experiments::latency::{latency_studies, summarize, PairStats};
use leo_core::metrics::Distribution;
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_shard::codec::read_shard;
use leo_shard::runner::{merge_latency_files, shard_file_name, spill_latency_shard};
use leo_shard::ShardSpec;
use leo_util::diag;

const LABEL: &str = "fig2_latency";
const MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];

fn cdf_rows(stats: &[PairStats]) -> (Distribution, Distribution) {
    let mins: Vec<f64> = stats.iter().filter_map(|s| s.min_rtt_ms).collect();
    let vars: Vec<f64> = stats.iter().filter_map(PairStats::variation_ms).collect();
    (
        Distribution::from_samples(&mins),
        Distribution::from_samples(&vars),
    )
}

/// Worker half of the `--shards` protocol: fold one shard, spill it,
/// record the run log, say nothing on stdout.
fn run_worker(cfg: &leo_core::StudyConfig, spec: ShardSpec, dir: &std::path::Path) {
    let label = shard_label(LABEL, spec);
    init_run(&label);
    let path = spill_latency_shard(cfg, &MODES, spec, 0, dir, LABEL).unwrap_or_else(|e| {
        eprintln!("fig2 shard {spec}: {e}");
        std::process::exit(1);
    });
    let (header, _) = read_shard(&path).unwrap_or_else(|e| {
        eprintln!("fig2 shard {spec}: re-reading spill: {e}");
        std::process::exit(1);
    });
    finish_run_with(
        &label,
        cfg,
        &[
            ("shard", spec.to_string()),
            ("pair_lo", header.pair_lo.to_string()),
            ("pair_hi", header.pair_hi.to_string()),
            ("shard_file", path.display().to_string()),
        ],
    );
}

fn main() {
    let (scale, rest) = scale_from_args();
    let cli = shard_cli(rest);
    let cfg = config_with_cities(scale, 340);

    if let Some(spec) = cli.worker {
        run_worker(&cfg, spec, &shard_dir(&cli));
        return;
    }

    init_run(LABEL);
    let ctx = StudyContext::build(cfg.clone());
    diag!(
        "fig2: {} cities, {} pairs, {} snapshots, {} relays",
        ctx.ground.cities.len(),
        ctx.pairs.len(),
        ctx.config.snapshot_times_s.len(),
        ctx.ground.relays.len()
    );

    let mut extras: Vec<(&str, String)> = Vec::new();
    let mut studies = if cli.shards > 0 {
        let dir = shard_dir(&cli);
        spawn_shard_workers(cli.shards, &dir, |cmd| {
            cmd.args(["--scale", scale_name(scale)]);
        })
        .unwrap_or_else(|e| {
            eprintln!("fig2: {e}");
            std::process::exit(1);
        });
        let files: Vec<_> = ShardSpec::all(cli.shards)
            .into_iter()
            .map(|s| dir.join(shard_file_name(LABEL, s)))
            .collect();
        let (run, keepers) = merge_latency_files(&files).unwrap_or_else(|e| {
            eprintln!("fig2: merging worker spills: {e}");
            std::process::exit(1);
        });
        assert_eq!(
            run.n_pairs as usize,
            ctx.pairs.len(),
            "merged shards cover a different traffic matrix than this config"
        );
        extras.push(("shards", run.shard_count.to_string()));
        keepers.to_stats(&ctx.pairs).unwrap_or_else(|e| {
            eprintln!("fig2: {e}");
            std::process::exit(1);
        })
    } else {
        // One shared orbit/visibility pass per snapshot covers both modes.
        latency_studies(&ctx, &MODES, 0)
    };

    let hy = studies.pop().expect("hybrid study");
    let bp = studies.pop().expect("bp study");
    let (bp_min, bp_var) = cdf_rows(&bp);
    let (hy_min, hy_var) = cdf_rows(&hy);

    // Fig. 2(a): minimum RTT distribution.
    let pcts = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0];
    let rows: Vec<Vec<String>> = pcts
        .iter()
        .map(|&p| {
            vec![
                format!("p{p}"),
                format!("{:.1}", bp_min.percentile(p)),
                format!("{:.1}", hy_min.percentile(p)),
            ]
        })
        .collect();
    print_table(
        "Fig 2(a): min RTT across pairs (ms)",
        &["pct", "BP", "hybrid"],
        &rows,
    );

    // Fig. 2(b): RTT variation distribution.
    let rows: Vec<Vec<String>> = pcts
        .iter()
        .map(|&p| {
            vec![
                format!("p{p}"),
                format!("{:.1}", bp_var.percentile(p)),
                format!("{:.1}", hy_var.percentile(p)),
            ]
        })
        .collect();
    print_table(
        "Fig 2(b): RTT variation max-min across pairs (ms)",
        &["pct", "BP", "hybrid"],
        &rows,
    );

    let s = summarize(&bp, &hy);
    let inflation = |b: f64, h: f64| {
        if h > 0.0 {
            format!("{:.0}%", (b / h - 1.0) * 100.0)
        } else {
            "inf".into()
        }
    };
    print_table(
        "Summary (paper: median +80%, p95 +422%, max min-RTT gap 57 ms)",
        &["metric", "BP", "hybrid", "BP inflation"],
        &[
            vec![
                "median variation (ms)".into(),
                format!("{:.1}", s.bp_median_variation_ms),
                format!("{:.1}", s.hybrid_median_variation_ms),
                inflation(s.bp_median_variation_ms, s.hybrid_median_variation_ms),
            ],
            vec![
                "p95 variation (ms)".into(),
                format!("{:.1}", s.bp_p95_variation_ms),
                format!("{:.1}", s.hybrid_p95_variation_ms),
                inflation(s.bp_p95_variation_ms, s.hybrid_p95_variation_ms),
            ],
            vec![
                "max variation (ms)".into(),
                format!("{:.1}", s.bp_max_variation_ms),
                format!("{:.1}", s.hybrid_max_variation_ms),
                String::new(),
            ],
            vec![
                "max min-RTT gap (ms)".into(),
                format!("{:.1}", s.max_min_rtt_gap_ms),
                String::new(),
                String::new(),
            ],
        ],
    );

    // CSV dump of the full CDFs.
    let path = results_dir().join("fig2_latency.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["series", "value_ms", "cdf"]).unwrap();
    for (label, dist) in [
        ("bp_min", &bp_min),
        ("hybrid_min", &hy_min),
        ("bp_var", &bp_var),
        ("hybrid_var", &hy_var),
    ] {
        for (v, f) in dist.cdf_points(200) {
            w.row(&[label.to_string(), format!("{v:.3}"), format!("{f:.4}")])
                .unwrap();
        }
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    if extras.is_empty() {
        finish_run(LABEL, &ctx.config);
    } else {
        finish_run_with(LABEL, &ctx.config, &extras);
    }
}
