//! Fig. 2 — minimum RTT (a) and RTT variation (b) CDFs across city pairs,
//! BP vs hybrid, plus the §1/§4 headline summary numbers.

use leo_bench::{
    config_with_cities, finish_run, init_run, print_table, results_dir, scale_from_args,
};
use leo_core::experiments::latency::{latency_studies, summarize, PairStats};
use leo_core::metrics::Distribution;
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
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

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run(LABEL);
    let ctx = StudyContext::build(config_with_cities(scale, 340));
    diag!(
        "fig2: {} cities, {} pairs, {} snapshots, {} relays",
        ctx.ground.cities.len(),
        ctx.pairs.len(),
        ctx.config.snapshot_times_s.len(),
        ctx.ground.relays.len()
    );

    // One shared orbit/visibility pass per snapshot covers both modes.
    let mut studies = latency_studies(&ctx, &MODES, 0);
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
    finish_run(LABEL, &ctx.config);
}
