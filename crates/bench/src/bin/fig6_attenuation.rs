//! Fig. 6 — CDF across city pairs of the 99.5th-percentile worst-link
//! attenuation, BP vs ISL connectivity. The paper: the median with ISLs
//! is more than 1 dB lower (a 1 dB gap is 20.6 % less received power
//! on the BP side: `10^(−0.1)` ≈ 0.794).

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::weather::weather_study;
use leo_core::metrics::Distribution;
use leo_core::output::CsvWriter;
use leo_core::StudyContext;
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig6_attenuation");
    let ctx = StudyContext::build(scale.config());
    diag!(
        "fig6: {} pairs x {} snapshots",
        ctx.pairs.len(),
        ctx.config.snapshot_times_s.len()
    );
    let study = weather_study(&ctx, 7, 0);
    let bp = Distribution::from_samples(&study.bp_db);
    let isl = Distribution::from_samples(&study.isl_db);

    let pcts = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0];
    let rows: Vec<Vec<String>> = pcts
        .iter()
        .map(|&p| {
            vec![
                format!("p{p}"),
                format!("{:.2}", bp.percentile(p)),
                format!("{:.2}", isl.percentile(p)),
            ]
        })
        .collect();
    print_table(
        "Fig 6: 99.5th-pct attenuation across pairs (dB)",
        &["pct", "BP", "ISL"],
        &rows,
    );
    let gap = bp.median() - isl.median();
    diag!(
        "median gap: {:.2} dB (paper: >1 dB, i.e. ~{:.0}% received-power difference)",
        gap,
        (1.0 - 10f64.powf(-gap / 10.0)) * 100.0
    );

    let path = results_dir().join("fig6_attenuation.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["series", "attenuation_db", "cdf"]).unwrap();
    for (label, d) in [("bp", &bp), ("isl", &isl)] {
        for (v, f) in d.cdf_points(200) {
            w.row(&[label.to_string(), format!("{v:.4}"), format!("{f:.4}")])
                .unwrap();
        }
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("fig6_attenuation", &ctx.config);
}
