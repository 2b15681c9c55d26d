//! Fig. 8 — attenuation vs exceedance probability along the Delhi–Sydney
//! path. The paper: at 1 % of the time, BP ≈ 5 dB vs ISL ≈ 2.2 dB, a
//! 39 % received-power advantage for ISLs.

use leo_bench::{
    config_with_cities, finish_run, init_run, print_table, results_dir, scale_from_args,
};
use leo_core::experiments::weather::exceedance_curve;
use leo_core::output::CsvWriter;
use leo_core::StudyContext;
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig8_exceedance");
    let ctx = StudyContext::build(config_with_cities(scale, 340));
    let curve = exceedance_curve(&ctx, "Delhi", "Sydney", 0.0)
        .expect("Delhi-Sydney must be routable at t=0");

    let rows: Vec<Vec<String>> = curve
        .p_percent
        .iter()
        .zip(curve.bp_db.iter().zip(&curve.isl_db))
        .map(|(&p, (&b, &i))| {
            let power = |db: f64| 10f64.powf(-db / 10.0) * 100.0;
            vec![
                format!("{p}%"),
                format!("{b:.2}"),
                format!("{i:.2}"),
                format!("{:.0}%", power(b)),
                format!("{:.0}%", power(i)),
            ]
        })
        .collect();
    print_table(
        "Fig 8: Delhi-Sydney worst-link attenuation vs exceedance",
        &["p", "BP dB", "ISL dB", "BP rx power", "ISL rx power"],
        &rows,
    );
    let idx = curve.p_percent.iter().position(|&p| p == 1.0).unwrap();
    diag!(
        "at 1%: BP {:.2} dB vs ISL {:.2} dB (paper: 5 dB vs 2.2 dB)",
        curve.bp_db[idx],
        curve.isl_db[idx]
    );

    let path = results_dir().join("fig8_exceedance.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["p_percent", "bp_db", "isl_db"]).unwrap();
    for i in 0..curve.p_percent.len() {
        w.num_row(&[curve.p_percent[i], curve.bp_db[i], curve.isl_db[i]])
            .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("fig8_exceedance", &ctx.config);
}
