//! Fig. 9 — GSO-arc avoidance: the fraction of sky and of visible
//! satellites that remain usable, swept over GT latitude (Starlink's 22°
//! separation, 40° full-deployment minimum elevation).

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::gso_arc::gso_sweep;
use leo_core::output::CsvWriter;
use leo_core::StudyContext;
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig9_gso_arc");
    let ctx = StudyContext::build(scale.config());
    let lats: Vec<f64> = (0..=60).step_by(5).map(|l| l as f64).collect();
    let rows = gso_sweep(&ctx, &lats, 40.0, 22.0, 0.0);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.0}", r.lat_deg),
                format!("{:.1}%", r.usable_sky_fraction * 100.0),
                if r.usable_satellite_fraction.is_nan() {
                    "-".into()
                } else {
                    format!("{:.1}%", r.usable_satellite_fraction * 100.0)
                },
            ]
        })
        .collect();
    print_table(
        "Fig 9: GSO-arc avoidance vs latitude (e=40deg, 22deg separation)",
        &["lat", "usable sky", "usable visible sats"],
        &table,
    );
    diag!(
        "at the Equator only small elevation regions remain usable; \
         mid-latitudes are barely affected — BP's cross-Equatorial relays all sit in the constrained band"
    );

    let path = results_dir().join("fig9_gso_arc.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&[
        "lat_deg",
        "usable_sky_fraction",
        "usable_satellite_fraction",
    ])
    .unwrap();
    for r in rows {
        w.num_row(&[
            r.lat_deg,
            r.usable_sky_fraction,
            r.usable_satellite_fraction,
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("fig9_gso_arc", &ctx.config);
}
