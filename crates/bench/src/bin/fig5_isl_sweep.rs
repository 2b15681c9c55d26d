//! Fig. 5 — Starlink throughput (k = 4) as ISL capacity sweeps from 0.5×
//! to 5× the 20 Gbps GT-link capacity. The paper: even 0.5× yields 2.2×
//! BP's throughput; gains flatten past ~3× under shortest-path routing.

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::throughput::isl_capacity_sweep;
use leo_core::output::CsvWriter;
use leo_core::StudyContext;
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig5_isl_sweep");
    let ctx = StudyContext::build(scale.config());
    let ratios = [0.5, 1.0, 2.0, 3.0, 4.0, 5.0];
    let rows = isl_capacity_sweep(&ctx, 0.0, 4, &ratios);

    let bp = rows[0].1;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|&(r, g)| {
            vec![
                if r == 0.0 {
                    "BP (no ISL)".into()
                } else {
                    format!("{r}x")
                },
                format!("{g:.1}"),
                format!("{:.2}x", g / bp.max(1e-9)),
            ]
        })
        .collect();
    print_table(
        "Fig 5: Starlink k=4 throughput vs ISL capacity",
        &["ISL capacity", "Gbps", "vs BP"],
        &table,
    );

    let path = results_dir().join("fig5_isl_sweep.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["isl_ratio", "gbps"]).unwrap();
    for (r, g) in rows {
        w.num_row(&[r, g]).unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("fig5_isl_sweep", &ctx.config);
}
