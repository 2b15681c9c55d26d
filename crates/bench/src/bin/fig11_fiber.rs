//! Fig. 11 — "distributed GTs": Paris borrowing the satellite visibility
//! of 5 fiber-connected nearby cities multiplies its reachable satellites
//! and aggregate up/down capacity for a sub-millisecond fiber detour.

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::fiber::{fiber_augmentation, paris_satellite_sites};
use leo_core::output::CsvWriter;
use leo_core::StudyContext;
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig11_fiber");
    let ctx = StudyContext::build(scale.config());
    let (paris, sites) = paris_satellite_sites();

    let times: Vec<f64> = ctx.config.snapshot_times_s.clone();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for &t in &times {
        let f = fiber_augmentation(&ctx, paris, &sites, t);
        rows.push(vec![
            format!("{t:>6.0}"),
            f.metro_visible.to_string(),
            f.augmented_visible.to_string(),
            format!("{:.0}", f.metro_capacity_gbps),
            format!("{:.0}", f.augmented_capacity_gbps),
            format!("{:.2}", f.max_fiber_detour_ms),
        ]);
        csv.push((t, f));
    }
    print_table(
        "Fig 11: Paris + 5 distributed GTs over fiber",
        &[
            "t(s)",
            "metro sats",
            "augmented sats",
            "metro Gbps",
            "augmented Gbps",
            "fiber detour (ms)",
        ],
        &rows,
    );
    let avg_ratio: f64 = csv
        .iter()
        .map(|(_, f)| f.augmented_capacity_gbps / f.metro_capacity_gbps.max(1e-9))
        .sum::<f64>()
        / csv.len() as f64;
    diag!("average capacity multiplier: {avg_ratio:.1}x");

    let path = results_dir().join("fig11_fiber.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&[
        "t_s",
        "metro_visible",
        "augmented_visible",
        "metro_gbps",
        "augmented_gbps",
        "max_fiber_detour_ms",
    ])
    .unwrap();
    for (t, f) in csv {
        w.num_row(&[
            t,
            f.metro_visible as f64,
            f.augmented_visible as f64,
            f.metro_capacity_gbps,
            f.augmented_capacity_gbps,
            f.max_fiber_detour_ms,
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("fig11_fiber", &ctx.config);
}
