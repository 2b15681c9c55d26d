//! Fig. 10 — Brisbane–Tokyo with a 53° shell plus a polar shell: a BP
//! "transition point" lets the path switch shells (no cross-shell ISLs
//! exist), cutting latency below what either shell's ISLs alone achieve.

use leo_bench::{
    config_with_cities, finish_run, init_run, print_table, results_dir, scale_from_args,
};
use leo_core::experiments::cross_shell::{cross_shell_study, two_shell_context};
use leo_core::output::CsvWriter;
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig10_cross_shell");
    let ctx = two_shell_context(config_with_cities(scale, 340));
    diag!(
        "fig10: {} satellites across {} shells",
        ctx.num_satellites(),
        ctx.constellation.shells().len()
    );
    let rows = cross_shell_study(&ctx, "Brisbane", "Tokyo", 0);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:>6.0}", r.t_s),
                r.isl_only_rtt_ms.map_or("-".into(), |v| format!("{v:.1}")),
                r.hybrid_rtt_ms.map_or("-".into(), |v| format!("{v:.1}")),
                format!("{}", r.hybrid_shells_used),
                format!("{}", r.hybrid_ground_bounces),
            ]
        })
        .collect();
    print_table(
        "Fig 10: Brisbane -> Tokyo, ISL-only vs hybrid (BP shell transitions)",
        &[
            "t(s)",
            "ISL-only RTT",
            "hybrid RTT",
            "shells used",
            "ground bounces",
        ],
        &table,
    );

    let gains: Vec<f64> = rows
        .iter()
        .filter_map(|r| Some(r.isl_only_rtt_ms? - r.hybrid_rtt_ms?))
        .collect();
    if !gains.is_empty() {
        let max = gains.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let cross = rows.iter().filter(|r| r.hybrid_shells_used > 1).count();
        diag!(
            "max hybrid gain: {max:.1} ms; snapshots using >1 shell: {cross}/{}",
            rows.len()
        );
    }

    let path = results_dir().join("fig10_cross_shell.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&[
        "t_s",
        "isl_only_rtt_ms",
        "hybrid_rtt_ms",
        "shells",
        "bounces",
    ])
    .unwrap();
    for r in rows {
        w.row(&[
            format!("{}", r.t_s),
            r.isl_only_rtt_ms
                .map_or(String::new(), |v| format!("{v:.3}")),
            r.hybrid_rtt_ms.map_or(String::new(), |v| format!("{v:.3}")),
            r.hybrid_shells_used.to_string(),
            r.hybrid_ground_bounces.to_string(),
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("fig10_cross_shell", &ctx.config);
}
