//! Extension — path churn and contact windows: the dynamics underneath
//! Fig. 2(b). Reports how often shortest paths change between snapshots
//! (BP vs hybrid) and the Starlink pass-duration statistics behind the
//! paper's "each satellite is reachable for a few minutes" (§2).

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::churn::churn_study;
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_geo::GeoPoint;
use leo_orbit::{find_passes, pass_stats};
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("ext_path_churn");
    let ctx = StudyContext::build(scale.config());

    let mut rows = Vec::new();
    let mut results = Vec::new();
    for mode in [Mode::BpOnly, Mode::Hybrid] {
        let s = churn_study(&ctx, mode, 0);
        rows.push(vec![
            format!("{mode:?}"),
            format!("{:.1}%", s.path_change_fraction * 100.0),
            format!("{:.2}", s.mean_jump_ms),
            format!("{:.2}", s.max_jump_ms),
            s.transitions.to_string(),
        ]);
        results.push((mode, s));
    }
    print_table(
        "Path churn across snapshots",
        &[
            "mode",
            "paths changed",
            "mean |dRTT| (ms)",
            "max |dRTT| (ms)",
            "transitions",
        ],
        &rows,
    );

    // Contact windows: why paths churn at all.
    let gt = GeoPoint::from_degrees(40.7, -74.0);
    let passes = find_passes(&ctx.constellation, gt, 0.0, 4.0 * 3600.0, 15.0);
    let st = pass_stats(&passes, 0.0, 4.0 * 3600.0);
    diag!(
        "Starlink passes over New York (4 h scan): {} passes, mean {:.1} min, max {:.1} min",
        st.count,
        st.mean_duration_s / 60.0,
        st.max_duration_s / 60.0
    );
    diag!("paper §2: \"each satellite is reachable from a GT for a few minutes\"");

    let path = results_dir().join("ext_path_churn.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["mode", "change_fraction", "mean_jump_ms", "max_jump_ms"])
        .unwrap();
    for (m, s) in results {
        w.row(&[
            format!("{m:?}"),
            format!("{:.4}", s.path_change_fraction),
            format!("{:.3}", s.mean_jump_ms),
            format!("{:.3}", s.max_jump_ms),
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("ext_path_churn", &ctx.config);
}
