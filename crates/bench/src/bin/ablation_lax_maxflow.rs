//! Ablation — the "lax" one-big-sink max-flow throughput model of prior
//! work (del Portillo et al. 2019) versus the paper's per-pair max-min
//! model. The lax model lets traffic exit anywhere, so it wildly
//! overstates what a network with real source→destination demands can
//! carry — which is why the paper rejects it (§3).

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::throughput::{lax_maxflow_gbps, throughput};
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("ablation_lax_maxflow");
    let ctx = StudyContext::build(scale.config());

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for mode in [Mode::BpOnly, Mode::Hybrid] {
        let strict = throughput(&ctx, 0.0, mode, 4);
        let lax = lax_maxflow_gbps(&ctx, 0.0, mode);
        rows.push(vec![
            format!("{mode:?}"),
            format!("{:.1}", strict.aggregate_gbps),
            format!("{lax:.1}"),
            format!("{:.2}x", lax / strict.aggregate_gbps.max(1e-9)),
        ]);
        csv.push((format!("{mode:?}"), strict.aggregate_gbps, lax));
    }
    print_table(
        "Ablation: per-pair max-min vs lax one-sink max-flow (Gbps)",
        &["mode", "per-pair max-min", "lax max-flow", "overstatement"],
        &rows,
    );

    let path = results_dir().join("ablation_lax_maxflow.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["mode", "strict_gbps", "lax_gbps"]).unwrap();
    for (m, s, l) in csv {
        w.row(&[m, format!("{s:.3}"), format!("{l:.3}")]).unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("ablation_lax_maxflow", &ctx.config);
}
