//! Fig. 4 — aggregate max-min-fair throughput for {Starlink, Kuiper} ×
//! {BP, hybrid} × {k=1, k=4}, plus the §5 disconnected-satellite
//! statistic (pass `--disconnected`).
//!
//! Sharded execution (`leo-shard`): routing is per-pair independent, so
//! `--shards K` routes each pair shard in a range-restricted context,
//! spills the per-pair path sets (one file per constellation per
//! shard), and re-solves the *global* max-min allocation from the
//! merged path list — byte-identical tables and CSV. Each shard runs as
//! an OS worker process; `--shard i/K --shard-dir D` is the worker half
//! of that protocol.

use leo_bench::{
    finish_run, finish_run_with, init_run, print_table, results_dir, scale_from_args, scale_name,
    shard_cli, shard_dir, shard_label, spawn_shard_workers,
};
use leo_core::experiments::throughput::{
    disconnected_satellite_fraction, throughput, throughput_from_path_edges, ThroughputResult,
};
use leo_core::output::CsvWriter;
use leo_core::{ConstellationKind, ExperimentScale, Mode, StudyContext};
use leo_flow::FlowWorkspace;
use leo_shard::runner::{merge_flow_files, shard_file_name, spill_flow_shard};
use leo_shard::{FlowPathsKeepers, ShardSpec};
use leo_util::diag;

const LABEL: &str = "fig4_throughput";
const KINDS: [ConstellationKind; 2] = [ConstellationKind::Starlink, ConstellationKind::Kuiper];
const COMBOS: [(Mode, usize); 4] = [
    (Mode::BpOnly, 1),
    (Mode::BpOnly, 4),
    (Mode::Hybrid, 1),
    (Mode::Hybrid, 4),
];
const T_S: f64 = 0.0;

fn kind_config(scale: ExperimentScale, kind: ConstellationKind) -> leo_core::StudyConfig {
    let mut cfg = scale.config();
    cfg.constellation = kind;
    cfg
}

fn kind_label(kind: ConstellationKind) -> String {
    format!("{LABEL}.{kind:?}")
}

/// Worker: route this shard's pairs for every constellation and combo,
/// spilling one file per constellation. Stdout stays silent.
fn run_worker(scale: ExperimentScale, spec: ShardSpec, dir: &std::path::Path) {
    let label = shard_label(LABEL, spec);
    init_run(&label);
    let mut extras: Vec<(&str, String)> = vec![("shard", spec.to_string())];
    for kind in KINDS {
        let cfg = kind_config(scale, kind);
        let path = spill_flow_shard(&cfg, T_S, &COMBOS, spec, dir, &kind_label(kind))
            .unwrap_or_else(|e| {
                eprintln!("fig4 shard {spec} ({kind:?}): {e}");
                std::process::exit(1);
            });
        diag!("fig4 shard {spec}: spilled {}", path.display());
    }
    extras.push(("kinds", format!("{KINDS:?}")));
    finish_run_with(&label, &kind_config(scale, KINDS[0]), &extras);
}

/// Merged per-constellation path sets from the workers' spill files,
/// keyed off the combo order.
fn sharded_paths(
    scale: ExperimentScale,
    kind: ConstellationKind,
    cli: &leo_bench::ShardCli,
) -> FlowPathsKeepers {
    let dir = shard_dir(cli);
    let cfg = kind_config(scale, kind);
    let files: Vec<_> = ShardSpec::all(cli.shards)
        .into_iter()
        .map(|s| dir.join(shard_file_name(&kind_label(kind), s)))
        .collect();
    let (run, merged) = merge_flow_files(&files).unwrap_or_else(|e| {
        eprintln!("fig4 ({kind:?}): merging worker spills: {e}");
        std::process::exit(1);
    });
    assert_eq!(
        run.config_hash,
        leo_shard::runner::config_hash(&cfg),
        "merged shards were produced under a different config"
    );
    merged
}

fn main() {
    let (scale, rest) = scale_from_args();
    let cli = shard_cli(rest);

    if let Some(spec) = cli.worker {
        run_worker(scale, spec, &shard_dir(&cli));
        return;
    }

    init_run(LABEL);
    let want_disconnected = cli.rest.iter().any(|a| a == "--disconnected");

    if cli.shards > 0 {
        let dir = shard_dir(&cli);
        let spawned = spawn_shard_workers(cli.shards, &dir, |cmd| {
            cmd.args(["--scale", scale_name(scale)]);
        });
        if let Err(e) = spawned {
            eprintln!("fig4: {e}");
            std::process::exit(1);
        }
    }

    let mut rows = Vec::new();
    let mut csv_rows: Vec<(String, String, usize, f64)> = Vec::new();
    for kind in KINDS {
        let cfg = kind_config(scale, kind);
        let ctx = StudyContext::build(cfg);
        diag!(
            "fig4: {:?}: {} sats, {} pairs, {} relays",
            kind,
            ctx.num_satellites(),
            ctx.pairs.len(),
            ctx.ground.relays.len()
        );
        let merged = (cli.shards > 0).then(|| sharded_paths(scale, kind, &cli));
        let mut per_kind: Vec<f64> = Vec::new();
        for (ci, &(mode, k)) in COMBOS.iter().enumerate() {
            let r: ThroughputResult = match &merged {
                Some(m) => {
                    // Global solve over the merged per-pair path list —
                    // same snapshot, link table, and flow order as the
                    // unsharded path, hence identical output.
                    assert_eq!(m.combos[ci].tag, leo_shard::runner::combo_tag(mode, k));
                    let snap = ctx.snapshot(T_S, mode);
                    throughput_from_path_edges(
                        &ctx,
                        &snap,
                        &m.combos[ci].paths,
                        ctx.config.network.isl_gbps,
                        &mut FlowWorkspace::new(),
                    )
                }
                None => throughput(&ctx, T_S, mode, k),
            };
            per_kind.push(r.aggregate_gbps);
            rows.push(vec![
                format!("{kind:?}"),
                format!("{mode:?}"),
                format!("{k}"),
                format!("{:.1}", r.aggregate_gbps),
                format!("{}", r.routed_pairs),
                format!("{}", r.flows),
            ]);
            csv_rows.push((
                format!("{kind:?}"),
                format!("{mode:?}"),
                k,
                r.aggregate_gbps,
            ));
        }
        // Paper's headline ratios for this constellation.
        let (bp1, bp4, hy1, hy4) = (per_kind[0], per_kind[1], per_kind[2], per_kind[3]);
        diag!(
            "{kind:?}: hybrid/BP at k=1: {:.2}x (paper >2.5x) | k=4: {:.2}x (paper >3.1x) | multipath gain hybrid {:.2}x BP {:.2}x",
            hy1 / bp1.max(1e-9),
            hy4 / bp4.max(1e-9),
            hy4 / hy1.max(1e-9),
            bp4 / bp1.max(1e-9),
        );

        if want_disconnected && kind == ConstellationKind::Starlink {
            let fr = disconnected_satellite_fraction(&ctx, Mode::BpOnly, 0);
            let (lo, hi) = (
                fr.iter().copied().fold(f64::INFINITY, f64::min),
                fr.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            );
            diag!(
                "Starlink BP disconnected satellites across day: {:.1}%-{:.1}% (paper: 25.1%-31.5%)",
                lo * 100.0,
                hi * 100.0
            );
        }
    }
    print_table(
        "Fig 4: aggregate throughput (Gbps)",
        &[
            "constellation",
            "mode",
            "k",
            "Gbps",
            "routed pairs",
            "flows",
        ],
        &rows,
    );

    let path = results_dir().join("fig4_throughput.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["constellation", "mode", "k", "gbps"]).unwrap();
    for (c, m, k, g) in csv_rows {
        w.row(&[c, m, k.to_string(), format!("{g:.3}")]).unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    if cli.shards > 0 {
        finish_run_with(
            LABEL,
            &scale.config(),
            &[("shards", cli.shards.to_string())],
        );
    } else {
        finish_run(LABEL, &scale.config());
    }
}
