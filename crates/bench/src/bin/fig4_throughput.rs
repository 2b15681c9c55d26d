//! Fig. 4 — aggregate max-min-fair throughput for {Starlink, Kuiper} ×
//! {BP, hybrid} × {k=1, k=4}, plus the §5 disconnected-satellite
//! statistic (pass `--disconnected`).
//!
//! Each combo is one network-wide max-min-fair allocation over every
//! pair's k sub-flows, solved in one process (DESIGN.md §5.3).

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::throughput::{disconnected_satellite_fraction, throughput};
use leo_core::output::CsvWriter;
use leo_core::{ConstellationKind, Mode, StudyContext};
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

fn main() {
    let (scale, flags) = scale_from_args(&["--disconnected"]);
    init_run(LABEL);
    let want_disconnected = !flags.is_empty();

    let mut rows = Vec::new();
    let mut csv_rows: Vec<(String, String, usize, f64)> = Vec::new();
    for kind in KINDS {
        let mut cfg = scale.config();
        cfg.constellation = kind;
        let ctx = StudyContext::build(cfg);
        diag!(
            "fig4: {:?}: {} sats, {} pairs, {} relays",
            kind,
            ctx.num_satellites(),
            ctx.pairs.len(),
            ctx.ground.relays.len()
        );
        let mut per_kind: Vec<f64> = Vec::new();
        for &(mode, k) in &COMBOS {
            let r = throughput(&ctx, T_S, mode, k);
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
    finish_run(LABEL, &scale.config());
}
