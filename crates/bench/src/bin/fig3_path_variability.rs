//! Fig. 3 — the Maceió–Durban BP path changes drastically with aircraft
//! availability over the sparse South Atlantic, inflating its RTT by up
//! to ~100 ms while congesting the busy North Atlantic corridor.

use leo_bench::{
    config_with_cities, finish_run, init_run, print_table, results_dir, scale_from_args,
};
use leo_core::experiments::latency::pair_timeseries;
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig3_path_variability");
    let ctx = StudyContext::build(config_with_cities(scale, 340));
    let (src, dst) = ("Maceió", "Durban");

    let bp = pair_timeseries(&ctx, src, dst, Mode::BpOnly, 0);
    let hy = pair_timeseries(&ctx, src, dst, Mode::Hybrid, 0);

    let rows: Vec<Vec<String>> = bp
        .iter()
        .zip(&hy)
        .map(|(b, h)| {
            vec![
                format!("{:>6.0}", b.t_s),
                b.rtt_ms.map_or("-".into(), |r| format!("{r:.1}")),
                format!("{}", b.hops),
                format!("{}", b.aircraft_hops),
                format!("{}", b.relay_hops),
                h.rtt_ms.map_or("-".into(), |r| format!("{r:.1}")),
            ]
        })
        .collect();
    print_table(
        &format!("Fig 3: {src} -> {dst} over the day"),
        &[
            "t(s)",
            "BP RTT(ms)",
            "hops",
            "aircraft",
            "relays",
            "hybrid RTT(ms)",
        ],
        &rows,
    );

    let bp_rtts: Vec<f64> = bp.iter().filter_map(|p| p.rtt_ms).collect();
    let hy_rtts: Vec<f64> = hy.iter().filter_map(|p| p.rtt_ms).collect();
    let range = |v: &[f64]| {
        if v.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            (
                v.iter().copied().fold(f64::INFINITY, f64::min),
                v.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            )
        }
    };
    let (bmin, bmax) = range(&bp_rtts);
    let (hmin, hmax) = range(&hy_rtts);
    diag!(
        "BP RTT range {:.1}-{:.1} ms (inflation {:.1} ms; paper: ~100 ms) | hybrid {:.1}-{:.1} ms ({:.1} ms)",
        bmin, bmax, bmax - bmin, hmin, hmax, hmax - hmin,
    );

    let path = results_dir().join("fig3_maceio_durban.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&[
        "t_s",
        "bp_rtt_ms",
        "bp_hops",
        "bp_aircraft",
        "bp_relays",
        "hybrid_rtt_ms",
    ])
    .unwrap();
    for (b, h) in bp.iter().zip(&hy) {
        w.row(&[
            format!("{}", b.t_s),
            b.rtt_ms.map_or(String::new(), |r| format!("{r:.3}")),
            format!("{}", b.hops),
            format!("{}", b.aircraft_hops),
            format!("{}", b.relay_hops),
            h.rtt_ms.map_or(String::new(), |r| format!("{r:.3}")),
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("fig3_path_variability", &ctx.config);
}
