//! Extension — packet-level queueing on BP vs hybrid paths: end-to-end
//! delay, p99, jitter, and loss of a 10 Mbit/s flow over each path's
//! per-beam links under increasing cross-traffic load. The paper's §4
//! QoE point, made concrete with `leo-packetsim`.

use leo_bench::{
    config_with_cities, finish_run, init_run, print_table, results_dir, scale_from_args,
};
use leo_core::experiments::packet_delay::packet_delay_study;
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("ext_packet_delay");
    let ctx = StudyContext::build(config_with_cities(scale, 340));
    let (src, dst) = ("New York", "London");
    let loads = [0.3, 0.6, 0.8, 0.95];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for mode in [Mode::BpOnly, Mode::Hybrid] {
        for &load in &loads {
            match packet_delay_study(&ctx, src, dst, 0.0, mode, load, 1.0) {
                Some(r) => {
                    rows.push(vec![
                        format!("{mode:?}"),
                        format!("{:.0}%", load * 100.0),
                        r.hops.to_string(),
                        format!("{:.2}", r.mean_delay_ms),
                        format!("{:.2}", r.p99_delay_ms),
                        format!("{:.3}", r.jitter_ms),
                        format!("{:.2}%", (1.0 - r.delivery_ratio) * 100.0),
                    ]);
                    csv.push(r);
                }
                None => rows.push(vec![format!("{mode:?}"), "unreachable".into()]),
            }
        }
    }
    print_table(
        &format!("Packet-level {src} -> {dst} (10 Mbit/s flow, per-beam links)"),
        &[
            "mode",
            "load",
            "hops",
            "mean (ms)",
            "p99 (ms)",
            "jitter (ms)",
            "loss",
        ],
        &rows,
    );
    diag!("BP's longer store-and-forward chains accumulate more queueing variance (§4 QoE)");

    let path = results_dir().join("ext_packet_delay.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&[
        "mode",
        "load",
        "hops",
        "mean_ms",
        "p99_ms",
        "jitter_ms",
        "delivery",
    ])
    .unwrap();
    for r in csv {
        w.row(&[
            format!("{:?}", r.mode),
            format!("{:.2}", r.load),
            r.hops.to_string(),
            format!("{:.4}", r.mean_delay_ms),
            format!("{:.4}", r.p99_delay_ms),
            format!("{:.5}", r.jitter_ms),
            format!("{:.5}", r.delivery_ratio),
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("ext_packet_delay", &ctx.config);
}
