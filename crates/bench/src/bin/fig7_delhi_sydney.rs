//! Fig. 7 — the Delhi–Sydney BP path crosses the high-attenuation
//! tropics via aircraft and on-land GT hops, while the ISL path overflies
//! the entire region. Dumps the path hops and the regional attenuation
//! heat-map raster.

use leo_bench::{
    config_with_cities, finish_run, init_run, print_table, results_dir, scale_from_args,
};
use leo_core::experiments::weather::attenuation_raster;
use leo_core::output::CsvWriter;
use leo_core::{Mode, NodeKind, StudyContext};
use leo_graph::{dijkstra, extract_path};
use leo_util::diag;

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("fig7_delhi_sydney");
    let ctx = StudyContext::build(config_with_cities(scale, 340));
    let src = ctx.ground.city_index("Delhi").expect("Delhi loaded");
    let dst = ctx.ground.city_index("Sydney").expect("Sydney loaded");

    for mode in [Mode::BpOnly, Mode::IslOnly] {
        let snap = ctx.snapshot(0.0, mode);
        let sp = dijkstra(&snap.graph, snap.city_node(src));
        match extract_path(&sp, snap.city_node(dst)) {
            Some(p) => {
                let mut rows = Vec::new();
                for &n in &p.nodes {
                    let (kind, pos) = match snap.nodes[n as usize] {
                        NodeKind::Satellite(id) => (format!("sat {id}"), None),
                        NodeKind::City(i) => (
                            format!("city {}", ctx.ground.cities[i as usize].name),
                            snap.ground_position(n),
                        ),
                        NodeKind::Relay(i) => (format!("relay {i}"), snap.ground_position(n)),
                        NodeKind::Aircraft(id) => {
                            (format!("aircraft {id}"), snap.ground_position(n))
                        }
                    };
                    rows.push(vec![kind, pos.map_or(String::new(), |g| format!("{g}"))]);
                }
                print_table(
                    &format!(
                        "Fig 7: Delhi->Sydney {mode:?} path ({:.1} ms RTT)",
                        leo_core::rtt_ms(p.total_weight)
                    ),
                    &["hop", "ground position"],
                    &rows,
                );
                let ground_hops = p
                    .nodes
                    .iter()
                    .filter(|&&n| snap.nodes[n as usize].is_ground())
                    .count()
                    - 2;
                diag!(
                    "intermediate ground hops: {ground_hops} (paper's example: 2 aircraft + 4 GTs)"
                );
            }
            None => diag!("{mode:?}: no path at t=0"),
        }
    }

    // Heat map over South/Southeast Asia and down to Australia.
    let raster = attenuation_raster(&ctx, (-40.0, 35.0), (60.0, 160.0), 2.5, 0.5);
    let path = results_dir().join("fig7_attenuation_raster.csv");
    let mut w = CsvWriter::create(&path).expect("create csv");
    w.row(&["lat", "lon", "attenuation_db"]).unwrap();
    for (lat, lon, a) in &raster {
        w.num_row(&[*lat, *lon, *a]).unwrap();
    }
    w.flush().unwrap();
    let max = raster.iter().map(|r| r.2).fold(f64::NEG_INFINITY, f64::max);
    let min = raster.iter().map(|r| r.2).fold(f64::INFINITY, f64::min);
    diag!(
        "raster: {} cells, attenuation {:.2}-{:.2} dB",
        raster.len(),
        min,
        max
    );
    diag!("wrote {}", path.display());
    finish_run("fig7_delhi_sydney", &ctx.config);
}
