//! Render the paper's illustration figures as SVG maps into `results/`:
//!
//! * `map_fig1_bp_vs_isl.svg` — Fig. 1: an ISL path (solid) vs the
//!   zig-zag bent-pipe path (dashed) for one pair.
//! * `map_fig3_maceio_durban.svg` — Fig. 3: the Maceió–Durban BP path at
//!   two snapshots, showing the North-Atlantic detour.
//! * `map_fig7_delhi_sydney.svg` — Fig. 7: the BP and ISL paths over the
//!   tropical attenuation heat-map.

use leo_bench::{config_with_cities, finish_run, init_run, results_dir, scale_from_args};
use leo_core::experiments::weather::attenuation_raster;
use leo_core::viz::{draw_snapshot_path, MapCanvas};
use leo_core::{Mode, StudyContext};
use leo_graph::{dijkstra, extract_path};
use leo_util::diag;

fn path_nodes(
    ctx: &StudyContext,
    snap: &leo_core::NetworkSnapshot,
    src: usize,
    dst: usize,
) -> Option<Vec<leo_graph::NodeId>> {
    let _ = ctx;
    let sp = dijkstra(&snap.graph, snap.city_node(src));
    extract_path(&sp, snap.city_node(dst)).map(|p| p.nodes)
}

fn main() {
    let (scale, _) = scale_from_args(&[]);
    init_run("render_maps");
    let ctx = StudyContext::build(config_with_cities(scale, 340));
    let dir = results_dir();

    // --- Fig. 1: BP vs ISL for New York -> London ---
    {
        let src = ctx.ground.city_index("New York").unwrap();
        let dst = ctx.ground.city_index("London").unwrap();
        let mut canvas = MapCanvas::new(1200.0);
        canvas.title("Fig 1 style: ISL path (solid) vs bent-pipe path (dashed)");
        let sats = ctx.constellation.positions_at(0.0);
        for (mode, color, dashed) in [
            (Mode::Hybrid, "#b22222", false),
            (Mode::BpOnly, "#1f4e9c", true),
        ] {
            let snap = ctx.snapshot(0.0, mode);
            if let Some(nodes) = path_nodes(&ctx, &snap, src, dst) {
                draw_snapshot_path(&mut canvas, &snap, &sats, &nodes, color, dashed);
            }
        }
        canvas.marker(ctx.ground.cities[src].pos, 4.0, "#222", Some("New York"));
        canvas.marker(ctx.ground.cities[dst].pos, 4.0, "#222", Some("London"));
        let path = dir.join("map_fig1_bp_vs_isl.svg");
        canvas.save(&path).expect("write svg");
        diag!("wrote {}", path.display());
    }

    // --- Fig. 3: Maceió–Durban BP at two snapshots ---
    {
        let src = ctx.ground.city_index("Maceió").unwrap();
        let dst = ctx.ground.city_index("Durban").unwrap();
        let mut canvas = MapCanvas::new(1200.0);
        canvas.title("Fig 3 style: Maceio-Durban BP path at two snapshots (aircraft-dependent)");
        let times = &ctx.config.snapshot_times_s;
        let picks = [times[0], times[times.len() / 2]];
        for (t, color) in picks.iter().zip(["#b22222", "#1f4e9c"]) {
            let snap = ctx.snapshot(*t, Mode::BpOnly);
            let sats = ctx.constellation.positions_at(*t);
            if let Some(nodes) = path_nodes(&ctx, &snap, src, dst) {
                draw_snapshot_path(&mut canvas, &snap, &sats, &nodes, color, false);
            }
        }
        canvas.marker(ctx.ground.cities[src].pos, 4.0, "#222", Some("Maceió"));
        canvas.marker(ctx.ground.cities[dst].pos, 4.0, "#222", Some("Durban"));
        let path = dir.join("map_fig3_maceio_durban.svg");
        canvas.save(&path).expect("write svg");
        diag!("wrote {}", path.display());
    }

    // --- Fig. 7: Delhi–Sydney over the attenuation heat-map ---
    {
        let src = ctx.ground.city_index("Delhi").unwrap();
        let dst = ctx.ground.city_index("Sydney").unwrap();
        let mut canvas = MapCanvas::new(1200.0);
        canvas.title("Fig 7 style: Delhi-Sydney paths over 99.5th-pct attenuation (dB)");
        let raster = attenuation_raster(&ctx, (-45.0, 40.0), (55.0, 165.0), 2.5, 0.5);
        canvas.heatmap(&raster, 2.5);
        let sats = ctx.constellation.positions_at(0.0);
        for (mode, color, dashed) in [
            (Mode::IslOnly, "#b22222", false),
            (Mode::BpOnly, "#1f4e9c", true),
        ] {
            let snap = ctx.snapshot(0.0, mode);
            if let Some(nodes) = path_nodes(&ctx, &snap, src, dst) {
                draw_snapshot_path(&mut canvas, &snap, &sats, &nodes, color, dashed);
            }
        }
        canvas.marker(ctx.ground.cities[src].pos, 4.0, "#222", Some("Delhi"));
        canvas.marker(ctx.ground.cities[dst].pos, 4.0, "#222", Some("Sydney"));
        let path = dir.join("map_fig7_delhi_sydney.svg");
        canvas.save(&path).expect("write svg");
        diag!("wrote {}", path.display());
    }
    finish_run("render_maps", &ctx.config);
}
