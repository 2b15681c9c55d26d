//! Scenario: exploring constellation geometry — orbital periods, coverage
//! footprints, and what a user terminal in a given city actually sees
//! over an hour.
//!
//! ```sh
//! cargo run -p leo-examples --bin constellation_explorer -- "New York"
//! ```

use leo_geo::{coverage_radius_m, deg_to_rad, CellOrder, Ecef, GeoPoint, VisibilityScan};
use leo_orbit::{orbital_period_s, Constellation, VisibilityParams, SUBPOINT_BIN_DEG};

fn main() {
    let city = std::env::args().nth(1).unwrap_or_else(|| "Zurich".into());
    let cities = leo_data::load_cities(340, 42);
    let gt = leo_data::city_by_name(&cities, &city)
        .map(|c| c.pos)
        .unwrap_or_else(|| {
            eprintln!("unknown city {city}; using Zurich");
            GeoPoint::from_degrees(47.38, 8.54)
        });

    for (name, c, alt, elev) in [
        ("Starlink", Constellation::starlink(), 550_000.0, 25.0),
        ("Kuiper", Constellation::kuiper(), 630_000.0, 30.0),
    ] {
        println!(
            "\n{name}: {} satellites, period {:.1} min, coverage radius {:.0} km at e={elev} deg",
            c.num_satellites(),
            orbital_period_s(alt) / 60.0,
            coverage_radius_m(alt, deg_to_rad(elev)) / 1000.0,
        );
        let params = VisibilityParams {
            min_elevation_rad: c.min_elevation_rad(),
            max_altitude_m: alt,
        };
        let scan = VisibilityScan::new(params.min_elevation_rad);
        let g = Ecef::from_geo(gt, 0.0);
        let (mut cells, mut segments) = (CellOrder::default(), Vec::new());
        print!("visible from {city} ({gt}) over 1 h: ");
        let mut counts = Vec::new();
        for minute in (0..60).step_by(5) {
            let snap = c.positions_at(minute as f64 * 60.0);
            let grid = snap.cell_grid(SUBPOINT_BIN_DEG);
            grid.flatten_into(snap.xyz(), &mut cells);
            grid.window_segments(gt, params.query_radius_m(), &mut segments);
            let mut visible = 0;
            scan.scan_window(&g, g.norm(), &cells, &segments, &mut |_, _, _| visible += 1);
            counts.push(visible);
        }
        println!(
            "{counts:?} (min {}, max {})",
            counts.iter().min().unwrap(),
            counts.iter().max().unwrap()
        );
    }
}
