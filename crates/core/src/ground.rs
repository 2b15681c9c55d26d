//! The ground segment: city GTs and the transit-relay grid.

use crate::config::StudyConfig;
use leo_data::cities::{load_cities, City};
use leo_data::landmask::is_land;
use leo_geo::{CellGrid, GeoPoint, EARTH_RADIUS_M};

/// The static part of the ground segment (aircraft are per-snapshot).
#[derive(Debug, Clone)]
pub struct GroundSegment {
    /// Traffic source/sink cities, population-descending.
    pub cities: Vec<City>,
    /// Transit-only relay GTs: grid points on land within the relay
    /// radius of at least one city (paper §3: every 0.5° within 2,000 km
    /// of the cities — "the highest density of GTs tested in prior work").
    pub relays: Vec<GeoPoint>,
}

impl GroundSegment {
    /// Build the ground segment for a configuration.
    pub fn build(cfg: &StudyConfig) -> Self {
        let cities = load_cities(cfg.num_cities, cfg.seed);
        let relays = match cfg.relay_grid_deg {
            Some(spacing) => build_relay_grid(&cities, spacing, cfg.relay_radius_m),
            None => Vec::new(),
        };
        Self { cities, relays }
    }

    /// Index of a (real) city by name.
    pub fn city_index(&self, name: &str) -> Option<usize> {
        self.cities.iter().position(|c| c.name == name)
    }
}

/// Lay a uniform lat/lon grid and keep points that are on land and within
/// `radius_m` of some city.
///
/// The distance test walks the point's window of a cell index over the
/// cities and stops at the first city in range.
fn build_relay_grid(cities: &[City], spacing_deg: f64, radius_m: f64) -> Vec<GeoPoint> {
    // lint: allow(panic-reachable) grid validation: a non-positive spacing would loop forever
    assert!(spacing_deg > 0.0);
    let mut city_index = CellGrid::new(4.0);
    for (i, c) in cities.iter().enumerate() {
        city_index.insert(i as u32, city_index.cell_of(&c.pos));
    }
    let ang = radius_m / EARTH_RADIUS_M;
    let mut relays = Vec::new();
    let mut segments = Vec::new();
    let lat_steps = (180.0 / spacing_deg) as i64;
    let lon_steps = (360.0 / spacing_deg) as i64;
    for i in 0..=lat_steps {
        let lat = -90.0 + i as f64 * spacing_deg;
        // Skip extreme latitudes: no cities within 2,000 km of ±80°+.
        if lat.abs() > 80.0 {
            continue;
        }
        for j in 0..lon_steps {
            let lon = -180.0 + j as f64 * spacing_deg;
            let p = GeoPoint::from_degrees(lat, lon);
            if !is_land(p) {
                continue;
            }
            city_index.window_segments(p, radius_m, &mut segments);
            let near_city = segments
                .iter()
                .flat_map(|&(a, b)| a..b)
                .flat_map(|cell| city_index.ids(cell))
                .any(|&i| p.central_angle(&cities[i as usize].pos) <= ang);
            if near_city {
                relays.push(p);
            }
        }
    }
    relays
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use leo_geo::great_circle_distance_m;

    fn tiny() -> GroundSegment {
        GroundSegment::build(&ExperimentScale::Tiny.config())
    }

    #[test]
    fn cities_loaded_in_order() {
        let g = tiny();
        assert_eq!(g.cities.len(), 60);
        assert_eq!(g.cities[0].name, "Tokyo");
    }

    #[test]
    fn relays_on_land_and_near_cities() {
        let g = tiny();
        assert!(!g.relays.is_empty());
        for r in &g.relays {
            assert!(is_land(*r));
            let nearest = g
                .cities
                .iter()
                .map(|c| great_circle_distance_m(c.pos, *r))
                .fold(f64::INFINITY, f64::min);
            assert!(
                nearest <= 2_000_000.0 + 1.0,
                "relay {r} too remote: {nearest}"
            );
        }
    }

    #[test]
    fn relays_are_every_land_point_near_a_city() {
        // Brute force over the cities: the relays are exactly the land
        // grid points with some city within the relay radius, in grid
        // order, bit for bit. A window that dropped cells would lose some.
        let cfg = ExperimentScale::Tiny.config();
        let (g, spacing) = (tiny(), cfg.relay_grid_deg.unwrap());
        let ang = cfg.relay_radius_m / EARTH_RADIUS_M;
        let mut want = Vec::new();
        for i in 0..=(180.0 / spacing) as i64 {
            for j in 0..(360.0 / spacing) as i64 {
                let p =
                    GeoPoint::from_degrees(-90.0 + i as f64 * spacing, -180.0 + j as f64 * spacing);
                if is_land(p) && g.cities.iter().any(|c| p.central_angle(&c.pos) <= ang) {
                    want.push((p.lat().to_bits(), p.lon().to_bits()));
                }
            }
        }
        let got: Vec<(u64, u64)> = g
            .relays
            .iter()
            .map(|r| (r.lat().to_bits(), r.lon().to_bits()))
            .collect();
        assert!(!want.is_empty());
        assert_eq!(got, want);
    }

    #[test]
    fn finer_grid_means_more_relays() {
        let mut cfg = ExperimentScale::Tiny.config();
        cfg.relay_grid_deg = Some(5.0);
        let coarse = GroundSegment::build(&cfg).relays.len();
        cfg.relay_grid_deg = Some(2.5);
        let fine = GroundSegment::build(&cfg).relays.len();
        assert!(fine > 2 * coarse, "2.5° ({fine}) vs 5° ({coarse})");
    }

    #[test]
    fn relays_can_be_disabled() {
        let mut cfg = ExperimentScale::Tiny.config();
        cfg.relay_grid_deg = None;
        let g = GroundSegment::build(&cfg);
        assert!(g.relays.is_empty());
    }

    #[test]
    fn city_index_lookup() {
        let g = tiny();
        assert_eq!(g.city_index("Tokyo"), Some(0));
        assert!(g.city_index("Nowhere").is_none());
    }

    #[test]
    fn deterministic() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.relays.len(), b.relays.len());
        assert_eq!(a.cities.len(), b.cities.len());
    }
}
