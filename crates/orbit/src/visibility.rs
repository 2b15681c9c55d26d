//! Visibility computations: GT↔satellite and satellite↔satellite.

use leo_geo::{coverage_radius_m, Ecef, EARTH_RADIUS_M};

/// Parameters controlling GT–satellite visibility: the elevation
/// threshold of a [`leo_geo::VisibilityScan`] and the radius of the
/// [`leo_geo::CellGrid::window_segments`] window it scans.
#[derive(Debug, Clone, Copy)]
pub struct VisibilityParams {
    /// Minimum elevation angle for a usable GT link, radians.
    pub min_elevation_rad: f64,
    /// Satellite altitude (used only to size the cell window), meters.
    /// For multi-shell constellations pass the highest shell's altitude.
    pub max_altitude_m: f64,
}

impl VisibilityParams {
    /// Conservative surface-radius bound for the cell window: no
    /// satellite whose sub-point lies farther than this can be visible.
    pub fn query_radius_m(&self) -> f64 {
        // 2% slack over the analytic coverage radius guards against float
        // edge effects; the exact elevation test rejects false positives.
        coverage_radius_m(self.max_altitude_m, self.min_elevation_rad) * 1.02
    }
}

/// Sub-point cell-index bin size, degrees.
///
/// 3° keeps buckets small for 1,000–4,000-satellite shells while the
/// ~8–10° windows still touch only a handful of bins. Every
/// [`leo_geo::CellGrid`] over satellite sub-points uses it: the one kept
/// by [`crate::ConstellationSnapshot::advance_to`]-based sweeps and the
/// ones [`crate::ConstellationSnapshot::cell_grid`] builds for a single
/// instant.
pub const SUBPOINT_BIN_DEG: f64 = 3.0;

/// True iff the straight line between two satellites stays above
/// `min_clearance_m` over the Earth's surface.
///
/// Laser ISLs must not graze the weather-affected lower atmosphere; the
/// paper uses ~80 km as the safe lower bound. The closest approach of the
/// segment to the Earth's centre is computed analytically.
// lint: hot-path
pub fn isl_line_of_sight(a: &Ecef, b: &Ecef, min_clearance_m: f64) -> bool {
    let ab = a.to_vector(b);
    let len2 = ab.dot(&ab);
    if len2 == 0.0 {
        return a.norm() >= EARTH_RADIUS_M + min_clearance_m;
    }
    // Parameter of the closest point to the origin on the segment.
    let origin_to_a = Ecef::new(-a.x, -a.y, -a.z);
    let t = (origin_to_a.dot(&ab) / len2).clamp(0.0, 1.0);
    let closest = Ecef::new(a.x + t * ab.x, a.y + t * ab.y, a.z + t * ab.z);
    let limit = EARTH_RADIUS_M + min_clearance_m;
    // Square-compare fast path: `closest.norm()` is the correctly-rounded
    // (hence monotonic) sqrt of exactly this sum of squares, so outside a
    // ±1e-12 relative band around `limit²` the comparison is already
    // decided — the band dwarfs the sub-ulp rounding of the sqrt and of
    // `limit²` by three orders of magnitude. Only near-grazing geometry
    // (clearance within millimetres of the threshold) pays the sqrt.
    let d2 = closest.x * closest.x + closest.y * closest.y + closest.z * closest.z;
    let lim2 = limit * limit;
    if d2 >= lim2 * (1.0 + 1e-12) {
        return true;
    }
    if d2 <= lim2 * (1.0 - 1e-12) {
        return false;
    }
    closest.norm() >= limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Constellation, ConstellationSnapshot, Shell};
    use leo_geo::{deg_to_rad, visible_at_elevation, CellOrder, GeoPoint, VisibilityScan};

    /// Ids visible from `gt` by the snapshot builder's path (the
    /// sub-point cell grid, flattened, scanned over `gt`'s window), and
    /// by the scalar test over every satellite; asserted equal.
    fn visible_ids(
        snap: &ConstellationSnapshot,
        gt: GeoPoint,
        params: &VisibilityParams,
    ) -> Vec<u32> {
        let grid = snap.cell_grid(SUBPOINT_BIN_DEG);
        let mut cells = CellOrder::default();
        grid.flatten_into(snap.xyz(), &mut cells);
        let mut segments = Vec::new();
        grid.window_segments(gt, params.query_radius_m(), &mut segments);
        let g = Ecef::from_geo(gt, 0.0);
        let mut got = Vec::new();
        VisibilityScan::new(params.min_elevation_rad).scan_window(
            &g,
            g.norm(),
            &cells,
            &segments,
            &mut |id, _, _| got.push(id),
        );
        got.sort_unstable();
        let brute: Vec<u32> = (0..snap.len() as u32)
            .filter(|&i| {
                visible_at_elevation(gt, &snap.position(i as usize), params.min_elevation_rad)
            })
            .collect();
        assert_eq!(got, brute, "window scan vs brute force from {gt}");
        got
    }

    #[test]
    fn some_satellite_visible_from_mid_latitude() {
        let c = Constellation::starlink();
        let snap = c.positions_at(0.0);
        let params = VisibilityParams {
            min_elevation_rad: c.min_elevation_rad(),
            max_altitude_m: 550_000.0,
        };
        let gt = GeoPoint::from_degrees(40.7, -74.0); // New York
        let out = visible_ids(&snap, gt, &params);
        assert!(
            !out.is_empty(),
            "NYC must see at least one Starlink satellite"
        );
        assert!(out.len() < 60, "but not an absurd number: {}", out.len());
    }

    #[test]
    fn nothing_visible_from_pole_for_53_degree_shell() {
        // A 53°-inclined shell never flies over the poles; with a 25°
        // minimum elevation the pole sees nothing.
        let c = Constellation::starlink();
        let snap = c.positions_at(0.0);
        let params = VisibilityParams {
            min_elevation_rad: c.min_elevation_rad(),
            max_altitude_m: 550_000.0,
        };
        let pole = GeoPoint::from_degrees(89.9, 0.0);
        assert!(visible_ids(&snap, pole, &params).is_empty());
    }

    #[test]
    fn visible_set_matches_brute_force() {
        let c = Constellation::kuiper();
        let snap = c.positions_at(7200.0);
        let params = VisibilityParams {
            min_elevation_rad: c.min_elevation_rad(),
            max_altitude_m: 630_000.0,
        };
        let gt = GeoPoint::from_degrees(-23.55, -46.63); // São Paulo
        assert!(!visible_ids(&snap, gt, &params).is_empty());
    }

    #[test]
    fn adjacent_isl_has_line_of_sight() {
        let c = Constellation::starlink();
        let snap = c.positions_at(0.0);
        let links = crate::plus_grid_isls(&Shell::starlink_phase1(), 0);
        for l in links.iter().take(200) {
            assert!(isl_line_of_sight(
                &snap.position(l.a as usize),
                &snap.position(l.b as usize),
                80_000.0,
            ));
        }
    }

    #[test]
    fn antipodal_satellites_blocked_by_earth() {
        let a = Ecef::from_geo(GeoPoint::from_degrees(0.0, 0.0), 550_000.0);
        let b = Ecef::from_geo(GeoPoint::from_degrees(0.0, 180.0), 550_000.0);
        assert!(!isl_line_of_sight(&a, &b, 80_000.0));
    }

    #[test]
    fn clearance_threshold_matters() {
        // Two satellites whose chord just grazes 100 km altitude.
        let a = Ecef::from_geo(GeoPoint::from_degrees(0.0, -20.0), 550_000.0);
        let b = Ecef::from_geo(GeoPoint::from_degrees(0.0, 20.0), 550_000.0);
        // Chord midpoint altitude: R' = (Re+h)·cos(20°) − Re ≈ 128 km.
        assert!(isl_line_of_sight(&a, &b, 80_000.0));
        assert!(!isl_line_of_sight(&a, &b, 200_000.0));
    }

    #[test]
    fn query_radius_has_slack() {
        let p = VisibilityParams {
            min_elevation_rad: deg_to_rad(25.0),
            max_altitude_m: 550_000.0,
        };
        let exact = coverage_radius_m(550_000.0, deg_to_rad(25.0));
        assert!(p.query_radius_m() > exact);
    }
}
