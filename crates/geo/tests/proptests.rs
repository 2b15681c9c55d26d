//! Property-based tests for the geodesy substrate (on
//! `leo_util::check`; 256 cases per property, ≥ the proptest originals).

use leo_geo::*;
use leo_util::check::{check, Gen};
use leo_util::{check_assert, check_assert_eq, check_assume};

fn arb_point(g: &mut Gen) -> GeoPoint {
    GeoPoint::from_degrees(g.f64(-89.9..89.9), g.f64(-179.9..179.9))
}

/// Great-circle distance is symmetric and bounded by half the
/// circumference.
#[test]
fn distance_symmetric_and_bounded() {
    check("distance_symmetric_and_bounded", |g| {
        let (a, b) = (arb_point(g), arb_point(g));
        let d1 = great_circle_distance_m(a, b);
        let d2 = great_circle_distance_m(b, a);
        check_assert!((d1 - d2).abs() < 1e-6);
        check_assert!(d1 >= 0.0);
        check_assert!(d1 <= std::f64::consts::PI * EARTH_RADIUS_M + 1e-6);
        Ok(())
    });
}

/// Triangle inequality on the sphere.
#[test]
fn triangle_inequality() {
    check("triangle_inequality", |g| {
        let (a, b, c) = (arb_point(g), arb_point(g), arb_point(g));
        let ab = great_circle_distance_m(a, b);
        let bc = great_circle_distance_m(b, c);
        let ac = great_circle_distance_m(a, c);
        check_assert!(ac <= ab + bc + 1e-6);
        Ok(())
    });
}

/// ECEF round-trips preserve position and altitude.
#[test]
fn ecef_roundtrip() {
    check("ecef_roundtrip", |g| {
        let p = arb_point(g);
        let alt = g.f64(0.0..2_000_000.0);
        let (q, a) = Ecef::from_geo(p, alt).to_geo();
        check_assert!(p.central_angle(&q) * EARTH_RADIUS_M < 1e-3);
        check_assert!((a - alt).abs() < 1e-3);
        Ok(())
    });
}

/// Points along a great circle divide the distance proportionally.
#[test]
fn interpolation_is_proportional() {
    check("interpolation_is_proportional", |g| {
        let (a, b) = (arb_point(g), arb_point(g));
        let f = g.f64(0.0..1.0);
        let total = great_circle_distance_m(a, b);
        // Skip near-antipodal pairs, where the great circle is degenerate.
        check_assume!(total < 0.98 * std::f64::consts::PI * EARTH_RADIUS_M);
        check_assume!(total > 1.0);
        let m = intermediate_point(a, b, f);
        let da = great_circle_distance_m(a, m);
        check_assert!(
            (da - f * total).abs() < 1.0,
            "da={da}, expected {}",
            f * total
        );
        Ok(())
    });
}

/// destination_point travels exactly the requested distance.
#[test]
fn destination_distance_exact() {
    check("destination_distance_exact", |g| {
        let a = arb_point(g);
        let bearing = g.f64(0.0..std::f64::consts::TAU);
        let d = g.f64(1.0..10_000_000.0);
        let dest = destination_point(a, bearing, d);
        check_assert!((great_circle_distance_m(a, dest) - d).abs() < 1.0);
        Ok(())
    });
}

/// The elevation-angle visibility test agrees with the analytic
/// coverage radius for satellites at the same altitude.
#[test]
fn visibility_matches_coverage_radius() {
    check("visibility_matches_coverage_radius", |g| {
        let gt = arb_point(g);
        let bearing = g.f64(0.0..std::f64::consts::TAU);
        let frac = g.f64(0.0..2.0);
        let elev_deg = g.f64(10.0..60.0);
        let alt = 550_000.0;
        let e = deg_to_rad(elev_deg);
        let r = coverage_radius_m(alt, e);
        // Stay away from the boundary where float noise flips the result.
        check_assume!((frac - 1.0).abs() > 0.01);
        let sub = destination_point(gt, bearing, r * frac);
        let sat = Ecef::from_geo(sub, alt);
        let visible = visible_at_elevation(gt, &sat, e);
        check_assert_eq!(visible, frac < 1.0);
        Ok(())
    });
}

/// A CellGrid window scan with the exact central-angle test matches a
/// brute-force scan.
#[test]
fn grid_matches_brute_force() {
    check("grid_matches_brute_force", |g| {
        let pts = g.vec(1..120, arb_point);
        let center = arb_point(g);
        let radius_km = g.f64(10.0..5000.0);
        let mut grid = CellGrid::new(5.0);
        for (i, p) in pts.iter().enumerate() {
            grid.insert(i as u32, grid.cell_of(p));
        }
        let radius = radius_km * 1000.0;
        let ang = radius / EARTH_RADIUS_M;
        let mut segments = Vec::new();
        grid.window_segments(center, radius, &mut segments);
        let mut got: Vec<u32> = segments
            .iter()
            .flat_map(|&(a, b)| a..b)
            .flat_map(|cell| grid.ids(cell))
            .copied()
            .filter(|&i| center.central_angle(&pts[i as usize]) <= ang)
            .collect();
        got.sort_unstable();
        let want: Vec<u32> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| center.central_angle(p) <= ang)
            .map(|(i, _)| i as u32)
            .collect();
        check_assert_eq!(got, want);
        Ok(())
    });
}
