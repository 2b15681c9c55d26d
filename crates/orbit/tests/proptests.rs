//! Property-based tests for the orbital substrate (on
//! `leo_util::check`; 256 cases per property, ≥ the proptest originals).

use leo_geo::{deg_to_rad, EARTH_RADIUS_M};
use leo_orbit::*;
use leo_util::check::{check, check_with, Gen};
use leo_util::{check_assert, check_assert_eq, check_assume};

fn arb_elements(g: &mut Gen) -> OrbitalElements {
    OrbitalElements {
        altitude_m: g.f64(400_000.0..1_500_000.0),
        inclination_rad: deg_to_rad(g.f64(20.0..98.0)),
        raan_rad: deg_to_rad(g.f64(0.0..360.0)),
        arg_latitude_rad: deg_to_rad(g.f64(0.0..360.0)),
    }
}

/// Circular orbits keep a constant radius at every time, with or
/// without J2.
#[test]
fn radius_constant() {
    check("radius_constant", |g| {
        let e = arb_elements(g);
        let t = g.f64(0.0..172_800.0);
        let j2 = g.bool();
        let p = e.position_at(t, j2);
        check_assert!((p.norm() - e.semi_major_axis_m()).abs() < 1e-3);
        Ok(())
    });
}

/// Sub-satellite latitude never exceeds the inclination (for
/// inclinations ≤ 90°).
#[test]
fn latitude_bounded() {
    check("latitude_bounded", |g| {
        let e = arb_elements(g);
        let t = g.f64(0.0..86_400.0);
        check_assume!(e.inclination_rad <= std::f64::consts::FRAC_PI_2);
        let (geo, _) = e.position_at(t, false).to_geo();
        check_assert!(geo.lat().abs() <= e.inclination_rad + 1e-9);
        Ok(())
    });
}

/// Orbital speed matches √(μ/a) to first order: positions Δt apart
/// differ by ≈ v·Δt for small Δt.
#[test]
fn speed_matches_vis_viva() {
    check("speed_matches_vis_viva", |g| {
        let e = arb_elements(g);
        let t = g.f64(0.0..86_400.0);
        let dt = 1.0;
        let p0 = e.position_at(t, false);
        let p1 = e.position_at(t + dt, false);
        let moved = p0.distance(&p1);
        let v_orbit = (EARTH_MU / e.semi_major_axis_m()).sqrt();
        // ECEF motion adds Earth-rotation at most ω⊕·r ≈ 0.5 km/s.
        let slack = EARTH_ROTATION_RAD_S * e.semi_major_axis_m() * dt + 1.0;
        check_assert!(
            (moved - v_orbit * dt).abs() < slack,
            "moved {moved} vs v {v_orbit}"
        );
        Ok(())
    });
}

/// Walker shells place every satellite at the shell altitude and
/// assign unique (plane, slot) pairs.
#[test]
fn walker_well_formed() {
    check("walker_well_formed", |g| {
        let planes = g.u32(2..20);
        let spp = g.u32(2..20);
        let incl = g.f64(30.0..90.0);
        let shell = Shell {
            name: "t".into(),
            num_planes: planes,
            sats_per_plane: spp,
            altitude_m: 550_000.0,
            inclination_deg: incl,
            phase_factor: 1,
        };
        let els = shell.elements();
        check_assert_eq!(els.len(), (planes * spp) as usize);
        for idx in 0..(planes * spp) {
            let (p, s) = shell.plane_slot(idx);
            check_assert!(p < planes && s < spp);
            let e = &els[idx as usize];
            check_assert!((e.altitude_m - 550_000.0).abs() < 1e-9);
        }
        Ok(())
    });
}

/// ISL line-of-sight is symmetric and monotone in clearance.
#[test]
fn isl_los_symmetric_monotone() {
    check("isl_los_symmetric_monotone", |g| {
        let a = leo_geo::Ecef::from_geo(
            leo_geo::GeoPoint::from_degrees(g.f64(-60.0..60.0), g.f64(-180.0..180.0)),
            550_000.0,
        );
        let b = leo_geo::Ecef::from_geo(
            leo_geo::GeoPoint::from_degrees(g.f64(-60.0..60.0), g.f64(-180.0..180.0)),
            550_000.0,
        );
        let clearance = g.f64(0.0..400_000.0);
        check_assert_eq!(
            isl_line_of_sight(&a, &b, clearance),
            isl_line_of_sight(&b, &a, clearance)
        );
        if isl_line_of_sight(&a, &b, clearance) {
            check_assert!(isl_line_of_sight(&a, &b, clearance * 0.5));
        }
        Ok(())
    });
}

/// The snapshot builder's visibility path (the sub-point cell grid,
/// flattened and scanned over the ground point's window) finds exactly
/// the satellites the scalar elevation test finds over the whole
/// constellation, and every one lies within the analytic coverage radius
/// (sub-point distance). The constellation is built once and shared
/// across cases (the original rebuilt it per case; propagation per case
/// is the meaningful part).
#[test]
fn visibility_inside_coverage() {
    let c = Constellation::starlink();
    check_with("visibility_inside_coverage", 256, |g| {
        let lat = g.f64(-55.0..55.0);
        let lon = g.f64(-180.0..180.0);
        let t = g.f64(0.0..6000.0);
        let snap = c.positions_at(t);
        let params = VisibilityParams {
            min_elevation_rad: c.min_elevation_rad(),
            max_altitude_m: 550_000.0,
        };
        let gt = leo_geo::GeoPoint::from_degrees(lat, lon);
        let grid = snap.cell_grid(SUBPOINT_BIN_DEG);
        let mut cells = leo_geo::CellOrder::default();
        grid.flatten_into(snap.xyz(), &mut cells);
        let mut segments = Vec::new();
        grid.window_segments(gt, params.query_radius_m(), &mut segments);
        let ground = leo_geo::Ecef::from_geo(gt, 0.0);
        let mut vis = Vec::new();
        leo_geo::VisibilityScan::new(params.min_elevation_rad).scan_window(
            &ground,
            ground.norm(),
            &cells,
            &segments,
            &mut |id, _, _| vis.push(id),
        );
        vis.sort_unstable();
        let brute: Vec<u32> = (0..snap.len() as u32)
            .filter(|&i| {
                leo_geo::visible_at_elevation(
                    gt,
                    &snap.position(i as usize),
                    params.min_elevation_rad,
                )
            })
            .collect();
        check_assert_eq!(vis, brute);
        let cov = leo_geo::coverage_radius_m(550_000.0, c.min_elevation_rad());
        for &s in &vis {
            let d = gt.central_angle(&snap.subpoint(s as usize)) * EARTH_RADIUS_M;
            check_assert!(d <= cov + 1_000.0, "visible sat {s} at {d} m > {cov} m");
        }
        Ok(())
    });
}
