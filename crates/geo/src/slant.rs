//! Ground-terminal ↔ satellite slant-path geometry.
//!
//! A ground terminal (GT) can use a satellite only if the satellite appears
//! sufficiently above the local horizon: the **elevation angle** must be at
//! least the constellation's minimum elevation `e` (25° for Starlink, 30°
//! for Kuiper in the paper). These helpers convert between elevation
//! constraints, ground coverage radii, and slant ranges.

use crate::{CellOrder, Ecef, GeoPoint, EARTH_RADIUS_M};

/// Elevation angle (radians) of a satellite at ECEF position `sat` as seen
/// from ground point `gt` (on the surface).
///
/// Returns a value in `[-π/2, π/2]`; negative values mean the satellite is
/// below the horizon.
pub fn elevation_angle_rad(gt: GeoPoint, sat: &Ecef) -> f64 {
    let g = Ecef::from_geo(gt, 0.0);
    let to_sat = g.to_vector(sat);
    let range = to_sat.norm();
    if range == 0.0 {
        return std::f64::consts::FRAC_PI_2;
    }
    // Angle between the local vertical (direction of g) and the line of
    // sight; elevation is its complement.
    let cos_zenith = g.dot(&to_sat) / (g.norm() * range);
    std::f64::consts::FRAC_PI_2 - cos_zenith.clamp(-1.0, 1.0).acos()
}

/// True iff the satellite is visible from `gt` with elevation at least
/// `min_elev_rad`.
#[inline]
pub fn visible_at_elevation(gt: GeoPoint, sat: &Ecef, min_elev_rad: f64) -> bool {
    elevation_angle_rad(gt, sat) >= min_elev_rad
}

/// Slant range (meters) from a surface point to a satellite.
#[inline]
pub fn slant_range_m(gt: GeoPoint, sat: &Ecef) -> f64 {
    Ecef::from_geo(gt, 0.0).distance(sat)
}

/// Batched visibility test over struct-of-arrays satellite positions.
///
/// For each candidate id, computes the elevation angle and slant range of
/// the satellite at `(xs[id], ys[id], zs[id])` as seen from the ground
/// point whose surface ECEF position is `g` (with `g_norm == g.norm()`
/// precomputed), and calls `emit(id, range_m, elev_rad)` for every
/// candidate at or above `min_elev_rad`.
///
/// The arithmetic replays [`elevation_angle_rad`] and [`slant_range_m`]
/// operation-for-operation (the slant range *is* the line-of-sight vector
/// norm both functions share), so membership, ranges, and elevations are
/// bitwise identical to the scalar helpers — only the per-candidate
/// `Ecef::from_geo` reconstruction of the ground point is hoisted out of
/// the loop. Snapshot construction relies on this equivalence.
///
/// Internally, candidates whose cosine-of-zenith is below
/// `sin(min_elev_rad)` by more than a safety margin are rejected with a
/// square-compare only (no `sqrt`/`acos`). The margin (`1e-9` in cosine
/// space) exceeds the few-ulp rounding of both tests by seven orders of
/// magnitude, so the shortcut can only drop candidates the exact test
/// would also reject; everything near the boundary falls through to the
/// exact test above.
// lint: hot-path
pub fn batch_visible_from(
    g: &Ecef,
    g_norm: f64,
    sats: (&[f64], &[f64], &[f64]),
    candidates: &[u32],
    min_elev_rad: f64,
    emit: &mut impl FnMut(u32, f64, f64),
) {
    VisibilityScan::new(min_elev_rad).scan(g, g_norm, sats, candidates, emit)
}

/// Precomputed state for repeated [`batch_visible_from`]-style scans at a
/// fixed minimum elevation.
///
/// Snapshot construction tests hundreds of ground points (each over
/// several candidate slices) against the same elevation threshold every
/// timestep; this hoists the threshold's `sin` out of all of them. A
/// scan emits exactly what `batch_visible_from` emits — same membership,
/// same bits, in candidate order — so callers may split one candidate
/// set across any number of `scan` calls (e.g. one per spatial-index
/// row segment) without affecting the result.
#[derive(Debug, Clone, Copy)]
pub struct VisibilityScan {
    min_elev_rad: f64,
    /// `sin(min_elev_rad)` minus the quick-reject safety margin.
    quick: f64,
}

impl VisibilityScan {
    /// Precompute the quick-reject threshold for `min_elev_rad`.
    pub fn new(min_elev_rad: f64) -> Self {
        // elev ≥ e  ⟺  cos(zenith) ≥ sin(e); quick-reject below the margin.
        Self {
            min_elev_rad,
            quick: min_elev_rad.sin() - 1e-9,
        }
    }

    /// Run the batched visibility test over one candidate slice (see
    /// [`batch_visible_from`] for the contract). `(xs, ys, zs)` are the
    /// parallel satellite ECEF component arrays (e.g. a constellation
    /// snapshot's `xyz()`).
    // lint: hot-path
    pub fn scan(
        &self,
        g: &Ecef,
        g_norm: f64,
        (xs, ys, zs): (&[f64], &[f64], &[f64]),
        candidates: &[u32],
        emit: &mut impl FnMut(u32, f64, f64),
    ) {
        let quick_sq = self.quick_sq(g_norm);
        for &id in candidates {
            let i = id as usize;
            if let Some((range, elev)) = self.test(g, g_norm, quick_sq, xs[i], ys[i], zs[i]) {
                emit(id, range, elev);
            }
        }
    }

    /// [`VisibilityScan::scan`] over a window of a [`CellOrder`]: the
    /// candidates are the ids of each `(start, end)` cell segment in turn
    /// (a [`CellGrid::window_segments`] window), read with their
    /// coordinates from the flattening's contiguous arrays. Emits exactly
    /// what `scan` emits over the same ids — same float operations, same
    /// order — and adds 1 to `degree[id]` for every id it emits.
    ///
    /// [`CellGrid::window_segments`]: crate::CellGrid::window_segments
    // lint: hot-path
    pub fn scan_window(
        &self,
        g: &Ecef,
        g_norm: f64,
        cells: &CellOrder,
        segments: &[(u32, u32)],
        degree: &mut [u32],
        emit: &mut impl FnMut(u32, f64, f64),
    ) {
        let quick_sq = self.quick_sq(g_norm);
        for &(start, end) in segments {
            let (lo, hi) = (
                cells.off[start as usize] as usize,
                cells.off[end as usize] as usize,
            );
            let coords = cells.x[lo..hi]
                .iter()
                .zip(&cells.y[lo..hi])
                .zip(&cells.z[lo..hi]);
            for (&id, ((&x, &y), &z)) in cells.ids[lo..hi].iter().zip(coords) {
                if let Some((range, elev)) = self.test(g, g_norm, quick_sq, x, y, z) {
                    degree[id as usize] += 1;
                    emit(id, range, elev);
                }
            }
        }
    }

    /// The squared quick-reject bound for a ground point of norm
    /// `g_norm`.
    #[inline]
    fn quick_sq(&self, g_norm: f64) -> f64 {
        (self.quick * g_norm) * (self.quick * g_norm)
    }

    /// Slant range and elevation of the satellite at `(x, y, z)` seen
    /// from `g`, or `None` below the minimum elevation. The one copy of
    /// the arithmetic every scan runs.
    #[inline(always)]
    fn test(
        &self,
        g: &Ecef,
        g_norm: f64,
        quick_sq: f64,
        x: f64,
        y: f64,
        z: f64,
    ) -> Option<(f64, f64)> {
        let quick = self.quick;
        let dx = x - g.x;
        let dy = y - g.y;
        let dz = z - g.z;
        let range_sq = dx * dx + dy * dy + dz * dz;
        let dot = g.x * dx + g.y * dy + g.z * dz;
        if quick > 0.0 && range_sq > 0.0 && (dot <= 0.0 || dot * dot < quick_sq * range_sq) {
            return None;
        }
        let range = range_sq.sqrt();
        let elev = if range == 0.0 {
            std::f64::consts::FRAC_PI_2
        } else {
            let cos_zenith = dot / (g_norm * range);
            std::f64::consts::FRAC_PI_2 - cos_zenith.clamp(-1.0, 1.0).acos()
        };
        (elev >= self.min_elev_rad).then_some((range, elev))
    }
}

/// Ground coverage radius (meters along the surface) of a satellite at
/// altitude `alt_m`, for minimum elevation `min_elev_rad`.
///
/// From the spherical triangle Earth-centre / GT / satellite: the Earth
/// central angle between the sub-satellite point and the farthest usable GT
/// is `ψ = acos(Re/(Re+h)·cos e) − e`, and the coverage radius is `Re·ψ`.
///
/// For Starlink (h = 550 km, e = 25°) this yields ≈ 941 km, matching the
/// paper. (The paper quotes 1,091 km for Kuiper, which corresponds to the
/// flat-Earth approximation `h/tan e`; the spherical value for h = 630 km,
/// e = 30° is ≈ 890 km. We use the physically correct elevation-angle test
/// everywhere, so this constant is informational.)
pub fn coverage_radius_m(alt_m: f64, min_elev_rad: f64) -> f64 {
    let ratio = EARTH_RADIUS_M / (EARTH_RADIUS_M + alt_m);
    let psi = (ratio * min_elev_rad.cos()).clamp(-1.0, 1.0).acos() - min_elev_rad;
    EARTH_RADIUS_M * psi
}

/// Maximum slant range (meters) from a GT to a satellite at altitude
/// `alt_m` seen at exactly the minimum elevation `min_elev_rad`.
///
/// Law of cosines in the same spherical triangle. This bounds the radio
/// path length of the longest usable GT–satellite hop.
pub fn max_slant_range_m(alt_m: f64, min_elev_rad: f64) -> f64 {
    let re = EARTH_RADIUS_M;
    let rs = re + alt_m;
    let ratio = re / rs;
    let psi = (ratio * min_elev_rad.cos()).clamp(-1.0, 1.0).acos() - min_elev_rad;
    (re * re + rs * rs - 2.0 * re * rs * psi.cos()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deg_to_rad;

    #[test]
    fn overhead_satellite_at_90_degrees() {
        let gt = GeoPoint::from_degrees(10.0, 20.0);
        let sat = Ecef::from_geo(gt, 550_000.0);
        let e = elevation_angle_rad(gt, &sat);
        assert!((e - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn opposite_side_below_horizon() {
        let gt = GeoPoint::from_degrees(0.0, 0.0);
        let sat = Ecef::from_geo(GeoPoint::from_degrees(0.0, 180.0), 550_000.0);
        assert!(elevation_angle_rad(gt, &sat) < 0.0);
    }

    #[test]
    fn starlink_coverage_radius_matches_paper() {
        let r_km = coverage_radius_m(550_000.0, deg_to_rad(25.0)) / 1000.0;
        assert!(
            (r_km - 941.0).abs() < 5.0,
            "got {r_km} km, paper says 941 km"
        );
    }

    #[test]
    fn coverage_shrinks_with_elevation() {
        let lo = coverage_radius_m(550_000.0, deg_to_rad(25.0));
        let hi = coverage_radius_m(550_000.0, deg_to_rad(40.0));
        assert!(hi < lo);
    }

    #[test]
    fn coverage_grows_with_altitude() {
        let low = coverage_radius_m(550_000.0, deg_to_rad(25.0));
        let high = coverage_radius_m(1_200_000.0, deg_to_rad(25.0));
        assert!(high > low);
    }

    #[test]
    fn slant_range_bounds() {
        // Satellite straight overhead: slant range = altitude.
        let gt = GeoPoint::from_degrees(0.0, 0.0);
        let sat = Ecef::from_geo(gt, 550_000.0);
        assert!((slant_range_m(gt, &sat) - 550_000.0).abs() < 1.0);
        // Max slant range exceeds altitude but is below altitude + coverage.
        let max = max_slant_range_m(550_000.0, deg_to_rad(25.0));
        assert!(max > 550_000.0);
        assert!(max < 550_000.0 + coverage_radius_m(550_000.0, deg_to_rad(25.0)) * 1.5);
    }

    #[test]
    fn batch_visible_matches_scalar_helpers_bitwise() {
        let gt = GeoPoint::from_degrees(40.7, -74.0);
        let g = Ecef::from_geo(gt, 0.0);
        let g_norm = g.norm();
        let min_elev = deg_to_rad(25.0);
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        let mut sats = Vec::new();
        for i in 0..120 {
            let p = GeoPoint::from_degrees(
                40.7 + (i as f64 - 60.0) * 0.4,
                -74.0 + (i as f64 % 17.0) * 2.5,
            );
            let s = Ecef::from_geo(p, 550_000.0 + (i as f64) * 100.0);
            xs.push(s.x);
            ys.push(s.y);
            zs.push(s.z);
            sats.push(s);
        }
        let candidates: Vec<u32> = (0..sats.len() as u32).collect();
        let mut got = Vec::new();
        batch_visible_from(
            &g,
            g_norm,
            (&xs, &ys, &zs),
            &candidates,
            min_elev,
            &mut |id, r, e| {
                got.push((id, r, e));
            },
        );
        let expect: Vec<(u32, f64, f64)> = candidates
            .iter()
            .filter(|&&id| visible_at_elevation(gt, &sats[id as usize], min_elev))
            .map(|&id| {
                (
                    id,
                    slant_range_m(gt, &sats[id as usize]),
                    elevation_angle_rad(gt, &sats[id as usize]),
                )
            })
            .collect();
        assert!(!expect.is_empty(), "test must exercise visible satellites");
        assert!(expect.len() < candidates.len(), "and invisible ones");
        assert_eq!(got.len(), expect.len());
        for ((gi, gr, ge), (ei, er, ee)) in got.iter().zip(&expect) {
            assert_eq!(gi, ei);
            assert_eq!(gr.to_bits(), er.to_bits(), "range bits for sat {gi}");
            assert_eq!(ge.to_bits(), ee.to_bits(), "elev bits for sat {gi}");
        }
    }

    #[test]
    fn window_scan_over_cell_order_matches_the_id_scan() {
        // Satellites scattered over a 3° grid around one ground point:
        // scanning its window through the flattening (coordinates read
        // in cell order) must emit what the id-indexed scan emits over
        // the same ids, bit for bit, and count each emitted id once.
        let gt = GeoPoint::from_degrees(47.0, 8.0);
        let (g, min_elev) = (Ecef::from_geo(gt, 0.0), deg_to_rad(25.0));
        let mut grid = crate::CellGrid::new(3.0);
        let (mut xs, mut ys, mut zs) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..400u32 {
            let p = GeoPoint::from_degrees(
                47.0 + (i as f64 * 0.37) % 24.0 - 12.0,
                8.0 + (i as f64 * 0.61) % 30.0 - 15.0,
            );
            let s = Ecef::from_geo(p, 550_000.0 + i as f64 * 37.0);
            xs.push(s.x);
            ys.push(s.y);
            zs.push(s.z);
            grid.insert(i, grid.cell_of(&p));
        }
        let mut cells = CellOrder::default();
        grid.flatten_into((&xs, &ys, &zs), &mut cells);
        let mut segments = Vec::new();
        grid.window_segments(gt, 1_200_000.0, &mut segments);
        let scan = VisibilityScan::new(min_elev);
        let mut degree = vec![0u32; xs.len()];
        let mut got = Vec::new();
        scan.scan_window(
            &g,
            g.norm(),
            &cells,
            &segments,
            &mut degree,
            &mut |id, r, e| {
                got.push((id, r.to_bits(), e.to_bits()));
            },
        );
        let ids: Vec<u32> = segments
            .iter()
            .flat_map(|&(a, b)| {
                cells.ids[cells.off[a as usize] as usize..cells.off[b as usize] as usize].to_vec()
            })
            .collect();
        let mut want = Vec::new();
        scan.scan(&g, g.norm(), (&xs, &ys, &zs), &ids, &mut |id, r, e| {
            want.push((id, r.to_bits(), e.to_bits()));
        });
        assert!(
            want.len() > 10 && want.len() < ids.len(),
            "{} of {}",
            want.len(),
            ids.len()
        );
        assert_eq!(got, want);
        for (id, &d) in degree.iter().enumerate() {
            let emitted = want.iter().filter(|w| w.0 == id as u32).count();
            assert_eq!(d as usize, emitted, "degree of {id}");
        }
        // Cell order: each cell's ids ascend, and every coordinate sits
        // beside its id.
        for (k, &id) in cells.ids.iter().enumerate() {
            let i = id as usize;
            assert_eq!([cells.x[k], cells.y[k], cells.z[k]], [xs[i], ys[i], zs[i]]);
        }
        assert_eq!(cells.ids.len(), xs.len());
    }

    #[test]
    fn visibility_consistent_with_coverage_radius() {
        // A satellite whose sub-point is just inside the coverage radius is
        // visible; just outside is not.
        let gt = GeoPoint::from_degrees(0.0, 0.0);
        let e = deg_to_rad(25.0);
        let r = coverage_radius_m(550_000.0, e);
        let inside = crate::destination_point(gt, 0.0, r * 0.99);
        let outside = crate::destination_point(gt, 0.0, r * 1.01);
        let sat_in = Ecef::from_geo(inside, 550_000.0);
        let sat_out = Ecef::from_geo(outside, 550_000.0);
        assert!(visible_at_elevation(gt, &sat_in, e));
        assert!(!visible_at_elevation(gt, &sat_out, e));
    }
}
