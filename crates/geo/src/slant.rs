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
    elevation_from_cos_zenith(cos_zenith)
}

/// Elevation angle (radians) of a line of sight whose angle from the
/// local vertical has cosine `cos_zenith`: `π/2 − acos(c)`, with `c`
/// clamped to `[-1, 1]`.
///
/// The one place the formula lives: [`elevation_angle_rad`],
/// [`VisibilityScan::scan_window`]'s band test and the elevations a
/// snapshot derives from the cosines the scan emitted all call it, so
/// the same cosine bits give the same elevation bits everywhere.
#[inline]
pub fn elevation_from_cos_zenith(cos_zenith: f64) -> f64 {
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

/// The batched visibility test at a fixed minimum elevation: the one
/// kernel that decides which satellites a ground point sees.
///
/// [`VisibilityScan::scan_window`] tests every satellite of a
/// [`CellGrid::window_segments`] window of a [`CellOrder`] flattening and
/// emits each one at or above the minimum elevation, with its slant range
/// and the cosine of its zenith angle. The arithmetic replays
/// [`elevation_angle_rad`] and [`slant_range_m`] operation-for-operation
/// (the slant range *is* the line-of-sight vector norm both functions
/// share), so membership and ranges are bitwise identical to the scalar
/// helpers, and so is the elevation [`elevation_from_cos_zenith`] derives
/// from an emitted cosine — only the per-candidate `Ecef::from_geo`
/// reconstruction of the ground point and the threshold's `sin` are
/// hoisted out of the loop. Snapshot construction relies on this
/// equivalence.
///
/// Membership is decided from the cosine of the zenith angle `c`:
/// elevation ≥ `e` exactly when `c ≥ sin(e)`. Outside a band of `1e-9`
/// (in cosine space) on either side of `sin(min_elev_rad)`, a square
/// compare decides it with no `sqrt` or `acos`: below the band the
/// candidate is rejected, above it accepted. The margin exceeds the
/// few-ulp rounding of both the square compare and the exact test by
/// seven orders of magnitude, so a quick decision is always the one the
/// exact test would make. Only candidates inside the band pay the exact
/// test, the `acos` of [`elevation_from_cos_zenith`].
///
/// [`CellGrid::window_segments`]: crate::CellGrid::window_segments
#[derive(Debug, Clone, Copy)]
pub struct VisibilityScan {
    min_elev_rad: f64,
    /// `sin(min_elev_rad)` minus the safety margin: the quick-reject
    /// threshold.
    reject: f64,
    /// `sin(min_elev_rad)` plus the safety margin: the quick-accept
    /// threshold.
    accept: f64,
}

impl VisibilityScan {
    /// Precompute the quick-reject and quick-accept thresholds for
    /// `min_elev_rad`.
    pub fn new(min_elev_rad: f64) -> Self {
        // elev ≥ e  ⟺  cos(zenith) ≥ sin(e); decide quickly outside the
        // margin on either side.
        let sin_e = min_elev_rad.sin();
        Self {
            min_elev_rad,
            reject: sin_e - 1e-9,
            accept: sin_e + 1e-9,
        }
    }

    /// Test the satellites of a window of a [`CellOrder`] as seen from
    /// the ground point whose surface ECEF position is `g` (with
    /// `g_norm == g.norm()` precomputed): the candidates are the ids of
    /// each `(start, end)` cell segment in turn (a
    /// [`CellGrid::window_segments`] window), read with their
    /// coordinates from the flattening's contiguous arrays. Calls
    /// `emit(id, range_m, cos_zenith)` for every candidate at or above
    /// the minimum elevation, in candidate order; `cos_zenith` is 1 for
    /// a satellite at the ground point itself (range 0), whose elevation
    /// is π/2.
    ///
    /// [`CellGrid::window_segments`]: crate::CellGrid::window_segments
    // lint: hot-path
    pub fn scan_window(
        &self,
        g: &Ecef,
        g_norm: f64,
        cells: &CellOrder,
        segments: &[(u32, u32)],
        emit: &mut impl FnMut(u32, f64, f64),
    ) {
        let reject = self.reject;
        let reject_sq = (reject * g_norm) * (reject * g_norm);
        let accept_sq = (self.accept * g_norm) * (self.accept * g_norm);
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
                let dx = x - g.x;
                let dy = y - g.y;
                let dz = z - g.z;
                let range_sq = dx * dx + dy * dy + dz * dz;
                let dot = g.x * dx + g.y * dy + g.z * dz;
                if reject > 0.0
                    && range_sq > 0.0
                    && (dot <= 0.0 || dot * dot < reject_sq * range_sq)
                {
                    continue;
                }
                let range = range_sq.sqrt();
                let cos_zenith = if range == 0.0 {
                    1.0
                } else {
                    dot / (g_norm * range)
                };
                if (dot > 0.0 && dot * dot > accept_sq * range_sq)
                    || elevation_from_cos_zenith(cos_zenith) >= self.min_elev_rad
                {
                    emit(id, range, cos_zenith);
                }
            }
        }
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

    /// A grid of `bin_deg` cells holding satellite `id` at `sats[id]`,
    /// binned by its sub-point, and its flattening.
    fn binned(bin_deg: f64, sats: &[Ecef]) -> (crate::CellGrid, CellOrder) {
        let mut grid = crate::CellGrid::new(bin_deg);
        for (id, s) in sats.iter().enumerate() {
            grid.insert(id as u32, grid.cell_of(&s.to_geo().0));
        }
        let xs: Vec<f64> = sats.iter().map(|s| s.x).collect();
        let ys: Vec<f64> = sats.iter().map(|s| s.y).collect();
        let zs: Vec<f64> = sats.iter().map(|s| s.z).collect();
        let mut cells = CellOrder::default();
        grid.flatten_into((&xs, &ys, &zs), &mut cells);
        (grid, cells)
    }

    /// What `scan_window` emits from `gt` over `segments` of `cells`, as
    /// `(id, range bits, elevation bits)`, the elevation derived from the
    /// emitted cosine.
    fn window_scan(
        gt: GeoPoint,
        cells: &CellOrder,
        segments: &[(u32, u32)],
        min_elev: f64,
    ) -> Vec<(u32, u64, u64)> {
        let g = Ecef::from_geo(gt, 0.0);
        let mut got = Vec::new();
        VisibilityScan::new(min_elev).scan_window(
            &g,
            g.norm(),
            cells,
            segments,
            &mut |id, r, c| got.push((id, r.to_bits(), elevation_from_cos_zenith(c).to_bits())),
        );
        got
    }

    /// The satellites of `ids`, in order, that the scalar test finds
    /// visible from `gt`, with the scalar helpers' range and elevation
    /// bits.
    fn scalar_scan(
        gt: GeoPoint,
        sats: &[Ecef],
        ids: &[u32],
        min_elev: f64,
    ) -> Vec<(u32, u64, u64)> {
        ids.iter()
            .map(|&id| (id, &sats[id as usize]))
            .filter(|(_, s)| visible_at_elevation(gt, s, min_elev))
            .map(|(id, s)| {
                let (r, e) = (slant_range_m(gt, s), elevation_angle_rad(gt, s));
                (id, r.to_bits(), e.to_bits())
            })
            .collect()
    }

    #[test]
    fn batch_visible_matches_scalar_helpers_bitwise() {
        // Every satellite, at varied altitudes, scanned as one segment
        // spanning the whole flattening: the kernel emits exactly the
        // satellites the scalar test finds visible, with the scalar
        // helpers' range and elevation bits.
        let gt = GeoPoint::from_degrees(40.7, -74.0);
        let min_elev = deg_to_rad(25.0);
        let sats: Vec<Ecef> = (0..120)
            .map(|i| {
                let p = GeoPoint::from_degrees(
                    40.7 + (i as f64 - 60.0) * 0.4,
                    -74.0 + (i as f64 % 17.0) * 2.5,
                );
                Ecef::from_geo(p, 550_000.0 + (i as f64) * 100.0)
            })
            .collect();
        let (grid, cells) = binned(3.0, &sats);
        let got = window_scan(gt, &cells, &[(0, grid.num_cells() as u32)], min_elev);
        let want = scalar_scan(gt, &sats, &cells.ids, min_elev);
        assert!(!want.is_empty(), "test must exercise visible satellites");
        assert!(want.len() < sats.len(), "and invisible ones");
        assert_eq!(got, want);
    }

    /// The zenith cosine of `sat` seen from `gt`, in the scan's
    /// arithmetic.
    fn cos_zenith(gt: GeoPoint, sat: &Ecef) -> f64 {
        let g = Ecef::from_geo(gt, 0.0);
        let (dx, dy, dz) = (sat.x - g.x, sat.y - g.y, sat.z - g.z);
        let range = (dx * dx + dy * dy + dz * dz).sqrt();
        (g.x * dx + g.y * dy + g.z * dz) / (g.norm() * range)
    }

    /// Where `holds` flips along `[lo, hi]`, given `holds(lo)` and not
    /// `holds(hi)`: the last point found to hold and the first found
    /// not to, adjacent floats unless rounding stops the bisection
    /// earlier.
    fn bisect(holds: impl Fn(f64) -> bool, mut lo: f64, mut hi: f64) -> (f64, f64) {
        assert!(holds(lo) && !holds(hi));
        loop {
            let mid = lo + (hi - lo) / 2.0;
            if mid <= lo || mid >= hi {
                return (lo, hi);
            }
            if holds(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    #[test]
    fn scan_band_edges_match_scalar_helpers_bitwise() {
        // Satellites placed on both sides of the minimum elevation to
        // within rounding, on both sides of either edge of the ±1e-9
        // cosine band the quick tests leave to the exact one, and well
        // above and below it: along each of 24 azimuths at three
        // altitudes, a sub-point distance is bisected until the scalar
        // visibility test flips, and until the zenith cosine crosses
        // each band edge. The scan must emit exactly the satellites the
        // scalar test finds visible, with the scalar helpers' range bits
        // and, derived from the emitted cosine, their elevation bits.
        let gt = GeoPoint::from_degrees(-33.9, 151.2);
        let min_elev = deg_to_rad(25.0);
        let sin_e = min_elev.sin();
        let mut sats = Vec::new();
        for alt in [540_000.0, 550_000.0, 1_150_000.0] {
            let reach = 2.0 * coverage_radius_m(alt, min_elev);
            for k in 0..24 {
                let sat = |d: f64| {
                    let bearing = deg_to_rad(15.0 * k as f64 + 0.3);
                    Ecef::from_geo(crate::destination_point(gt, bearing, d), alt)
                };
                let (lo, hi) = bisect(|d| visible_at_elevation(gt, &sat(d), min_elev), 0.0, reach);
                sats.extend([sat(lo), sat(hi)]);
                for edge in [sin_e - 1e-9, sin_e + 1e-9] {
                    let (lo, hi) = bisect(|d| cos_zenith(gt, &sat(d)) >= edge, 0.0, reach);
                    sats.extend([sat(lo), sat(hi)]);
                }
                sats.extend([sat(0.3 * reach), sat(0.8 * reach)]);
            }
        }
        // Every kind of candidate is there: below, inside and above the
        // band, and inside it on both sides of the exact test.
        let (mut below, mut above) = (0, 0);
        let (mut band_in, mut band_out) = (0, 0);
        for s in &sats {
            let c = cos_zenith(gt, s);
            if c < sin_e - 1e-9 {
                below += 1;
            } else if c > sin_e + 1e-9 {
                above += 1;
            } else if visible_at_elevation(gt, s, min_elev) {
                band_in += 1;
            } else {
                band_out += 1;
            }
        }
        assert!(
            below >= 72 && above >= 72 && band_in >= 144 && band_out >= 72,
            "below {below}, above {above}, in the band {band_in} visible and {band_out} not"
        );
        let (grid, cells) = binned(3.0, &sats);
        let got = window_scan(gt, &cells, &[(0, grid.num_cells() as u32)], min_elev);
        let want = scalar_scan(gt, &sats, &cells.ids, min_elev);
        assert_eq!(got, want);
    }

    #[test]
    fn window_scan_over_cell_order_matches_the_id_scan() {
        // Satellites scattered over a 3° grid around one ground point:
        // scanning its window through the flattening (coordinates read
        // in cell order) must emit what the scalar test emits over the
        // window's ids read from the grid (coordinates read by id), bit
        // for bit and in window order.
        let gt = GeoPoint::from_degrees(47.0, 8.0);
        let min_elev = deg_to_rad(25.0);
        let sats: Vec<Ecef> = (0..400u32)
            .map(|i| {
                let p = GeoPoint::from_degrees(
                    47.0 + (i as f64 * 0.37) % 24.0 - 12.0,
                    8.0 + (i as f64 * 0.61) % 30.0 - 15.0,
                );
                Ecef::from_geo(p, 550_000.0 + i as f64 * 37.0)
            })
            .collect();
        let (grid, cells) = binned(3.0, &sats);
        let mut segments = Vec::new();
        grid.window_segments(gt, 1_200_000.0, &mut segments);
        let got = window_scan(gt, &cells, &segments, min_elev);
        let ids: Vec<u32> = segments
            .iter()
            .flat_map(|&(a, b)| a..b)
            .flat_map(|c| grid.ids(c))
            .copied()
            .collect();
        let want = scalar_scan(gt, &sats, &ids, min_elev);
        assert!(
            want.len() > 10 && want.len() < ids.len(),
            "test must exercise visible and invisible satellites: {} of {}",
            want.len(),
            ids.len()
        );
        assert_eq!(got, want);
        // Cell order: each cell's ids ascend, and every coordinate sits
        // beside its id.
        for (k, &id) in cells.ids.iter().enumerate() {
            let s = &sats[id as usize];
            assert_eq!([cells.x[k], cells.y[k], cells.z[k]], [s.x, s.y, s.z]);
        }
        assert_eq!(cells.ids.len(), sats.len());
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
