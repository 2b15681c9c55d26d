//! A latitude/longitude bucket index for radius queries on the sphere.
//!
//! Snapshot construction must answer "which satellites can this ground
//! terminal see?" for tens of thousands of terminals against ~1,600
//! satellites, 96 times per simulated day. A satellite at 550 km with a 25°
//! minimum elevation covers a ground disc of radius ≈ 941 km (≈ 8.5° of
//! arc), so instead of testing every satellite we bucket sub-satellite
//! points into a fixed lat/lon grid and scan only the bins within the
//! angular window — including longitude wrap-around and the widening of the
//! window near the poles.
//!
//! Two indexes share the same grid geometry ([`GridShape`] internally):
//!
//! * [`SphereGrid`] — the classic build-once-per-snapshot index storing
//!   `(id, GeoPoint)` pairs, answering exact radius queries.
//! * [`CellGrid`] — an id-only index maintained *incrementally* across a
//!   time sweep: satellites are [`CellGrid::relocate`]d between cells as
//!   they move, buckets stay sorted by id, and candidate enumeration via
//!   [`CellGrid::window_cells`] + [`CellGrid::ids`] visits satellites in
//!   exactly the order a freshly built [`SphereGrid::query_radius`] scan
//!   would — the property the TimeSweep engine's byte-identity rests on.

use crate::{GeoPoint, EARTH_RADIUS_M};

/// Shared lat/lon bucket geometry: bin size and row/column layout.
#[derive(Debug, Clone, Copy)]
struct GridShape {
    /// Bin size in radians.
    bin_rad: f64,
    /// Number of latitude rows.
    rows: usize,
    /// Number of longitude columns.
    cols: usize,
}

impl GridShape {
    /// Grid with bins of `bin_deg` degrees.
    ///
    /// # Panics
    /// Panics if `bin_deg` is not in `(0, 90]`.
    fn new(bin_deg: f64) -> Self {
        // lint: allow(panic-reachable) documented `# Panics` contract: a bin size outside (0, 90] has no valid grid shape
        assert!(
            bin_deg > 0.0 && bin_deg <= 90.0,
            "bin size must be in (0, 90] degrees"
        );
        let bin_rad = crate::deg_to_rad(bin_deg);
        let rows = (std::f64::consts::PI / bin_rad).ceil() as usize;
        let cols = (2.0 * std::f64::consts::PI / bin_rad).ceil() as usize;
        Self {
            bin_rad,
            rows,
            cols,
        }
    }

    fn num_cells(&self) -> usize {
        self.rows * self.cols
    }

    fn row_of(&self, lat: f64) -> usize {
        let r = ((lat + std::f64::consts::FRAC_PI_2) / self.bin_rad) as usize;
        r.min(self.rows - 1)
    }

    fn col_of(&self, lon: f64) -> usize {
        let c = ((lon + std::f64::consts::PI) / self.bin_rad) as usize;
        c.min(self.cols - 1)
    }

    fn cell_of(&self, p: &GeoPoint) -> usize {
        self.row_of(p.lat()) * self.cols + self.col_of(p.lon())
    }

    /// Visit every cell whose bucket may intersect the disc of angular
    /// radius `ang` around `center`, in the canonical scan order: rows
    /// ascending; within a row, columns ascending, with a date-line wrap
    /// split into `lo..cols` followed by `0..=hi`.
    ///
    /// This is the *only* cell-enumeration order in the crate — both
    /// [`SphereGrid::query_radius`] and [`CellGrid::window_cells`] are built
    /// on it, so candidate order is identical between the two indexes.
    fn for_each_window_cell(&self, center: GeoPoint, ang: f64, mut f: impl FnMut(usize)) {
        if ang >= std::f64::consts::PI {
            // Whole sphere.
            for idx in 0..self.num_cells() {
                f(idx);
            }
            return;
        }
        let lat_lo = center.lat() - ang;
        let lat_hi = center.lat() + ang;
        let row_lo = self.row_of(lat_lo.max(-std::f64::consts::FRAC_PI_2));
        let row_hi = self.row_of(lat_hi.min(std::f64::consts::FRAC_PI_2));
        // If the window reaches a pole, longitude is unconstrained.
        let pole_touch = lat_lo <= -std::f64::consts::FRAC_PI_2 + 1e-12
            || lat_hi >= std::f64::consts::FRAC_PI_2 - 1e-12;

        for row in row_lo..=row_hi {
            let (col_range, wrap): (std::ops::RangeInclusive<usize>, bool) = if pole_touch {
                (0..=self.cols - 1, false)
            } else {
                // Longitude half-width widens by 1/cos(lat) at this row; use
                // the row edge closest to the pole for a conservative bound.
                let row_lat_lo = row as f64 * self.bin_rad - std::f64::consts::FRAC_PI_2;
                let row_lat_hi = row_lat_lo + self.bin_rad;
                let worst = row_lat_lo.abs().max(row_lat_hi.abs());
                let cosw = worst.cos();
                if cosw <= ang.sin() {
                    (0..=self.cols - 1, false)
                } else {
                    // Exact spherical bound: sin(dlon_max) = sin(ang)/cos(lat).
                    let dlon = (ang.sin() / cosw).clamp(-1.0, 1.0).asin() + self.bin_rad;
                    let c_lo = center.lon() - dlon;
                    let c_hi = center.lon() + dlon;
                    if c_hi - c_lo >= 2.0 * std::f64::consts::PI {
                        (0..=self.cols - 1, false)
                    } else {
                        let lo = self.col_of(crate::normalize_lon(c_lo));
                        let hi = self.col_of(crate::normalize_lon(c_hi));
                        if lo <= hi {
                            (lo..=hi, false)
                        } else {
                            (lo..=hi, true) // wraps past the date line
                        }
                    }
                }
            };
            if wrap {
                let (lo, hi) = (*col_range.start(), *col_range.end());
                for col in lo..self.cols {
                    f(row * self.cols + col);
                }
                for col in 0..=hi {
                    f(row * self.cols + col);
                }
            } else {
                for col in col_range {
                    f(row * self.cols + col);
                }
            }
        }
    }
}

/// A spatial index mapping items (by `u32` id) to lat/lon buckets.
///
/// Build once per snapshot with the current sub-satellite points, then run
/// [`SphereGrid::query_radius`] per ground terminal.
#[derive(Debug, Clone)]
pub struct SphereGrid {
    shape: GridShape,
    /// Bucket contents: `buckets[row * cols + col]` → items.
    buckets: Vec<Vec<(u32, GeoPoint)>>,
    len: usize,
}

impl SphereGrid {
    /// Create an empty grid with bins of `bin_deg` degrees.
    ///
    /// # Panics
    /// Panics if `bin_deg` is not in `(0, 90]`.
    pub fn new(bin_deg: f64) -> Self {
        let shape = GridShape::new(bin_deg);
        Self {
            buckets: vec![Vec::new(); shape.num_cells()],
            shape,
            len: 0,
        }
    }

    /// Number of items in the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert an item at a position.
    pub fn insert(&mut self, id: u32, pos: GeoPoint) {
        let idx = self.shape.cell_of(&pos);
        self.buckets[idx].push((id, pos));
        self.len += 1;
    }

    /// Collect the ids of all items within `radius_m` (surface great-circle
    /// distance) of `center` into `out`. `out` is cleared first.
    ///
    /// The scan visits every bucket intersecting the bounding lat/lon window
    /// of the query disc and then applies the exact central-angle test, so
    /// results are exact (no false positives or negatives).
    pub fn query_radius(&self, center: GeoPoint, radius_m: f64, out: &mut Vec<u32>) {
        out.clear();
        let ang = radius_m / EARTH_RADIUS_M;
        self.shape.for_each_window_cell(center, ang, |idx| {
            for (id, p) in &self.buckets[idx] {
                if center.central_angle(p) <= ang {
                    out.push(*id);
                }
            }
        });
    }
}

/// A [`CellGrid`] flattened for scanning, by [`CellGrid::flatten_into`]:
/// every cell's ids in CSR form, with each id's x/y/z coordinates
/// gathered into the same order (struct of arrays). A scan over a run of
/// consecutive cells reads one contiguous slice of each array.
#[derive(Debug, Clone, Default)]
pub struct CellOrder {
    /// `off[c]..off[c + 1]` is cell `c`'s range in the arrays below.
    pub(crate) off: Vec<u32>,
    /// Item ids, cell by cell, ascending within a cell.
    pub(crate) ids: Vec<u32>,
    /// Coordinates of `ids[k]`, at `k`.
    pub(crate) x: Vec<f64>,
    pub(crate) y: Vec<f64>,
    pub(crate) z: Vec<f64>,
}

/// An id-only bucket index maintained incrementally across a time sweep.
///
/// Unlike [`SphereGrid`] (rebuilt from scratch per instant), a `CellGrid`
/// is built once and then kept current by [`CellGrid::relocate`]-ing only
/// the items that crossed a cell boundary. Buckets are kept **sorted by
/// id**, which makes incremental maintenance produce the same enumeration
/// order as a from-scratch build inserting ids `0..n` in order.
///
/// The grid stores no positions: callers resolve candidate ids against
/// their own (struct-of-arrays) position store and apply the exact
/// visibility test there.
#[derive(Debug, Clone)]
pub struct CellGrid {
    shape: GridShape,
    /// `buckets[cell]` → item ids, ascending.
    buckets: Vec<Vec<u32>>,
    /// Reverse index: `cell_index[id]` → cell currently holding `id`
    /// (`u32::MAX` for ids never inserted). Lets sweeps ask "where was
    /// this satellite?" without re-deriving its old sub-point.
    cell_index: Vec<u32>,
    /// Sine of each row boundary latitude (`rows + 1` entries) — the
    /// row-band half of [`CellGrid::contains_quick`].
    row_sin: Vec<f64>,
    /// Unit direction of each column boundary meridian in the equatorial
    /// plane (`cols + 1` entries of `(cos, sin)`) — the wedge half of
    /// [`CellGrid::contains_quick`].
    col_dir: Vec<(f64, f64)>,
    len: usize,
}

impl CellGrid {
    /// Create an empty grid with bins of `bin_deg` degrees.
    ///
    /// # Panics
    /// Panics if `bin_deg` is not in `(0, 90]`.
    pub fn new(bin_deg: f64) -> Self {
        let shape = GridShape::new(bin_deg);
        // The last row/column absorbs any remainder when the bin size
        // does not divide 180°/360° evenly (`rows`/`cols` are ceils), so
        // the final boundary angle must be clamped to the pole/
        // antimeridian — matching `row_of`/`col_of`'s index clamps.
        // Without the row clamp, sin() past π/2 *decreases* and the
        // whole polar cap above the mirrored latitude is falsely
        // rejected; without the column clamp the last wedge wraps past
        // +π and wrongly *accepts* directions that `cell_of` assigns to
        // column 0.
        let row_sin: Vec<f64> = (0..=shape.rows)
            .map(|r| {
                (r as f64 * shape.bin_rad - std::f64::consts::FRAC_PI_2)
                    .min(std::f64::consts::FRAC_PI_2)
                    .sin()
            })
            .collect();
        let col_dir: Vec<(f64, f64)> = (0..=shape.cols)
            .map(|c| {
                let (s, cos) = (c as f64 * shape.bin_rad - std::f64::consts::PI)
                    .min(std::f64::consts::PI)
                    .sin_cos();
                (cos, s)
            })
            .collect();
        Self {
            buckets: vec![Vec::new(); shape.num_cells()],
            cell_index: Vec::new(),
            row_sin,
            col_dir,
            shape,
            len: 0,
        }
    }

    /// Number of items in the index.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of grid cells.
    pub fn num_cells(&self) -> usize {
        self.shape.num_cells()
    }

    /// Cell index of a position.
    pub fn cell_of(&self, p: &GeoPoint) -> u32 {
        self.shape.cell_of(p) as u32
    }

    /// Conservative test: does the ECEF direction `(x, y, z)` (with
    /// `r == (x² + y² + z²).sqrt()`) **provably** map to `cell` under
    /// [`CellGrid::cell_of`] of its sub-point?
    ///
    /// Works directly on the Cartesian components — no `asin`/`atan2` —
    /// by comparing `z/r` against the precomputed row-boundary sines and
    /// the equatorial direction `(x, y)` against the column-boundary
    /// meridians, each with a `1e-9` safety margin (radians / sine units;
    /// both monotonic maps, so the margin dwarfs the few-ulp rounding of
    /// the exact `to_geo` → `cell_of` path by six orders of magnitude).
    ///
    /// `false` only means "too close to a boundary to decide cheaply":
    /// callers fall back to the exact sub-point computation. Sweeps use
    /// this to relocate only the satellites that actually changed cell,
    /// skipping the inverse trigonometry for everything mid-cell.
    // lint: hot-path
    pub fn contains_quick(&self, cell: u32, x: f64, y: f64, z: f64, r: f64) -> bool {
        const MARGIN: f64 = 1e-9;
        let cell = cell as usize;
        if r <= 0.0 || cell >= self.shape.num_cells() {
            return false;
        }
        let (row, col) = (cell / self.shape.cols, cell % self.shape.cols);
        // Row band: lat ∈ [b_row, b_row+1)  ⟺  sin(lat) in the sine band
        // (sin is monotonic on [-π/2, π/2]).
        let s = z / r;
        if s < self.row_sin[row] + MARGIN || s > self.row_sin[row + 1] - MARGIN {
            return false;
        }
        // Column wedge: the (x, y) direction must sit strictly inside the
        // boundary meridians. cross(u, v) = |v|·sin(Δ) and |x| + |y| ≥ |v|,
        // so requiring cross > MARGIN·(|x| + |y|) keeps ≥ 1e-9 rad of
        // true angular clearance from both boundaries.
        let scale = MARGIN * (x.abs() + y.abs());
        let (lo_c, lo_s) = self.col_dir[col];
        let (hi_c, hi_s) = self.col_dir[col + 1];
        lo_c * y - lo_s * x > scale && x * hi_s - y * hi_c > scale
    }

    /// Insert `id` into `cell`, keeping the bucket id-sorted.
    pub fn insert(&mut self, id: u32, cell: u32) {
        let bucket = &mut self.buckets[cell as usize];
        let pos = bucket.partition_point(|&x| x < id);
        bucket.insert(pos, id);
        if self.cell_index.len() <= id as usize {
            // lint: allow(hot-path-alloc) grows once per new peak id, then the guard above makes it a no-op
            self.cell_index.resize(id as usize + 1, u32::MAX);
        }
        self.cell_index[id as usize] = cell;
        self.len += 1;
    }

    /// Remove `id` from `cell`. A no-op if the id is not present.
    pub fn remove(&mut self, id: u32, cell: u32) {
        let bucket = &mut self.buckets[cell as usize];
        if let Ok(pos) = bucket.binary_search(&id) {
            bucket.remove(pos);
            self.cell_index[id as usize] = u32::MAX;
            self.len -= 1;
        }
    }

    /// The cell currently holding `id`, or `u32::MAX` if `id` was never
    /// inserted (or was removed).
    #[inline]
    pub fn cell_of_id(&self, id: u32) -> u32 {
        self.cell_index
            .get(id as usize)
            .copied()
            .unwrap_or(u32::MAX)
    }

    /// Move `id` from cell `from` to cell `to` (sorted-insert at the new
    /// position, so enumeration order stays id-ascending per bucket).
    pub fn relocate(&mut self, id: u32, from: u32, to: u32) {
        self.remove(id, from);
        self.insert(id, to);
    }

    /// Ids currently in `cell`, ascending.
    pub fn ids(&self, cell: u32) -> &[u32] {
        &self.buckets[cell as usize]
    }

    /// Flatten the buckets into `out`, a [`CellOrder`]: after the call,
    /// `out`'s ids `off[c]..off[c + 1]` are the (ascending) ids of cell
    /// `c`, and beside each id sit its coordinates from `(xs, ys, zs)`.
    /// Every vector is cleared first and keeps its capacity, so a sweep
    /// that re-flattens every step stops allocating once warm.
    ///
    /// Scanning many cell windows against the flattened arrays streams
    /// contiguous slices (ids and coordinates alike) instead of
    /// pointer-chasing one heap bucket per cell and then one position per
    /// id, which is what makes the per-step visibility refresh cheap.
    pub fn flatten_into(&self, (xs, ys, zs): (&[f64], &[f64], &[f64]), out: &mut CellOrder) {
        let CellOrder { off, ids, x, y, z } = out;
        off.clear();
        ids.clear();
        // lint: allow(hot-path-alloc) reserve into recycled buffers; a no-op once capacity reaches steady state
        off.reserve(self.buckets.len() + 1);
        // lint: allow(hot-path-alloc) reserve into recycled buffers; a no-op once capacity reaches steady state
        ids.reserve(self.len);
        off.push(0);
        for bucket in &self.buckets {
            ids.extend_from_slice(bucket);
            off.push(ids.len() as u32);
        }
        for (dst, src) in [(x, xs), (y, ys), (z, zs)] {
            dst.clear();
            // lint: allow(hot-path-alloc) refills a recycled buffer after clear; allocates only on a new peak item count
            dst.extend(ids.iter().map(|&id| src[id as usize]));
        }
    }

    /// Collect the cells whose buckets may intersect the disc of radius
    /// `radius_m` around `center` into `out` (cleared first), in the same
    /// canonical scan order [`SphereGrid::query_radius`] uses.
    ///
    /// The window is conservative: scanning these cells and applying an
    /// exact per-item test visits a superset of any exact radius query.
    pub fn window_cells(&self, center: GeoPoint, radius_m: f64, out: &mut Vec<u32>) {
        out.clear();
        let ang = radius_m / EARTH_RADIUS_M;
        self.shape
            .for_each_window_cell(center, ang, |idx| out.push(idx as u32));
    }

    /// [`CellGrid::window_cells`], but compressed into maximal runs of
    /// consecutive cell indices, as half-open `(start, end)` pairs.
    ///
    /// Because the canonical scan order emits each row's columns as one
    /// ascending run (two when the window wraps the date line), a window
    /// of `R` rows compresses to at most `2R` segments — and against a
    /// flattening ([`CellGrid::flatten_into`]) each segment resolves to
    /// **one** contiguous slice of its arrays.
    /// Concatenating the segment slices visits exactly the ids of
    /// `window_cells` in the same canonical order.
    pub fn window_segments(&self, center: GeoPoint, radius_m: f64, out: &mut Vec<(u32, u32)>) {
        out.clear();
        let ang = radius_m / EARTH_RADIUS_M;
        self.shape.for_each_window_cell(center, ang, |idx| {
            let idx = idx as u32;
            match out.last_mut() {
                Some(seg) if seg.1 == idx => seg.1 = idx + 1,
                _ => out.push((idx, idx + 1)),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::destination_point;

    fn brute_force(items: &[(u32, GeoPoint)], center: GeoPoint, radius_m: f64) -> Vec<u32> {
        let ang = radius_m / EARTH_RADIUS_M;
        let mut v: Vec<u32> = items
            .iter()
            .filter(|(_, p)| center.central_angle(p) <= ang)
            .map(|(id, _)| *id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn finds_nearby_item() {
        let mut g = SphereGrid::new(5.0);
        g.insert(1, GeoPoint::from_degrees(47.0, 8.0));
        g.insert(2, GeoPoint::from_degrees(-33.0, 151.0));
        let mut out = Vec::new();
        g.query_radius(GeoPoint::from_degrees(47.5, 8.5), 200_000.0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn wraps_across_date_line() {
        let mut g = SphereGrid::new(5.0);
        g.insert(7, GeoPoint::from_degrees(0.0, 179.5));
        let mut out = Vec::new();
        g.query_radius(GeoPoint::from_degrees(0.0, -179.5), 500_000.0, &mut out);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn handles_poles() {
        let mut g = SphereGrid::new(5.0);
        g.insert(3, GeoPoint::from_degrees(89.0, 10.0));
        g.insert(4, GeoPoint::from_degrees(89.0, -170.0));
        let mut out = Vec::new();
        g.query_radius(GeoPoint::from_degrees(88.0, 100.0), 600_000.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![3, 4]);
    }

    #[test]
    fn matches_brute_force_on_ring() {
        let mut g = SphereGrid::new(4.0);
        let center = GeoPoint::from_degrees(10.0, 20.0);
        let mut items = Vec::new();
        for i in 0..72 {
            let bearing = crate::deg_to_rad(i as f64 * 5.0);
            for (j, d) in [500_000.0, 900_000.0, 1_500_000.0].iter().enumerate() {
                let id = (i * 3 + j) as u32;
                let p = destination_point(center, bearing, *d);
                items.push((id, p));
                g.insert(id, p);
            }
        }
        let mut out = Vec::new();
        g.query_radius(center, 941_000.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, brute_force(&items, center, 941_000.0));
    }

    #[test]
    fn whole_sphere_query_returns_everything() {
        let mut g = SphereGrid::new(10.0);
        for i in 0..50u32 {
            g.insert(
                i,
                GeoPoint::from_degrees(-80.0 + (i as f64) * 3.0, (i as f64) * 7.0 - 180.0),
            );
        }
        let mut out = Vec::new();
        g.query_radius(
            GeoPoint::from_degrees(0.0, 0.0),
            std::f64::consts::PI * EARTH_RADIUS_M,
            &mut out,
        );
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn empty_grid_returns_nothing() {
        let g = SphereGrid::new(5.0);
        assert!(g.is_empty());
        let mut out = vec![99];
        g.query_radius(GeoPoint::from_degrees(0.0, 0.0), 1e7, &mut out);
        assert!(out.is_empty(), "out must be cleared");
    }

    #[test]
    fn cell_grid_buckets_stay_sorted_under_relocation() {
        let mut g = CellGrid::new(5.0);
        let a = g.cell_of(&GeoPoint::from_degrees(10.0, 10.0));
        let b = g.cell_of(&GeoPoint::from_degrees(-40.0, 120.0));
        assert_ne!(a, b);
        for id in [5u32, 1, 9, 3, 7] {
            g.insert(id, a);
        }
        assert_eq!(g.ids(a), &[1, 3, 5, 7, 9]);
        g.relocate(5, a, b);
        g.relocate(1, a, b);
        g.relocate(9, a, b);
        assert_eq!(g.ids(a), &[3, 7]);
        assert_eq!(g.ids(b), &[1, 5, 9]);
        assert_eq!(g.len(), 5);
        // Moving one back lands at the sorted position, not the end.
        g.relocate(9, b, a);
        assert_eq!(g.ids(a), &[3, 7, 9]);
    }

    #[test]
    fn cell_grid_window_matches_sphere_grid_scan_order() {
        // Same items in both indexes: the CellGrid window scan (cells in
        // order, ids per bucket in order, exact test applied by the caller)
        // must reproduce query_radius output *in order*, not just as a set.
        let mut sphere = SphereGrid::new(4.0);
        let mut cells = CellGrid::new(4.0);
        let mut points = Vec::new();
        let center = GeoPoint::from_degrees(48.0, 175.0); // near the date line
        for i in 0..200u32 {
            let bearing = crate::deg_to_rad(i as f64 * 23.0);
            let dist = 100_000.0 + (i as f64) * 9_000.0;
            let p = destination_point(center, bearing, dist);
            sphere.insert(i, p);
            cells.insert(i, cells.cell_of(&p));
            points.push(p);
        }
        for radius in [300_000.0, 941_000.0, 2_500_000.0] {
            let mut expect = Vec::new();
            sphere.query_radius(center, radius, &mut expect);
            let ang = radius / EARTH_RADIUS_M;
            let mut window = Vec::new();
            cells.window_cells(center, radius, &mut window);
            let mut got = Vec::new();
            for &cell in &window {
                for &id in cells.ids(cell) {
                    if center.central_angle(&points[id as usize]) <= ang {
                        got.push(id);
                    }
                }
            }
            assert_eq!(got, expect, "radius {radius}");
        }
    }

    #[test]
    fn cell_grid_window_near_pole_is_conservative() {
        let cells = CellGrid::new(5.0);
        let center = GeoPoint::from_degrees(88.5, 30.0);
        let mut window = Vec::new();
        cells.window_cells(center, 900_000.0, &mut window);
        // Pole-touching windows must cover every column of the top rows.
        let covered = window.len();
        assert!(covered >= 72, "only {covered} cells near the pole");
    }

    #[test]
    fn cell_index_tracks_insert_remove_relocate() {
        let mut g = CellGrid::new(5.0);
        assert_eq!(g.cell_of_id(3), u32::MAX);
        g.insert(3, 10);
        assert_eq!(g.cell_of_id(3), 10);
        g.relocate(3, 10, 11);
        assert_eq!(g.cell_of_id(3), 11);
        g.remove(3, 11);
        assert_eq!(g.cell_of_id(3), u32::MAX);
    }

    #[test]
    fn contains_quick_never_contradicts_cell_of() {
        // contains_quick(cell, …) == true must imply cell_of(subpoint) ==
        // cell, for points scattered across the sphere including many
        // near cell boundaries (where the quick test must decline rather
        // than guess).
        let g = CellGrid::new(3.0);
        let mut accepted = 0usize;
        let mut declined_same_cell = 0usize;
        for i in 0..120 {
            for j in 0..240 {
                // Offset pattern places points mid-cell, near-boundary,
                // and effectively on boundaries.
                let lat = -89.9 + i as f64 * 1.5 + (j % 3) as f64 * 1e-7;
                let lon = -179.9 + j as f64 * 1.5 + (i % 3) as f64 * 1e-7;
                let p = GeoPoint::from_degrees(lat, lon);
                let e = crate::Ecef::from_geo(p, 550_000.0);
                let r = e.norm();
                let (sub, _) = e.to_geo();
                let exact = g.cell_of(&sub);
                for probe in [
                    exact,
                    exact.saturating_sub(1),
                    exact + 1,
                    exact.saturating_sub(g.shape.cols as u32),
                ] {
                    let quick = g.contains_quick(probe, e.x, e.y, e.z, r);
                    if quick {
                        assert_eq!(probe, exact, "quick test accepted the wrong cell");
                        accepted += 1;
                    } else if probe == exact {
                        declined_same_cell += 1;
                    }
                }
            }
        }
        // The quick path must actually fire for the overwhelming majority
        // of mid-cell points (it is the sweep's fast path), while being
        // allowed to decline near boundaries.
        assert!(accepted > 25_000, "quick path fired only {accepted} times");
        assert!(
            declined_same_cell < accepted / 10,
            "quick path declined too often: {declined_same_cell} vs {accepted}"
        );
    }

    #[test]
    fn contains_quick_accepts_polar_caps_with_ragged_rows() {
        // Regression: with a bin size that does not divide 180° (here 7°
        // → 26 rows spanning 182°), the top row's boundary angle used to
        // run 2° past the pole, where sin() *decreases* — so every GT
        // above the mirrored latitude (|lat| ≳ 89°) was falsely rejected
        // and fell back to the exact path forever. The clamped boundary
        // must accept well-inside polar points (|lat| > 85°) like any
        // other mid-cell point.
        let g = CellGrid::new(7.0);
        let mut accepted_polar = 0usize;
        for &lat in &[85.5, 87.0, 88.5, 89.0, 89.4, -89.4, -89.0, -86.0] {
            for lon in [-176.5, -90.0, -3.5, 0.0, 3.5, 90.0, 176.5] {
                let p = GeoPoint::from_degrees(lat, lon);
                let e = crate::Ecef::from_geo(p, 550_000.0);
                let r = e.norm();
                let (sub, _) = e.to_geo();
                let exact = g.cell_of(&sub);
                if g.contains_quick(exact, e.x, e.y, e.z, r) {
                    accepted_polar += 1;
                }
                // And never accept a neighboring cell.
                for probe in [exact.saturating_sub(1), exact + 1] {
                    if probe != exact && (probe as usize) < g.num_cells() {
                        assert!(
                            !g.contains_quick(probe, e.x, e.y, e.z, r),
                            "accepted wrong cell {probe} for lat {lat} lon {lon}"
                        );
                    }
                }
            }
        }
        // 89.4° sits ~0.6° inside the 26th row band ([89°, 90°] after
        // clamping); everything sampled is safely off every boundary, so
        // the quick path must fire for all of them.
        assert_eq!(accepted_polar, 56, "polar caps must use the quick path");
    }

    #[test]
    fn contains_quick_stays_sound_at_antimeridian_with_ragged_cols() {
        // Regression (soundness): with a bin that does not divide 360°
        // (7° → 52 columns spanning 364°), the last column's upper
        // boundary meridian used to wrap 4° past +180°, so its wedge
        // wrongly *accepted* directions just east of the antimeridian
        // that `cell_of` assigns to column 0 — which would silently
        // corrupt an incrementally-maintained grid. The clamp pins the
        // wedge at +180°.
        let g = CellGrid::new(7.0);
        let last_col = (g.shape.cols - 1) as u32;
        for &lat in &[-60.0, -11.0, 0.0, 33.0, 71.0] {
            let row = g.shape.row_of(crate::deg_to_rad(lat)) as u32;
            let wrong_cell = row * g.shape.cols as u32 + last_col;
            // Points at lon ∈ (−180°, −176°]: inside the old wrapped
            // wedge, but column 0 by the exact path.
            for lon in [-179.9, -178.0, -176.5] {
                let p = GeoPoint::from_degrees(lat, lon);
                let e = crate::Ecef::from_geo(p, 550_000.0);
                let r = e.norm();
                let (sub, _) = e.to_geo();
                assert_eq!(g.cell_of(&sub) % g.shape.cols as u32, 0, "lon {lon}");
                assert!(
                    !g.contains_quick(wrong_cell, e.x, e.y, e.z, r),
                    "wrapped wedge accepted lon {lon} at lat {lat}"
                );
            }
        }
        // Conservativeness both ways along the seam, at the production
        // 3° bin as well: whatever the quick test accepts must agree
        // with the exact path.
        for &bin in &[3.0, 7.0] {
            let g = CellGrid::new(bin);
            for i in 0..360 {
                let lat = -89.9 + i as f64 * 0.5;
                if lat >= 90.0 {
                    break;
                }
                for lon in [-180.0, -179.999, 179.999, 180.0] {
                    let p = GeoPoint::from_degrees(lat, lon);
                    let e = crate::Ecef::from_geo(p, 550_000.0);
                    let r = e.norm();
                    let (sub, _) = e.to_geo();
                    let exact = g.cell_of(&sub);
                    for cell in 0..g.num_cells() as u32 {
                        if g.contains_quick(cell, e.x, e.y, e.z, r) {
                            assert_eq!(cell, exact, "lat {lat} lon {lon} bin {bin}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cell_grid_remove_missing_id_is_noop() {
        let mut g = CellGrid::new(10.0);
        g.insert(4, 0);
        g.remove(9, 0);
        assert_eq!(g.len(), 1);
        assert_eq!(g.ids(0), &[4]);
    }
}
