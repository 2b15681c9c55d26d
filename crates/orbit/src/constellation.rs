//! Multi-shell constellations and their time-indexed snapshots.

use crate::kepler::OrbitalElements;
use crate::shell::{SatelliteId, Shell};
use leo_geo::{deg_to_rad, CellGrid, Ecef, GeoPoint};

/// A constellation: one or more shells plus the operational
/// minimum-elevation constraint for ground-terminal links.
#[derive(Debug, Clone)]
pub struct Constellation {
    shells: Vec<Shell>,
    /// Per-satellite elements, concatenated shell-by-shell.
    elements: Vec<OrbitalElements>,
    /// Per-satellite propagation constants (same order as `elements`).
    prop: Vec<PropConst>,
    /// First satellite id of each shell (same order as `shells`), plus a
    /// final sentinel equal to the total count.
    shell_offsets: Vec<u32>,
    /// Minimum elevation angle for GT–satellite links, radians.
    min_elevation_rad: f64,
    /// Whether propagation applies J2 secular RAAN drift.
    pub apply_j2: bool,
}

/// Per-satellite constants hoisted out of the bulk propagation loops:
/// everything in [`OrbitalElements::position_at`] that does not depend on
/// `t`, computed by the **same expressions** so bulk propagation stays
/// bitwise identical to the scalar path.
#[derive(Debug, Clone, Copy)]
struct PropConst {
    /// Semi-major axis, m.
    a: f64,
    /// Mean motion, rad/s.
    n: f64,
    /// Argument of latitude at epoch, rad.
    u0: f64,
    /// RAAN at epoch, rad (needed when J2 drift applies).
    raan0: f64,
    /// `raan0.sin()` / `raan0.cos()` (valid only without J2 drift).
    sin_raan: f64,
    cos_raan: f64,
    /// `inclination.sin_cos()`.
    sin_inc: f64,
    cos_inc: f64,
    /// J2 secular RAAN rate, rad/s.
    j2_rate: f64,
}

impl PropConst {
    fn new(e: &OrbitalElements) -> Self {
        let (sin_inc, cos_inc) = e.inclination_rad.sin_cos();
        Self {
            a: e.semi_major_axis_m(),
            n: e.mean_motion_rad_s(),
            u0: e.arg_latitude_rad,
            raan0: e.raan_rad,
            sin_raan: e.raan_rad.sin(),
            cos_raan: e.raan_rad.cos(),
            sin_inc,
            cos_inc,
            j2_rate: e.j2_raan_rate_rad_s(),
        }
    }

    /// [`OrbitalElements::position_at`] with the per-satellite constants
    /// and the Earth-rotation trig `(st, ct) = (ω⊕·t).sin_cos()` factored
    /// out. Operation-for-operation identical to the scalar version.
    #[inline]
    fn position_at(&self, t_s: f64, apply_j2: bool, st: f64, ct: f64) -> Ecef {
        let u = self.u0 + self.n * t_s;
        let (su, cu) = u.sin_cos();
        let (sin_raan, cos_raan) = if apply_j2 {
            let raan = self.raan0 + self.j2_rate * t_s;
            (raan.sin(), raan.cos())
        } else {
            (self.sin_raan, self.cos_raan)
        };
        let x_eci = cu * cos_raan - su * self.cos_inc * sin_raan;
        let y_eci = cu * sin_raan + su * self.cos_inc * cos_raan;
        let z_eci = su * self.sin_inc;
        Ecef::new(
            self.a * (x_eci * ct + y_eci * st),
            self.a * (-x_eci * st + y_eci * ct),
            self.a * z_eci,
        )
    }
}

/// All satellite positions at one instant, in struct-of-arrays layout.
///
/// ECEF components live in three parallel `f64` arrays indexed by
/// [`SatelliteId`], so batched kernels (visibility sweeps, per-axis math)
/// stream contiguous memory instead of hopping across an array of
/// structs. Use [`ConstellationSnapshot::position`] /
/// [`ConstellationSnapshot::subpoint`] for scalar access; sub-points are
/// computed on demand from the stored ECEF components (a deterministic
/// function, so repeated calls are bitwise identical).
///
/// A snapshot can be *advanced in place* to a later instant with
/// [`ConstellationSnapshot::advance_to`], which also keeps an id-sorted
/// [`CellGrid`] current and reports which satellites crossed a cell
/// boundary — the primitive the TimeSweep engine builds on. Propagation
/// is closed-form (circular orbits), so advancing recomputes each position
/// analytically at the target time: there is no integration drift, and
/// advancing to `t` is bitwise identical to building a fresh snapshot at
/// `t`.
#[derive(Debug, Clone, Default)]
pub struct ConstellationSnapshot {
    /// Simulation time of this snapshot, seconds since epoch.
    pub t_s: f64,
    /// ECEF X components, meters, indexed by [`SatelliteId`].
    x: Vec<f64>,
    /// ECEF Y components, meters.
    y: Vec<f64>,
    /// ECEF Z components, meters.
    z: Vec<f64>,
}

/// One satellite crossing between spatial-index cells during an
/// [`ConstellationSnapshot::advance_to`] step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellTransition {
    /// The satellite that moved.
    pub sat: SatelliteId,
    /// Cell it left.
    pub from: u32,
    /// Cell it entered.
    pub to: u32,
}

impl ConstellationSnapshot {
    /// Number of satellites in the snapshot.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True if the snapshot holds no satellites.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// ECEF position of satellite `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Ecef {
        Ecef::new(self.x[i], self.y[i], self.z[i])
    }

    /// Sub-satellite (ground-track) point of satellite `i`.
    ///
    /// Computed on demand from the stored ECEF components via
    /// [`Ecef::to_geo`] — the same deterministic expressions every
    /// producer of this snapshot used, so the result is bitwise identical
    /// no matter how the snapshot reached its current time.
    #[inline]
    pub fn subpoint(&self, i: usize) -> GeoPoint {
        let (g, _) = self.position(i).to_geo();
        g
    }

    /// The parallel ECEF component arrays `(x, y, z)`, meters.
    #[inline]
    pub fn xyz(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.x, &self.y, &self.z)
    }

    /// Iterator over all ECEF positions in satellite-id order.
    pub fn positions(&self) -> impl Iterator<Item = Ecef> + '_ {
        (0..self.len()).map(|i| self.position(i))
    }

    /// Build the id-sorted cell index of this snapshot's sub-points, for
    /// incremental maintenance across [`ConstellationSnapshot::advance_to`]
    /// steps.
    pub fn cell_grid(&self, bin_deg: f64) -> CellGrid {
        let mut grid = CellGrid::new(bin_deg);
        for i in 0..self.len() {
            let p = self.subpoint(i);
            let cell = grid.cell_of(&p);
            grid.insert(i as u32, cell);
        }
        grid
    }

    /// Re-propagate every satellite **in place** to absolute time `t_s`,
    /// keeping `grid` (built by [`ConstellationSnapshot::cell_grid`])
    /// current and recording every satellite that crossed a cell boundary
    /// into `transitions` (cleared first).
    ///
    /// Allocation-free in steady state: positions are overwritten in the
    /// existing arrays and cell moves use sorted insert/remove, so after
    /// this call the grid is element-for-element identical to one freshly
    /// built from the new sub-points.
    ///
    /// Cell membership is decided by [`CellGrid::contains_quick`] — an
    /// exact conservative test on the raw ECEF components — so the ~97%
    /// of satellites that stay inside their current 3° cell per step skip
    /// the `asin`/`atan2` sub-point conversion entirely. Satellites near a
    /// boundary fall back to the exact [`Ecef::to_geo`] → `cell_of` path,
    /// keeping the grid bitwise identical to a fresh build.
    // lint: hot-path
    pub fn advance_to(
        &mut self,
        constellation: &Constellation,
        t_s: f64,
        grid: &mut CellGrid,
        transitions: &mut Vec<CellTransition>,
    ) {
        transitions.clear();
        debug_assert_eq!(self.len(), constellation.num_satellites());
        let theta = crate::kepler::EARTH_ROTATION_RAD_S * t_s;
        let (st, ct) = theta.sin_cos();
        for (i, pc) in constellation.prop.iter().enumerate() {
            let p = pc.position_at(t_s, constellation.apply_j2, st, ct);
            let from = grid.cell_of_id(i as u32);
            // Same expression as `Ecef::norm`, so the fallback path below
            // sees exactly the radius `to_geo` would.
            let r = (p.x * p.x + p.y * p.y + p.z * p.z).sqrt();
            let to = if grid.contains_quick(from, p.x, p.y, p.z, r) {
                from
            } else {
                let (g, _) = p.to_geo();
                grid.cell_of(&g)
            };
            if from != to {
                grid.relocate(i as u32, from, to);
                transitions.push(CellTransition {
                    sat: i as SatelliteId,
                    from,
                    to,
                });
            }
            self.x[i] = p.x;
            self.y[i] = p.y;
            self.z[i] = p.z;
        }
        self.t_s = t_s;
    }
}

impl Constellation {
    /// Build a constellation from shells and a minimum elevation (degrees).
    pub fn new(shells: Vec<Shell>, min_elevation_deg: f64) -> Self {
        let mut elements = Vec::new();
        let mut shell_offsets = Vec::with_capacity(shells.len() + 1);
        for s in &shells {
            shell_offsets.push(elements.len() as u32);
            elements.extend(s.elements());
        }
        shell_offsets.push(elements.len() as u32);
        let prop = elements.iter().map(PropConst::new).collect();
        Self {
            shells,
            elements,
            prop,
            shell_offsets,
            min_elevation_rad: deg_to_rad(min_elevation_deg),
            apply_j2: false,
        }
    }

    /// Convenience constructor for a single shell.
    pub fn single_shell(shell: Shell, min_elevation_deg: f64) -> Self {
        Self::new(vec![shell], min_elevation_deg)
    }

    /// The paper's Starlink configuration: phase-1 shell, e = 25°.
    pub fn starlink() -> Self {
        Self::single_shell(Shell::starlink_phase1(), 25.0)
    }

    /// The paper's Kuiper configuration: first shell, e = 30°.
    pub fn kuiper() -> Self {
        Self::single_shell(Shell::kuiper_phase1(), 30.0)
    }

    /// Total number of satellites.
    pub fn num_satellites(&self) -> usize {
        self.elements.len()
    }

    /// The shells making up this constellation.
    pub fn shells(&self) -> &[Shell] {
        &self.shells
    }

    /// Minimum GT-link elevation, radians.
    pub fn min_elevation_rad(&self) -> f64 {
        self.min_elevation_rad
    }

    /// Per-satellite orbital elements (indexed by [`SatelliteId`]).
    pub fn elements(&self) -> &[OrbitalElements] {
        &self.elements
    }

    /// Shell index that satellite `id` belongs to, and its index within
    /// that shell.
    pub fn shell_of(&self, id: SatelliteId) -> (usize, u32) {
        debug_assert!((id as usize) < self.elements.len());
        // shell_offsets is sorted; linear scan is fine for ≤ a few shells.
        for (i, w) in self.shell_offsets.windows(2).enumerate() {
            if id >= w[0] && id < w[1] {
                return (i, id - w[0]);
            }
        }
        // lint: allow(panic-reachable) shell_offsets partitions the id space, so the loop always returns for in-range ids; the debug_assert above catches the rest
        unreachable!("satellite id out of range")
    }

    /// First satellite id of shell `i`.
    pub fn shell_offset(&self, i: usize) -> u32 {
        self.shell_offsets[i]
    }

    /// Propagate every satellite to time `t_s` (seconds since epoch).
    pub fn positions_at(&self, t_s: f64) -> ConstellationSnapshot {
        let n = self.elements.len();
        let mut snap = ConstellationSnapshot {
            t_s,
            x: Vec::with_capacity(n),
            y: Vec::with_capacity(n),
            z: Vec::with_capacity(n),
        };
        let theta = crate::kepler::EARTH_ROTATION_RAD_S * t_s;
        let (st, ct) = theta.sin_cos();
        for pc in &self.prop {
            let p = pc.position_at(t_s, self.apply_j2, st, ct);
            snap.x.push(p.x);
            snap.y.push(p.y);
            snap.z.push(p.z);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starlink_has_1584_sats() {
        let c = Constellation::starlink();
        assert_eq!(c.num_satellites(), 1584);
    }

    #[test]
    fn multi_shell_offsets() {
        let c = Constellation::new(vec![Shell::starlink_phase1(), Shell::polar_shell()], 25.0);
        assert_eq!(c.num_satellites(), 1584 + 720);
        assert_eq!(c.shell_of(0), (0, 0));
        assert_eq!(c.shell_of(1583), (0, 1583));
        assert_eq!(c.shell_of(1584), (1, 0));
        assert_eq!(c.shell_of(1584 + 719), (1, 719));
        assert_eq!(c.shell_offset(1), 1584);
    }

    #[test]
    fn snapshot_positions_on_shell_radius() {
        let c = Constellation::starlink();
        let snap = c.positions_at(1234.0);
        let expected = leo_geo::EARTH_RADIUS_M + 550_000.0;
        for p in snap.positions() {
            assert!((p.norm() - expected).abs() < 1e-3);
        }
    }

    #[test]
    fn subpoints_match_positions() {
        let c = Constellation::kuiper();
        let snap = c.positions_at(500.0);
        for (i, p) in snap.positions().enumerate() {
            let (g, alt) = p.to_geo();
            let sp = snap.subpoint(i);
            assert!(g.central_angle(&sp) < 1e-12);
            assert!((alt - 630_000.0).abs() < 1e-3);
        }
    }

    #[test]
    fn satellites_move_between_snapshots() {
        let c = Constellation::starlink();
        let a = c.positions_at(0.0);
        let b = c.positions_at(60.0);
        // LEO orbital speed ~7.6 km/s; in 60 s a satellite moves ~450 km.
        let moved = a.position(0).distance(&b.position(0));
        assert!(moved > 400_000.0 && moved < 500_000.0, "moved {moved} m");
    }

    #[test]
    fn j2_changes_long_horizon_positions() {
        let mut c = Constellation::starlink();
        let without = c.positions_at(86_400.0);
        c.apply_j2 = true;
        let with = c.positions_at(86_400.0);
        let d = without.position(0).distance(&with.position(0));
        assert!(d > 1_000.0, "J2 drift should be visible after a day: {d} m");
    }

    #[test]
    fn cached_propagation_matches_scalar_position_at_bitwise() {
        let mut c = Constellation::new(vec![Shell::starlink_phase1(), Shell::polar_shell()], 25.0);
        for j2 in [false, true] {
            c.apply_j2 = j2;
            for t in [0.0, 947.3, 86_399.0] {
                let snap = c.positions_at(t);
                for (i, e) in c.elements().iter().enumerate() {
                    let (a, b) = (snap.position(i), e.position_at(t, j2));
                    assert_eq!(a.x.to_bits(), b.x.to_bits(), "sat {i} x at t={t} j2={j2}");
                    assert_eq!(a.y.to_bits(), b.y.to_bits(), "sat {i} y at t={t} j2={j2}");
                    assert_eq!(a.z.to_bits(), b.z.to_bits(), "sat {i} z at t={t} j2={j2}");
                }
            }
        }
    }

    #[test]
    fn advance_to_is_bitwise_identical_to_fresh_propagation() {
        let c = Constellation::starlink();
        let mut snap = c.positions_at(0.0);
        let mut grid = snap.cell_grid(3.0);
        let mut moves = Vec::new();
        for t in [180.0, 947.3, 5_400.0, 86_399.0] {
            snap.advance_to(&c, t, &mut grid, &mut moves);
            let fresh = c.positions_at(t);
            assert_eq!(snap.len(), fresh.len());
            for i in 0..snap.len() {
                let (a, b) = (snap.position(i), fresh.position(i));
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "sat {i} x at t={t}");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "sat {i} y at t={t}");
                assert_eq!(a.z.to_bits(), b.z.to_bits(), "sat {i} z at t={t}");
                let (sa, sb) = (snap.subpoint(i), fresh.subpoint(i));
                assert_eq!(sa.lat().to_bits(), sb.lat().to_bits());
                assert_eq!(sa.lon().to_bits(), sb.lon().to_bits());
            }
        }
    }

    #[test]
    fn advance_keeps_grid_identical_to_fresh_build() {
        let c = Constellation::kuiper();
        let mut snap = c.positions_at(0.0);
        let mut grid = snap.cell_grid(3.0);
        let mut moves = Vec::new();
        // Large and small steps, including one that moves most satellites
        // across many cells.
        for t in [60.0, 75.5, 900.0, 4_000.0] {
            snap.advance_to(&c, t, &mut grid, &mut moves);
            let fresh = snap.cell_grid(3.0);
            assert_eq!(grid.len(), fresh.len());
            for cell in 0..grid.num_cells() as u32 {
                assert_eq!(grid.ids(cell), fresh.ids(cell), "cell {cell} at t={t}");
            }
        }
    }

    #[test]
    fn advance_reports_cell_transitions() {
        let c = Constellation::starlink();
        let mut snap = c.positions_at(0.0);
        let mut grid = snap.cell_grid(3.0);
        let mut moves = Vec::new();
        // ~7.6 km/s for 120 s ≈ 900 km ≫ a 3° cell, so many sats move.
        snap.advance_to(&c, 120.0, &mut grid, &mut moves);
        assert!(!moves.is_empty(), "2-minute step must cross cells");
        for m in &moves {
            assert_ne!(m.from, m.to);
            let p = snap.subpoint(m.sat as usize);
            assert_eq!(grid.cell_of(&p), m.to);
        }
        // Zero-length step: nothing moves.
        let t = snap.t_s;
        snap.advance_to(&c, t, &mut grid, &mut moves);
        assert!(moves.is_empty());
    }
}
