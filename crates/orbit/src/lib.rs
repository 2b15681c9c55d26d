//! # leo-orbit — orbital mechanics for LEO mega-constellations
//!
//! This crate builds and propagates the satellite constellations studied in
//! the paper. The planned Starlink and Kuiper shells are described in FCC
//! filings only by their shell parameters (planes, satellites per plane,
//! altitude, inclination), so — as in the simulation literature — they are
//! modelled as **Walker-delta constellations on circular orbits**, with an
//! optional J2 secular drift term. There are no real TLEs for these planned
//! shells, so SGP4 propagation of published elements is not applicable;
//! circular Kepler + J2 is the faithful model.
//!
//! The main entry points are:
//!
//! * [`Shell`] — a constellation shell specification (e.g.
//!   [`Shell::starlink_phase1`]), which expands into per-satellite orbital
//!   elements.
//! * [`Constellation`] — one or more shells plus the minimum-elevation
//!   constraint; [`Constellation::positions_at`] propagates every satellite
//!   to a given simulation time, returning ECEF positions and sub-satellite
//!   points.
//! * [`plus_grid_isls`] — the +Grid inter-satellite link topology (2
//!   intra-plane + 2 inter-plane neighbours per satellite).
//! * [`isl_line_of_sight`] — whether a satellite-to-satellite laser link
//!   stays above the weather-affected lower atmosphere.
//! * [`gso`] — GSO-arc avoidance geometry (paper §7, Fig. 9).
//!
//! ```
//! use leo_orbit::{Constellation, Shell};
//!
//! let c = Constellation::single_shell(Shell::starlink_phase1(), 25.0);
//! assert_eq!(c.num_satellites(), 72 * 22);
//! let snap = c.positions_at(0.0);
//! assert_eq!(snap.len(), 1584);
//! ```

mod constellation;
pub mod gso;
mod isl;
mod kepler;
pub mod passes;
mod shell;
pub mod visibility;

pub use constellation::{CellTransition, Constellation, ConstellationSnapshot};
pub use isl::{plus_grid_isls, IslLink};
pub use kepler::{orbital_period_s, OrbitalElements, EARTH_J2, EARTH_MU, EARTH_ROTATION_RAD_S};
pub use passes::{find_passes, pass_stats, Pass, PassStats};
pub use shell::{SatelliteId, Shell};
pub use visibility::{isl_line_of_sight, VisibilityParams, SUBPOINT_BIN_DEG};
