//! # leo-geo — geodesy primitives for LEO constellation simulation
//!
//! This crate provides the geometric substrate used by every other crate in
//! the workspace: geographic and Earth-centred coordinates, great-circle
//! (geodesic) math on a spherical Earth, slant-range / elevation geometry
//! between ground points and satellites, and a spherical grid spatial index
//! used to make ground-terminal ↔ satellite visibility queries cheap.
//!
//! ## Conventions
//!
//! * Internally everything is **radians** and **meters**. API entry points
//!   that take degrees or kilometres say so in their name (`_deg`, `_km`).
//! * The Earth model is a sphere of radius [`EARTH_RADIUS_M`]. The paper's
//!   analysis (and the LEO-simulation literature it builds on) uses a
//!   spherical Earth; the error relative to WGS84 is well below the
//!   modelling noise of the constellations themselves.
//! * Latitudes are in `[-π/2, π/2]`, longitudes in `(-π, π]`.
//!
//! ## Quick example
//!
//! ```
//! use leo_geo::{GeoPoint, great_circle_distance_m};
//!
//! let zurich = GeoPoint::from_degrees(47.3769, 8.5417);
//! let sydney = GeoPoint::from_degrees(-33.8688, 151.2093);
//! let d = great_circle_distance_m(zurich, sydney);
//! assert!((d / 1000.0 - 16_560.0).abs() < 150.0); // ~16,560 km
//! ```

mod constants;
mod ecef;
mod geodesic;
mod point;
mod slant;
mod spatial;

pub use constants::{EARTH_RADIUS_M, GSO_ALTITUDE_M, SPEED_OF_LIGHT_M_S};
pub use ecef::Ecef;
pub use geodesic::{
    destination_point, great_circle_distance_m, initial_bearing_rad, intermediate_point,
    GreatCircle,
};
pub use point::GeoPoint;
pub use slant::{
    batch_visible_from, coverage_radius_m, elevation_angle_rad, max_slant_range_m, slant_range_m,
    visible_at_elevation, VisibilityScan,
};
pub use spatial::{CellGrid, CellOrder, SphereGrid};

/// Convert degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Convert radians to degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

/// Normalize a longitude (radians) into `(-π, π]`.
#[inline]
pub fn normalize_lon(lon: f64) -> f64 {
    let two_pi = 2.0 * std::f64::consts::PI;
    let mut l = lon % two_pi;
    if l <= -std::f64::consts::PI {
        l += two_pi;
    } else if l > std::f64::consts::PI {
        l -= two_pi;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deg_rad_roundtrip() {
        for d in [-180.0, -90.0, 0.0, 45.0, 90.0, 180.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-12);
        }
    }

    #[test]
    fn normalize_lon_wraps() {
        use std::f64::consts::PI;
        assert!((normalize_lon(3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_lon(-3.0 * PI) - PI).abs() < 1e-12);
        assert!((normalize_lon(0.5) - 0.5).abs() < 1e-12);
        // Exactly -π maps to +π (half-open convention).
        assert!((normalize_lon(-PI) - PI).abs() < 1e-12);
    }
}
