//! Fiber augmentation of metro GT capacity (paper §8, Fig. 11).
//!
//! A congested metro (the paper draws Paris) can borrow the
//! ground–satellite connectivity of nearby smaller cities over existing
//! terrestrial fiber: traffic rides fiber to a "distributed GT" and
//! uplinks from there, multiplying the number of reachable satellites and
//! the aggregate up/down capacity at the cost of a small fiber detour.

use crate::snapshot::StudyContext;
use leo_geo::{
    great_circle_distance_m, CellOrder, Ecef, GeoPoint, VisibilityScan, SPEED_OF_LIGHT_M_S,
};
use leo_orbit::{VisibilityParams, SUBPOINT_BIN_DEG};
use leo_util::span;
use std::collections::HashSet;

/// Speed of light in fiber ≈ 2/3 c.
pub const FIBER_SPEED_M_S: f64 = SPEED_OF_LIGHT_M_S * 2.0 / 3.0;

/// A satellite-diversity measurement for a metro with fiber-attached
/// satellite sites.
#[derive(Debug, Clone)]
pub struct FiberAugmentation {
    /// Satellites visible from the metro itself.
    pub metro_visible: usize,
    /// Distinct satellites visible from the metro plus all distributed
    /// GTs.
    pub augmented_visible: usize,
    /// Aggregate GT–satellite link capacity without augmentation, Gbps
    /// (visible satellites × per-link capacity).
    pub metro_capacity_gbps: f64,
    /// Aggregate capacity with distributed GTs, Gbps.
    pub augmented_capacity_gbps: f64,
    /// Worst one-way fiber detour to a distributed GT, ms.
    pub max_fiber_detour_ms: f64,
}

/// The paper's Fig. 11 example: Paris plus 5 nearby fiber-connected
/// cities.
pub fn paris_satellite_sites() -> (GeoPoint, Vec<(&'static str, GeoPoint)>) {
    (
        GeoPoint::from_degrees(48.86, 2.35),
        vec![
            ("Rouen", GeoPoint::from_degrees(49.44, 1.10)),
            ("Orléans", GeoPoint::from_degrees(47.90, 1.90)),
            ("Reims", GeoPoint::from_degrees(49.26, 4.03)),
            ("Amiens", GeoPoint::from_degrees(49.89, 2.30)),
            ("Le Mans", GeoPoint::from_degrees(48.00, 0.20)),
        ],
    )
}

/// Measure satellite diversity for a metro and its distributed GTs at
/// snapshot time `t_s`.
pub fn fiber_augmentation(
    ctx: &StudyContext,
    metro: GeoPoint,
    satellites_sites: &[(&str, GeoPoint)],
    t_s: f64,
) -> FiberAugmentation {
    let _span = span!(
        "fiber_augmentation",
        sites = satellites_sites.len(),
        t_s = t_s
    );
    let snap = ctx.constellation.positions_at(t_s);
    let grid = snap.cell_grid(SUBPOINT_BIN_DEG);
    let mut cells = CellOrder::default();
    grid.flatten_into(snap.xyz(), &mut cells);
    let params = VisibilityParams {
        min_elevation_rad: ctx.constellation.min_elevation_rad(),
        max_altitude_m: ctx.config.constellation.max_altitude_m(),
    };
    let scan = VisibilityScan::new(params.min_elevation_rad);
    let mut segments = Vec::new();
    let mut visible_from = |gt: GeoPoint| {
        grid.window_segments(gt, params.query_radius_m(), &mut segments);
        let g = Ecef::from_geo(gt, 0.0);
        let mut ids = Vec::new();
        scan.scan_window(&g, g.norm(), &cells, &segments, &mut |id, _, _| {
            ids.push(id)
        });
        ids
    };

    let metro_set: HashSet<u32> = visible_from(metro).into_iter().collect();
    let mut union = metro_set.clone();
    let mut total_links = metro_set.len();
    let mut max_detour: f64 = 0.0;
    for (_, site) in satellites_sites {
        let visible = visible_from(*site);
        total_links += visible.len();
        union.extend(visible);
        let detour_ms = great_circle_distance_m(metro, *site) / FIBER_SPEED_M_S * 1000.0;
        max_detour = max_detour.max(detour_ms);
    }
    let cap = ctx.config.network.gt_link_gbps;
    FiberAugmentation {
        metro_visible: metro_set.len(),
        augmented_visible: union.len(),
        metro_capacity_gbps: metro_set.len() as f64 * cap,
        augmented_capacity_gbps: total_links as f64 * cap,
        max_fiber_detour_ms: max_detour,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::snapshot::StudyContext;

    fn ctx() -> StudyContext {
        StudyContext::build(ExperimentScale::Tiny.config())
    }

    #[test]
    fn augmentation_never_reduces_diversity() {
        let c = ctx();
        let (paris, sites) = paris_satellite_sites();
        for &t in &[0.0, 1800.0, 3600.0, 7200.0] {
            let f = fiber_augmentation(&c, paris, &sites, t);
            assert!(f.augmented_visible >= f.metro_visible);
            assert!(f.augmented_capacity_gbps >= f.metro_capacity_gbps);
        }
    }

    #[test]
    fn augmentation_adds_capacity() {
        let c = ctx();
        let (paris, sites) = paris_satellite_sites();
        let f = fiber_augmentation(&c, paris, &sites, 0.0);
        // 6 sites with mostly-overlapping views still multiply link count.
        assert!(
            f.augmented_capacity_gbps >= 3.0 * f.metro_capacity_gbps,
            "links: metro {} Gbps vs augmented {} Gbps",
            f.metro_capacity_gbps,
            f.augmented_capacity_gbps
        );
    }

    #[test]
    fn fiber_detours_are_small() {
        let c = ctx();
        let (paris, sites) = paris_satellite_sites();
        let f = fiber_augmentation(&c, paris, &sites, 0.0);
        // All sites are within ~200 km: ≤ ~1.1 ms one-way in fiber.
        assert!(f.max_fiber_detour_ms > 0.0 && f.max_fiber_detour_ms < 1.5);
    }
}
