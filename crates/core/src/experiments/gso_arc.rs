//! GSO-arc avoidance (paper §7, Fig. 9).
//!
//! Near the Equator, LEO up/down-links must keep an angular separation
//! from the geostationary arc (22° for Starlink), which shrinks the
//! usable sky. This hits BP connectivity hardest: cross-Equatorial BP
//! traffic must transit low-latitude GTs, all of which suffer the
//! shrunken field of view, while ISL paths only care at the endpoints.

use crate::snapshot::StudyContext;
use leo_geo::{deg_to_rad, CellOrder, Ecef, GeoPoint, VisibilityScan};
use leo_orbit::gso::{gso_compliant, usable_sky_fraction};
use leo_orbit::{VisibilityParams, SUBPOINT_BIN_DEG};
use leo_util::span;
use leo_util::telemetry::{Heartbeat, MetricSeries};

/// One row of the Fig. 9 sweep.
#[derive(Debug, Clone, Copy)]
pub struct GsoRow {
    /// GT latitude, degrees.
    pub lat_deg: f64,
    /// Fraction of the (elevation-constrained) sky that remains usable.
    pub usable_sky_fraction: f64,
    /// Fraction of actually-visible satellites that are GSO-compliant at
    /// the sampled snapshot.
    pub usable_satellite_fraction: f64,
}

/// Sweep GT latitude and measure how much sky / how many satellites
/// survive the GSO separation rule.
///
/// `min_elevation_deg` is the operational elevation (the paper's Fig. 9
/// uses Starlink's full-deployment 40°); `separation_deg` the arc
/// avoidance angle (22° for Starlink). The satellite fraction is averaged
/// over several snapshots starting at `t_s` — at 40° elevation only a
/// handful of satellites are in view at once, so a single instant is too
/// noisy.
pub fn gso_sweep(
    ctx: &StudyContext,
    latitudes_deg: &[f64],
    min_elevation_deg: f64,
    separation_deg: f64,
    t_s: f64,
) -> Vec<GsoRow> {
    let _span = span!("gso_sweep", latitudes = latitudes_deg.len(), t_s = t_s);
    let e = deg_to_rad(min_elevation_deg);
    let sep = deg_to_rad(separation_deg);
    let params = VisibilityParams {
        min_elevation_rad: e,
        max_altitude_m: ctx.config.constellation.max_altitude_m(),
    };
    // Spread samples over ~one orbital period so different constellation
    // phases are seen. One satellite state + cell index is advanced in
    // place across the samples instead of rebuilding per instant.
    let sample_times: Vec<f64> = (0..12).map(|i| t_s + i as f64 * 480.0).collect();
    let radius_m = params.query_radius_m();
    let hb = Heartbeat::new("gso_sweep", sample_times.len() as u64);
    let mut series = MetricSeries::new("gso_usable_satellite_fraction");
    let mut totals = vec![0usize; latitudes_deg.len()];
    let mut compliant = vec![0usize; latitudes_deg.len()];
    let mut sats = ctx.constellation.positions_at(t_s);
    let mut grid = sats.cell_grid(SUBPOINT_BIN_DEG);
    let mut transitions = Vec::new();
    let scan = VisibilityScan::new(e);
    let (mut cells, mut segments) = (CellOrder::default(), Vec::new());
    for (si, &t) in sample_times.iter().enumerate() {
        if si > 0 {
            sats.advance_to(&ctx.constellation, t, &mut grid, &mut transitions);
        }
        let (sample_totals_before, sample_compliant_before) = (
            totals.iter().sum::<usize>(),
            compliant.iter().sum::<usize>(),
        );
        grid.flatten_into(sats.xyz(), &mut cells);
        for (li, &lat) in latitudes_deg.iter().enumerate() {
            // Count compliant vs visible satellites from a GT at (lat, 0°)
            // — longitude is immaterial for the (zonally symmetric) arc.
            let gt = GeoPoint::from_degrees(lat, 0.0);
            let g = Ecef::from_geo(gt, 0.0);
            grid.window_segments(gt, radius_m, &mut segments);
            scan.scan_window(&g, g.norm(), &cells, &segments, &mut |s, _, _| {
                totals[li] += 1;
                if gso_compliant(gt, &sats.position(s as usize), sep) {
                    compliant[li] += 1;
                }
            });
        }
        // Per-sample compliance fraction across all swept latitudes.
        let dt = totals.iter().sum::<usize>() - sample_totals_before;
        let dc = compliant.iter().sum::<usize>() - sample_compliant_before;
        if dt > 0 {
            series.record(dc as f64 / dt as f64);
        }
        series.snapshot_done(si, t);
        hb.tick(1);
    }
    latitudes_deg
        .iter()
        .enumerate()
        .map(|(li, &lat)| {
            let sky = usable_sky_fraction(
                deg_to_rad(lat),
                e,
                sep,
                ctx.config.constellation.max_altitude_m(),
            );
            GsoRow {
                lat_deg: lat,
                usable_sky_fraction: sky,
                usable_satellite_fraction: if totals[li] == 0 {
                    f64::NAN
                } else {
                    compliant[li] as f64 / totals[li] as f64
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::snapshot::StudyContext;

    #[test]
    fn equator_most_constrained() {
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        let rows = gso_sweep(&ctx, &[0.0, 20.0, 45.0], 40.0, 22.0, 0.0);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].usable_sky_fraction < rows[2].usable_sky_fraction);
        // At the Equator a visible chunk of the constellation is masked.
        if rows[0].usable_satellite_fraction.is_finite() {
            assert!(rows[0].usable_satellite_fraction < 1.0);
        }
    }

    #[test]
    fn looser_separation_frees_sky() {
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        let strict = gso_sweep(&ctx, &[0.0], 40.0, 22.0, 0.0);
        let loose = gso_sweep(&ctx, &[0.0], 40.0, 12.0, 0.0);
        assert!(loose[0].usable_sky_fraction > strict[0].usable_sky_fraction);
    }
}
