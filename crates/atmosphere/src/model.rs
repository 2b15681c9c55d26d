//! The combined P.618-style total attenuation model.

use crate::climatology::{Climatology, SiteClimate};
use crate::cloud::cloud_attenuation_db;
use crate::gas::gaseous_attenuation_db;
use crate::rain::rain_attenuation_db;
use crate::scintillation::scintillation_db;
use leo_geo::GeoPoint;

/// One ground↔satellite slant path for attenuation purposes.
#[derive(Debug, Clone, Copy)]
pub struct SlantPath {
    /// Ground site (the weather happens at the ground end).
    pub site: GeoPoint,
    /// Elevation angle of the link, radians.
    pub elevation_rad: f64,
    /// Carrier frequency, GHz.
    pub frequency_ghz: f64,
}

/// Total-attenuation model: climatology + the four P.618 components.
#[derive(Debug, Clone, Copy)]
pub struct AttenuationModel {
    climatology: Climatology,
    /// User-terminal antenna diameter for scintillation averaging, meters.
    pub antenna_m: f64,
}

impl AttenuationModel {
    /// Build a model over a climatology with the default 0.6 m user
    /// terminal.
    pub fn new(climatology: Climatology) -> Self {
        Self {
            climatology,
            antenna_m: 0.6,
        }
    }

    /// The climatology in use.
    pub fn climatology(&self) -> &Climatology {
        &self.climatology
    }

    /// Rain-only attenuation exceeded `p_percent` of the time, dB.
    pub fn rain_db(&self, path: &SlantPath, p_percent: f64) -> f64 {
        rain_attenuation_db(
            path.frequency_ghz,
            path.elevation_rad,
            path.site.lat(),
            self.climatology.rain_rate_001(path.site),
            p_percent,
        )
    }

    /// Clear-sky attenuation (dB): the gaseous term only, which is always
    /// present regardless of weather.
    pub fn clear_sky_db(&self, path: &SlantPath) -> f64 {
        gaseous_attenuation_db(
            path.frequency_ghz,
            path.elevation_rad,
            self.climatology.vapour_density(path.site),
        )
    }

    /// Total attenuation (dB) exceeded for `p_percent` ∈ [0.001, 5] of an
    /// average year: `A_gas + √((A_rain + A_cloud)² + A_scint²)`.
    pub fn total_attenuation_db(&self, path: &SlantPath, p_percent: f64) -> f64 {
        self.total_db_in(&self.climatology.at(path.site), path, p_percent)
    }

    /// [`AttenuationModel::total_attenuation_db`] in the climate `c` of
    /// the path's site.
    pub(crate) fn total_db_in(&self, c: &SiteClimate, path: &SlantPath, p_percent: f64) -> f64 {
        let a_r = rain_attenuation_db(
            path.frequency_ghz,
            path.elevation_rad,
            path.site.lat(),
            c.rain_rate_001,
            p_percent,
        );
        let a_c = cloud_attenuation_db(path.frequency_ghz, path.elevation_rad, c.cloud_water);
        let a_g = self.clear_sky_db_in(c, path);
        let a_s = scintillation_db(
            path.frequency_ghz,
            path.elevation_rad,
            c.n_wet,
            self.antenna_m,
            p_percent.max(0.01),
        );
        a_g + ((a_r + a_c).powi(2) + a_s * a_s).sqrt()
    }

    /// [`AttenuationModel::clear_sky_db`] in the climate `c` of the path's
    /// site.
    pub(crate) fn clear_sky_db_in(&self, c: &SiteClimate, path: &SlantPath) -> f64 {
        gaseous_attenuation_db(path.frequency_ghz, path.elevation_rad, c.vapour_density)
    }

    /// Fraction of transmitted power surviving attenuation `a_db`:
    /// `10^(−A/10)`. 1 dB leaves 79.4 % (20.6 % less received power),
    /// 3 dB about half and 10 dB a tenth. (The paper's percentages, such
    /// as "5 dB = 44 % received power reduction", match the amplitude
    /// ratio `10^(−A/20)` instead: 56 % at 5 dB, 89 % at 1 dB.)
    pub fn received_power_fraction(a_db: f64) -> f64 {
        10f64.powf(-a_db / 10.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use leo_geo::deg_to_rad;

    fn model() -> AttenuationModel {
        AttenuationModel::new(Climatology::synthetic())
    }

    fn path(lat: f64, lon: f64, elev_deg: f64, f: f64) -> SlantPath {
        SlantPath {
            site: GeoPoint::from_degrees(lat, lon),
            elevation_rad: deg_to_rad(elev_deg),
            frequency_ghz: f,
        }
    }

    #[test]
    fn total_monotone_in_exceedance() {
        let m = model();
        let p = path(1.35, 103.8, 40.0, 14.25);
        let mut prev = f64::INFINITY;
        for pe in [0.01, 0.1, 0.5, 1.0, 3.0] {
            let a = m.total_attenuation_db(&p, pe);
            assert!(a < prev, "A({pe}) = {a}");
            prev = a;
        }
    }

    #[test]
    fn tropics_worse_than_mid_latitude() {
        let m = model();
        let sg = m.total_attenuation_db(&path(1.35, 103.8, 40.0, 14.25), 0.5);
        let zh = m.total_attenuation_db(&path(47.4, 8.5, 40.0, 14.25), 0.5);
        assert!(sg > 1.5 * zh, "Singapore {sg} dB vs Zurich {zh} dB");
    }

    #[test]
    fn paper_order_of_magnitude_at_ku() {
        // Fig. 6: medians of the 99.5th-percentile (p=0.5%) attenuation
        // are a few dB at Ku band.
        let m = model();
        let a = m.total_attenuation_db(&path(28.6, 77.2, 40.0, 14.25), 0.5);
        assert!(a > 0.3 && a < 10.0, "Delhi p=0.5%: {a} dB");
    }

    #[test]
    fn uplink_frequency_attenuates_more_than_downlink() {
        // Starlink: 14.25 GHz up vs 11.7 GHz down (paper §6).
        let m = model();
        let up = m.total_attenuation_db(&path(10.0, 100.0, 40.0, 14.25), 0.5);
        let down = m.total_attenuation_db(&path(10.0, 100.0, 40.0, 11.7), 0.5);
        assert!(up > down);
    }

    #[test]
    fn ka_band_much_worse_than_ku() {
        let m = model();
        let ku = m.total_attenuation_db(&path(10.0, 100.0, 40.0, 14.25), 0.5);
        let ka = m.total_attenuation_db(&path(10.0, 100.0, 40.0, 30.0), 0.5);
        assert!(ka > 2.0 * ku, "Ka {ka} dB vs Ku {ku} dB");
    }

    #[test]
    fn received_power_conversion() {
        assert!((AttenuationModel::received_power_fraction(0.0) - 1.0).abs() < 1e-12);
        assert!((AttenuationModel::received_power_fraction(3.0) - 0.501).abs() < 0.01);
        assert!((AttenuationModel::received_power_fraction(10.0) - 0.1).abs() < 1e-9);
        // A 1 dB gap, the paper's Fig. 6 median: 79.4 % of the power
        // survives, 20.6 % less than with no attenuation.
        let r1 = AttenuationModel::received_power_fraction(1.0);
        assert!((r1 - 0.794).abs() < 0.01);
    }

    #[test]
    fn total_dominated_by_rain_in_heavy_weather() {
        let m = model();
        let p = path(1.35, 103.8, 30.0, 14.25);
        let rain = m.rain_db(&p, 0.01);
        let total = m.total_attenuation_db(&p, 0.01);
        assert!(total >= rain, "total must include rain");
        assert!(total < rain + 3.0, "non-rain terms are small at Ku");
    }
}
