//! Synthetic global climatology.
//!
//! Stand-in for the ITU digital climate maps (see DESIGN.md §1,
//! substitution 3). The fields are smooth analytic functions of latitude
//! and longitude with the planetary structure that drives the paper's
//! weather results:
//!
//! * an **ITCZ rain belt** peaking a few degrees north of the Equator,
//! * **monsoon / deep-convection hot-spots** (South & Southeast Asia, the
//!   Maritime Continent, Congo, Amazon, Caribbean),
//! * **dry subtropical belts** (Sahara/Arabia, Atacama, Australian
//!   interior, Kalahari),
//! * mid-latitude storm tracks, and dry poles.
//!
//! Water-vapour density, wet refractivity, and columnar cloud water track
//! the same humidity structure.

use leo_geo::GeoPoint;

/// A regional Gaussian modifier on the rain field: centred at
/// `(lat, lon)` degrees, with axis scales in degrees and an additive
/// amplitude in mm/h.
struct Region {
    lat: f64,
    lon: f64,
    s_lat: f64,
    s_lon: f64,
    amp: f64,
}

/// Wet (rainier than the zonal mean) and dry anomaly regions.
const REGIONS: &[Region] = &[
    // Monsoon Asia.
    Region {
        lat: 22.0,
        lon: 80.0,
        s_lat: 9.0,
        s_lon: 16.0,
        amp: 45.0,
    },
    // Bay of Bengal / Indochina.
    Region {
        lat: 15.0,
        lon: 98.0,
        s_lat: 8.0,
        s_lon: 12.0,
        amp: 35.0,
    },
    // Maritime Continent (Indonesia/Malaysia/PNG).
    Region {
        lat: -2.0,
        lon: 115.0,
        s_lat: 10.0,
        s_lon: 25.0,
        amp: 45.0,
    },
    // Congo basin.
    Region {
        lat: 0.0,
        lon: 22.0,
        s_lat: 8.0,
        s_lon: 12.0,
        amp: 35.0,
    },
    // Amazon basin.
    Region {
        lat: -4.0,
        lon: -62.0,
        s_lat: 9.0,
        s_lon: 14.0,
        amp: 35.0,
    },
    // Caribbean / Gulf.
    Region {
        lat: 15.0,
        lon: -75.0,
        s_lat: 8.0,
        s_lon: 14.0,
        amp: 22.0,
    },
    // SE US / Florida convection.
    Region {
        lat: 29.0,
        lon: -84.0,
        s_lat: 6.0,
        s_lon: 10.0,
        amp: 18.0,
    },
    // West Pacific warm pool.
    Region {
        lat: 8.0,
        lon: 150.0,
        s_lat: 10.0,
        s_lon: 25.0,
        amp: 28.0,
    },
    // East Brazil coast.
    Region {
        lat: -8.0,
        lon: -35.0,
        s_lat: 6.0,
        s_lon: 8.0,
        amp: 15.0,
    },
    // Dry: Sahara & Arabia.
    Region {
        lat: 23.0,
        lon: 10.0,
        s_lat: 10.0,
        s_lon: 25.0,
        amp: -28.0,
    },
    Region {
        lat: 24.0,
        lon: 45.0,
        s_lat: 9.0,
        s_lon: 14.0,
        amp: -25.0,
    },
    // Dry: Atacama / Peru coast.
    Region {
        lat: -22.0,
        lon: -70.0,
        s_lat: 8.0,
        s_lon: 7.0,
        amp: -22.0,
    },
    // Dry: Australian interior.
    Region {
        lat: -25.0,
        lon: 134.0,
        s_lat: 9.0,
        s_lon: 14.0,
        amp: -22.0,
    },
    // Dry: Kalahari / Namib.
    Region {
        lat: -24.0,
        lon: 18.0,
        s_lat: 7.0,
        s_lon: 10.0,
        amp: -18.0,
    },
    // Dry: central Asia.
    Region {
        lat: 42.0,
        lon: 65.0,
        s_lat: 9.0,
        s_lon: 20.0,
        amp: -15.0,
    },
    // Dry: US southwest / Mexico interior.
    Region {
        lat: 32.0,
        lon: -110.0,
        s_lat: 7.0,
        s_lon: 12.0,
        amp: -15.0,
    },
];

fn gauss(x: f64, mu: f64, sigma: f64) -> f64 {
    let t = (x - mu) / sigma;
    (-t * t).exp()
}

/// Shortest longitude difference in degrees, in [-180, 180].
fn dlon_deg(a: f64, b: f64) -> f64 {
    let mut d = a - b;
    while d > 180.0 {
        d -= 360.0;
    }
    while d < -180.0 {
        d += 360.0;
    }
    d
}

/// The synthetic climatology. Cheap to copy; all methods are pure.
#[derive(Debug, Clone, Copy, Default)]
pub struct Climatology {
    _priv: (),
}

/// The climatology's four fields at one site (see [`Climatology::at`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiteClimate {
    /// [`Climatology::rain_rate_001`], mm/h.
    pub rain_rate_001: f64,
    /// [`Climatology::vapour_density`], g/m³.
    pub vapour_density: f64,
    /// [`Climatology::n_wet`], ppm.
    pub n_wet: f64,
    /// [`Climatology::cloud_water`], kg/m².
    pub cloud_water: f64,
}

/// Surface water-vapour density at latitude `lat` (degrees) where the
/// rain field reads `rain`.
fn vapour_density(lat: f64, rain: f64) -> f64 {
    // Humidity loosely tracks the rain field's zonal structure.
    let base = 4.0 + 18.0 * gauss(lat, 2.0, 24.0);
    // More vapour where it rains more (weak coupling).
    (base + 0.04 * rain).clamp(1.0, 30.0)
}

/// Wet refractivity where the vapour density is `vapour`.
fn n_wet(vapour: f64) -> f64 {
    // N_wet is roughly proportional to vapour pressure; reuse the
    // vapour field with the conventional ~5.4 ppm per g/m³ slope.
    (vapour * 5.4).clamp(10.0, 160.0)
}

/// Columnar cloud water at latitude `lat` (degrees) where the rain field
/// reads `rain`.
fn cloud_water(lat: f64, rain: f64) -> f64 {
    let base = 0.12 + 0.5 * gauss(lat, 4.0, 18.0) + 0.15 * gauss(lat.abs(), 48.0, 12.0);
    (base + 0.004 * rain).clamp(0.05, 1.6)
}

impl Climatology {
    /// The standard synthetic climatology used across the workspace.
    pub fn synthetic() -> Self {
        Self { _priv: () }
    }

    /// Rain rate (mm/h) exceeded 0.01 % of an average year at the site —
    /// the `R₀.₀₁` input of the P.618 rain model. Ranges ~5 (poles,
    /// deserts) to ~130 (deep tropics).
    pub fn rain_rate_001(&self, site: GeoPoint) -> f64 {
        let lat = site.lat_deg();
        let lon = site.lon_deg();
        // Zonal structure: ITCZ peak at 6°N, secondary SH tropics peak,
        // mid-latitude storm tracks, dry subtropics in between.
        let mut r = 12.0
            + 75.0 * gauss(lat, 6.0, 11.0)
            + 35.0 * gauss(lat, -10.0, 12.0)
            + 18.0 * gauss(lat, 45.0, 13.0)
            + 16.0 * gauss(lat, -45.0, 13.0)
            - 6.0 * gauss(lat, 25.0, 8.0)
            - 6.0 * gauss(lat, -25.0, 8.0)
            - 8.0 * gauss(lat.abs(), 90.0, 25.0);
        for reg in REGIONS {
            r += reg.amp
                * gauss(lat, reg.lat, reg.s_lat)
                * gauss(dlon_deg(lon, reg.lon), 0.0, reg.s_lon);
        }
        r.clamp(4.0, 140.0)
    }

    /// Surface water-vapour density, g/m³ (P.676 input).
    pub fn vapour_density(&self, site: GeoPoint) -> f64 {
        vapour_density(site.lat_deg(), self.rain_rate_001(site))
    }

    /// Wet term of the surface refractivity, ppm (scintillation input).
    pub fn n_wet(&self, site: GeoPoint) -> f64 {
        n_wet(self.vapour_density(site))
    }

    /// Columnar liquid cloud water exceeded ~0.5 % of the time, kg/m²
    /// (P.840 input).
    pub fn cloud_water(&self, site: GeoPoint) -> f64 {
        cloud_water(site.lat_deg(), self.rain_rate_001(site))
    }

    /// All four fields at `site`, from one evaluation of the rain field
    /// (about 40 `exp` calls): the same bits the four methods give, each
    /// of which evaluates it again.
    pub fn at(&self, site: GeoPoint) -> SiteClimate {
        let lat = site.lat_deg();
        let rain = self.rain_rate_001(site);
        let vapour = vapour_density(lat, rain);
        SiteClimate {
            rain_rate_001: rain,
            vapour_density: vapour,
            n_wet: n_wet(vapour),
            cloud_water: cloud_water(lat, rain),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::from_degrees(lat, lon)
    }

    #[test]
    fn tropics_much_wetter_than_mid_latitudes() {
        let singapore = Climatology::synthetic().rain_rate_001(p(1.35, 103.8));
        let zurich = Climatology::synthetic().rain_rate_001(p(47.4, 8.5));
        assert!(
            singapore > 2.0 * zurich,
            "Singapore {singapore} vs Zurich {zurich}"
        );
        assert!(singapore > 80.0, "deep tropics R001: {singapore}");
        assert!(zurich > 15.0 && zurich < 50.0, "Zurich R001: {zurich}");
    }

    #[test]
    fn deserts_are_dry() {
        let c = Climatology::synthetic();
        let sahara = c.rain_rate_001(p(23.0, 10.0));
        let delhi = c.rain_rate_001(p(28.6, 77.2));
        assert!(sahara < 20.0, "Sahara: {sahara}");
        assert!(delhi > sahara, "monsoon Delhi ({delhi}) wetter than Sahara");
    }

    #[test]
    fn poles_are_dry() {
        let c = Climatology::synthetic();
        assert!(c.rain_rate_001(p(85.0, 0.0)) < 15.0);
        assert!(c.rain_rate_001(p(-85.0, 120.0)) < 15.0);
    }

    #[test]
    fn fields_in_physical_ranges() {
        let c = Climatology::synthetic();
        for lat in (-90..=90).step_by(10) {
            for lon in (-180..180).step_by(20) {
                let site = p(lat as f64, lon as f64);
                let r = c.rain_rate_001(site);
                assert!((4.0..=140.0).contains(&r));
                let v = c.vapour_density(site);
                assert!((1.0..=30.0).contains(&v));
                let n = c.n_wet(site);
                assert!((10.0..=160.0).contains(&n));
                let w = c.cloud_water(site);
                assert!((0.05..=1.6).contains(&w));
            }
        }
    }

    #[test]
    fn one_evaluation_gives_every_field_bit_for_bit() {
        let c = Climatology::synthetic();
        for lat in (-90..=90).step_by(7) {
            for lon in (-180..180).step_by(13) {
                let site = p(lat as f64, lon as f64);
                let at = c.at(site);
                let each = [
                    c.rain_rate_001(site),
                    c.vapour_density(site),
                    c.n_wet(site),
                    c.cloud_water(site),
                ];
                let got = [
                    at.rain_rate_001,
                    at.vapour_density,
                    at.n_wet,
                    at.cloud_water,
                ];
                assert_eq!(
                    got.map(f64::to_bits),
                    each.map(f64::to_bits),
                    "{lat}, {lon}"
                );
            }
        }
    }

    #[test]
    fn humidity_tracks_latitude() {
        let c = Climatology::synthetic();
        assert!(c.vapour_density(p(0.0, -60.0)) > c.vapour_density(p(60.0, -60.0)));
        assert!(c.n_wet(p(5.0, 100.0)) > c.n_wet(p(55.0, 10.0)));
    }

    #[test]
    fn longitude_wrap_is_smooth() {
        let c = Climatology::synthetic();
        let a = c.rain_rate_001(p(0.0, 179.9));
        let b = c.rain_rate_001(p(0.0, -179.9));
        assert!(
            (a - b).abs() < 1.0,
            "discontinuity at date line: {a} vs {b}"
        );
    }
}
