//! Deterministic stochastic weather: attenuation time series whose
//! marginal distribution matches the analytic exceedance curve.
//!
//! The ITU model is statistical — it answers "what attenuation is exceeded
//! p% of the time", not "what is the attenuation *now*". For experiments
//! that need a concrete weather realization over a simulated day (failure
//! injection, animated path studies), [`WeatherProcess`] synthesizes one:
//!
//! * each site gets an hour-scale correlated standard-Gaussian process
//!   `x(t)` built from seeded counter-based hashing (stateless, so any
//!   `(site, t)` can be evaluated independently and reproducibly);
//! * `x(t)` maps through the Gaussian CDF to an exceedance percentile
//!   `p(t)`, and the attenuation *now* is the analytic `A(p(t))`.
//!
//! By construction the fraction of time `A(t) ≥ A(p)` is `p` — the
//! realized series honors the climatological exceedance curve.

use crate::model::{AttenuationModel, SlantPath};
use leo_geo::GeoPoint;
use leo_util::rng::mix64;

/// A deterministic, seeded weather realization.
#[derive(Debug, Clone, Copy)]
pub struct WeatherProcess {
    seed: u64,
    /// Temporal correlation scale, seconds (weather decorrelates over a
    /// few hours).
    pub correlation_s: f64,
}

impl WeatherProcess {
    /// Create a process with the given seed and a 3-hour correlation time.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            correlation_s: 3.0 * 3600.0,
        }
    }

    /// Standard Gaussian from a hash key (Box-Muller on two mixed
    /// uniforms). The mixer is `leo_util::rng::mix64` — the same
    /// SplitMix64 finalizer this module carried privately before the
    /// hermetic refactor, so seeded weather streams are unchanged.
    fn gaussian(&self, key: u64) -> f64 {
        let a = mix64(self.seed ^ key);
        let b = mix64(a ^ 0xD6E8_FEB8_6659_FD93);
        let u1 = ((a >> 11) as f64 + 1.0) / (1u64 << 53) as f64; // (0, 1]
        let u2 = (b >> 11) as f64 / (1u64 << 53) as f64;
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Site key: quantized to ~0.01° so nearby queries share weather.
    fn site_key(site: GeoPoint) -> u64 {
        let lat = (site.lat_deg() * 100.0).round() as i64 as u64;
        let lon = (site.lon_deg() * 100.0).round() as i64 as u64;
        mix64(lat.wrapping_mul(0x9E37_79B9).wrapping_add(lon))
    }

    /// The correlated standard-Gaussian weather state of `site` at time
    /// `t_s`. Unit marginal variance is preserved across the
    /// interpolation by normalizing the blend weights.
    pub fn state(&self, site: GeoPoint, t_s: f64) -> f64 {
        let sk = Self::site_key(site);
        let u = t_s / self.correlation_s;
        let k = u.floor();
        let frac = u - k;
        let g0 = self.gaussian(sk ^ (k as i64 as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let g1 = self.gaussian(sk ^ ((k as i64 + 1) as u64).wrapping_mul(0xA24B_AED4_963E_E407));
        let (w0, w1) = (1.0 - frac, frac);
        let norm = (w0 * w0 + w1 * w1).sqrt();
        (w0 * g0 + w1 * g1) / norm
    }

    /// Exceedance percentile of the current weather at `site`: the
    /// fraction of time (in percent) with weather at least this bad.
    /// Uniform on (0, 100) by construction.
    pub fn exceedance_percent(&self, site: GeoPoint, t_s: f64) -> f64 {
        let x = self.state(site, t_s);
        // p = 100 · (1 − Φ(x)): large x = rare bad weather = small p.
        100.0 * 0.5 * erfc(x / std::f64::consts::SQRT_2)
    }

    /// Realized attenuation (dB) on a slant path at time `t_s`.
    ///
    /// For the 5 % of time with "bad" weather the analytic curve
    /// `A(p ∈ [0.001, 5])` is evaluated at the current exceedance
    /// percentile. For the remaining mild weather (p > 5 %) the non-gas
    /// part decays smoothly towards the gaseous clear-sky floor, keeping
    /// the series continuous and monotone in weather severity.
    pub fn attenuation_db(&self, model: &AttenuationModel, path: &SlantPath, t_s: f64) -> f64 {
        let p = self.exceedance_percent(path.site, t_s);
        let climate = model.climatology().at(path.site);
        if p <= 5.0 {
            model.total_db_in(&climate, path, p.max(0.001))
        } else {
            let gas = model.clear_sky_db_in(&climate, path);
            let a5 = model.total_db_in(&climate, path, 5.0);
            gas + (a5 - gas).max(0.0) * (5.0 / p).powf(1.5)
        }
    }
}

/// Complementary error function (Abramowitz & Stegun 7.1.26 rational
/// approximation, |error| ≤ 1.5e-7 — ample for percentile mapping).
fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * ax);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let e = poly * (-ax * ax).exp();
    if x >= 0.0 {
        e
    } else {
        2.0 - e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Climatology;
    use leo_geo::deg_to_rad;

    fn path() -> SlantPath {
        SlantPath {
            site: GeoPoint::from_degrees(1.35, 103.8),
            elevation_rad: deg_to_rad(40.0),
            frequency_ghz: 14.25,
        }
    }

    #[test]
    fn deterministic() {
        let w = WeatherProcess::new(42);
        let a = w.state(path().site, 1234.5);
        let b = w.state(path().site, 1234.5);
        assert_eq!(a, b);
        let w2 = WeatherProcess::new(43);
        assert_ne!(a, w2.state(path().site, 1234.5));
    }

    #[test]
    fn marginal_is_roughly_standard_gaussian() {
        let w = WeatherProcess::new(7);
        let site = GeoPoint::from_degrees(40.0, -74.0);
        let n = 20_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for i in 0..n {
            // Sample at decorrelated times.
            let x = w.state(site, i as f64 * w.correlation_s * 1.37);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn exceedance_is_uniform() {
        let w = WeatherProcess::new(11);
        let site = GeoPoint::from_degrees(-23.0, -46.0);
        let n = 10_000;
        let mut below_10 = 0;
        let mut below_50 = 0;
        for i in 0..n {
            let p = w.exceedance_percent(site, i as f64 * w.correlation_s * 2.11);
            assert!(p > 0.0 && p < 100.0);
            if p < 10.0 {
                below_10 += 1;
            }
            if p < 50.0 {
                below_50 += 1;
            }
        }
        assert!((below_10 as f64 / n as f64 - 0.10).abs() < 0.02);
        assert!((below_50 as f64 / n as f64 - 0.50).abs() < 0.03);
    }

    #[test]
    fn realized_series_honors_exceedance_curve() {
        let model = AttenuationModel::new(Climatology::synthetic());
        let w = WeatherProcess::new(3);
        let p = path();
        let threshold = model.total_attenuation_db(&p, 1.0); // exceeded 1% of time
        let n = 30_000;
        let mut exceed = 0;
        for i in 0..n {
            let a = w.attenuation_db(&model, &p, i as f64 * w.correlation_s * 1.93);
            if a >= threshold - 1e-9 {
                exceed += 1;
            }
        }
        let frac = exceed as f64 / n as f64 * 100.0;
        assert!(
            (frac - 1.0).abs() < 0.4,
            "A(1%) should be exceeded ~1% of the time, got {frac}%"
        );
    }

    #[test]
    fn temporally_correlated() {
        let w = WeatherProcess::new(5);
        let site = GeoPoint::from_degrees(10.0, 10.0);
        // Samples 1 minute apart are nearly identical; samples 10 τ apart
        // are not.
        let a = w.state(site, 0.0);
        let b = w.state(site, 60.0);
        assert!((a - b).abs() < 0.3, "1-minute delta too large: {a} vs {b}");
    }

    #[test]
    fn nearby_sites_share_weather_distant_do_not() {
        let w = WeatherProcess::new(5);
        let a = w.state(GeoPoint::from_degrees(10.0, 10.0), 500.0);
        let same = w.state(GeoPoint::from_degrees(10.001, 10.001), 500.0);
        assert_eq!(a, same, "sub-0.01° sites quantize together");
    }

    #[test]
    fn erfc_reference_values() {
        assert!((erfc(0.0) - 1.0).abs() < 1e-7);
        assert!((erfc(1.0) - 0.157299).abs() < 1e-5);
        assert!((erfc(-1.0) - 1.842701).abs() < 1e-5);
        assert!(erfc(5.0) < 1e-10);
    }
}
