//! # leo-atmo — atmospheric attenuation for slant radio paths
//!
//! A self-contained Rust implementation of the ITU-R recommendation family
//! the paper applies through ITU-Rpy (§6): attenuation of
//! ground↔satellite radio links due to
//!
//! * **rain** — specific attenuation `γ_R = k·R^α` with the P.838-style
//!   frequency-dependent coefficients, slant-path effective length and
//!   exceedance-probability scaling in the style of P.618;
//! * **atmospheric gases** — oxygen and water-vapour absorption in the
//!   style of the P.676 approximate method;
//! * **clouds** — Rayleigh absorption by suspended liquid water with a
//!   double-Debye water permittivity (P.840 style);
//! * **tropospheric scintillation** — the P.618 §2.4 statistical model.
//!
//! The components combine per the P.618 total-attenuation rule
//! `A(p) = A_gas + sqrt((A_rain(p) + A_cloud(p))² + A_scint(p)²)`.
//!
//! Free-space path loss is deliberately **not** modelled, matching the
//! paper: link budgets are assumed to handle geometry; the question is how
//! much *weather* bites on top.
//!
//! ## Climatology substitution
//!
//! The real ITU digital climate maps are replaced by a synthetic
//! climatology ([`Climatology`]) with the structure the experiments need:
//! an ITCZ-peaked rain-rate field with monsoon/tropical hot-spots and dry
//! subtropical belts, plus matching water-vapour and wet-refractivity
//! fields. See DESIGN.md for the substitution rationale.
//!
//! ```
//! use leo_atmo::{AttenuationModel, Climatology, SlantPath};
//! use leo_geo::{deg_to_rad, GeoPoint};
//!
//! let model = AttenuationModel::new(Climatology::synthetic());
//! let path = SlantPath {
//!     site: GeoPoint::from_degrees(28.6, 77.2), // Delhi
//!     elevation_rad: deg_to_rad(40.0),
//!     frequency_ghz: 14.25,
//! };
//! let a_light = model.total_attenuation_db(&path, 1.0);   // exceeded 1% of time
//! let a_heavy = model.total_attenuation_db(&path, 0.01);  // exceeded 0.01%
//! assert!(a_heavy > a_light);
//! ```

mod climatology;
mod cloud;
mod gas;
pub mod linkbudget;
mod model;
mod rain;
mod scintillation;
mod stochastic;

pub use climatology::{Climatology, SiteClimate};
pub use cloud::{cloud_attenuation_db, liquid_water_specific_coefficient};
pub use gas::gaseous_attenuation_db;
pub use linkbudget::{free_space_path_loss_db, modcod_ladder, LinkBudget, ModCod};
pub use model::{AttenuationModel, SlantPath};
pub use rain::{rain_attenuation_db, rain_coefficients, RainCoefficients};
pub use scintillation::scintillation_db;
pub use stochastic::WeatherProcess;
