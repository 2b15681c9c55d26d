//! Study configuration: constellation choice, capacities, frequencies,
//! and experiment scale presets.

use leo_orbit::{Constellation, Shell};
use leo_util::config::KvWriter;

/// Which constellation to study (paper §2: one shell each, per the FCC
/// filings of the first deployment phases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstellationKind {
    /// Starlink phase 1: 72×22 at 550 km, 53°, e = 25°.
    Starlink,
    /// Kuiper: 34×34 at 630 km, 51.9°, e = 30°.
    Kuiper,
    /// Starlink's 53° shell plus a 90° polar shell (for the cross-shell
    /// study of §8 / Fig. 10).
    StarlinkPlusPolar,
}

impl ConstellationKind {
    /// Instantiate the constellation.
    pub fn constellation(self) -> Constellation {
        match self {
            Self::Starlink => Constellation::starlink(),
            Self::Kuiper => Constellation::kuiper(),
            Self::StarlinkPlusPolar => {
                Constellation::new(vec![Shell::starlink_phase1(), Shell::polar_shell()], 25.0)
            }
        }
    }

    /// Shell altitude used for visibility query sizing (highest shell).
    pub fn max_altitude_m(self) -> f64 {
        match self {
            Self::Starlink => 550_000.0,
            Self::Kuiper => 630_000.0,
            Self::StarlinkPlusPolar => 560_000.0,
        }
    }

    /// Stable config-text name (see [`StudyConfig::to_kv_string`]).
    pub fn name(self) -> &'static str {
        match self {
            Self::Starlink => "starlink",
            Self::Kuiper => "kuiper",
            Self::StarlinkPlusPolar => "starlink_plus_polar",
        }
    }
}

/// Link-layer parameters (paper §2 and §5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkConfig {
    /// Capacity of each GT–satellite radio link, Gbps (paper: 20).
    pub gt_link_gbps: f64,
    /// Capacity of each laser ISL, Gbps (paper: 100).
    pub isl_gbps: f64,
    /// Uplink carrier frequency, GHz (paper: 14.25, Ku band).
    pub uplink_ghz: f64,
    /// Downlink carrier frequency, GHz (paper: 11.7).
    pub downlink_ghz: f64,
    /// Minimum clearance of an ISL chord above the surface, meters
    /// (paper §2: lasers must stay out of the lower ~80 km of atmosphere).
    pub isl_clearance_m: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        Self {
            gt_link_gbps: 20.0,
            isl_gbps: 100.0,
            uplink_ghz: 14.25,
            downlink_ghz: 11.7,
            isl_clearance_m: 80_000.0,
        }
    }
}

/// Full study configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// The constellation under study.
    pub constellation: ConstellationKind,
    /// Link parameters.
    pub network: NetworkConfig,
    /// How many cities serve as traffic endpoints (paper: 1,000).
    pub num_cities: usize,
    /// How many random city pairs form the traffic matrix (paper: 5,000).
    pub num_pairs: usize,
    /// Minimum geodesic separation of a pair, meters (paper: 2,000 km).
    pub min_pair_distance_m: f64,
    /// Spacing of the transit-relay grid, degrees (paper: 0.5°); `None`
    /// disables grid relays entirely.
    pub relay_grid_deg: Option<f64>,
    /// Maximum distance of a grid relay from the nearest city, meters
    /// (paper: 2,000 km).
    pub relay_radius_m: f64,
    /// Air-traffic density multiplier (1.0 = baseline corridor model).
    pub flight_density: f64,
    /// Snapshot times over the simulated day, seconds since epoch.
    pub snapshot_times_s: Vec<f64>,
    /// Master RNG seed (city tail, pair sampling).
    pub seed: u64,
}

impl StudyConfig {
    /// Evenly spaced snapshot times covering one day.
    pub fn day_snapshots(n: usize) -> Vec<f64> {
        // lint: allow(panic-reachable) config validation: zero snapshots would silently produce an empty study
        assert!(n > 0);
        (0..n).map(|i| 86_400.0 * i as f64 / n as f64).collect()
    }

    /// Serialize to the workspace's `key = value` config text
    /// (`leo_util::config` format): the canonical form whose FNV-1a hash
    /// names a run in manifests. Every float is written with
    /// shortest-exact formatting, so configs that differ in any field
    /// write different text.
    pub fn to_kv_string(&self) -> String {
        let mut w = KvWriter::new();
        w.section("study")
            .field("constellation", self.constellation.name())
            .field("num_cities", self.num_cities)
            .field("num_pairs", self.num_pairs)
            .field("min_pair_distance_m", self.min_pair_distance_m)
            .field_opt_f64("relay_grid_deg", self.relay_grid_deg)
            .field("relay_radius_m", self.relay_radius_m)
            .field("flight_density", self.flight_density)
            .field_f64_list("snapshot_times_s", &self.snapshot_times_s)
            .field("seed", self.seed);
        w.section("network")
            .field("gt_link_gbps", self.network.gt_link_gbps)
            .field("isl_gbps", self.network.isl_gbps)
            .field("uplink_ghz", self.network.uplink_ghz)
            .field("downlink_ghz", self.network.downlink_ghz)
            .field("isl_clearance_m", self.network.isl_clearance_m);
        w.finish()
    }
}

/// Canned configuration sizes, so tests, benches, and full paper runs
/// share one definition of "how big".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Seconds-fast: unit/integration tests.
    Tiny,
    /// Tens of seconds: criterion benches and CI.
    Bench,
    /// The paper's full setup: 1,000 cities, 5,000 pairs, 96 snapshots,
    /// 0.5° relay grid. Minutes to hours depending on experiment.
    Paper,
}

impl ExperimentScale {
    /// Materialize the scale into a Starlink study config.
    pub fn config(self) -> StudyConfig {
        match self {
            Self::Tiny => StudyConfig {
                constellation: ConstellationKind::Starlink,
                network: NetworkConfig::default(),
                num_cities: 60,
                num_pairs: 40,
                min_pair_distance_m: 2_000_000.0,
                relay_grid_deg: Some(5.0),
                relay_radius_m: 2_000_000.0,
                flight_density: 0.5,
                snapshot_times_s: StudyConfig::day_snapshots(2),
                seed: 42,
            },
            Self::Bench => StudyConfig {
                constellation: ConstellationKind::Starlink,
                network: NetworkConfig::default(),
                num_cities: 250,
                num_pairs: 500,
                min_pair_distance_m: 2_000_000.0,
                relay_grid_deg: Some(2.0),
                relay_radius_m: 2_000_000.0,
                flight_density: 1.0,
                snapshot_times_s: StudyConfig::day_snapshots(8),
                seed: 42,
            },
            Self::Paper => StudyConfig {
                constellation: ConstellationKind::Starlink,
                network: NetworkConfig::default(),
                num_cities: 1000,
                num_pairs: 5000,
                min_pair_distance_m: 2_000_000.0,
                relay_grid_deg: Some(0.5),
                relay_radius_m: 2_000_000.0,
                flight_density: 1.0,
                snapshot_times_s: StudyConfig::day_snapshots(96),
                seed: 42,
            },
        }
    }

    /// Parse from a CLI-ish string.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(Self::Tiny),
            "bench" => Some(Self::Bench),
            "paper" => Some(Self::Paper),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let n = NetworkConfig::default();
        assert_eq!(n.gt_link_gbps, 20.0);
        assert_eq!(n.isl_gbps, 100.0);
        assert_eq!(n.uplink_ghz, 14.25);
        assert_eq!(n.downlink_ghz, 11.7);
    }

    #[test]
    fn paper_scale_matches_paper() {
        let c = ExperimentScale::Paper.config();
        assert_eq!(c.num_cities, 1000);
        assert_eq!(c.num_pairs, 5000);
        assert_eq!(c.snapshot_times_s.len(), 96);
        assert_eq!(c.relay_grid_deg, Some(0.5));
        // 15-minute snapshot spacing.
        assert!((c.snapshot_times_s[1] - c.snapshot_times_s[0] - 900.0).abs() < 1e-9);
    }

    #[test]
    fn scales_ordered_by_size() {
        let t = ExperimentScale::Tiny.config();
        let b = ExperimentScale::Bench.config();
        let p = ExperimentScale::Paper.config();
        assert!(t.num_cities < b.num_cities && b.num_cities < p.num_cities);
        assert!(t.num_pairs < b.num_pairs && b.num_pairs < p.num_pairs);
    }

    #[test]
    fn parse_scale() {
        assert_eq!(
            ExperimentScale::parse("paper"),
            Some(ExperimentScale::Paper)
        );
        assert_eq!(ExperimentScale::parse("TINY"), Some(ExperimentScale::Tiny));
        assert_eq!(ExperimentScale::parse("nope"), None);
    }

    #[test]
    fn config_text_changes_with_every_field() {
        // The run hash is taken over this text, so a config that differs
        // in any one field must write different text.
        fn ulp(x: &mut f64) {
            *x = x.next_up();
        }
        type Edit = fn(&mut StudyConfig);
        let edits: [(&str, Edit); 17] = [
            ("kuiper", |c| c.constellation = ConstellationKind::Kuiper),
            ("polar", |c| {
                c.constellation = ConstellationKind::StarlinkPlusPolar;
            }),
            ("gt_link_gbps", |c| ulp(&mut c.network.gt_link_gbps)),
            ("isl_gbps", |c| ulp(&mut c.network.isl_gbps)),
            ("uplink_ghz", |c| ulp(&mut c.network.uplink_ghz)),
            ("downlink_ghz", |c| ulp(&mut c.network.downlink_ghz)),
            ("isl_clearance_m", |c| ulp(&mut c.network.isl_clearance_m)),
            ("num_cities", |c| c.num_cities += 1),
            ("num_pairs", |c| c.num_pairs += 1),
            ("min_pair_distance_m", |c| ulp(&mut c.min_pair_distance_m)),
            ("relay_grid_deg", |c| {
                c.relay_grid_deg.iter_mut().for_each(ulp)
            }),
            ("no relay grid", |c| c.relay_grid_deg = None),
            ("relay_radius_m", |c| ulp(&mut c.relay_radius_m)),
            ("flight_density", |c| ulp(&mut c.flight_density)),
            ("snapshot time", |c| {
                c.snapshot_times_s.iter_mut().for_each(ulp)
            }),
            ("snapshot count", |c| c.snapshot_times_s.truncate(1)),
            ("seed", |c| c.seed += 1),
        ];
        for scale in [
            ExperimentScale::Tiny,
            ExperimentScale::Bench,
            ExperimentScale::Paper,
        ] {
            let base = scale.config();
            let text = base.to_kv_string();
            for (field, edit) in edits {
                let mut cfg = base.clone();
                edit(&mut cfg);
                assert_ne!(
                    cfg.to_kv_string(),
                    text,
                    "{scale:?}: changing {field} alone left the config text unchanged"
                );
            }
        }
    }

    #[test]
    fn constellation_kinds_instantiate() {
        assert_eq!(
            ConstellationKind::Starlink.constellation().num_satellites(),
            1584
        );
        assert_eq!(
            ConstellationKind::Kuiper.constellation().num_satellites(),
            1156
        );
        assert_eq!(
            ConstellationKind::StarlinkPlusPolar
                .constellation()
                .num_satellites(),
            1584 + 720
        );
    }
}
