//! The five workloads: their inputs, the real driver each one times, and
//! the output digest every repetition is checked against.

use leo_core::experiments::latency::{latency_studies, PairStats};
use leo_core::experiments::throughput::{
    disconnected_satellite_fraction, throughput, ThroughputResult,
};
use leo_core::experiments::weather::{weather_study, WeatherStudy};
use leo_core::{ConstellationKind, ExperimentScale, Mode, StudyConfig, StudyContext};
use leo_util::telemetry::fnv1a_64;

/// One benchmark workload. Each exists to make a different layer
/// dominate (see `README.md` next to this file).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 2 at paper cadence: early-exit `run_multi` dominates.
    LatencyDay,
    /// Fig. 2 driver at 1 s cadence: the only user of the SPT pool.
    LatencyBurst,
    /// Fig. 4: k-edge-disjoint routing plus the max-min solve.
    ThroughputSnapshot,
    /// Fig. 6: full paths plus the attenuation model.
    WeatherDay,
    /// §5 disconnected-satellite share at paper scale: snapshot-bound.
    CoverageDay,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const ALL: [Workload; 5] = [
    Workload::LatencyDay,
    Workload::LatencyBurst,
    Workload::ThroughputSnapshot,
    Workload::WeatherDay,
    Workload::CoverageDay,
];

/// Output digest of each workload's driver at seed 42 — the one place
/// correct outputs are pinned. A change that moves one of these changes
/// a figure's numbers, which no performance change may do.
pub const PINNED_SEED: u64 = 42;
const PINNED: [(Workload, u64); 5] = [
    (Workload::LatencyDay, 0x1f12_eefe_8881_6e20),
    (Workload::LatencyBurst, 0x7c8d_1c4e_0cf3_7bf7),
    (Workload::ThroughputSnapshot, 0x95c6_6850_eb04_78a9),
    (Workload::WeatherDay, 0xa6d6_9ded_f30c_9a8a),
    (Workload::CoverageDay, 0x6b06_6160_7320_f791),
];

/// The fig. 2 modes.
pub const LATENCY_MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];
/// The fig. 4 constellations and (mode, k) combinations.
const THROUGHPUT_KINDS: [ConstellationKind; 2] =
    [ConstellationKind::Starlink, ConstellationKind::Kuiper];
pub const THROUGHPUT_COMBOS: [(Mode, usize); 4] = [
    (Mode::BpOnly, 1),
    (Mode::BpOnly, 4),
    (Mode::Hybrid, 1),
    (Mode::Hybrid, 4),
];

/// Input size: `Full` is what the benchmark measures; `Tiny` keeps the
/// same shape at unit-test size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// `n` snapshot times `dt_s` apart, starting `seed mod 900` seconds into
/// the day.
///
/// This is all a seed changes, besides the weather seed: the city set
/// and traffic matrix stay each scale's own (seed 42) sample. Sampling
/// them per seed would change the amount of work itself — the paper's
/// 1,000 cities extend the real list with a seeded synthetic tail that
/// the relay grid follows (±15% work), and the number of distinct
/// source cities sets Dijkstra runs and the SPT pool's size (±10% peak
/// RSS) — so runs with different seeds would not be comparable.
fn snapshot_times(seed: u64, n: usize, dt_s: f64) -> Vec<f64> {
    let t0_s = (seed % 900) as f64;
    (0..n).map(|i| t0_s + i as f64 * dt_s).collect()
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::LatencyDay => "latency_day",
            Workload::LatencyBurst => "latency_burst",
            Workload::ThroughputSnapshot => "throughput_snapshot",
            Workload::WeatherDay => "weather_day",
            Workload::CoverageDay => "coverage_day",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The digest pinned for [`PINNED_SEED`].
    pub fn pinned_digest(self) -> u64 {
        PINNED
            .iter()
            .find(|(w, _)| *w == self)
            .map(|&(_, d)| d)
            .expect("every workload has a pinned digest")
    }

    /// The study configurations this workload builds contexts from (two
    /// for fig. 4's constellations, one otherwise).
    ///
    /// fig. 4 is a single instant, `snapshot_times_s[0]`.
    pub fn configs(self, seed: u64, size: Size) -> Vec<StudyConfig> {
        let tiny = size == Size::Tiny;
        let scale = |full: ExperimentScale| {
            if tiny {
                ExperimentScale::Tiny.config()
            } else {
                full.config()
            }
        };
        // fig2_latency's geography: the bench scale with every real city
        // the named-pair figures need.
        let fig2 = |pairs: usize, times: Vec<f64>| {
            let mut cfg = scale(ExperimentScale::Bench);
            if !tiny {
                cfg.num_cities = 340;
                cfg.num_pairs = pairs;
            }
            cfg.snapshot_times_s = times;
            cfg
        };
        match self {
            Workload::LatencyDay | Workload::WeatherDay => {
                vec![fig2(
                    500,
                    snapshot_times(seed, if tiny { 4 } else { 16 }, 900.0),
                )]
            }
            Workload::LatencyBurst => {
                vec![fig2(
                    100,
                    snapshot_times(seed, if tiny { 6 } else { 45 }, 1.0),
                )]
            }
            Workload::ThroughputSnapshot => THROUGHPUT_KINDS
                .iter()
                .map(|&kind| {
                    let mut cfg = scale(ExperimentScale::Bench);
                    cfg.constellation = kind;
                    cfg.snapshot_times_s = snapshot_times(seed, 1, 0.0);
                    cfg
                })
                .collect(),
            Workload::CoverageDay => {
                let mut cfg = scale(ExperimentScale::Paper);
                cfg.snapshot_times_s = snapshot_times(seed, if tiny { 4 } else { 96 }, 900.0);
                vec![cfg]
            }
        }
    }

    /// Run the real driver once on contexts built from
    /// [`Workload::configs`]; `seed` is also the weather seed.
    pub fn run_driver(self, ctxs: &[StudyContext], seed: u64) -> Output {
        let ctx = &ctxs[0];
        match self {
            Workload::LatencyDay | Workload::LatencyBurst => {
                Output::Latency(latency_studies(ctx, &LATENCY_MODES, 0))
            }
            Workload::ThroughputSnapshot => Output::Throughput(
                ctxs.iter()
                    .flat_map(|ctx| {
                        let t_s = ctx.config.snapshot_times_s[0];
                        THROUGHPUT_COMBOS
                            .iter()
                            .map(move |&(mode, k)| throughput(ctx, t_s, mode, k))
                    })
                    .collect(),
            ),
            Workload::WeatherDay => Output::Weather(weather_study(ctx, seed, 0)),
            Workload::CoverageDay => {
                Output::Coverage(disconnected_satellite_fraction(ctx, Mode::BpOnly, 0))
            }
        }
    }
}

/// What a workload's driver returns.
pub enum Output {
    /// Per-mode pair statistics.
    Latency(Vec<Vec<PairStats>>),
    /// One result per (constellation, combo).
    Throughput(Vec<ThroughputResult>),
    Weather(WeatherStudy),
    /// Disconnected fraction per snapshot.
    Coverage(Vec<f64>),
}

impl Output {
    /// FNV-1a digest of every output number's exact bits, so any change
    /// to any of them changes the digest:
    /// * latency — PairStats min/max bits and counts, per mode;
    /// * throughput — Gbps bits, routed pairs and flows;
    /// * weather — per-pair dB bits, BP then ISL;
    /// * coverage — per-snapshot disconnected-fraction bits.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::default();
        match self {
            Output::Latency(studies) => {
                for s in studies.iter().flatten() {
                    d.u64(u64::from(s.pair.src) << 32 | u64::from(s.pair.dst));
                    d.opt_f64(s.min_rtt_ms);
                    d.opt_f64(s.max_rtt_ms);
                    d.u64(s.reachable as u64);
                    d.u64(s.total as u64);
                }
            }
            Output::Throughput(results) => {
                for r in results {
                    d.f64(r.aggregate_gbps);
                    d.u64(r.routed_pairs as u64);
                    d.u64(r.flows as u64);
                }
            }
            Output::Weather(w) => {
                for &v in w.bp_db.iter().chain(&w.isl_db) {
                    d.f64(v);
                }
            }
            Output::Coverage(fractions) => {
                for &f in fractions {
                    d.f64(f);
                }
            }
        }
        fnv1a_64(&d.0)
    }
}

/// Byte sink for output digests.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u64(1);
                self.f64(x);
            }
            None => self.u64(0),
        }
    }
}
