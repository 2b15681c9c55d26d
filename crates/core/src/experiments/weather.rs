//! Resilience to weather (paper §6, Figs. 6–8).
//!
//! Per the paper's model: attenuation applies only to the radio
//! GT↔satellite hops (lasers fly above the weather); BP paths suffer the
//! **worst** attenuation across every up/down hop of the zig-zag, while
//! ISL paths suffer only the worse of their first and last hops. Signal
//! regeneration at each GT is assumed (so attenuations don't multiply
//! along the path), and free-space path loss is excluded by design.

use crate::metrics::{Distribution, TailQuantile};
use crate::snapshot::{EdgeKind, Mode, NetworkSnapshot, StudyContext};
use leo_atmo::{AttenuationModel, Climatology, SlantPath, WeatherProcess};
use leo_graph::{with_thread_workspace, Path};
use leo_util::span;
use leo_util::telemetry::{Heartbeat, MetricSeries};

/// Attenuation of one link of a path at a point in time / exceedance.
fn link_attenuation_db(
    snap: &NetworkSnapshot,
    path: &Path,
    hop: usize,
    model: &AttenuationModel,
    mode: AttenMode,
    uplink_ghz: f64,
    downlink_ghz: f64,
) -> Option<f64> {
    let e = path.edges[hop];
    let EdgeKind::UpDown {
        ground,
        elevation_rad,
    } = snap.edges.kind(e)
    else {
        return None; // laser ISLs are weather-immune
    };
    // Direction: if the path enters the edge at the ground node, this hop
    // transmits up; otherwise down.
    let from = path.nodes[hop];
    let freq = if from == ground {
        uplink_ghz
    } else {
        downlink_ghz
    };
    #[expect(
        clippy::expect_used,
        reason = "UpDown edges reference a ground node with a position by snapshot construction"
    )]
    let site = snap
        .ground_position(ground)
        .expect("ground node has position");
    let slant = SlantPath {
        site,
        elevation_rad,
        frequency_ghz: freq,
    };
    Some(match mode {
        AttenMode::Exceedance(p) => model.total_attenuation_db(&slant, p),
        AttenMode::Realized(w, t) => w.attenuation_db(model, &slant, t),
    })
}

/// How to evaluate attenuation.
#[derive(Debug, Clone, Copy)]
enum AttenMode {
    /// Analytic value exceeded `p` percent of the time.
    Exceedance(f64),
    /// Realized stochastic weather at time `t`.
    Realized(WeatherProcess, f64),
}

fn worst_link_db(
    snap: &NetworkSnapshot,
    path: &Path,
    model: &AttenuationModel,
    mode: AttenMode,
    up: f64,
    down: f64,
) -> f64 {
    let mut worst = 0.0f64;
    for hop in 0..path.edges.len() {
        if let Some(a) = link_attenuation_db(snap, path, hop, model, mode, up, down) {
            worst = worst.max(a);
        }
    }
    worst
}

/// Fig. 6 output: per-pair 99.5th-percentile worst-link attenuation for
/// BP and ISL connectivity.
#[derive(Debug, Clone)]
pub struct WeatherStudy {
    /// Per-pair values, BP paths, dB (NaN where never reachable).
    pub bp_db: Vec<f64>,
    /// Per-pair values, ISL paths, dB.
    pub isl_db: Vec<f64>,
}

impl WeatherStudy {
    /// Median of the BP distribution, dB.
    pub fn bp_median(&self) -> f64 {
        Distribution::from_samples(&self.bp_db).median()
    }

    /// Median of the ISL distribution, dB.
    pub fn isl_median(&self) -> f64 {
        Distribution::from_samples(&self.isl_db).median()
    }
}

/// Run the Fig. 6 study: for every pair and snapshot, route under BP and
/// ISL-only connectivity, evaluate realized worst-link attenuation under
/// the stochastic weather process, then take the 99.5th percentile across
/// time per pair.
///
/// **Streaming**: rather than materialising a `snapshots × pairs` matrix
/// and sorting each pair's column at the end, the sweep folds every
/// sample into a per-pair [`TailQuantile`] (exact upper-tail keeper whose
/// `value()` reproduces [`Distribution::percentile`] bit-for-bit and
/// whose merge is split-invariant, so chunked parallel sweeps give the
/// same answer as a sequential pass). Memory is O(pairs), not
/// O(snapshots × pairs). Each snapshot also emits `atten_db_bp` /
/// `atten_db_isl` `series` telemetry events and ticks a `weather_study`
/// [`Heartbeat`].
pub fn weather_study(ctx: &StudyContext, weather_seed: u64, threads: usize) -> WeatherStudy {
    let _span = span!(
        "weather_study",
        weather_seed = weather_seed,
        snapshots = ctx.config.snapshot_times_s.len(),
        pairs = ctx.pairs.len(),
    );
    let model = AttenuationModel::new(Climatology::synthetic());
    let weather = WeatherProcess::new(weather_seed);
    let up = ctx.config.network.uplink_ghz;
    let down = ctx.config.network.downlink_ghz;
    let times = ctx.config.snapshot_times_s.clone();
    let num_pairs = ctx.pairs.len();
    let num_times = times.len();
    let hb = Heartbeat::new("weather_study", num_times as u64);

    let modes = [Mode::BpOnly, Mode::IslOnly];
    const SERIES_NAMES: [&str; 2] = ["atten_db_bp", "atten_db_isl"];

    /// Per-pair tail trackers and telemetry series for one mode.
    struct ModeAgg {
        tails: Vec<TailQuantile>,
        series: MetricSeries,
    }
    struct Acc {
        modes: Vec<ModeAgg>,
    }

    let acc = ctx.sweep_fold(
        &times,
        &modes,
        threads,
        || Acc {
            modes: SERIES_NAMES
                .iter()
                .map(|&name| ModeAgg {
                    tails: (0..num_pairs)
                        .map(|_| TailQuantile::new(99.5, num_times))
                        .collect(),
                    series: MetricSeries::new(name),
                })
                .collect(),
        },
        |acc, ti, snaps| {
            let t = times[ti];
            let mut targets = Vec::new();
            with_thread_workspace(|ws| {
                for (agg, snap) in acc.modes.iter_mut().zip(snaps.iter()) {
                    // One early-exit Dijkstra per unique source city, on warm
                    // buffers.
                    for (src, idxs) in ctx.pairs_by_src() {
                        targets.clear();
                        targets.extend(
                            idxs.iter()
                                .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
                        );
                        let view = ws.run_multi(
                            &snap.graph,
                            snap.city_node(*src as usize),
                            None,
                            &targets,
                        );
                        for &i in idxs {
                            let dst = snap.city_node(ctx.pairs[i].dst as usize);
                            if let Some(path) = view.extract_path(dst) {
                                let db = worst_link_db(
                                    snap,
                                    &path,
                                    &model,
                                    AttenMode::Realized(weather, t),
                                    up,
                                    down,
                                );
                                agg.tails[i].record(db);
                                agg.series.record(db);
                            }
                        }
                    }
                    agg.series.snapshot_done(ti, snap.t_s);
                }
            });
            hb.tick(1);
        },
        |a, b| {
            for (am, bm) in a.modes.iter_mut().zip(&b.modes) {
                for (at, bt) in am.tails.iter_mut().zip(&bm.tails) {
                    at.merge(bt);
                }
                am.series.merge(&bm.series);
            }
        },
    );

    let bp_db = acc.modes[0].tails.iter().map(|t| t.value()).collect();
    let isl_db = acc.modes[1].tails.iter().map(|t| t.value()).collect();
    WeatherStudy { bp_db, isl_db }
}

/// Fig. 8 output: attenuation vs exceedance probability for one pair's BP
/// and ISL paths at a fixed snapshot.
#[derive(Debug, Clone)]
pub struct ExceedanceCurve {
    /// Exceedance percentages sampled.
    pub p_percent: Vec<f64>,
    /// Worst-link BP attenuation at each `p`, dB.
    pub bp_db: Vec<f64>,
    /// Worst-link ISL attenuation at each `p`, dB.
    pub isl_db: Vec<f64>,
}

/// Compute the Fig. 8 exceedance curves for a named pair (the paper uses
/// Delhi–Sydney) at snapshot time `t_s`.
///
/// Returns `None` if either mode has no path at that time.
pub fn exceedance_curve(
    ctx: &StudyContext,
    src_name: &str,
    dst_name: &str,
    t_s: f64,
) -> Option<ExceedanceCurve> {
    let _span = span!(
        "exceedance_curve",
        src = src_name,
        dst = dst_name,
        t_s = t_s
    );
    let model = AttenuationModel::new(Climatology::synthetic());
    let up = ctx.config.network.uplink_ghz;
    let down = ctx.config.network.downlink_ghz;
    let src = ctx.ground.city_index(src_name)?;
    let dst = ctx.ground.city_index(dst_name)?;
    let ps: Vec<f64> = vec![0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0];
    let mut curves: Vec<Vec<f64>> = Vec::new();
    for snap in ctx.snapshot_bundle(t_s, &[Mode::BpOnly, Mode::IslOnly]) {
        let path = with_thread_workspace(|ws| {
            ws.run(
                &snap.graph,
                snap.city_node(src),
                None,
                Some(snap.city_node(dst)),
            )
            .extract_path(snap.city_node(dst))
        })?;
        let vals: Vec<f64> = ps
            .iter()
            .map(|&p| worst_link_db(&snap, &path, &model, AttenMode::Exceedance(p), up, down))
            .collect();
        curves.push(vals);
    }
    let isl = curves.pop()?;
    let bp = curves.pop()?;
    Some(ExceedanceCurve {
        p_percent: ps,
        bp_db: bp,
        isl_db: isl,
    })
}

/// Fig. 7 support: a regional raster of the `p`-percent-exceeded total
/// attenuation (uplink frequency) for heat-map rendering. Returns rows of
/// `(lat, lon, attenuation_db)` on a `step`-degree grid.
pub fn attenuation_raster(
    ctx: &StudyContext,
    lat_range: (f64, f64),
    lon_range: (f64, f64),
    step_deg: f64,
    p_percent: f64,
) -> Vec<(f64, f64, f64)> {
    // lint: allow(panic-reachable) raster validation: a non-positive step would loop forever
    assert!(step_deg > 0.0);
    let _span = span!(
        "attenuation_raster",
        step_deg = step_deg,
        p_percent = p_percent
    );
    let model = AttenuationModel::new(Climatology::synthetic());
    let mut out = Vec::new();
    let mut lat = lat_range.0;
    while lat <= lat_range.1 {
        let mut lon = lon_range.0;
        while lon <= lon_range.1 {
            let slant = SlantPath {
                site: leo_geo::GeoPoint::from_degrees(lat, lon),
                elevation_rad: ctx
                    .constellation
                    .min_elevation_rad()
                    .max(leo_geo::deg_to_rad(40.0)),
                frequency_ghz: ctx.config.network.uplink_ghz,
            };
            out.push((lat, lon, model.total_attenuation_db(&slant, p_percent)));
            lon += step_deg;
        }
        lat += step_deg;
    }
    out
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
    fn weather_study_shapes() {
        let c = ctx();
        let w = weather_study(&c, 7, 2);
        assert_eq!(w.bp_db.len(), c.pairs.len());
        assert_eq!(w.isl_db.len(), c.pairs.len());
        // The paper's Fig. 6 claim: BP attenuation is higher in
        // distribution (median gap > 0 when both defined).
        let (bm, im) = (w.bp_median(), w.isl_median());
        if bm.is_finite() && im.is_finite() {
            assert!(bm >= im, "BP median {bm} dB vs ISL median {im} dB");
        }
    }

    #[test]
    fn exceedance_curve_monotone_and_ordered() {
        let mut cfg = ExperimentScale::Tiny.config();
        cfg.num_cities = 300; // ensure Delhi & Sydney present
        let c = StudyContext::build(cfg);
        let curve = exceedance_curve(&c, "Delhi", "Sydney", 0.0).expect("path exists");
        for w in curve.bp_db.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "BP curve must fall with p");
        }
        for w in curve.isl_db.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "ISL curve must fall with p");
        }
        // At every exceedance level, the BP worst link is at least as bad:
        // the BP path adds tropical intermediate hops (Fig. 7's story).
        let idx_1pct = curve
            .p_percent
            .iter()
            .position(|&p| p.to_bits() == 1.0f64.to_bits())
            .unwrap();
        assert!(
            curve.bp_db[idx_1pct] >= curve.isl_db[idx_1pct] - 1e-9,
            "BP {} dB vs ISL {} dB at 1%",
            curve.bp_db[idx_1pct],
            curve.isl_db[idx_1pct]
        );
    }

    #[test]
    fn raster_covers_grid() {
        let c = ctx();
        let r = attenuation_raster(&c, (0.0, 10.0), (60.0, 70.0), 5.0, 0.5);
        assert_eq!(r.len(), 9); // 3 lats × 3 lons
        for (_, _, a) in &r {
            assert!(*a > 0.0 && *a < 30.0);
        }
    }

    #[test]
    fn tropical_raster_hotter_than_temperate() {
        let c = ctx();
        let tropics = attenuation_raster(&c, (0.0, 10.0), (95.0, 115.0), 5.0, 0.5);
        let temperate = attenuation_raster(&c, (45.0, 55.0), (0.0, 20.0), 5.0, 0.5);
        let avg = |r: &[(f64, f64, f64)]| r.iter().map(|x| x.2).sum::<f64>() / r.len() as f64;
        assert!(avg(&tropics) > avg(&temperate));
    }
}
