//! Weather-adjusted throughput: connecting §5 and §6.
//!
//! The paper evaluates throughput with fixed link capacities and weather
//! as a separate attenuation study. This extension closes the loop: each
//! GT–satellite link's capacity is degraded to what its realized
//! attenuation still supports through the DVB-S2 MODCOD ladder (ISLs are
//! weather-immune), and the max-min-fair throughput is recomputed. BP —
//! whose every hop is a radio link — should lose a larger share of its
//! throughput on a stormy day than the hybrid network, which only gets
//! wet at the first and last hop.

use crate::experiments::throughput::route_flows;
use crate::snapshot::{EdgeKind, Mode, StudyContext};
use leo_atmo::{AttenuationModel, Climatology, LinkBudget, SlantPath, WeatherProcess};
use leo_flow::FlowWorkspace;
use leo_util::span;
use leo_util::telemetry::MetricSeries;

/// Throughput under one weather realization.
#[derive(Debug, Clone, Copy)]
pub struct WeatheredThroughput {
    /// Aggregate max-min rate with clear-sky capacities, Gbps.
    pub clear_gbps: f64,
    /// Aggregate with weather-degraded GT-link capacities, Gbps.
    pub weathered_gbps: f64,
}

impl WeatheredThroughput {
    /// Fraction of clear-sky throughput surviving the weather.
    pub fn retention(&self) -> f64 {
        if self.clear_gbps <= 0.0 {
            0.0
        } else {
            self.weathered_gbps / self.clear_gbps
        }
    }
}

/// Evaluate clear-sky vs weather-degraded throughput at `t_s` with `k`
/// sub-flows per pair, under the given stochastic weather seed.
pub fn weathered_throughput(
    ctx: &StudyContext,
    t_s: f64,
    mode: Mode,
    k: usize,
    weather_seed: u64,
) -> WeatheredThroughput {
    let _span = span!(
        "weathered_throughput",
        t_s = t_s,
        mode = format!("{mode:?}"),
        k = k,
        weather_seed = weather_seed,
    );
    let snap = ctx.snapshot(t_s, mode);
    let model = AttenuationModel::new(Climatology::synthetic());
    let weather = WeatherProcess::new(weather_seed);
    let budget = LinkBudget::ku_user_terminal();
    // Reference efficiency: the best MODCOD rung — the clear-sky design
    // point of the 20 Gbps links.
    #[expect(
        clippy::unwrap_used,
        reason = "modcod_ladder is a non-empty static table"
    )]
    let best_eff = leo_atmo::modcod_ladder().last().unwrap().bits_per_hz;

    // Per-edge weather-degraded capacities. The per-GT-link MODCOD
    // retention (wet/clear capacity ratio) streams into a `series`
    // telemetry event so its distribution is visible in `leo-report`
    // without storing per-edge samples.
    let mut retention_series = MetricSeries::new("gt_link_weather_retention");
    let mut wet_caps = Vec::with_capacity(snap.edges.len());
    for (e, kind) in snap.edges.iter().enumerate() {
        let nominal = snap.edge_capacity_gbps(&ctx.config.network, e as u32);
        match kind {
            EdgeKind::Isl => wet_caps.push(nominal), // lasers fly above the weather
            EdgeKind::UpDown {
                ground,
                elevation_rad,
            } => {
                #[expect(
                    clippy::expect_used,
                    reason = "UpDown edges reference a ground node with a position by snapshot construction"
                )]
                let site = snap.ground_position(*ground).expect("ground position");
                let slant = SlantPath {
                    site,
                    elevation_rad: *elevation_rad,
                    frequency_ghz: ctx.config.network.downlink_ghz,
                };
                let a_db = weather.attenuation_db(&model, &slant, t_s);
                // Slant range from the stored delay weight.
                let distance = snap.graph.edge(e as u32).2 * leo_geo::SPEED_OF_LIGHT_M_S;
                let cn = budget.carrier_to_noise_db(distance, a_db);
                let eff = budget.modcod_efficiency(cn);
                let retention = (eff / best_eff).min(1.0);
                retention_series.record(retention);
                wet_caps.push(nominal * retention);
            }
        }
    }
    retention_series.snapshot_done(0, t_s);

    // Route once under the clear-sky capacities (paths don't react to
    // weather — the conservative model), then re-solve the same flows
    // under the wet ones on one warm workspace.
    let mut routed = route_flows(ctx, &snap, k, ctx.config.network.isl_gbps);
    let mut ws = FlowWorkspace::new();
    let clear_gbps = routed.sim.solve_with(&mut ws).aggregate;
    for (l, &c) in wet_caps.iter().enumerate() {
        routed.sim.set_link_capacity(l as u32, c);
    }
    WeatheredThroughput {
        clear_gbps,
        weathered_gbps: routed.sim.solve_with(&mut ws).aggregate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    fn ctx() -> StudyContext {
        StudyContext::build(ExperimentScale::Tiny.config())
    }

    #[test]
    fn weather_never_helps() {
        let c = ctx();
        for mode in [Mode::BpOnly, Mode::Hybrid] {
            let r = weathered_throughput(&c, 0.0, mode, 2, 11);
            assert!(
                r.weathered_gbps <= r.clear_gbps + 1e-6,
                "{mode:?}: wet {} > clear {}",
                r.weathered_gbps,
                r.clear_gbps
            );
            assert!(r.retention() > 0.0 && r.retention() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn bp_loses_more_than_hybrid() {
        // The extension's headline: BP's all-radio paths are more exposed
        // to weather than hybrid's two radio hops per path.
        let c = ctx();
        let bp = weathered_throughput(&c, 0.0, Mode::BpOnly, 2, 11);
        let hy = weathered_throughput(&c, 0.0, Mode::Hybrid, 2, 11);
        assert!(
            bp.retention() <= hy.retention() + 0.02,
            "BP retention {} should not beat hybrid {}",
            bp.retention(),
            hy.retention()
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let c = ctx();
        let a = weathered_throughput(&c, 0.0, Mode::Hybrid, 2, 5);
        let b = weathered_throughput(&c, 0.0, Mode::Hybrid, 2, 5);
        assert_eq!(a.weathered_gbps, b.weathered_gbps);
    }
}
