//! The paper's qualitative claims, re-verified end-to-end on a reduced
//! configuration. Absolute numbers differ from the paper (synthetic
//! substrates, reduced scale); the *shape* — who wins and roughly how —
//! must hold. EXPERIMENTS.md records full-scale paper-vs-measured values.

use leo_core::experiments::latency::{latency_study, summarize};
use leo_core::experiments::throughput::{
    disconnected_satellite_fraction, lax_maxflow_gbps, throughput,
};
use leo_core::experiments::weather::{exceedance_curve, weather_study};
use leo_core::{ExperimentScale, Mode, StudyConfig, StudyContext};
use leo_geo::{great_circle_distance_m, SPEED_OF_LIGHT_M_S};
use leo_graph::DijkstraWorkspace;

fn small() -> StudyContext {
    // Slightly larger than Tiny so distributions are meaningful, but
    // still debug-mode friendly.
    let mut cfg = ExperimentScale::Tiny.config();
    cfg.num_cities = 340;
    cfg.num_pairs = 120;
    cfg.snapshot_times_s = StudyConfig::day_snapshots(4);
    StudyContext::build(cfg)
}

/// §4 / Fig. 2: hybrid RTTs are lower and, above all, more stable.
#[test]
fn claim_latency_stability() {
    let ctx = small();
    let bp = latency_study(&ctx, Mode::BpOnly, 0);
    let hy = latency_study(&ctx, Mode::Hybrid, 0);
    let s = summarize(&bp, &hy);
    assert!(
        s.bp_median_variation_ms >= s.hybrid_median_variation_ms,
        "BP median variation ({}) must be at least hybrid's ({})",
        s.bp_median_variation_ms,
        s.hybrid_median_variation_ms
    );
    assert!(
        s.bp_max_variation_ms > s.hybrid_max_variation_ms,
        "BP worst-case variation must exceed hybrid's"
    );
    assert!(
        s.max_min_rtt_gap_ms > 0.0,
        "some pair must benefit from ISLs"
    );
}

/// §5 / Fig. 4: hybrid throughput beats BP substantially (paper ≥2.5×
/// at k=1; we require ≥1.5× at reduced scale), and k=4 helps hybrid.
#[test]
fn claim_throughput_advantage() {
    let ctx = small();
    let bp1 = throughput(&ctx, 0.0, Mode::BpOnly, 1);
    let hy1 = throughput(&ctx, 0.0, Mode::Hybrid, 1);
    let hy4 = throughput(&ctx, 0.0, Mode::Hybrid, 4);
    assert!(
        hy1.aggregate_gbps > 1.5 * bp1.aggregate_gbps,
        "hybrid k=1 {} vs BP k=1 {}",
        hy1.aggregate_gbps,
        bp1.aggregate_gbps
    );
    assert!(
        hy4.aggregate_gbps > hy1.aggregate_gbps,
        "multipath must help hybrid"
    );
}

/// §5 in-text: a sizable fraction of satellites is disconnected under
/// BP (paper: 25.1–31.5 % with the densest relay grid); with ISLs, none.
#[test]
fn claim_disconnected_satellites() {
    let ctx = small();
    let bp = disconnected_satellite_fraction(&ctx, Mode::BpOnly, 0);
    for f in &bp {
        assert!(
            (0.05..0.8).contains(f),
            "BP disconnected fraction {f} out of plausible band"
        );
    }
    let hy = disconnected_satellite_fraction(&ctx, Mode::Hybrid, 0);
    // lint: allow(float-fastmath) exact-zero is the "never disconnected" sentinel, not a computed value
    assert!(hy.iter().all(|&f| f == 0.0));
}

/// §3 critique: the lax one-sink max-flow model overstates throughput.
#[test]
fn claim_lax_model_overstates() {
    let ctx = small();
    let strict = throughput(&ctx, 0.0, Mode::Hybrid, 4);
    let lax = lax_maxflow_gbps(&ctx, 0.0, Mode::Hybrid);
    assert!(
        lax > 1.2 * strict.aggregate_gbps,
        "lax {} should exceed per-pair {} clearly",
        lax,
        strict.aggregate_gbps
    );
}

/// §6 / Fig. 6: BP suffers more attenuation in distribution.
#[test]
fn claim_weather_resilience() {
    let ctx = small();
    let w = weather_study(&ctx, 7, 0);
    let bm = w.bp_median();
    let im = w.isl_median();
    assert!(
        bm >= im,
        "BP median 99.5th-pct attenuation ({bm} dB) must be ≥ ISL's ({im} dB)"
    );
}

/// §6 / Fig. 8: Delhi–Sydney, BP ≫ ISL at the 1% exceedance level
/// (paper: 5 dB vs 2.2 dB).
#[test]
fn claim_delhi_sydney_exceedance() {
    let ctx = small();
    let c = exceedance_curve(&ctx, "Delhi", "Sydney", 0.0).expect("path at t=0");
    let i = c
        .p_percent
        .iter()
        .position(|&p| p.to_bits() == 1.0f64.to_bits())
        .unwrap();
    assert!(
        c.bp_db[i] > 1.5 * c.isl_db[i],
        "BP {} dB vs ISL {} dB at 1%",
        c.bp_db[i],
        c.isl_db[i]
    );
}

/// §7 / Fig. 9: GSO-arc avoidance constrains the Equator far more than
/// mid-latitudes.
#[test]
fn claim_gso_equator_pain() {
    let ctx = small();
    let rows = leo_core::experiments::gso_arc::gso_sweep(&ctx, &[0.0, 45.0], 40.0, 22.0, 0.0);
    assert!(rows[0].usable_sky_fraction + 0.2 < rows[1].usable_sky_fraction);
}

/// Physical invariant: every link is a straight segment that stays above
/// the surface (elevation masks on up/down links, line-of-sight clearance
/// on ISLs), so no route between two cities beats light along the great
/// circle — for BP and hybrid, at every snapshot, every reachable RTT is
/// ≥ 2 × great-circle(src, dst) / c. Distances come from full
/// single-source Dijkstra runs without targets, so the straight-line
/// bound the targeted searches prune with plays no part: this guards the
/// physics that bound rests on, independently.
#[test]
fn invariant_no_rtt_beats_great_circle_light() {
    let ctx = small();
    let mut ws = DijkstraWorkspace::new();
    let mut checked = 0usize;
    for mode in [Mode::BpOnly, Mode::Hybrid] {
        for &t in &ctx.config.snapshot_times_s {
            let snap = ctx.snapshot(t, mode);
            for (src, pair_idxs) in ctx.pairs_by_src() {
                let s = snap.city_node(*src as usize);
                let view = ws.run(&snap.graph, s, None, None);
                for &i in pair_idxs {
                    let d = snap.city_node(ctx.pairs[i].dst as usize);
                    let delay = view.dist(d);
                    if !delay.is_finite() {
                        continue;
                    }
                    let gc = great_circle_distance_m(
                        snap.ground_position(s).unwrap(),
                        snap.ground_position(d).unwrap(),
                    );
                    let floor_ms = leo_core::rtt_ms(gc / SPEED_OF_LIGHT_M_S);
                    let rtt_ms = leo_core::rtt_ms(delay);
                    assert!(
                        rtt_ms >= floor_ms * (1.0 - 1e-12),
                        "{mode:?} t={t}: pair {i} RTT {rtt_ms} ms beats light along the \
                         great circle ({floor_ms} ms)"
                    );
                    checked += 1;
                }
            }
        }
    }
    assert!(checked > 0, "no reachable pair was checked");
}
