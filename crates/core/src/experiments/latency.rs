//! Latency and its temporal variability (paper §4, Figs. 2–3).
//!
//! For every snapshot, shortest (minimum-delay) paths are computed for all
//! city pairs; per pair we track the minimum RTT across snapshots
//! (Fig. 2a) and the max-minus-min RTT range (Fig. 2b). The per-source
//! grouping means one Dijkstra per unique source city per snapshot.

use crate::experiments::spt::SourceSptPool;
use crate::metrics::Distribution;
use crate::snapshot::{EdgeDelta, Mode, NetworkSnapshot, NodeKind, StudyContext};
use leo_data::traffic::CityPair;
use leo_graph::with_thread_workspace;
use leo_util::span;
use leo_util::telemetry::{Heartbeat, MetricSeries};

/// Per-pair latency statistics across the simulated day.
#[derive(Debug, Clone)]
pub struct PairStats {
    /// The city pair.
    pub pair: CityPair,
    /// Minimum RTT across snapshots, ms (`None` if never reachable).
    pub min_rtt_ms: Option<f64>,
    /// Maximum RTT across snapshots where reachable, ms.
    pub max_rtt_ms: Option<f64>,
    /// Number of snapshots where a path existed.
    pub reachable: usize,
    /// Number of snapshots evaluated.
    pub total: usize,
}

impl PairStats {
    /// RTT variation (max − min), ms; `None` unless reachable at least
    /// twice.
    pub fn variation_ms(&self) -> Option<f64> {
        if self.reachable >= 2 {
            Some(self.max_rtt_ms? - self.min_rtt_ms?)
        } else {
            None
        }
    }
}

/// Run the latency study for one connectivity mode over all configured
/// snapshots. `threads = 0` uses all cores.
pub fn latency_study(ctx: &StudyContext, mode: Mode, threads: usize) -> Vec<PairStats> {
    latency_studies(ctx, &[mode], threads)
        .pop()
        // lint: allow(unwrap-in-lib) latency_studies returns one entry per requested mode, and one mode was passed
        .expect("one mode requested")
}

/// Run the latency study for several modes at once, sharing the
/// per-timestep orbit/visibility pass across them and the incremental
/// sweep state across consecutive timesteps, reusing one warm
/// [`DijkstraWorkspace`] per worker. Returns one `Vec<PairStats>` per
/// entry of `modes`, in order.
///
/// **Streaming**: the sweep folds into per-pair running
/// `{min, max, reachable}` accumulators (exact — min/max folds and
/// counts are order-independent, so the result is bit-identical to
/// collecting every snapshot first), holds O(pairs) state instead of
/// O(snapshots × pairs), emits one `series` telemetry event per
/// snapshot per mode (`rtt_ms_*`), and ticks a `latency_study`
/// [`Heartbeat`] per snapshot.
///
/// **Delta path**: when the study fits [`SourceSptPool`]'s budget, each
/// (mode, source) keeps an incremental shortest-path tree repaired from
/// the sweep's [`EdgeDelta`]s instead of re-running Dijkstra per
/// snapshot — bit-identical RTTs by the `SptWorkspace` equivalence
/// contract, so results are indistinguishable from the fallback.
///
/// [`DijkstraWorkspace`]: leo_graph::DijkstraWorkspace
pub fn latency_studies(ctx: &StudyContext, modes: &[Mode], threads: usize) -> Vec<Vec<PairStats>> {
    let _span = span!(
        "latency_study",
        modes = format!("{modes:?}"),
        snapshots = ctx.config.snapshot_times_s.len(),
        pairs = ctx.pairs.len(),
    );
    let times = ctx.config.snapshot_times_s.clone();
    let num_pairs = ctx.pairs.len();
    let pooled = SourceSptPool::fits(ctx, modes.len());
    let hb = Heartbeat::new("latency_study", times.len() as u64);

    /// Per-mode streaming state: per-pair running aggregates plus the
    /// telemetry series and (budget permitting) the resident trees.
    struct ModeAgg {
        min: Vec<f64>,
        max: Vec<f64>,
        reachable: Vec<u32>,
        series: MetricSeries,
        spt: Option<SourceSptPool>,
    }
    struct Acc {
        total: usize,
        modes: Vec<ModeAgg>,
    }

    let acc = ctx.sweep_fold_deltas(
        &times,
        modes,
        threads,
        || Acc {
            total: 0,
            modes: modes
                .iter()
                .map(|&m| ModeAgg {
                    min: vec![f64::INFINITY; num_pairs],
                    max: vec![f64::NEG_INFINITY; num_pairs],
                    reachable: vec![0; num_pairs],
                    series: MetricSeries::new(rtt_series_name(m)),
                    spt: pooled.then(|| SourceSptPool::new(ctx)),
                })
                .collect(),
        },
        |acc, i, snaps, deltas| {
            for (mi, snap) in snaps.iter().enumerate() {
                let agg = &mut acc.modes[mi];
                let rtts = match agg.spt.as_mut() {
                    Some(pool) => snapshot_rtts_spt(ctx, snap, &deltas[mi], pool),
                    None => snapshot_rtts_on(ctx, snap),
                };
                for (pi, r) in rtts.iter().enumerate() {
                    if let Some(rtt) = *r {
                        agg.min[pi] = agg.min[pi].min(rtt);
                        agg.max[pi] = agg.max[pi].max(rtt);
                        agg.reachable[pi] += 1;
                        agg.series.record(rtt);
                    }
                }
                agg.series.snapshot_done(i, snap.t_s);
            }
            acc.total += 1;
            hb.tick(1);
        },
        |a, b| {
            a.total += b.total;
            for (am, bm) in a.modes.iter_mut().zip(&b.modes) {
                for pi in 0..num_pairs {
                    am.min[pi] = am.min[pi].min(bm.min[pi]);
                    am.max[pi] = am.max[pi].max(bm.max[pi]);
                    am.reachable[pi] += bm.reachable[pi];
                }
                am.series.merge(&bm.series);
            }
        },
    );

    acc.modes
        .iter()
        .map(|agg| {
            ctx.pairs
                .iter()
                .enumerate()
                .map(|(pi, &pair)| {
                    let reachable = agg.reachable[pi] as usize;
                    PairStats {
                        pair,
                        min_rtt_ms: (reachable > 0).then_some(agg.min[pi]),
                        max_rtt_ms: (reachable > 0).then_some(agg.max[pi]),
                        reachable,
                        total: acc.total,
                    }
                })
                .collect()
        })
        .collect()
}

/// Telemetry series name for per-snapshot RTT samples under `mode`.
fn rtt_series_name(mode: Mode) -> &'static str {
    match mode {
        Mode::BpOnly => "rtt_ms_bp",
        Mode::Hybrid => "rtt_ms_hybrid",
        Mode::IslOnly => "rtt_ms_isl",
    }
}

/// RTTs (ms) for all pairs at one snapshot.
pub fn snapshot_rtts(ctx: &StudyContext, t_s: f64, mode: Mode) -> Vec<Option<f64>> {
    snapshot_rtts_on(ctx, &ctx.snapshot(t_s, mode))
}

/// RTTs (ms) for all pairs on an already-built snapshot: one Dijkstra
/// per unique source city, on this thread's warm workspace.
pub fn snapshot_rtts_on(ctx: &StudyContext, snap: &NetworkSnapshot) -> Vec<Option<f64>> {
    let mut out = vec![None; ctx.pairs.len()];
    let mut targets = Vec::new();
    with_thread_workspace(|ws| {
        for (src, pair_idxs) in ctx.pairs_by_src() {
            targets.clear();
            targets.extend(
                pair_idxs
                    .iter()
                    .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
            );
            // Early exit once this source's destinations are settled —
            // the far side of the constellation never needs visiting.
            let view = ws.run_multi(&snap.graph, snap.city_node(*src as usize), None, &targets);
            for &i in pair_idxs {
                let d = view.dist(snap.city_node(ctx.pairs[i].dst as usize));
                if d.is_finite() {
                    out[i] = Some(crate::rtt_ms(d));
                }
            }
        }
    });
    out
}

/// RTTs (ms) for all pairs on a snapshot via pooled incremental
/// shortest-path trees: each source pays a delta repair instead of a
/// fresh Dijkstra, and the repair's relaxation drain stops as soon as
/// this source's destinations have settled
/// ([`SourceSptPool::tree_for_targets`]). Bit-identical to
/// [`snapshot_rtts_on`] — repaired distances for queried targets match
/// fresh runs exactly (the `SptWorkspace` early-exit contract), and
/// `run_multi`'s early exit settles every queried target at its true
/// distance.
pub fn snapshot_rtts_spt(
    ctx: &StudyContext,
    snap: &NetworkSnapshot,
    delta: &EdgeDelta,
    pool: &mut SourceSptPool,
) -> Vec<Option<f64>> {
    let mut out = vec![None; ctx.pairs.len()];
    let mut targets = Vec::new();
    for (si, (src, pair_idxs)) in ctx.pairs_by_src().iter().enumerate() {
        targets.clear();
        targets.extend(
            pair_idxs
                .iter()
                .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
        );
        let spt = pool.tree_for_targets(si, snap.city_node(*src as usize), snap, delta, &targets);
        for &i in pair_idxs {
            let d = spt.dist(snap.city_node(ctx.pairs[i].dst as usize));
            if d.is_finite() {
                out[i] = Some(crate::rtt_ms(d));
            }
        }
    }
    out
}

/// The headline comparison numbers of §1/§4.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Median RTT variation, BP, ms.
    pub bp_median_variation_ms: f64,
    /// Median RTT variation, hybrid, ms.
    pub hybrid_median_variation_ms: f64,
    /// 95th-percentile RTT variation, BP, ms.
    pub bp_p95_variation_ms: f64,
    /// 95th-percentile RTT variation, hybrid, ms.
    pub hybrid_p95_variation_ms: f64,
    /// Largest min-RTT advantage of hybrid over BP across pairs, ms
    /// (the paper reports 57 ms).
    pub max_min_rtt_gap_ms: f64,
    /// Maximum RTT variation across pairs, BP, ms (paper: ~100 ms).
    pub bp_max_variation_ms: f64,
    /// Maximum RTT variation across pairs, hybrid, ms (paper: < 20 ms).
    pub hybrid_max_variation_ms: f64,
}

/// Compare BP and hybrid pair statistics (same pair ordering).
pub fn summarize(bp: &[PairStats], hybrid: &[PairStats]) -> LatencySummary {
    // lint: allow(panic-reachable) caller contract: the two series are parallel per-pair arrays; a length mismatch means the study wiring is broken
    assert_eq!(bp.len(), hybrid.len());
    let var = |stats: &[PairStats]| -> Distribution {
        Distribution::from_samples(
            &stats
                .iter()
                .filter_map(PairStats::variation_ms)
                .collect::<Vec<_>>(),
        )
    };
    let bp_var = var(bp);
    let hy_var = var(hybrid);
    let mut max_gap = 0.0f64;
    for (b, h) in bp.iter().zip(hybrid) {
        if let (Some(bm), Some(hm)) = (b.min_rtt_ms, h.min_rtt_ms) {
            max_gap = max_gap.max(bm - hm);
        }
    }
    LatencySummary {
        bp_median_variation_ms: bp_var.median(),
        hybrid_median_variation_ms: hy_var.median(),
        bp_p95_variation_ms: bp_var.percentile(95.0),
        hybrid_p95_variation_ms: hy_var.percentile(95.0),
        max_min_rtt_gap_ms: max_gap,
        bp_max_variation_ms: bp_var.max(),
        hybrid_max_variation_ms: hy_var.max(),
    }
}

/// One snapshot of a single pair's path (Fig. 3: Maceió–Durban).
#[derive(Debug, Clone)]
pub struct PathSnapshot {
    /// Snapshot time, s.
    pub t_s: f64,
    /// RTT, ms (`None` if unreachable).
    pub rtt_ms: Option<f64>,
    /// Total hops on the path.
    pub hops: usize,
    /// Aircraft used as intermediate hops.
    pub aircraft_hops: usize,
    /// Ground relays (grid GTs) used as intermediate hops.
    pub relay_hops: usize,
}

/// Trace one named city pair across all snapshots under `mode`.
///
/// # Panics
/// Panics if either city name is not in the loaded city list.
pub fn pair_timeseries(
    ctx: &StudyContext,
    src_name: &str,
    dst_name: &str,
    mode: Mode,
    threads: usize,
) -> Vec<PathSnapshot> {
    let _span = span!(
        "pair_timeseries",
        src = src_name,
        dst = dst_name,
        mode = format!("{mode:?}")
    );
    let src = ctx
        .ground
        .city_index(src_name)
        // lint: allow(panic-reachable) config-time lookup of a caller-named city; a typo must fail loudly, not chart a wrong pair
        .unwrap_or_else(|| panic!("unknown city {src_name}"));
    let dst = ctx
        .ground
        .city_index(dst_name)
        // lint: allow(panic-reachable) config-time lookup of a caller-named city; a typo must fail loudly, not chart a wrong pair
        .unwrap_or_else(|| panic!("unknown city {dst_name}"));
    let times = ctx.config.snapshot_times_s.clone();
    ctx.sweep_map(&times, &[mode], threads, |i, snaps| {
        let t = times[i];
        let snap = &snaps[0];
        let path = with_thread_workspace(|ws| {
            ws.run(
                &snap.graph,
                snap.city_node(src),
                None,
                Some(snap.city_node(dst)),
            )
            .extract_path(snap.city_node(dst))
        });
        match path {
            Some(p) => {
                let mut aircraft = 0;
                let mut relays = 0;
                for &n in p.intermediate_nodes() {
                    match snap.nodes[n as usize] {
                        NodeKind::Aircraft(_) => aircraft += 1,
                        NodeKind::Relay(_) => relays += 1,
                        _ => {}
                    }
                }
                PathSnapshot {
                    t_s: t,
                    rtt_ms: Some(crate::rtt_ms(p.total_weight)),
                    hops: p.num_hops(),
                    aircraft_hops: aircraft,
                    relay_hops: relays,
                }
            }
            None => PathSnapshot {
                t_s: t,
                rtt_ms: None,
                hops: 0,
                aircraft_hops: 0,
                relay_hops: 0,
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    fn ctx() -> StudyContext {
        StudyContext::build(ExperimentScale::Tiny.config())
    }

    #[test]
    fn hybrid_min_rtt_never_worse() {
        let c = ctx();
        let bp = latency_study(&c, Mode::BpOnly, 2);
        let hy = latency_study(&c, Mode::Hybrid, 2);
        for (b, h) in bp.iter().zip(&hy) {
            if let (Some(bm), Some(hm)) = (b.min_rtt_ms, h.min_rtt_ms) {
                // Hybrid's graph is a superset of BP's: its shortest path
                // can only be shorter or equal.
                assert!(hm <= bm + 1e-9, "pair {:?}: hybrid {hm} > bp {bm}", b.pair);
            }
        }
    }

    #[test]
    fn hybrid_reaches_at_least_as_often() {
        let c = ctx();
        let bp = latency_study(&c, Mode::BpOnly, 2);
        let hy = latency_study(&c, Mode::Hybrid, 2);
        for (b, h) in bp.iter().zip(&hy) {
            assert!(h.reachable >= b.reachable);
        }
    }

    #[test]
    fn rtts_physically_plausible() {
        let c = ctx();
        let hy = latency_study(&c, Mode::Hybrid, 2);
        for s in &hy {
            if let Some(m) = s.min_rtt_ms {
                // ≥ 2 radio hops up+down: > 7 ms; across the planet < 400.
                assert!(m > 7.0 && m < 400.0, "RTT {m} ms");
            }
        }
    }

    #[test]
    fn variation_requires_two_reachable() {
        let s = PairStats {
            pair: CityPair { src: 0, dst: 1 },
            min_rtt_ms: Some(10.0),
            max_rtt_ms: Some(10.0),
            reachable: 1,
            total: 4,
        };
        assert_eq!(s.variation_ms(), None);
    }

    #[test]
    fn summary_shapes() {
        let c = ctx();
        let bp = latency_study(&c, Mode::BpOnly, 2);
        let hy = latency_study(&c, Mode::Hybrid, 2);
        let s = summarize(&bp, &hy);
        assert!(s.max_min_rtt_gap_ms >= 0.0);
        // The paper's headline: BP varies more than hybrid.
        assert!(s.bp_median_variation_ms >= 0.0);
        assert!(s.hybrid_median_variation_ms >= 0.0);
    }

    #[test]
    fn timeseries_runs_for_known_pair() {
        let mut cfg = ExperimentScale::Tiny.config();
        cfg.num_cities = 340; // ensure Maceió & Durban are loaded
        let c = StudyContext::build(cfg);
        let ts = pair_timeseries(&c, "Maceió", "Durban", Mode::BpOnly, 2);
        assert_eq!(ts.len(), c.config.snapshot_times_s.len());
        for p in &ts {
            if p.rtt_ms.is_some() {
                assert!(p.hops >= 2);
            }
        }
    }

    /// Regression: a pair whose source and destination are the same city
    /// routes over the one-node path, which has no intermediate hops
    /// (slicing `nodes[1..len - 1]` used to panic on it).
    #[test]
    fn timeseries_of_a_city_to_itself_is_a_zero_hop_path() {
        let c = ctx();
        let name = c.ground.cities[0].name.clone();
        for mode in [Mode::BpOnly, Mode::Hybrid] {
            let ts = pair_timeseries(&c, &name, &name, mode, 2);
            assert_eq!(ts.len(), c.config.snapshot_times_s.len());
            for p in &ts {
                assert_eq!(p.rtt_ms, Some(0.0), "{mode:?} at t={}", p.t_s);
                assert_eq!((p.hops, p.aircraft_hops, p.relay_hops), (0, 0, 0));
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown city")]
    fn timeseries_rejects_unknown_city() {
        let c = ctx();
        pair_timeseries(&c, "Gotham", "Tokyo", Mode::BpOnly, 1);
    }
}
