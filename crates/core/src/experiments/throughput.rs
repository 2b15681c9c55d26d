//! Network-wide max-min-fair throughput (paper §5, Figs. 4–5).
//!
//! Each city pair routes over `k` edge-disjoint shortest paths; all
//! sub-flows are allocated rates by the progressive-filling max-min
//! algorithm of `leo-flow` (the floodns model). The module also computes
//! the §5 side statistic — the fraction of satellites entirely
//! disconnected under BP — and the "lax" one-big-sink max-flow baseline
//! of prior work that the paper §3 criticizes.

use crate::par::parallel_map;
use crate::snapshot::{EdgeKind, Mode, NetworkSnapshot, StudyContext};
use leo_flow::{FlowSim, FlowWorkspace};
use leo_graph::{
    k_edge_disjoint_paths_with, max_flow, with_thread_workspace, EdgeId, FlowNetwork, NodeId, Path,
};
use leo_util::span;
use leo_util::telemetry::{Heartbeat, MetricSeries};

/// Outcome of one throughput evaluation.
#[derive(Debug, Clone)]
pub struct ThroughputResult {
    /// Aggregate allocated rate across all sub-flows, Gbps.
    pub aggregate_gbps: f64,
    /// Pairs with at least one path.
    pub routed_pairs: usize,
    /// Total sub-flows (≤ pairs × k).
    pub flows: usize,
}

/// Max-min-fair aggregate throughput at snapshot time `t_s` under `mode`,
/// with `k` edge-disjoint shortest paths per pair.
pub fn throughput(ctx: &StudyContext, t_s: f64, mode: Mode, k: usize) -> ThroughputResult {
    throughput_with_isl_capacity(ctx, t_s, mode, k, ctx.config.network.isl_gbps)
}

/// Like [`throughput`] but overriding the ISL capacity (Fig. 5's sweep).
pub fn throughput_with_isl_capacity(
    ctx: &StudyContext,
    t_s: f64,
    mode: Mode,
    k: usize,
    isl_gbps: f64,
) -> ThroughputResult {
    // lint: allow(panic-reachable) caller contract: k-shortest-paths with k = 0 is a meaningless request
    assert!(k >= 1);
    let _span = span!(
        "throughput",
        t_s = t_s,
        mode = format!("{mode:?}"),
        k = k,
        isl_gbps = isl_gbps,
    );
    let snap = ctx.snapshot(t_s, mode);
    let routed = route_flows(ctx, &snap, k, isl_gbps);
    routed.result(&mut FlowWorkspace::new())
}

/// Routed flows over one snapshot: a [`FlowSim`] whose link ids are the
/// snapshot's edge ids. Paths depend only on the delay graph, never on
/// capacities, so one routing pass supports any number of re-solves
/// under different capacity assumptions.
struct RoutedFlows {
    sim: FlowSim,
    routed_pairs: usize,
    flows: usize,
}

impl RoutedFlows {
    fn result(&self, ws: &mut FlowWorkspace) -> ThroughputResult {
        ThroughputResult {
            aggregate_gbps: self.sim.solve_with(ws).aggregate,
            routed_pairs: self.routed_pairs,
            flows: self.flows,
        }
    }
}

/// Route `k` edge-disjoint delay-shortest paths for every pair of
/// `ctx`'s (possibly [range-restricted]) traffic matrix, in pair order.
///
/// This is the per-pair-independent half of the throughput pipeline —
/// the stage pair-sharded runs execute per shard. Paths depend only on
/// the snapshot's delay graph (never on capacities or on *other* pairs),
/// so routing pairs `lo..hi` in a restricted context yields exactly the
/// `lo..hi` slice of the full run's result, and concatenating shard
/// slices in global pair order feeds [`throughput_from_path_edges`]
/// bit-identically to the single-process path.
///
/// [range-restricted]: StudyContext::restrict_pair_range
pub fn route_pair_paths(ctx: &StudyContext, snap: &NetworkSnapshot, k: usize) -> Vec<Vec<Path>> {
    // Path-finding per pair is read-only on the snapshot: parallelize.
    parallel_map(&ctx.pairs, 0, |pair| {
        with_thread_workspace(|ws| {
            k_edge_disjoint_paths_with(
                &snap.graph,
                snap.city_node(pair.src as usize),
                snap.city_node(pair.dst as usize),
                k,
                None,
                ws,
            )
        })
    })
}

/// Load per-pair path edge lists (snapshot edge ids, as produced by
/// [`route_pair_paths`]) into a flow simulation with per-edge
/// capacities (ISL capacity overridable).
fn routed_from_path_edges(
    ctx: &StudyContext,
    snap: &NetworkSnapshot,
    paths_per_pair: &[Vec<Vec<EdgeId>>],
    isl_gbps: f64,
) -> RoutedFlows {
    let mut net_cfg = ctx.config.network;
    net_cfg.isl_gbps = isl_gbps;
    let mut sim = FlowSim::new();
    // One flow-sim link per graph edge, same ids.
    for e in 0..snap.graph.num_edges() as u32 {
        sim.add_link(snap.edge_capacity_gbps(&net_cfg, e));
    }
    let mut routed_pairs = 0;
    let mut flows = 0;
    for paths in paths_per_pair {
        if !paths.is_empty() {
            routed_pairs += 1;
        }
        for edges in paths {
            sim.add_flow(edges.clone());
            flows += 1;
        }
    }
    RoutedFlows {
        sim,
        routed_pairs,
        flows,
    }
}

/// Max-min-fair throughput from pre-routed per-pair path edge lists —
/// the merge half of the pair-sharded throughput pipeline. `paths`
/// must list every pair of the *full* traffic matrix in global pair
/// order (each entry up to `k` paths of snapshot edge ids); the result
/// is bit-identical to [`throughput_with_isl_capacity`] routing the
/// same snapshot itself, because the global max-min solve sees the
/// identical link table and flow order.
pub fn throughput_from_path_edges(
    ctx: &StudyContext,
    snap: &NetworkSnapshot,
    paths: &[Vec<Vec<EdgeId>>],
    isl_gbps: f64,
    ws: &mut FlowWorkspace,
) -> ThroughputResult {
    routed_from_path_edges(ctx, snap, paths, isl_gbps).result(ws)
}

/// Route `k` edge-disjoint shortest paths per pair and load them into a
/// flow simulation with per-edge capacities (ISL capacity overridable).
fn route_flows(ctx: &StudyContext, snap: &NetworkSnapshot, k: usize, isl_gbps: f64) -> RoutedFlows {
    let paths = route_pair_paths(ctx, snap, k);
    let edge_lists: Vec<Vec<Vec<EdgeId>>> = paths
        .into_iter()
        .map(|ps| ps.into_iter().map(|p| p.edges).collect())
        .collect();
    routed_from_path_edges(ctx, snap, &edge_lists, isl_gbps)
}

/// Fig. 5: Starlink aggregate throughput as ISL capacity sweeps over
/// multiples of the GT-link capacity. Returns `(ratio, gbps)` rows, plus
/// the BP-only reference as ratio 0.
///
/// Both snapshots come from one shared visibility pass; the hybrid flows
/// are routed **once** and re-solved per ratio by re-setting only the
/// ISL link capacities, on one warm [`FlowWorkspace`] — paths are
/// delay-shortest and never depend on capacity, so the results are
/// identical to re-routing from scratch.
pub fn isl_capacity_sweep(
    ctx: &StudyContext,
    t_s: f64,
    k: usize,
    ratios: &[f64],
) -> Vec<(f64, f64)> {
    let _span = span!(
        "isl_capacity_sweep",
        t_s = t_s,
        k = k,
        ratios = ratios.len()
    );
    let gt = ctx.config.network.gt_link_gbps;
    let mut ws = FlowWorkspace::new();
    let mut out = Vec::with_capacity(ratios.len() + 1);
    let snaps = ctx.snapshot_bundle(t_s, &[Mode::BpOnly, Mode::Hybrid]);
    let bp = route_flows(ctx, &snaps[0], k, ctx.config.network.isl_gbps);
    out.push((0.0, bp.result(&mut ws).aggregate_gbps));
    if ratios.is_empty() {
        return out;
    }
    let mut hybrid = route_flows(ctx, &snaps[1], k, gt * ratios[0]);
    for &r in ratios {
        for e in 0..snaps[1].edges.len() as u32 {
            if matches!(snaps[1].edges[e as usize], EdgeKind::Isl) {
                hybrid.sim.set_link_capacity(e, gt * r);
            }
        }
        out.push((r, hybrid.result(&mut ws).aggregate_gbps));
    }
    out
}

/// §5 statistic: fraction of satellites entirely disconnected from the
/// network (no GT in view) at each snapshot time, under BP.
///
/// The paper reports 25.1 %–31.5 % for Starlink across a day.
///
/// Streams through [`StudyContext::sweep_fold`]: each snapshot appends
/// its fraction (chunks merge in time order, so the returned vector is
/// time-ordered exactly like the old collect-then-concatenate path),
/// emits a `disconnected_fraction` `series` telemetry event, and ticks a
/// `disconnected_satellite_fraction` [`Heartbeat`].
pub fn disconnected_satellite_fraction(ctx: &StudyContext, mode: Mode, threads: usize) -> Vec<f64> {
    let _span = span!(
        "disconnected_satellite_fraction",
        mode = format!("{mode:?}"),
        snapshots = ctx.config.snapshot_times_s.len(),
    );
    let times = ctx.config.snapshot_times_s.clone();
    let hb = Heartbeat::new("disconnected_satellite_fraction", times.len() as u64);
    struct Acc {
        vals: Vec<f64>,
        series: MetricSeries,
    }
    let acc = ctx.sweep_fold(
        &times,
        &[mode],
        threads,
        || Acc {
            vals: Vec::new(),
            series: MetricSeries::new("disconnected_fraction"),
        },
        |acc, ti, snaps| {
            let f = disconnected_fraction_of(&snaps[0]);
            acc.vals.push(f);
            acc.series.record(f);
            acc.series.snapshot_done(ti, snaps[0].t_s);
            hb.tick(1);
        },
        |a, b| {
            a.vals.extend_from_slice(&b.vals);
            a.series.merge(&b.series);
        },
    );
    acc.vals
}

/// Fraction of satellites in components containing no ground node.
///
/// A satellite reaches ground iff some satellite in its ISL-only
/// component has a ground link: on any path from it, the first ground
/// node is entered from a satellite the path reached over ISLs alone. So
/// no traversal of the whole graph is needed. Each satellite's neighbor
/// list is read up to its first ground neighbor, joining the satellites
/// met on the way (union-find), and a component is grounded iff one of
/// its satellites has a ground link.
///
/// Stopping at the first ground neighbor is exact for any neighbor
/// order: it skips ISLs only of satellites that are grounded themselves,
/// and the ISL path from an ungrounded satellite to the nearest grounded
/// one leaves every hop from an ungrounded satellite, whose list is read
/// in full. Snapshots list each satellite's ISLs before its ground links,
/// so the scan reads O(satellites + ISLs) half-edges; on BP snapshots,
/// which have no ISLs, it is a degree test.
pub fn disconnected_fraction_of(snap: &NetworkSnapshot) -> f64 {
    let s = snap.num_satellites;
    let mut root: Vec<u32> = (0..s as u32).collect();
    let mut grounded = vec![false; s];
    for (u, has_ground_link) in grounded.iter_mut().enumerate() {
        for h in snap.graph.neighbors(u as NodeId) {
            if h.to as usize >= s {
                *has_ground_link = true;
                break;
            }
            let (a, b) = (find_root(&mut root, u as u32), find_root(&mut root, h.to));
            root[a.max(b) as usize] = a.min(b);
        }
    }
    for u in 0..s as u32 {
        if grounded[u as usize] {
            let r = find_root(&mut root, u);
            grounded[r as usize] = true;
        }
    }
    let disconnected = (0..s as u32)
        .filter(|&u| !grounded[find_root(&mut root, u) as usize])
        .count();
    disconnected as f64 / s as f64
}

/// Union-find root of `u`, halving the path on the way.
fn find_root(root: &mut [u32], mut u: u32) -> u32 {
    while root[u as usize] != u {
        let up = root[root[u as usize] as usize];
        root[u as usize] = up;
        u = up;
    }
    u
}

/// The "lax" throughput model of del Portillo et al. that the paper
/// criticizes: one max-flow instance where traffic entering at the source
/// cities may exit at **any** city — no per-pair demands. Returns Gbps.
///
/// Comparing this against [`throughput`] shows how much the lax model
/// overstates network capacity.
pub fn lax_maxflow_gbps(ctx: &StudyContext, t_s: f64, mode: Mode) -> f64 {
    let _span = span!("lax_maxflow", t_s = t_s, mode = format!("{mode:?}"));
    let snap = ctx.snapshot(t_s, mode);
    let n = snap.graph.num_nodes();
    let s = n as u32; // super source
    let t = n as u32 + 1; // super sink
    let mut net = FlowNetwork::new(n + 2);
    for e in 0..snap.graph.num_edges() as u32 {
        let (u, v, _) = snap.graph.edge(e);
        let cap = snap.edge_capacity_gbps(&ctx.config.network, e);
        net.add_undirected(u, v, cap);
    }
    // A city's injection/absorption is bounded by its real aggregate
    // GT-link capacity (sum over its visible satellites); the model's
    // laxness is in *where* traffic may exit, not in per-city radio
    // capacity.
    let city_capacity = |city: usize| -> f64 {
        let node = snap.city_node(city);
        snap.graph
            .neighbors(node)
            .iter()
            .map(|h| snap.edge_capacity_gbps(&ctx.config.network, h.edge))
            .sum()
    };
    // Sources: the cities appearing as pair sources; sink side: every
    // city may absorb traffic (the model's laxness).
    let mut sources: Vec<u32> = ctx.pairs.iter().map(|p| p.src).collect();
    sources.sort_unstable();
    sources.dedup();
    for src in sources {
        net.add_directed(s, snap.city_node(src as usize), city_capacity(src as usize));
    }
    for city in 0..ctx.ground.cities.len() {
        net.add_directed(snap.city_node(city), t, city_capacity(city));
    }
    max_flow(&mut net, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;
    use crate::snapshot::NodeKind;

    fn ctx() -> StudyContext {
        StudyContext::build(ExperimentScale::Tiny.config())
    }

    #[test]
    fn hybrid_beats_bp() {
        let c = ctx();
        let bp = throughput(&c, 0.0, Mode::BpOnly, 1);
        let hy = throughput(&c, 0.0, Mode::Hybrid, 1);
        assert!(
            hy.aggregate_gbps > bp.aggregate_gbps,
            "hybrid {} vs BP {}",
            hy.aggregate_gbps,
            bp.aggregate_gbps
        );
        assert!(hy.routed_pairs >= bp.routed_pairs);
    }

    #[test]
    fn more_paths_dont_hurt() {
        let c = ctx();
        let k1 = throughput(&c, 0.0, Mode::Hybrid, 1);
        let k4 = throughput(&c, 0.0, Mode::Hybrid, 4);
        assert!(k4.flows >= k1.flows);
        assert!(
            k4.aggregate_gbps >= k1.aggregate_gbps * 0.99,
            "k=4 ({}) should not collapse vs k=1 ({})",
            k4.aggregate_gbps,
            k1.aggregate_gbps
        );
    }

    #[test]
    fn throughput_positive_and_bounded() {
        let c = ctx();
        let r = throughput(&c, 0.0, Mode::Hybrid, 2);
        assert!(r.aggregate_gbps > 0.0);
        // Bounded by total source up-link capacity: pairs × k × 20 Gbps.
        let bound = (c.pairs.len() * 2) as f64 * 20.0;
        assert!(r.aggregate_gbps <= bound);
    }

    #[test]
    fn sweep_monotone_in_isl_capacity() {
        let c = ctx();
        let rows = isl_capacity_sweep(&c, 0.0, 2, &[0.5, 1.0, 3.0]);
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, 0.0);
        for w in rows.windows(2).skip(1) {
            assert!(
                w[1].1 >= w[0].1 - 1e-6,
                "throughput should not fall as ISL capacity grows: {:?}",
                rows
            );
        }
        // At full scale even 0.5× ISL capacity beats BP by 2.2× (paper);
        // at Tiny scale we only require positive throughput at 0.5× and
        // that generous ISLs (3×) beat BP.
        assert!(rows[1].1 > 0.0);
        assert!(
            rows[3].1 > rows[0].1,
            "3x ISL ({}) should beat BP ({})",
            rows[3].1,
            rows[0].1
        );
    }

    #[test]
    fn bp_disconnects_many_satellites() {
        let c = ctx();
        let fr = disconnected_satellite_fraction(&c, Mode::BpOnly, 2);
        assert_eq!(fr.len(), c.config.snapshot_times_s.len());
        for f in &fr {
            // Tiny scale has sparser relays than the paper's 0.5° grid, so
            // accept a broad band around the paper's 25–31.5%.
            assert!(*f > 0.05 && *f < 0.8, "disconnected fraction {f}");
        }
    }

    #[test]
    fn hybrid_connects_everything() {
        let c = ctx();
        let fr = disconnected_satellite_fraction(&c, Mode::Hybrid, 2);
        for f in &fr {
            assert_eq!(*f, 0.0, "+Grid keeps the constellation connected");
        }
    }

    /// The definition [`disconnected_fraction_of`] must reproduce: label
    /// every node's component, flag the components holding a ground
    /// node, and count the satellites in unflagged ones.
    fn disconnected_by_components(snap: &NetworkSnapshot) -> f64 {
        let labels = leo_graph::connected_components(&snap.graph, None);
        let mut has_ground = vec![false; leo_graph::component_sizes(&labels).len()];
        for (node, kind) in snap.nodes.iter().enumerate() {
            if kind.is_ground() {
                has_ground[labels[node] as usize] = true;
            }
        }
        let disconnected = (0..snap.num_satellites)
            .filter(|&s| !has_ground[labels[s] as usize])
            .count();
        disconnected as f64 / snap.num_satellites as f64
    }

    /// `snap` with only the edges whose ids `order` lists, written in
    /// that order (metadata follows the edges).
    fn with_edges(snap: &NetworkSnapshot, order: &[EdgeId]) -> NetworkSnapshot {
        let mut b = leo_graph::GraphBuilder::new(snap.graph.num_nodes());
        let mut edges = Vec::new();
        for &e in order {
            let (u, v, w) = snap.graph.edge(e);
            b.add_edge(u, v, w);
            edges.push(snap.edges[e as usize]);
        }
        NetworkSnapshot {
            graph: b.build(),
            edges,
            nodes: snap.nodes.clone(),
            ground_positions: snap.ground_positions.clone(),
            ..*snap
        }
    }

    fn assert_matches_components(
        snap: &NetworkSnapshot,
        what: &str,
    ) -> leo_util::check::CaseResult {
        let (got, want) = (
            disconnected_fraction_of(snap),
            disconnected_by_components(snap),
        );
        leo_util::check_assert_eq!(got.to_bits(), want.to_bits(), "{what}: {got} vs {want}");
        Ok(())
    }

    #[test]
    fn disconnection_matches_the_components_definition_on_sweeps() {
        use crate::snapshot::TimeSweep;
        let c = ctx();
        let modes = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
        let mut thinned_fractions = Vec::new();
        leo_util::check::check_with("disconnection_matches_components", 10, |g| {
            let mut sweep = TimeSweep::new(&c, &modes);
            let mut t = g.f64(0.0..86_400.0);
            for _ in 0..3 {
                for snap in sweep.step(t) {
                    let what = format!("t={t} {:?}", snap.mode);
                    assert_matches_components(snap, &what)?;
                    // Thin the links at random, so ISL components split
                    // and only some of them keep a ground link, and write
                    // what is left with ISLs first and with ISLs last.
                    let (keep_isl, keep_gt) = (g.f64(0.2..0.95), g.f64(0.01..0.3));
                    let mut kept: Vec<EdgeId> = (0..snap.edges.len() as EdgeId)
                        .filter(|&e| {
                            let keep = match snap.edges[e as usize] {
                                EdgeKind::Isl => keep_isl,
                                EdgeKind::UpDown { .. } => keep_gt,
                            };
                            g.f64(0.0..1.0) < keep
                        })
                        .collect();
                    let thinned = with_edges(snap, &kept);
                    thinned_fractions.push(disconnected_fraction_of(&thinned));
                    assert_matches_components(&thinned, &format!("{what} thinned"))?;
                    kept.sort_by_key(|&e| matches!(snap.edges[e as usize], EdgeKind::Isl));
                    assert_matches_components(
                        &with_edges(snap, &kept),
                        &format!("{what} ISLs last"),
                    )?;
                }
                t += g.f64(1.0..5_000.0);
            }
            Ok(())
        });
        assert!(
            thinned_fractions.iter().any(|&f| 0.0 < f && f < 1.0),
            "thinning must leave some satellites grounded and some not"
        );
    }

    /// A hand-built snapshot: `s` satellites, then `ground` ground nodes,
    /// with `edges` written in the order given.
    fn hand_built(s: usize, ground: &[NodeKind], edges: &[(NodeId, NodeId)]) -> NetworkSnapshot {
        let mut b = leo_graph::GraphBuilder::new(s + ground.len());
        let kinds = edges
            .iter()
            .map(|&(u, v)| {
                b.add_edge(u, v, 1e-3);
                if (v as usize) < s {
                    EdgeKind::Isl
                } else {
                    EdgeKind::UpDown {
                        ground: v,
                        sat: u,
                        elevation_rad: 0.5,
                    }
                }
            })
            .collect();
        NetworkSnapshot {
            t_s: 0.0,
            mode: Mode::Hybrid,
            graph: b.build(),
            nodes: (0..s as u32)
                .map(NodeKind::Satellite)
                .chain(ground.iter().copied())
                .collect(),
            edges: kinds,
            ground_positions: vec![leo_geo::GeoPoint::from_degrees(0.0, 0.0); ground.len()],
            num_satellites: s,
            num_aircraft: 0,
        }
    }

    #[test]
    fn disconnection_of_hand_built_snapshots() {
        let city = [NodeKind::City(0)];
        // An ISL chain 0–1–2–3 grounded through satellite 3 only, whose
        // ground link comes before its ISL; 4 and 5 are isolated.
        let chain = hand_built(6, &city, &[(3, 6), (0, 1), (1, 2), (2, 3)]);
        assert_eq!(disconnected_fraction_of(&chain), 2.0 / 6.0);
        // The same chain without the ground link is all disconnected.
        let ungrounded = hand_built(6, &city, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(disconnected_fraction_of(&ungrounded), 1.0);
        // Isolated satellites beside unused ground nodes.
        let isolated = hand_built(3, &[NodeKind::City(0), NodeKind::Relay(0)], &[]);
        assert_eq!(disconnected_fraction_of(&isolated), 1.0);
        // Satellite 0's only ground link is an aircraft; satellite 1
        // reaches it over an ISL, satellite 2 has nothing.
        let aircraft = hand_built(3, &[NodeKind::Aircraft(77)], &[(0, 3), (0, 1)]);
        assert_eq!(disconnected_fraction_of(&aircraft), 1.0 / 3.0);
        for (snap, what) in [
            (&chain, "chain"),
            (&ungrounded, "ungrounded chain"),
            (&isolated, "isolated"),
            (&aircraft, "aircraft"),
        ] {
            assert_eq!(
                disconnected_fraction_of(snap).to_bits(),
                disconnected_by_components(snap).to_bits(),
                "{what}"
            );
        }
    }

    #[test]
    fn lax_model_overstates() {
        let c = ctx();
        let strict = throughput(&c, 0.0, Mode::Hybrid, 4);
        let lax = lax_maxflow_gbps(&c, 0.0, Mode::Hybrid);
        assert!(
            lax >= strict.aggregate_gbps,
            "lax ({lax}) must be an upper bound on per-pair ({})",
            strict.aggregate_gbps
        );
    }
}
