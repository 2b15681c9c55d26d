//! Routing-scheme ablation (the paper's §5 future work).
//!
//! The paper routes over plain (greedy) k edge-disjoint *shortest* paths
//! and notes that "a routing scheme that minimizes the maximum
//! utilization, for example, can offer higher throughput, albeit at the
//! cost of increased latency". This module implements that alternative —
//! sequential congestion-aware path selection with loads feeding back
//! into link costs — plus Suurballe-optimal disjoint pairs, so the three
//! schemes can be compared on the same snapshot.

use crate::snapshot::{Mode, StudyContext};
use leo_graph::{
    k_edge_disjoint_paths_with, suurballe_with, with_thread_workspace, DijkstraWorkspace, Path,
};
use leo_util::span;

/// Which path-selection scheme to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingScheme {
    /// The paper's scheme: greedy k edge-disjoint shortest paths.
    ShortestDisjoint,
    /// Suurballe's optimal 2-edge-disjoint pair (k is capped at 2).
    SuurballePair,
    /// Sequential congestion-aware routing: link cost is delay inflated
    /// by the squared utilization of already-routed flows.
    CongestionAware,
}

/// Outcome of routing all pairs with unit demand per sub-flow.
#[derive(Debug, Clone)]
pub struct RoutingOutcome {
    /// The scheme evaluated.
    pub scheme: RoutingScheme,
    /// Maximum link utilization (unit-demand load / capacity).
    pub max_utilization: f64,
    /// Mean propagation delay over all selected paths, ms (the latency
    /// price of congestion awareness).
    pub mean_path_delay_ms: f64,
    /// Total sub-flows routed.
    pub flows: usize,
}

/// Route every pair under `scheme` with `k` sub-flows of unit demand and
/// measure link utilizations and path delays.
pub fn route_all(
    ctx: &StudyContext,
    t_s: f64,
    mode: Mode,
    k: usize,
    scheme: RoutingScheme,
) -> RoutingOutcome {
    let _span = span!(
        "route_all",
        t_s = t_s,
        mode = format!("{mode:?}"),
        k = k,
        scheme = format!("{scheme:?}"),
    );
    let snap = ctx.snapshot(t_s, mode);
    let ne = snap.graph.num_edges();
    let mut load = vec![0.0f64; ne];
    let cap: Vec<f64> = (0..ne as u32)
        .map(|e| snap.edge_capacity_gbps(&ctx.config.network, e))
        .collect();
    let mut delays_ms = Vec::new();
    let mut flows = 0usize;

    with_thread_workspace(|ws| {
        for pair in &ctx.pairs {
            let s = snap.city_node(pair.src as usize);
            let d = snap.city_node(pair.dst as usize);
            let paths: Vec<Path> = match scheme {
                RoutingScheme::ShortestDisjoint => {
                    k_edge_disjoint_paths_with(&snap.graph, s, d, k, None, ws)
                }
                RoutingScheme::SuurballePair => {
                    let mut p = suurballe_with(&snap.graph, s, d, ws);
                    p.truncate(k.min(2));
                    p
                }
                RoutingScheme::CongestionAware => {
                    congestion_aware_paths(&snap.graph, s, d, k, &load, &cap, ws)
                }
            };
            for p in &paths {
                for &e in &p.edges {
                    load[e as usize] += 1.0;
                }
                delays_ms.push(crate::rtt_ms(p.total_weight) / 2.0);
                flows += 1;
            }
        }
    });
    let max_utilization = load
        .iter()
        .zip(&cap)
        .map(|(l, c)| if *c > 0.0 { l / c } else { 0.0 })
        .fold(0.0f64, f64::max);
    RoutingOutcome {
        scheme,
        max_utilization,
        mean_path_delay_ms: if delays_ms.is_empty() {
            0.0
        } else {
            delays_ms.iter().sum::<f64>() / delays_ms.len() as f64
        },
        flows,
    }
}

/// k edge-disjoint paths chosen under congestion-inflated costs:
/// `cost(e) = delay(e) · (1 + 4·(load/cap)²)`.
///
/// Because Dijkstra needs static weights, we approximate by scaling the
/// disabled-mask trick: paths are found one at a time on a cost-adjusted
/// copy of the graph.
fn congestion_aware_paths(
    g: &leo_graph::Graph,
    s: leo_graph::NodeId,
    d: leo_graph::NodeId,
    k: usize,
    load: &[f64],
    cap: &[f64],
    ws: &mut DijkstraWorkspace,
) -> Vec<Path> {
    // Build an adjusted graph once per pair.
    let mut b = leo_graph::GraphBuilder::new(g.num_nodes());
    for e in 0..g.num_edges() as u32 {
        let (u, v, w) = g.edge(e);
        let util = if cap[e as usize] > 0.0 {
            load[e as usize] / cap[e as usize]
        } else {
            0.0
        };
        b.add_edge(u, v, w * (1.0 + 4.0 * util * util));
    }
    let adjusted = b.build();
    let mut mask = ws.take_mask(g.num_edges());
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let found = ws.run(&adjusted, s, Some(&mask), Some(d)).extract_path(d);
        match found {
            Some(p) => {
                for &e in &p.edges {
                    mask[e as usize] = true;
                }
                // Report the path with its *true* delay, not the inflated
                // cost.
                let true_weight: f64 = p.edges.iter().map(|&e| g.edge(e).2).sum();
                out.push(Path {
                    total_weight: true_weight,
                    ..p
                });
            }
            None => break,
        }
    }
    ws.put_mask(mask);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    fn ctx() -> StudyContext {
        StudyContext::build(ExperimentScale::Tiny.config())
    }

    #[test]
    fn congestion_awareness_reduces_max_utilization() {
        let c = ctx();
        let sp = route_all(&c, 0.0, Mode::Hybrid, 2, RoutingScheme::ShortestDisjoint);
        let ca = route_all(&c, 0.0, Mode::Hybrid, 2, RoutingScheme::CongestionAware);
        assert!(
            ca.max_utilization <= sp.max_utilization + 1e-9,
            "congestion-aware {} vs shortest {}",
            ca.max_utilization,
            sp.max_utilization
        );
    }

    #[test]
    fn congestion_awareness_costs_latency() {
        let c = ctx();
        let sp = route_all(&c, 0.0, Mode::Hybrid, 2, RoutingScheme::ShortestDisjoint);
        let ca = route_all(&c, 0.0, Mode::Hybrid, 2, RoutingScheme::CongestionAware);
        // The paper's stated tradeoff: detours for load balance.
        //
        // Re-pinned for the leo-util PRNG (xoshiro256++ replaced StdRng, so
        // the Tiny-scale pair sample changed): strict `ca >= sp` is not an
        // invariant of the scheme — congestion-aware cost inflation can pick
        // a *different first path* whose disjoint complement is marginally
        // shorter in true delay. On the new streams ca trails sp by ~0.004%,
        // so assert the tradeoff up to a small relative slack instead.
        assert!(
            ca.mean_path_delay_ms >= sp.mean_path_delay_ms * (1.0 - 1e-4),
            "congestion-aware delay {} far below shortest {}",
            ca.mean_path_delay_ms,
            sp.mean_path_delay_ms
        );
    }

    #[test]
    fn suurballe_routes_pairs() {
        let c = ctx();
        let su = route_all(&c, 0.0, Mode::Hybrid, 2, RoutingScheme::SuurballePair);
        assert!(su.flows > 0);
        assert!(su.max_utilization > 0.0);
    }

    #[test]
    fn flows_bounded_by_pairs_times_k() {
        let c = ctx();
        for scheme in [
            RoutingScheme::ShortestDisjoint,
            RoutingScheme::SuurballePair,
            RoutingScheme::CongestionAware,
        ] {
            let r = route_all(&c, 0.0, Mode::Hybrid, 2, scheme);
            assert!(
                r.flows <= c.pairs.len() * 2,
                "{scheme:?}: {} flows",
                r.flows
            );
        }
    }
}
