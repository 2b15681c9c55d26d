//! k edge-disjoint shortest paths.
//!
//! The paper's throughput experiments route each city-pair's traffic over
//! `k` **edge-disjoint** shortest paths (k = 1 and 4), found the way
//! floodns does: compute the shortest path, remove its edges, and repeat.
//! This greedy scheme is not globally optimal (unlike Suurballe's), but it
//! is exactly what the paper's tooling uses, so we reproduce it; the
//! resulting sub-flows never share an edge, so max-min fairness can treat
//! them independently.
//!
//! On a graph with transit nodes (see [`Graph::set_transit`]) every
//! search crosses them through the graph's two-hop index, masked or not,
//! with the paths of plain searches bit for bit: the first search runs
//! unmasked, and as each path is masked, the neighbours of its transit
//! nodes (and of every transit endpoint of a `disabled` edge) become
//! *exposed*, and cross their transit neighbours pair by pair against the
//! mask instead of through the index.

use crate::graph::{Graph, NodeId};
use crate::shortest::{DijkstraWorkspace, Path};

/// Find up to `k` edge-disjoint paths from `source` to `target`, shortest
/// first, by iteratively removing used edges.
///
/// Returns fewer than `k` paths (possibly zero) when the graph runs out of
/// edge-disjoint routes. `disabled` optionally pre-disables edges (e.g.
/// failed links); it is not modified. When `source == target` the one
/// path is the zero-hop `[source]`, returned once (for `k ≥ 1`): it masks
/// no edge, so the next search would only find it again.
pub fn k_edge_disjoint_paths(
    g: &Graph,
    source: NodeId,
    target: NodeId,
    k: usize,
    disabled: Option<&[bool]>,
) -> Vec<Path> {
    k_edge_disjoint_paths_with(
        g,
        source,
        target,
        k,
        disabled,
        &mut DijkstraWorkspace::new(),
    )
}

/// [`k_edge_disjoint_paths`] reusing the caller's warm workspace: all
/// SSSP buffers and the working edge mask are amortized across calls.
/// Each search is a one-target [`DijkstraWorkspace::run_multi`], so the
/// many pairs routed over one snapshot share its landmark table, and,
/// masked or not, each crosses transit nodes as an unmasked one does.
/// Without `disabled`, the first search runs unmasked, and `k = 1`
/// takes no mask at all.
pub fn k_edge_disjoint_paths_with(
    g: &Graph,
    source: NodeId,
    target: NodeId,
    k: usize,
    disabled: Option<&[bool]>,
    ws: &mut DijkstraWorkspace,
) -> Vec<Path> {
    let transit = g.transit();
    ws.clear_exposed(g.num_nodes());
    let mut mask = None;
    if let Some(d) = disabled {
        // lint: allow(panic-reachable) caller contract: the disabled mask is indexed by edge id; a mismatch means it was built for a different graph
        assert_eq!(d.len(), g.num_edges());
        let mut m = ws.take_mask(d.len());
        m.copy_from_slice(d);
        for r in transit.clone() {
            if g.neighbors(r).iter().any(|h| d[h.edge as usize]) {
                ws.expose(g, r);
            }
        }
        mask = Some(m);
    }
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let found = ws
            .run_exposed(g, source, mask.as_deref(), target)
            .extract_path(target);
        let Some(p) = found else { break };
        // A path without edges (`source == target`) masks nothing, so
        // the next search would find it again.
        let last = p.edges.is_empty() || out.len() + 1 == k;
        if !last {
            let m = mask.get_or_insert_with(|| ws.take_mask(g.num_edges()));
            for &e in &p.edges {
                m[e as usize] = true;
            }
            for &v in p.nodes.iter().filter(|v| transit.contains(v)) {
                ws.expose(g, v);
            }
        }
        out.push(p);
        if last {
            break;
        }
    }
    if let Some(m) = mask {
        ws.put_mask(m);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use std::collections::HashSet;

    /// Two disjoint routes 0→3: 0-1-3 (cost 2) and 0-2-3 (cost 4).
    fn two_route() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(2, 3, 2.0);
        b.build()
    }

    #[test]
    fn finds_paths_shortest_first() {
        let g = two_route();
        let paths = k_edge_disjoint_paths(&g, 0, 3, 4, None);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].total_weight, 2.0);
        assert_eq!(paths[1].total_weight, 4.0);
    }

    #[test]
    fn paths_share_no_edges() {
        let g = two_route();
        let paths = k_edge_disjoint_paths(&g, 0, 3, 4, None);
        let mut seen = HashSet::new();
        for p in &paths {
            for e in &p.edges {
                assert!(seen.insert(*e), "edge {e} reused");
            }
        }
    }

    #[test]
    fn k_limits_path_count() {
        let g = two_route();
        assert_eq!(k_edge_disjoint_paths(&g, 0, 3, 1, None).len(), 1);
    }

    #[test]
    fn respects_predisabled_edges() {
        let g = two_route();
        let mut disabled = vec![false; g.num_edges()];
        disabled[0] = true; // kill 0-1
        let paths = k_edge_disjoint_paths(&g, 0, 3, 4, Some(&disabled));
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![0, 2, 3]);
    }

    /// A path from a node to itself has no edge to mask: it comes back
    /// once, not `k` times.
    #[test]
    fn same_source_and_target_returns_the_zero_hop_path_once() {
        let g = two_route();
        let zero_hop = Path {
            nodes: vec![2],
            edges: vec![],
            total_weight: 0.0,
        };
        assert_eq!(k_edge_disjoint_paths(&g, 2, 2, 4, None), vec![zero_hop]);
        assert!(k_edge_disjoint_paths(&g, 2, 2, 0, None).is_empty());
    }

    /// Relays 5 and 6 both join nodes 1 and 2, which nodes 0 and 3 reach
    /// by two parallel links each, and relay 7 joins node 0 to node 4.
    /// The pair `1 → 5 → 2` weighs 2 and `1 → 6 → 2` 10, so the two-hop
    /// index keeps only relay 5's pairs. Once relay 5 has a masked link,
    /// by the first path or by `disabled`, nodes 1 and 2 are exposed and
    /// cross relay 6 pair by pair, as the unmarked graph's plain searches
    /// do, still without settling it or relay 7.
    #[test]
    fn exposed_nodes_cross_the_relays_the_index_dropped() {
        let mut b = GraphBuilder::new(8);
        for (u, v) in [(0, 1), (0, 1), (2, 3), (2, 3)] {
            b.add_edge(u, v, 1.0);
        }
        for (u, v, w) in [(1, 5, 1.0), (5, 2, 1.0), (1, 6, 5.0), (6, 2, 5.0)] {
            b.add_edge(u, v, w);
        }
        b.add_edge(0, 7, 1.0);
        b.add_edge(7, 4, 1.0);
        let plain = b.build();
        let mut g = plain.clone();
        g.set_transit(5);
        assert_eq!(g.two_hop_pairs(), Some(4), "relay 6's pairs dropped");
        let mut ws = DijkstraWorkspace::new();
        let paths = k_edge_disjoint_paths_with(&g, 0, 3, 2, None, &mut ws);
        let view = ws.view();
        assert!(view.reached(4) && !view.reached(6) && !view.reached(7));
        assert_eq!(paths, k_edge_disjoint_paths(&plain, 0, 3, 2, None));
        let nodes: Vec<_> = paths.iter().map(|p| p.nodes.clone()).collect();
        assert_eq!(nodes, [vec![0, 1, 5, 2, 3], vec![0, 1, 6, 2, 3]]);
        assert_eq!(paths[1].total_weight, 12.0);
        let mut disabled = vec![false; g.num_edges()];
        disabled[5] = true; // 5-2
        let paths = k_edge_disjoint_paths_with(&g, 0, 3, 4, Some(&disabled), &mut ws);
        assert_eq!(
            paths,
            k_edge_disjoint_paths(&plain, 0, 3, 4, Some(&disabled))
        );
        let nodes: Vec<_> = paths.iter().map(|p| p.nodes.clone()).collect();
        assert_eq!(nodes, [vec![0, 1, 6, 2, 3]]);
    }

    /// Two exposed neighbours of one relay offer it equal folds, and the
    /// one with the larger label settles first; the second search must
    /// still leave the relay through its canonical parent, the one with
    /// the smaller label. The first path, 2 → 6 → 0 → 3, masks relay 6's
    /// links to 2 and 0, which exposes 0, 1 and 2, and masks 0's direct
    /// link to 3. In the second search 1 gets label 5 and 0 label 5.5,
    /// both through relay 4, and both fold 7.5 into relay 5 (5 + 2.5 =
    /// 5.5 + 2). Yet 0 settles first: the bounds were built unmasked and
    /// still see it one 1.5 link from the target. So 1 crosses relay 5
    /// second with an equal fold, and the crossing must still be made:
    /// the plain search gives relay 5 the parent 1.
    #[test]
    fn equal_folds_into_a_relay_keep_its_canonical_parent() {
        let mut b = GraphBuilder::new(7);
        b.add_edge(3, 0, 1.5);
        for (r, v, w) in [
            (4, 2, 3.0),
            (4, 0, 2.5),
            (4, 1, 2.0),
            (5, 1, 2.5),
            (5, 3, 1.0),
            (5, 0, 2.0),
            (6, 0, 3.0),
            (6, 2, 2.0),
            (6, 1, 2.5),
        ] {
            b.add_edge(r, v, w);
        }
        let mut plain = b.build();
        plain.set_coords([
            [2.0, 0.0, 1.0],
            [1.0, 0.0, 1.0],
            [0.0, 1.0, 1.0],
            [0.0, 4.0, 1.0],
            [0.0, 1.0, 0.0],
            [2.0, 3.0, 0.0],
            [0.0, 2.0, 0.0],
        ]);
        let mut g = plain.clone();
        g.set_transit(4);
        assert!(g.lambda() > 0.0, "goal-directed");
        assert!(g.two_hop_pairs().is_some(), "crossing relays");
        let paths = k_edge_disjoint_paths(&g, 2, 3, 2, None);
        assert_eq!(paths, k_edge_disjoint_paths(&plain, 2, 3, 2, None));
        let nodes: Vec<_> = paths.iter().map(|p| p.nodes.clone()).collect();
        assert_eq!(nodes, [vec![2, 6, 0, 3], vec![2, 4, 1, 5, 3]]);
        assert_eq!(paths[1].total_weight, 8.5);
    }

    #[test]
    fn disconnected_returns_empty() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert!(k_edge_disjoint_paths(&g, 0, 2, 3, None).is_empty());
    }

    #[test]
    fn shared_bottleneck_limits_disjoint_count() {
        // Diamond whose routes converge on one bridge edge: only one
        // edge-disjoint path can exist.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 4, 1.0); // bridge
        let g = b.build();
        let paths = k_edge_disjoint_paths(&g, 0, 4, 4, None);
        assert_eq!(paths.len(), 1, "bridge edge allows only one disjoint path");
    }

    #[test]
    fn warm_workspace_matches_fresh() {
        let g = two_route();
        let mut ws = DijkstraWorkspace::new();
        for target in [3u32, 2, 1] {
            let fresh = k_edge_disjoint_paths(&g, 0, target, 4, None);
            let warm = k_edge_disjoint_paths_with(&g, 0, target, 4, None, &mut ws);
            assert_eq!(fresh, warm);
        }
        assert!(ws.runs() >= 3);
    }

    #[test]
    fn grid_supports_multiple_disjoint_paths() {
        // 4x4 grid: corner-to-corner supports exactly 2 edge-disjoint paths
        // (limited by corner degree).
        let n = 4u32;
        let id = |r: u32, c: u32| r * n + c;
        let mut b = GraphBuilder::new((n * n) as usize);
        for r in 0..n {
            for c in 0..n {
                if c + 1 < n {
                    b.add_edge(id(r, c), id(r, c + 1), 1.0);
                }
                if r + 1 < n {
                    b.add_edge(id(r, c), id(r + 1, c), 1.0);
                }
            }
        }
        let g = b.build();
        let paths = k_edge_disjoint_paths(&g, 0, n * n - 1, 4, None);
        assert_eq!(paths.len(), 2);
        for p in &paths {
            assert_eq!(p.total_weight, 6.0, "grid corner distance is 6");
        }
    }
}
