//! k edge-disjoint shortest paths.
//!
//! The paper's throughput experiments route each city-pair's traffic over
//! `k` **edge-disjoint** shortest paths (k = 1 and 4), found the way
//! floodns does: compute the shortest path, remove its edges, and repeat.
//! This greedy scheme is not globally optimal (unlike Suurballe's), but it
//! is exactly what the paper's tooling uses, so we reproduce it; the
//! resulting sub-flows never share an edge, so max-min fairness can treat
//! them independently.

use crate::graph::{Graph, NodeId};
use crate::shortest::{DijkstraWorkspace, Path};

/// Find up to `k` edge-disjoint paths from `source` to `target`, shortest
/// first, by iteratively removing used edges.
///
/// Returns fewer than `k` paths (possibly zero) when the graph runs out of
/// edge-disjoint routes. `disabled` optionally pre-disables edges (e.g.
/// failed links); it is not modified.
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
/// many pairs routed over one snapshot share its landmark table.
pub fn k_edge_disjoint_paths_with(
    g: &Graph,
    source: NodeId,
    target: NodeId,
    k: usize,
    disabled: Option<&[bool]>,
    ws: &mut DijkstraWorkspace,
) -> Vec<Path> {
    let mut mask = ws.take_mask(g.num_edges());
    if let Some(d) = disabled {
        // lint: allow(panic-reachable) caller contract: the disabled mask is indexed by edge id; a mismatch means it was built for a different graph
        assert_eq!(d.len(), g.num_edges());
        mask.copy_from_slice(d);
    }
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        let found = ws
            .run_multi(g, source, Some(&mask), std::slice::from_ref(&target))
            .extract_path(target);
        match found {
            Some(p) => {
                for &e in &p.edges {
                    mask[e as usize] = true;
                }
                out.push(p);
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
