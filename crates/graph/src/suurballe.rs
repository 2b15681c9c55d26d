//! Suurballe's algorithm: a *minimum total weight* pair of edge-disjoint
//! paths.
//!
//! The paper routes sub-flows over greedy iterative disjoint paths (as
//! floodns does) and explicitly leaves "superior routing schemes" to
//! future work (§5). Suurballe's algorithm is the classical optimal
//! answer for two paths: it can find disjoint pairs the greedy method
//! misses (greedy's first path may sever all remaining routes), and its
//! total weight is never worse. `leo-bench`'s routing ablation compares
//! the two.
//!
//! Implementation: Dijkstra potentials make all reduced costs
//! non-negative; the second search runs on the residual graph where the
//! first path's arcs are reversed (zero reduced cost); overlapping arcs
//! cancel when the two arc-sets are merged.

use crate::graph::{EdgeId, Graph, NodeId};
use crate::shortest::{DijkstraWorkspace, Path};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A pair of edge-disjoint paths with minimal combined weight, or fewer
/// if the graph doesn't support two.
///
/// Returns `vec![]` (unreachable), `vec![p]` (only one path exists), or
/// `vec![p1, p2]` with `p1.total_weight ≤ p2.total_weight` and no shared
/// [`EdgeId`]s. The combined weight is optimal over all edge-disjoint
/// pairs.
pub fn suurballe(g: &Graph, source: NodeId, target: NodeId) -> Vec<Path> {
    suurballe_with(g, source, target, &mut DijkstraWorkspace::new())
}

/// [`suurballe`] reusing the caller's warm workspace for the first
/// (potential-building) SSSP and the potentials buffer; the residual
/// reduced-cost search keeps its own small local state.
pub fn suurballe_with(
    g: &Graph,
    source: NodeId,
    target: NodeId,
    ws: &mut DijkstraWorkspace,
) -> Vec<Path> {
    // lint: allow(panic-reachable) degenerate query: disjoint-pair routing needs distinct endpoints
    assert_ne!(source, target, "source and target must differ");
    // 1. Shortest-path tree from the source for potentials. Full run (no
    // early exit), so every reachable node's distance is exact.
    let first = ws.run(g, source, None, None).extract_path(target);
    let Some(first) = first else {
        return Vec::new();
    };
    let mut pot_buf = ws.take_dist_buf();
    ws.view().write_dists(&mut pot_buf);
    let pot = &pot_buf;

    // Arc usage of the first path, keyed by (edge, direction): direction
    // 0 = from the lower endpoint, 1 = from the higher one.
    let arc_key = |from: NodeId, e: EdgeId| -> (EdgeId, u8) {
        let (u, _, _) = g.edge(e);
        (e, if from == u { 0 } else { 1 })
    };
    let mut p1_arcs = std::collections::HashSet::new();
    for (i, &e) in first.edges.iter().enumerate() {
        p1_arcs.insert(arc_key(first.nodes[i], e));
    }

    // 2. Dijkstra on reduced costs over the residual graph: the forward
    // arcs of P1 are removed; its reverse arcs have zero reduced cost.
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(NodeId, EdgeId)>> = vec![None; n];
    let mut settled = vec![false; n];
    #[derive(PartialEq)]
    struct Item {
        d: f64,
        v: NodeId,
    }
    impl Eq for Item {}
    impl Ord for Item {
        fn cmp(&self, o: &Self) -> Ordering {
            o.d.partial_cmp(&self.d).unwrap_or(Ordering::Equal)
        }
    }
    impl PartialOrd for Item {
        fn partial_cmp(&self, o: &Self) -> Option<Ordering> {
            Some(self.cmp(o))
        }
    }
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0.0;
    heap.push(Item { d: 0.0, v: source });
    while let Some(Item { d, v: u }) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        if !pot[u as usize].is_finite() {
            continue;
        }
        for h in g.neighbors(u) {
            if !pot[h.to as usize].is_finite() {
                continue;
            }
            // Forward arcs of P1 are deleted from the residual graph.
            if p1_arcs.contains(&arc_key(u, h.edge)) {
                continue;
            }
            // Reverse arcs of P1 (we're traversing edge e against P1's
            // direction) have reduced cost 0; other arcs have
            // w + pot[u] − pot[to] ≥ 0.
            let (a, b, _) = g.edge(h.edge);
            let other_dir_from = if u == a { b } else { a };
            let reduced = if p1_arcs.contains(&arc_key(other_dir_from, h.edge)) {
                0.0
            } else {
                h.weight + pot[u as usize] - pot[h.to as usize]
            };
            let nd = d + reduced.max(0.0);
            if nd < dist[h.to as usize] {
                dist[h.to as usize] = nd;
                parent[h.to as usize] = Some((u, h.edge));
                heap.push(Item { d: nd, v: h.to });
            }
        }
    }
    if !dist[target as usize].is_finite() {
        ws.put_dist_buf(pot_buf);
        return vec![first];
    }

    // 3. Merge: arcs of P1 plus arcs of P2, with opposite arcs of the
    // same edge cancelling; then peel two paths off the merged arc set.
    // A BTreeMap keyed by (edge, direction) keeps every downstream
    // traversal in sorted-key order — the peeled path composition must
    // not depend on hash iteration order.
    let mut arcs: std::collections::BTreeMap<(EdgeId, u8), u32> = Default::default();
    for (i, &e) in first.edges.iter().enumerate() {
        *arcs.entry(arc_key(first.nodes[i], e)).or_default() += 1;
    }
    let mut v = target;
    while v != source {
        #[expect(
            clippy::expect_used,
            reason = "dist[target] is finite, so every node on the parent chain was settled with a parent"
        )]
        let (p, e) = parent[v as usize].expect("reached node has parent");
        let key = arc_key(p, e);
        let (eu, ev, _) = g.edge(e);
        let opposite = (e, if key.1 == 0 { 1 } else { 0 });
        let _ = (eu, ev);
        if let Some(c) = arcs.get_mut(&opposite) {
            // Cancel with P1's opposite-direction use of this edge.
            *c -= 1;
            if *c == 0 {
                arcs.remove(&opposite);
            }
        } else {
            *arcs.entry(key).or_default() += 1;
        }
        v = p;
    }

    // Build per-node outgoing arc lists from the merged set, in sorted
    // arc order (deterministic: `peel` pops these lists, so their order
    // decides how the two paths share the merged arcs).
    let mut out: std::collections::BTreeMap<NodeId, Vec<(NodeId, EdgeId, f64)>> =
        Default::default();
    for (&(e, dir), &count) in &arcs {
        let (u, v, w) = g.edge(e);
        let (from, to) = if dir == 0 { (u, v) } else { (v, u) };
        for _ in 0..count {
            out.entry(from).or_default().push((to, e, w));
        }
    }
    let mut peel = || -> Option<Path> {
        let mut nodes = vec![source];
        let mut edges = Vec::new();
        let mut total = 0.0;
        let mut cur = source;
        while cur != target {
            let list = out.get_mut(&cur)?;
            let (to, e, w) = list.pop()?;
            if list.is_empty() {
                out.remove(&cur);
            }
            nodes.push(to);
            edges.push(e);
            total += w;
            cur = to;
            if edges.len() > g.num_edges() {
                return None; // defensive: malformed arc set
            }
        }
        Some(Path {
            nodes,
            edges,
            total_weight: total,
        })
    };
    let mut paths: Vec<Path> = (0..2).filter_map(|_| peel()).collect();
    paths.sort_by(|a, b| a.total_weight.total_cmp(&b.total_weight));
    ws.put_dist_buf(pot_buf);
    paths
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::k_edge_disjoint_paths;

    /// The classic trap graph where greedy fails: the shortest path uses
    /// the middle edge that both disjoint routes need.
    ///
    /// ```text
    ///   0 --1-- 1 --1-- 3
    ///   |       |       |
    ///   2       2       2       shortest 0-1-3 (weight 2)
    ///   |       |       |
    ///   +------ 2 ------+       via 2: 0-2-3 (weight 4)
    /// ```
    fn trap() -> Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(2, 3, 2.0);
        b.add_edge(1, 2, 0.1); // tempting shortcut that greedy takes
        b.build()
    }

    #[test]
    fn finds_two_disjoint_paths() {
        let g = trap();
        let paths = suurballe(&g, 0, 3);
        assert_eq!(paths.len(), 2);
        let mut used = std::collections::HashSet::new();
        for p in &paths {
            for e in &p.edges {
                assert!(used.insert(*e), "paths share edge {e}");
            }
            // Path well-formed.
            assert_eq!(p.nodes.first(), Some(&0));
            assert_eq!(p.nodes.last(), Some(&3));
        }
    }

    #[test]
    fn total_weight_not_worse_than_greedy() {
        let g = trap();
        let opt = suurballe(&g, 0, 3);
        let greedy = k_edge_disjoint_paths(&g, 0, 3, 2, None);
        assert_eq!(opt.len(), 2);
        let opt_total: f64 = opt.iter().map(|p| p.total_weight).sum();
        let greedy_total: f64 = greedy.iter().map(|p| p.total_weight).sum();
        if greedy.len() == 2 {
            assert!(opt_total <= greedy_total + 1e-9);
        }
    }

    #[test]
    fn single_path_when_bridge() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let g = b.build();
        let paths = suurballe(&g, 0, 2);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].nodes, vec![0, 1, 2]);
    }

    #[test]
    fn warm_workspace_matches_fresh() {
        let g = trap();
        let mut ws = DijkstraWorkspace::new();
        for (s, t) in [(0u32, 3u32), (1, 2), (0, 3)] {
            let fresh = suurballe(&g, s, t);
            let warm = suurballe_with(&g, s, t, &mut ws);
            assert_eq!(fresh, warm);
        }
    }

    #[test]
    fn unreachable_is_empty() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        assert!(suurballe(&g, 0, 2).is_empty());
    }

    #[test]
    fn parallel_edges_count_as_disjoint() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, 2.0);
        let g = b.build();
        let paths = suurballe(&g, 0, 1);
        assert_eq!(paths.len(), 2);
        let total: f64 = paths.iter().map(|p| p.total_weight).sum();
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn beats_greedy_on_trap_when_greedy_gets_one() {
        // Graph where greedy's first path destroys the only second route.
        //      0 -1- 1 -1- 2
        //      0 -5- 3 -5- 2 and 1-3 cheap cross edge
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 10.0);
        b.add_edge(0, 3, 5.0);
        b.add_edge(3, 2, 5.0);
        b.add_edge(1, 3, 0.5);
        let g = b.build();
        // Greedy: shortest is 0-1-3-2 (6.5), which uses 1-3 and 3-2,
        // leaving only 0-3 dead-ended → second path 0-... check.
        let greedy = k_edge_disjoint_paths(&g, 0, 2, 2, None);
        let opt = suurballe(&g, 0, 2);
        assert_eq!(opt.len(), 2, "optimal pair exists");
        if greedy.len() == 2 {
            let gt: f64 = greedy.iter().map(|p| p.total_weight).sum();
            let ot: f64 = opt.iter().map(|p| p.total_weight).sum();
            assert!(ot <= gt + 1e-9);
        }
    }

    #[test]
    fn grid_pair_is_optimal() {
        // On a 3x3 unit grid corner-to-corner, two disjoint paths of
        // total weight 8 exist (4 + 4).
        let n = 3u32;
        let id = |r: u32, c: u32| r * n + c;
        let mut b = GraphBuilder::new(9);
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
        let paths = suurballe(&g, 0, 8);
        assert_eq!(paths.len(), 2);
        let total: f64 = paths.iter().map(|p| p.total_weight).sum();
        assert!((total - 8.0).abs() < 1e-9, "total {total}");
    }
}
