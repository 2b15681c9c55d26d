//! Property-based tests for graph algorithms on random graphs (on
//! `leo_util::check`; 256 cases per property, ≥ the proptest originals).

use leo_graph::*;
use leo_util::check::{check, Gen};
use leo_util::{check_assert, check_assert_eq};

/// Random connected-ish graph: n nodes, a random spanning-ish chain plus
/// random extra edges with random weights.
fn arb_graph(g: &mut Gen) -> Graph {
    let n = g.usize(2..40);
    let extra = g.vec(0..120, |g| (g.u32(0..40), g.u32(0..40), g.f64(0.1..100.0)));
    let mut b = GraphBuilder::new(n);
    // Chain keeps most graphs connected so paths usually exist.
    for i in 1..n as u32 {
        b.add_edge(i - 1, i, 1.0 + (i as f64 % 7.0));
    }
    for (u, v, w) in extra {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Bellman-Ford reference implementation.
fn bellman_ford(g: &Graph, source: u32) -> Vec<f64> {
    let n = g.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    dist[source as usize] = 0.0;
    for _ in 0..n {
        let mut changed = false;
        for e in 0..g.num_edges() as u32 {
            let (u, v, w) = g.edge(e);
            if dist[u as usize] + w < dist[v as usize] {
                dist[v as usize] = dist[u as usize] + w;
                changed = true;
            }
            if dist[v as usize] + w < dist[u as usize] {
                dist[u as usize] = dist[v as usize] + w;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Dijkstra agrees with Bellman-Ford on random graphs.
#[test]
fn dijkstra_matches_bellman_ford() {
    check("dijkstra_matches_bellman_ford", |gen| {
        let g = arb_graph(gen);
        let sp = dijkstra(&g, 0);
        let reference = bellman_ford(&g, 0);
        for (v, (&a, &b)) in sp.dist.iter().zip(&reference).enumerate() {
            if a.is_finite() || b.is_finite() {
                check_assert!((a - b).abs() < 1e-9, "node {v}: {a} vs {b}");
            }
        }
        Ok(())
    });
}

/// Extracted paths are well-formed: consecutive nodes joined by the
/// listed edges, weights summing to the reported distance.
#[test]
fn paths_are_well_formed() {
    check("paths_are_well_formed", |gen| {
        let g = arb_graph(gen);
        let target = gen.u32(0..40) % g.num_nodes() as u32;
        let sp = dijkstra(&g, 0);
        if let Some(p) = extract_path(&sp, target) {
            check_assert_eq!(p.nodes.len(), p.edges.len() + 1);
            let mut sum = 0.0;
            for (i, &e) in p.edges.iter().enumerate() {
                let (u, v, w) = g.edge(e);
                let (a, b) = (p.nodes[i], p.nodes[i + 1]);
                check_assert!((u == a && v == b) || (u == b && v == a));
                sum += w;
            }
            check_assert!((sum - p.total_weight).abs() < 1e-9);
        }
        Ok(())
    });
}

/// k-edge-disjoint paths: no edge reuse, non-decreasing weights, and
/// path 0 is the global shortest path.
#[test]
fn disjoint_paths_invariants() {
    check("disjoint_paths_invariants", |gen| {
        let g = arb_graph(gen);
        let k = gen.usize(1..5);
        let target = (g.num_nodes() - 1) as u32;
        let paths = k_edge_disjoint_paths(&g, 0, target, k, None);
        check_assert!(paths.len() <= k);
        let mut used = std::collections::HashSet::new();
        let mut prev = 0.0;
        for p in &paths {
            check_assert!(
                p.total_weight >= prev - 1e-9,
                "weights must be non-decreasing"
            );
            prev = p.total_weight;
            for &e in &p.edges {
                check_assert!(used.insert(e), "edge {e} reused across paths");
            }
        }
        if let Some(first) = paths.first() {
            let sp = dijkstra(&g, 0);
            check_assert!((first.total_weight - sp.dist[target as usize]).abs() < 1e-9);
        }
        Ok(())
    });
}

/// Components partition the nodes, and nodes in one component are
/// mutually reachable per Dijkstra.
#[test]
fn components_consistent_with_reachability() {
    check("components_consistent_with_reachability", |gen| {
        let g = arb_graph(gen);
        let labels = connected_components(&g, None);
        let sp = dijkstra(&g, 0);
        for v in 0..g.num_nodes() {
            check_assert_eq!(labels[v] == labels[0], sp.reached(v as u32));
        }
        let sizes = component_sizes(&labels);
        check_assert_eq!(sizes.iter().sum::<usize>(), g.num_nodes());
        Ok(())
    });
}

/// One warm `DijkstraWorkspace` reused across random graphs and sources
/// (with and without masks, with and without early-exit targets) agrees
/// exactly with fresh-allocation runs.
#[test]
fn workspace_matches_fresh_allocation() {
    let mut ws = DijkstraWorkspace::new();
    check("workspace_matches_fresh_allocation", |gen| {
        let g = arb_graph(gen);
        let n = g.num_nodes() as u32;
        let source = gen.u32(0..40) % n;
        let masked = gen.bool();
        let mask: Vec<bool> = (0..g.num_edges()).map(|_| masked && gen.bool()).collect();
        let target = if gen.bool() {
            Some(gen.u32(0..40) % n)
        } else {
            None
        };
        let fresh = dijkstra_with_mask(&g, source, &mask, target);
        let view = ws.run(&g, source, Some(&mask), target);
        for v in 0..n {
            check_assert_eq!(view.dist(v), fresh.dist[v as usize]);
            check_assert_eq!(view.reached(v), fresh.reached(v));
            check_assert_eq!(
                view.extract_path(v).map(|p| (p.nodes, p.edges)),
                extract_path(&fresh, v).map(|p| (p.nodes, p.edges))
            );
        }
        let materialized = view.to_shortest_paths();
        check_assert_eq!(materialized.dist, fresh.dist);
        check_assert_eq!(materialized.parent_edge, fresh.parent_edge);
        check_assert_eq!(materialized.parent_node, fresh.parent_node);
        Ok(())
    });
}

/// Early-exit runs never report a distance that disagrees with the full
/// run: every node an early-exited run claims reached has the true
/// shortest distance, and the target itself always does.
#[test]
fn early_exit_distances_are_never_stale() {
    check("early_exit_distances_are_never_stale", |gen| {
        let g = arb_graph(gen);
        let n = g.num_nodes() as u32;
        let target = gen.u32(0..40) % n;
        let mask = vec![false; g.num_edges()];
        let early = dijkstra_with_mask(&g, 0, &mask, Some(target));
        let full = dijkstra(&g, 0);
        check_assert!(
            (early.dist[target as usize] - full.dist[target as usize]).abs() < 1e-12
                || (!early.reached(target) && !full.reached(target))
        );
        for v in 0..n {
            if early.reached(v) {
                check_assert!(
                    (early.dist[v as usize] - full.dist[v as usize]).abs() < 1e-12,
                    "node {v}: early {} vs full {}",
                    early.dist[v as usize],
                    full.dist[v as usize]
                );
            }
        }
        Ok(())
    });
}

/// A graph with coordinates whose weights are at least the straight-line
/// length over a per-graph speed — the shape of every snapshot graph —
/// in one of two flavours. Geometric: random points on an integer
/// lattice (so coincident points occur), random edges with random slack
/// above the length, some parallel duplicates, occasionally a zero
/// weight. Grid: unit spacing and unit weights, so λ is as tight as it
/// gets and equal-length paths tie exactly everywhere. The last node is
/// always isolated, so some targets are unreachable.
fn arb_geometric_graph(gen: &mut Gen) -> Graph {
    let speed = [1.0, 3.0, 299_792_458.0][gen.usize(0..3)];
    let (points, edges) = if gen.bool() {
        let (rows, cols) = (gen.u32(1..7), gen.u32(2..7));
        let id = |r: u32, c: u32| r * cols + c;
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1), 1.0 / speed));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c), 1.0 / speed));
                }
            }
        }
        let points: Vec<[f64; 3]> = (0..rows * cols)
            .map(|i| [(i / cols) as f64, (i % cols) as f64, 0.0])
            .collect();
        (points, edges)
    } else {
        let n = gen.usize(2..30);
        let points: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    gen.f64(0.0..6.0).floor(),
                    gen.f64(0.0..6.0).floor(),
                    gen.f64(0.0..3.0).floor(),
                ]
            })
            .collect();
        let mut edges = Vec::new();
        for i in 1..n as u32 {
            edges.push((gen.u32(0..i), i, 0.0));
        }
        for _ in 0..gen.usize(0..3 * n) {
            let (u, v) = (gen.u32(0..n as u32), gen.u32(0..n as u32));
            if u != v {
                edges.push((u, v, 0.0));
            }
        }
        for e in &mut edges {
            let (a, b) = (points[e.0 as usize], points[e.1 as usize]);
            let len =
                ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
            // Exact-length edges half the time, so λ meets its tightest
            // ratio; coincident endpoints still need a positive weight.
            let slack = if gen.bool() { 0.0 } else { gen.f64(0.0..2.0) };
            e.2 = (len + slack).max(0.5) / speed;
        }
        for _ in 0..gen.usize(0..4) {
            let dup = edges[gen.usize(0..edges.len())];
            edges.push(dup);
        }
        if gen.u32(0..8) == 0 {
            let i = gen.usize(0..edges.len());
            edges[i].2 = 0.0;
        }
        (points, edges)
    };
    let n = points.len() + 1;
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in &edges {
        b.add_edge(u, v, w);
    }
    let mut g = b.build();
    g.set_coords(points.into_iter().chain([[50.0, 50.0, 50.0]]));
    g
}

/// Goal direction is invisible in the results: on random geometric
/// graphs (grids with exact ties, parallel edges, coincident points,
/// random masks), a run with 1–4 targets (duplicates and unreachable
/// ones included) reports, for every target, the same distance bits and
/// the same path nodes and edges as the same run on the graph without
/// coordinates (λ = 0, plain Dijkstra); every other node it settles is
/// exact too; and k-edge-disjoint path sets match. Runs with three or
/// four distinct targets are past the goal-direction cap, so both sides
/// of it are covered.
#[test]
fn goal_directed_search_is_bit_identical_to_dijkstra() {
    let (mut ws, mut plain_ws) = (DijkstraWorkspace::new(), DijkstraWorkspace::new());
    let mut guided_runs = 0;
    check("goal_directed_search_is_bit_identical_to_dijkstra", |gen| {
        let g = arb_geometric_graph(gen);
        let mut plain = g.clone();
        plain.set_coords([]);
        check_assert_eq!(plain.lambda(), 0.0);
        let n = g.num_nodes() as u32;
        let source = gen.u32(0..n);
        let masked = gen.bool();
        let mask: Vec<bool> = (0..g.num_edges())
            .map(|_| masked && gen.u32(0..4) == 0)
            .collect();
        let mut targets = gen.vec(1..5, |gen| gen.u32(0..n));
        if gen.bool() {
            targets.push(targets[0]);
        }
        let mut distinct = targets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if g.lambda() > 0.0 && distinct.len() <= 2 {
            guided_runs += 1;
        }
        let full = plain_ws
            .run(&plain, source, Some(&mask), None)
            .to_shortest_paths();
        let reference = plain_ws
            .run_multi(&plain, source, Some(&mask), &targets)
            .to_shortest_paths();
        let view = ws.run_multi(&g, source, Some(&mask), &targets);
        for &t in &targets {
            check_assert_eq!(
                view.dist(t).to_bits(),
                reference.dist[t as usize].to_bits(),
                "target {t}"
            );
            check_assert_eq!(
                view.extract_path(t).map(|p| (p.nodes, p.edges)),
                extract_path(&reference, t).map(|p| (p.nodes, p.edges)),
                "target {t}"
            );
        }
        for v in (0..n).filter(|&v| view.reached(v)) {
            check_assert_eq!(
                view.dist(v).to_bits(),
                full.dist[v as usize].to_bits(),
                "node {v}"
            );
            check_assert_eq!(
                view.extract_path(v).map(|p| (p.nodes, p.edges)),
                extract_path(&full, v).map(|p| (p.nodes, p.edges)),
                "node {v}"
            );
        }
        let k = gen.usize(1..5);
        for &t in &targets {
            let guided = k_edge_disjoint_paths_with(&g, source, t, k, Some(&mask), &mut ws);
            let reference =
                k_edge_disjoint_paths_with(&plain, source, t, k, Some(&mask), &mut plain_ws);
            check_assert_eq!(guided, reference, "k = {k}, target {t}");
        }
        Ok(())
    });
    assert!(
        guided_runs > 64,
        "only {guided_runs} of 256 cases ran goal-directed (λ > 0, ≤ 2 distinct targets)"
    );
}

/// An edge list in insertion order (ids = positions), the form
/// [`mutate_edges`] steps to produce `SptWorkspace::apply` deltas.
fn arb_edge_list(gen: &mut Gen, n: usize) -> Vec<(u32, u32, f64)> {
    let mut edges = Vec::new();
    for i in 1..n as u32 {
        edges.push((i - 1, i, 1.0 + (i as f64 % 7.0)));
    }
    let extra = gen.vec(0..80, |g| (g.u32(0..40), g.u32(0..40), g.f64(0.1..100.0)));
    for (u, v, w) in extra {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            edges.push((u, v, w));
        }
    }
    edges
}

fn graph_of(n: usize, edges: &[(u32, u32, f64)]) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v, w) in edges {
        b.add_edge(u, v, w);
    }
    b.build()
}

/// Step an edge list to a next graph version — some edges removed, some
/// reweighted (surviving ids stay compact in insertion order), some
/// added — returning exactly the delta shape `SptWorkspace::apply`
/// consumes.
#[allow(clippy::type_complexity)]
fn mutate_edges(
    gen: &mut Gen,
    n: usize,
    edges: &[(u32, u32, f64)],
) -> (Vec<(u32, u32, f64)>, Vec<EdgeId>, Vec<(EdgeId, EdgeId)>) {
    let mut next = Vec::new();
    let mut removed = Vec::new();
    let mut reweighted = Vec::new();
    for (old_id, &(u, v, w)) in edges.iter().enumerate() {
        if gen.u32(0..100) < 15 {
            removed.push(old_id as EdgeId);
        } else {
            let w = if gen.u32(0..100) < 30 {
                gen.f64(0.1..100.0)
            } else {
                w
            };
            reweighted.push((old_id as EdgeId, next.len() as EdgeId));
            next.push((u, v, w));
        }
    }
    let added = gen.vec(0..20, |g| (g.u32(0..40), g.u32(0..40), g.f64(0.1..100.0)));
    for (u, v, w) in added {
        let (u, v) = (u % n as u32, v % n as u32);
        if u != v {
            next.push((u, v, w));
        }
    }
    (next, removed, reweighted)
}

/// `SptWorkspace::apply_for_targets` is bitwise-equivalent to the full
/// drain for every queried target (distances and extracted paths), its
/// surviving labels are all final, and a subsequent *full* repair on the
/// same workspace recovers the complete tree bit-for-bit — the early
/// exit never leaks half-settled state into later deltas.
#[test]
fn spt_targeted_repair_matches_full_drain() {
    check("spt_targeted_early_exit_equivalence", |gen| {
        let n = gen.usize(2..40);
        let e0 = arb_edge_list(gen, n);
        let g0 = graph_of(n, &e0);
        let (e1, removed1, rew1) = mutate_edges(gen, n, &e0);
        let g1 = graph_of(n, &e1);
        let (e2, removed2, rew2) = mutate_edges(gen, n, &e1);
        let g2 = graph_of(n, &e2);
        let src = gen.u32(0..40) % n as u32;
        let targets = gen.vec(1..6, |g| g.u32(0..40) % n as u32);

        // Identical deterministic starting trees.
        let mut full = SptWorkspace::new();
        let mut fast = SptWorkspace::new();
        full.rebuild(&g0, src);
        fast.rebuild(&g0, src);

        full.apply(&g1, &removed1, &rew1);
        fast.apply_for_targets(&g1, &removed1, &rew1, &targets);
        for &t in &targets {
            check_assert_eq!(fast.dist(t).to_bits(), full.dist(t).to_bits());
            match (fast.extract_path(t), full.extract_path(t)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    check_assert_eq!(a.nodes, b.nodes);
                    check_assert_eq!(a.edges, b.edges);
                    check_assert_eq!(a.total_weight.to_bits(), b.total_weight.to_bits());
                }
                (a, b) => check_assert!(false, "target {t}: {a:?} vs {b:?}"),
            }
        }
        // Labels the early exit kept are final (match the full drain);
        // discarded ones read as unreached, never as stale values.
        for v in 0..n as u32 {
            let d = fast.dist(v);
            if d.is_finite() {
                check_assert_eq!(d.to_bits(), full.dist(v).to_bits());
            }
        }

        // Second delta, applied fully to both: complete bitwise recovery.
        full.apply(&g2, &removed2, &rew2);
        fast.apply(&g2, &removed2, &rew2);
        let fresh = dijkstra(&g2, src);
        for v in 0..n {
            check_assert_eq!(fast.dist(v as u32).to_bits(), full.dist(v as u32).to_bits());
            check_assert_eq!(fast.dist(v as u32).to_bits(), fresh.dist[v].to_bits());
        }
        check_assert_eq!(fast.parent_edges(), full.parent_edges());
        check_assert_eq!(fast.parent_nodes(), full.parent_nodes());
        Ok(())
    });
}

/// Deterministic witness that the early exit actually fires: on a long
/// uniform chain with the target two hops from the source, the drain
/// must stop within the first buckets and discard the far tail to the
/// unreached shape (a full drain would keep every label finite).
#[test]
fn spt_targeted_repair_discards_far_labels() {
    let n = 2000usize;
    let chain = |w0: f64| {
        let mut b = GraphBuilder::new(n);
        b.add_edge(0, 1, w0);
        for i in 2..n as u32 {
            b.add_edge(i - 1, i, 10.0);
        }
        b.build()
    };
    let g0 = chain(10.0);
    let g1 = chain(5.0);
    let rew: Vec<(EdgeId, EdgeId)> = (0..g0.num_edges() as EdgeId).map(|e| (e, e)).collect();

    let mut fast = SptWorkspace::new();
    fast.rebuild(&g0, 0);
    fast.apply_for_targets(&g1, &[], &rew, &[1]);
    assert_eq!(fast.dist(1), 5.0);
    assert!(
        !fast.dist(n as u32 - 1).is_finite(),
        "tail label survived — the early exit never fired"
    );

    // The truncated workspace still repairs back to a full exact tree.
    fast.apply(&g0, &[], &rew);
    let fresh = dijkstra(&g0, 0);
    for v in 0..n {
        assert_eq!(fast.dist(v as u32).to_bits(), fresh.dist[v].to_bits());
    }
}

/// Yen's k-shortest-paths on equal-weight grid graphs — the worst case
/// for spur-path tie-breaking, since every same-hop-count path costs
/// *exactly* the same (1.0-weight edges sum without rounding). The
/// warm-workspace variant must return byte-identical paths in the same
/// order as the workspace-free one, the ranking must be deterministic
/// (re-running gives the identical list), and the list must be sorted,
/// loopless, and duplicate-free.
#[test]
fn yen_tie_breaking_deterministic_on_equal_weight_grids() {
    let mut ws = DijkstraWorkspace::new();
    check("yen_equal_weight_grid_equivalence", |gen| {
        let rows = gen.usize(2..5);
        let cols = gen.usize(2..6);
        let n = rows * cols;
        let mut b = GraphBuilder::new(n);
        for r in 0..rows {
            for c in 0..cols {
                let i = (r * cols + c) as u32;
                if c + 1 < cols {
                    b.add_edge(i, i + 1, 1.0);
                }
                if r + 1 < rows {
                    b.add_edge(i, i + cols as u32, 1.0);
                }
            }
        }
        let g = b.build();
        let src = gen.u32(0..n as u32);
        let dst = (n - 1) as u32;
        let k = gen.usize(1..8);
        let fresh = yen_k_shortest(&g, src, dst, k);
        let warm = yen_k_shortest_with(&g, src, dst, k, &mut ws);
        check_assert_eq!(fresh.len(), warm.len(), "warm vs fresh count");
        for (i, (a, b)) in fresh.iter().zip(&warm).enumerate() {
            check_assert_eq!(a.nodes, b.nodes, "path {i} nodes");
            check_assert_eq!(a.edges, b.edges, "path {i} edges");
            check_assert_eq!(
                a.total_weight.to_bits(),
                b.total_weight.to_bits(),
                "path {i} weight bits"
            );
        }
        // Re-running must reproduce the identical ranking (no hidden
        // iteration-order dependence among the tied candidates).
        let again = yen_k_shortest(&g, src, dst, k);
        check_assert_eq!(fresh.len(), again.len(), "rerun count");
        for (a, b) in fresh.iter().zip(&again) {
            check_assert_eq!(a.nodes, b.nodes, "rerun nodes");
        }
        let mut seen = std::collections::HashSet::new();
        let mut prev = 0.0;
        for p in &fresh {
            check_assert!(p.total_weight >= prev, "ranking must be sorted");
            prev = p.total_weight;
            check_assert!(seen.insert(p.nodes.clone()), "duplicate path");
            let mut uniq = p.nodes.clone();
            uniq.sort_unstable();
            uniq.dedup();
            check_assert_eq!(uniq.len(), p.nodes.len(), "path must be loopless");
        }
        if src != dst {
            check_assert!(!fresh.is_empty(), "grid is connected");
        }
        Ok(())
    });
}

/// Max-flow from 0 to n-1 is at least the bottleneck of the shortest
/// path (one augmenting path exists) and at most the degree-capacity
/// bound of either endpoint.
#[test]
fn maxflow_bounds() {
    check("maxflow_bounds", |gen| {
        let g = arb_graph(gen);
        let n = g.num_nodes();
        let t = (n - 1) as u32;
        let mut net = FlowNetwork::new(n);
        let mut cap_s = 0.0;
        let mut cap_t = 0.0;
        for e in 0..g.num_edges() as u32 {
            let (u, v, w) = g.edge(e);
            net.add_undirected(u, v, w);
            if u == 0 || v == 0 {
                cap_s += w;
            }
            if u == t || v == t {
                cap_t += w;
            }
        }
        let f = max_flow(&mut net, 0, t);
        check_assert!(f <= cap_s + 1e-6);
        check_assert!(f <= cap_t + 1e-6);
        // The chain edge (t-1, t) guarantees positive flow.
        check_assert!(f > 0.0);
        Ok(())
    });
}
