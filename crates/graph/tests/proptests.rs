//! Property-based tests for graph algorithms on random graphs (on
//! `leo_util::check`; 256 cases per property, ≥ the proptest originals).

use leo_graph::*;
use leo_util::check::{check, CaseResult, Gen};
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

/// One component of an [`arb_geometric_graph`], in one of two flavours.
/// Geometric: random points on an integer lattice (so coincident points
/// occur), random edges with random slack above the length over `speed`,
/// some parallel duplicates, occasionally a zero weight. Grid: unit
/// spacing and unit weights over `speed`, so λ is as tight as it gets and
/// equal-length paths tie exactly everywhere.
#[allow(clippy::type_complexity)]
fn arb_piece(gen: &mut Gen, speed: f64) -> (Vec<[f64; 3]>, Vec<(u32, u32, f64)>) {
    if gen.bool() {
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
        return (points, edges);
    }
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
        let len = ((a[0] - b[0]).powi(2) + (a[1] - b[1]).powi(2) + (a[2] - b[2]).powi(2)).sqrt();
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
}

/// A graph with coordinates whose weights are at least the straight-line
/// length over a per-graph speed — the shape of every snapshot graph —
/// made of one to three [`arb_piece`] components side by side. The
/// landmarks all lie in one component, so searches in the others run
/// with no finite landmark difference. The last node is always isolated,
/// so some targets are unreachable.
fn arb_geometric_graph(gen: &mut Gen) -> Graph {
    let speed = [1.0, 3.0, 299_792_458.0][gen.usize(0..3)];
    let (mut points, mut edges) = (Vec::new(), Vec::new());
    for piece in 0..gen.usize(1..4) {
        let (p, e) = arb_piece(gen, speed);
        let base = points.len() as u32;
        points.extend(
            p.into_iter()
                .map(|[x, y, z]| [x + 10.0 * piece as f64, y, z]),
        );
        edges.extend(e.into_iter().map(|(u, v, w)| (u + base, v + base, w)));
    }
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
/// several components, an isolated node, random masks), a `run_multi`
/// with 1 to `GOAL_MAX_TARGETS` + 2 targets (duplicates and unreachable
/// ones included) reports, for every target, the same distance bits and
/// the same path nodes and edges as the same run on the graph without
/// coordinates (λ = 0, plain Dijkstra); every other node it settles is
/// exact too; and k-edge-disjoint path sets match. Runs with more than
/// `GOAL_MAX_TARGETS` distinct targets are past the goal-direction cap,
/// so both sides of it are covered. Counted: cases that run
/// goal-directed, and among them cases that must retarget, because the
/// first target is reached and another lies farther (or is unreachable),
/// so it is still pending when the first one settles.
#[test]
fn goal_directed_search_is_bit_identical_to_dijkstra() {
    let (mut ws, mut plain_ws) = (DijkstraWorkspace::new(), DijkstraWorkspace::new());
    let (mut guided_runs, mut retargeted) = (0, 0);
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
        let mut targets = gen.vec(1..GOAL_MAX_TARGETS + 3, |gen| gen.u32(0..n));
        if gen.bool() {
            targets.push(targets[0]);
        }
        let mut distinct = targets.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let full = plain_ws
            .run(&plain, source, Some(&mask), None)
            .to_shortest_paths();
        if g.lambda() > 0.0 && distinct.len() <= GOAL_MAX_TARGETS {
            guided_runs += 1;
            let first = full.dist[targets[0] as usize];
            if first.is_finite() && distinct.iter().any(|&t| full.dist[t as usize] > first) {
                retargeted += 1;
            }
        }
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
        "only {guided_runs} of 256 cases ran goal-directed (λ > 0, ≤ {GOAL_MAX_TARGETS} distinct targets)"
    );
    assert!(
        retargeted > 32,
        "only {retargeted} of {guided_runs} goal-directed cases had to retarget"
    );
}

/// Decimal weights whose sums and folds round apart
/// (`0.1 + 0.2 > 0.15 + 0.15`), so relay pairs tie exactly or miss by an
/// ulp everywhere.
const DECIMAL_WEIGHTS: [f64; 8] = [0.1, 0.2, 0.3, 0.15, 0.25, 0.05, 0.7, 0.35];
/// The dyadic variant's one weight: every sum and fold is exact and
/// labels count hops, so two neighbours of one relay at one depth offer it
/// equal folds, and a goal-directed search often settles them out of node
/// order, the tie that an exposed crossing's memo must not skip.
const DYADIC_WEIGHT: f64 = 1.0;

/// A graph in bent-pipe shape with a transit suffix, and its sibling:
/// the same graph with one to four heavier direct links written first,
/// as a hybrid snapshot writes its ISLs before the links it shares with
/// the BP one, so the two have one transit layout and the sibling the
/// larger `w_max`.
///
/// The graph has one to three components, each of 2 to 12 non-transit
/// nodes (a few joined directly, as ISLs join satellites) and up to six
/// times as many transit nodes (at most 36), each linked to one to three
/// of its component's non-transit nodes (three or four in the dyadic
/// variant), now and then twice. It is tie-heavy: half the graphs draw
/// their weights from [`DECIMAL_WEIGHTS`], and the other half, the
/// dyadic variant, weigh every link [`DYADIC_WEIGHT`] (the sibling's
/// heavier links 3); a quarter of the relays copy another's links. Links are sometimes doubled as
/// parallel edges. The edge ids put the direct links first, as snapshots
/// do, except in one graph in eight, whose nodes with both kinds of
/// neighbour then list a relay first and get no two-hop index. Points lie
/// on a small lattice; a quarter of the graphs get none (λ = 0), and one
/// in sixteen a zero weight, which leaves it without a two-hop index too.
fn arb_transit_graphs(gen: &mut Gen) -> (Graph, Graph) {
    let dyadic = gen.bool();
    let weight = |gen: &mut Gen| {
        if dyadic {
            DYADIC_WEIGHT
        } else {
            DECIMAL_WEIGHTS[gen.usize(0..DECIMAL_WEIGHTS.len())]
        }
    };
    // Dyadic relays link three or four nodes, so more of them join two
    // neighbours that tie.
    let fan = if dyadic { 3..5 } else { 1..4 };
    // Half the graphs are one small, relay-dense component.
    let sizes = if gen.bool() {
        vec![gen.u32(2..6)]
    } else {
        gen.vec(1..4, |gen| gen.u32(2..13))
    };
    let first: u32 = sizes.iter().sum();
    let (mut direct, mut relays) = (Vec::new(), Vec::<Vec<(u32, f64)>>::new());
    let mut base = 0;
    for &k in &sizes {
        for _ in 0..gen.u32(0..k) {
            let (a, b) = (base + gen.u32(0..k), base + gen.u32(0..k));
            if a != b {
                direct.push((a, b, weight(gen)));
            }
        }
        let start = relays.len();
        for _ in 0..gen.u32(0..(6 * k).min(36) + 1) {
            let mut links = if relays.len() > start && gen.u32(0..4) == 0 {
                relays[gen.usize(start..relays.len())].clone()
            } else {
                gen.vec(fan.clone(), |gen| (base + gen.u32(0..k), weight(gen)))
            };
            if gen.u32(0..8) == 0 {
                links.push(links[0]);
            }
            relays.push(links);
        }
        base += k;
    }
    let mut edges: Vec<(u32, u32, f64)> = (first..)
        .zip(&relays)
        .flat_map(|(r, links)| links.iter().map(move |&(v, w)| (r, v, w)))
        .collect();
    if gen.u32(0..8) == 0 {
        edges.extend(direct);
    } else {
        edges.splice(0..0, direct);
    }
    if !edges.is_empty() && gen.u32(0..16) == 0 {
        let i = gen.usize(0..edges.len());
        edges[i].2 = 0.0;
    }
    let heavy: Vec<(u32, u32, f64)> = gen
        .vec(1..5, |gen| {
            (gen.u32(0..first), gen.u32(0..first), 2.0 + weight(gen))
        })
        .into_iter()
        .filter(|&(a, b, _)| a != b)
        .collect();
    let n = first as usize + relays.len();
    let points = (gen.u32(0..4) != 0).then(|| {
        (0..n)
            .map(|v| {
                let height = if v < first as usize { 1.0 } else { 0.0 };
                [f64::from(gen.u32(0..4)), f64::from(gen.u32(0..4)), height]
            })
            .collect::<Vec<[f64; 3]>>()
    });
    let build = |edges: &mut dyn Iterator<Item = &(u32, u32, f64)>| {
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        let mut g = b.build();
        if let Some(points) = &points {
            g.set_coords(points.iter().copied());
        }
        g.set_transit(first);
        g
    };
    (
        build(&mut edges.iter()),
        build(&mut heavy.iter().chain(&edges)),
    )
}

/// Crossing transit nodes is invisible in the results: on
/// [`arb_transit_graphs`], each graph and its sibling sharing one two-hop
/// index built by whichever searches first, a `run_multi` from a
/// non-transit or a transit source toward 1 to `GOAL_MAX_TARGETS` + 2
/// non-transit targets (so goal-directed, plain past the cap, and plain
/// at λ = 0) reports the same target distance bits and paths as on the
/// same graph unmarked, settles every node with a full plain search's
/// label and path, and no transit node but the source, and its
/// materialized result extracts the same paths. A run that is not
/// goal-directed settles exactly what the unmarked graph's does.
/// Full searches from every non-transit node extract the same path to
/// every non-transit node, and every column of a landmark table, whose
/// searches cross transit nodes too, is a full search on the unmarked
/// graph from its landmark, at every row it holds. So are 1 to 5
/// edge-disjoint paths toward every non-transit node, with and without a
/// random `disabled`, whose searches cross transit nodes under their
/// mask.
/// Counted, over both graphs: runs that used the index, from a transit
/// source, past the cap and at λ = 0, the tables compared, and the cases
/// where a search under a mask stepped from an exposed node onto a
/// transit node.
#[test]
fn transit_contraction_is_bit_identical_to_dijkstra() {
    let (mut ws, mut plain_ws) = (DijkstraWorkspace::new(), DijkstraWorkspace::new());
    let mut counts = [0usize; 6];
    check("transit_contraction_is_bit_identical_to_dijkstra", |gen| {
        let (mut g, mut sibling) = arb_transit_graphs(gen);
        g.share_two_hop(&mut sibling);
        let order = if gen.bool() {
            [&g, &sibling]
        } else {
            [&sibling, &g]
        };
        for g in order {
            check_against_unmarked(gen, g, (&mut ws, &mut plain_ws), &mut counts)?;
        }
        check_assert!(g.shares_two_hop_with(&sibling), "one index for both");
        check_assert_eq!(g.two_hop_pairs(), sibling.two_hop_pairs());
        Ok(())
    });
    let [contracted, transit_sources, over_cap, plain_keys, tables, exposed] = counts;
    assert!(
        contracted > 128 && transit_sources > 16 && over_cap > 8 && plain_keys > 16,
        "{contracted} of 512 searches used the index: {transit_sources} from a transit \
         source, {over_cap} past the cap, {plain_keys} at λ = 0"
    );
    assert!(tables > 32, "only {tables} landmark tables compared");
    assert!(
        exposed > 64,
        "only {exposed} graphs crossed a transit node from an exposed node"
    );
}

/// One graph's half of a [`transit_contraction_is_bit_identical_to_dijkstra`]
/// case: `g` against its unmarked copy, on `(ws, plain_ws)`.
fn check_against_unmarked(
    gen: &mut Gen,
    g: &Graph,
    (ws, plain_ws): (&mut DijkstraWorkspace, &mut DijkstraWorkspace),
    counts: &mut [usize; 6],
) -> CaseResult {
    let n = g.num_nodes() as u32;
    let first = g.transit().start;
    let mut plain = g.clone();
    plain.set_transit(n);
    let source = if first < n && gen.u32(0..4) == 0 {
        gen.u32(first..n)
    } else {
        gen.u32(0..first)
    };
    let mask: Vec<bool> = (0..g.num_edges()).map(|_| gen.u32(0..4) == 0).collect();
    let mask = (gen.u32(0..8) == 0).then_some(mask.as_slice());
    let mut targets = gen.vec(1..GOAL_MAX_TARGETS + 3, |gen| gen.u32(0..first));
    if gen.u32(0..4) == 0 {
        // As many distinct targets as fit, to reach past the cap.
        let start = gen.u32(0..first);
        let count = (GOAL_MAX_TARGETS as u32 + 2).min(first);
        targets = (0..count).map(|i| (start + i) % first).collect();
    }
    if first < n && gen.u32(0..16) == 0 {
        targets.push(gen.u32(first..n));
    }
    let reference = plain_ws
        .run_multi(&plain, source, mask, &targets)
        .to_shortest_paths();
    let view = ws.run_multi(g, source, mask, &targets);
    let path = |p: Option<Path>| p.map(|p| (p.nodes, p.edges, p.total_weight.to_bits()));
    let owned = view.to_shortest_paths();
    for &t in &targets {
        check_assert_eq!(
            path(extract_path(&owned, t)),
            path(view.extract_path(t)),
            "target {t}, materialized"
        );
        check_assert_eq!(
            view.dist(t).to_bits(),
            reference.dist[t as usize].to_bits(),
            "target {t}"
        );
        check_assert_eq!(
            path(view.extract_path(t)),
            path(extract_path(&reference, t)),
            "target {t}"
        );
    }
    // Every node the run settled is exact: its label and path are a full
    // plain search's. Which nodes a goal-directed run settles depends on
    // its bound, and the marked graph's landmarks differ from the
    // unmarked one's (they are non-transit nodes), so only a run that is
    // not goal-directed settles exactly what the unmarked graph's run
    // does.
    let full = plain_ws
        .run_multi(&plain, source, mask, &[])
        .to_shortest_paths();
    let mut distinct = targets.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let goal = g.lambda() > 0.0 && distinct.len() <= GOAL_MAX_TARGETS;
    let contracted =
        mask.is_none() && targets.iter().all(|&t| t < first) && g.two_hop_pairs().is_some();
    for v in 0..n {
        if view.reached(v) {
            check_assert_eq!(
                view.dist(v).to_bits(),
                full.dist[v as usize].to_bits(),
                "node {v}"
            );
            check_assert_eq!(
                path(view.extract_path(v)),
                path(extract_path(&full, v)),
                "node {v}"
            );
        }
        let want = if v >= first && contracted {
            v == source
        } else if goal {
            continue;
        } else {
            reference.reached(v)
        };
        check_assert_eq!(view.reached(v), want, "node {v}");
    }
    // Full searches from every non-transit node: every label and path.
    for s in 0..first {
        let full = plain_ws.run_multi(&plain, s, None, &[]).to_shortest_paths();
        let view = ws.run_multi(g, s, None, &[]);
        for v in 0..first {
            check_assert_eq!(
                path(view.extract_path(v)),
                path(extract_path(&full, v)),
                "full search {s} → {v}"
            );
        }
    }
    if contracted {
        counts[0] += 1;
        counts[1] += usize::from(source >= first);
        counts[2] += usize::from(distinct.len() > GOAL_MAX_TARGETS);
        counts[3] += usize::from(g.lambda().to_bits() == 0);
    }
    if gen.u32(0..4) == 0 {
        counts[4] += 1;
        let rows = ws.landmark_table(g);
        check_assert_eq!(rows.len(), first as usize, "one row per non-transit node");
        for i in 0..LANDMARKS {
            // The landmark is at distance 0 from itself; so is any node a
            // zero-weight edge joins to it, whose distances are the same.
            let at_zero = (0..rows.len()).find(|&v| rows[v][i].to_bits() == 0);
            check_assert!(at_zero.is_some(), "column {i} has no landmark");
            let l = at_zero.unwrap_or_default();
            let full = plain_ws
                .run_multi(&plain, l as u32, None, &[])
                .to_shortest_paths();
            for (v, row) in rows.iter().enumerate() {
                check_assert_eq!(
                    row[i].to_bits(),
                    full.dist[v].to_bits(),
                    "landmark {l}, row {v}"
                );
            }
        }
    }
    let k = gen.usize(1..6);
    let disabled: Vec<bool> = (0..g.num_edges()).map(|_| gen.u32(0..8) == 0).collect();
    let disabled = gen.bool().then_some(disabled.as_slice());
    let mut exposed = false;
    for t in 0..first {
        let got = k_edge_disjoint_paths_with(g, source, t, k, disabled, ws);
        let want = k_edge_disjoint_paths_with(&plain, source, t, k, disabled, plain_ws);
        exposed |=
            t < first && g.two_hop_pairs().is_some() && crosses_at_exposed(g, &got, disabled);
        check_assert_eq!(
            got.into_iter().map(|p| path(Some(p))).collect::<Vec<_>>(),
            want.into_iter().map(|p| path(Some(p))).collect::<Vec<_>>(),
            "k = {k}, target {t}"
        );
    }
    counts[5] += usize::from(exposed);
    Ok(())
}

/// Whether one of `paths`, edge-disjoint paths found in order under
/// `disabled`, steps from an *exposed* node onto a transit node: from a
/// neighbour of a transit node with a link masked by `disabled` or by an
/// earlier path.
fn crosses_at_exposed(g: &Graph, paths: &[Path], disabled: Option<&[bool]>) -> bool {
    let transit = g.transit();
    let mut mask = disabled.map_or_else(|| vec![false; g.num_edges()], <[bool]>::to_vec);
    for p in paths {
        let dirty = |r: NodeId| g.neighbors(r).iter().any(|h| mask[h.edge as usize]);
        let exposed = |x: NodeId| {
            g.neighbors(x)
                .iter()
                .any(|h| transit.contains(&h.to) && dirty(h.to))
        };
        let step =
            |w: &[NodeId]| !transit.contains(&w[0]) && transit.contains(&w[1]) && exposed(w[0]);
        if p.nodes.windows(2).any(step) {
            return true;
        }
        for &e in &p.edges {
            mask[e as usize] = true;
        }
    }
    false
}

/// A lazy-deletion queue entry of [`lazy_reference_run`], min-ordered by
/// `(key, node)`.
#[derive(PartialEq)]
struct LazyEntry(f64, NodeId);

impl Eq for LazyEntry {}

impl Ord for LazyEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}

impl PartialOrd for LazyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// What a [`lazy_reference_run`] settled: the label and parent of each
/// settled node, `None` elsewhere, and the count of settling pops.
struct LazyRun {
    source: NodeId,
    settled: Vec<Option<(f64, EdgeId, NodeId)>>,
    settled_count: usize,
}

impl LazyRun {
    /// Nodes and edges of the parent chain from the source to settled
    /// `v`, or `None` if it does not reach the source.
    fn path(&self, v: NodeId) -> Option<(Vec<NodeId>, Vec<EdgeId>)> {
        let (mut nodes, mut edges) = (vec![v], Vec::new());
        while nodes.len() <= self.settled.len() {
            let w = nodes[nodes.len() - 1];
            if w == self.source {
                nodes.reverse();
                edges.reverse();
                return Some((nodes, edges));
            }
            let (_, e, p) = self.settled[w as usize]?;
            edges.push(e);
            nodes.push(p);
        }
        None
    }
}

/// The workspace's `run_multi` as it would run on a lazy-deletion
/// `BinaryHeap`: every improvement pushes a fresh `(key, node)` entry and
/// pops of settled nodes are skipped. Same key formula in the same
/// operation order — `d + w`, plus, for 1 to `GOAL_MAX_TARGETS` distinct
/// targets and λ > 0, the larger of `λ·|p_v − p_t|` and `(1 − 2⁻²⁰)` times
/// the largest finite landmark difference toward the aimed target — the
/// same retarget rule (when the aimed target settles with others
/// pending, aim at the next unsettled one in the order given and queue
/// every open node afresh under the new key), the same early exit and
/// the same exact-tie parent rule.
fn lazy_reference_run(g: &Graph, source: NodeId, mask: &[bool], targets: &[NodeId]) -> LazyRun {
    let n = g.num_nodes();
    let mut is_target = vec![false; n];
    let mut pending = 0usize;
    for &t in targets {
        if !is_target[t as usize] {
            is_target[t as usize] = true;
            pending += 1;
        }
    }
    let lambda = if (1..=GOAL_MAX_TARGETS).contains(&pending) {
        g.lambda()
    } else {
        0.0
    };
    let rows = if lambda > 0.0 {
        DijkstraWorkspace::new().landmark_table(g)
    } else {
        Vec::new()
    };
    let mu = 1.0 - 1.0 / (1u64 << 20) as f64;
    let bound = |v: usize, t: usize| {
        let (p, q) = (g.coords()[v], g.coords()[t]);
        let (dx, dy, dz) = (p[0] - q[0], p[1] - q[1], p[2] - q[2]);
        let line = lambda * (dx * dx + dy * dy + dz * dz).sqrt();
        let mut far = 0.0f64;
        for (&at_target, &at_v) in rows[t].iter().zip(&rows[v]) {
            let d = (at_target - at_v).abs();
            if d.is_finite() && d > far {
                far = d;
            }
        }
        line.max(mu * far)
    };
    let (mut dist, mut bounds) = (vec![f64::INFINITY; n], vec![0.0; n]);
    let (mut parent_edge, mut parent_node) = (vec![EdgeId::MAX; n], vec![NodeId::MAX; n]);
    let (mut touched, mut settled) = (vec![false; n], vec![false; n]);
    let mut settled_count = 0;
    let mut aim = 0;
    dist[source as usize] = 0.0;
    touched[source as usize] = true;
    let mut heap = std::collections::BinaryHeap::new();
    heap.push(LazyEntry(0.0, source));
    while let Some(LazyEntry(key, u)) = heap.pop() {
        let ui = u as usize;
        if settled[ui] {
            continue;
        }
        settled[ui] = true;
        settled_count += 1;
        if is_target[ui] {
            pending -= 1;
            if pending == 0 {
                break;
            }
            if lambda > 0.0 && u == targets[aim] {
                while settled[targets[aim] as usize] {
                    aim += 1;
                }
                heap.clear();
                for v in (0..n).filter(|&v| touched[v] && !settled[v]) {
                    bounds[v] = bound(v, targets[aim] as usize);
                    heap.push(LazyEntry(dist[v] + bounds[v], v as NodeId));
                }
            }
        }
        let d = if lambda > 0.0 { dist[ui] } else { key };
        for h in g.neighbors(u) {
            if mask[h.edge as usize] {
                continue;
            }
            let nd = d + h.weight;
            let vi = h.to as usize;
            if nd < dist[vi] {
                dist[vi] = nd;
                parent_edge[vi] = h.edge;
                parent_node[vi] = u;
                settled[vi] = false;
                if lambda > 0.0 && !touched[vi] {
                    bounds[vi] = bound(vi, targets[aim] as usize);
                }
                touched[vi] = true;
                let key = if lambda > 0.0 { nd + bounds[vi] } else { nd };
                heap.push(LazyEntry(key, h.to));
            } else if lambda > 0.0 && nd == dist[vi] {
                let p = parent_node[vi];
                let dp = dist[p as usize];
                if d < dp || (d == dp && u < p) {
                    parent_edge[vi] = h.edge;
                    parent_node[vi] = u;
                }
            }
        }
    }
    let settled = (0..n)
        .map(|v| settled[v].then(|| (dist[v], parent_edge[v], parent_node[v])))
        .collect();
    LazyRun {
        source,
        settled,
        settled_count,
    }
}

/// The indexed heap settles what the lazy-deletion queue does: on the
/// geometric graphs above, with and without coordinates (so both with
/// λ > 0 and λ = 0), random masks and 0 to `GOAL_MAX_TARGETS` + 2
/// targets (duplicates and unreachable ones included), one warm
/// workspace reaches exactly the nodes [`lazy_reference_run`] settles,
/// with the same distance bits and the same extracted paths. Every pop
/// of the indexed heap settles a node, so its settled count (what
/// `dijkstra_nodes_settled` adds up) is the number of reached nodes, and
/// it must equal the reference's count of settling pops.
#[test]
fn indexed_heap_settles_like_the_lazy_deletion_queue() {
    let mut ws = DijkstraWorkspace::new();
    check("indexed_heap_settles_like_the_lazy_deletion_queue", |gen| {
        let mut g = arb_geometric_graph(gen);
        if gen.u32(0..4) == 0 {
            g.set_coords([]);
        }
        let n = g.num_nodes() as u32;
        let source = gen.u32(0..n);
        let masked = gen.bool();
        let mask: Vec<bool> = (0..g.num_edges())
            .map(|_| masked && gen.u32(0..4) == 0)
            .collect();
        let mut targets = gen.vec(0..GOAL_MAX_TARGETS + 3, |gen| gen.u32(0..n));
        if !targets.is_empty() && gen.bool() {
            targets.push(targets[0]);
        }
        let reference = lazy_reference_run(&g, source, &mask, &targets);
        let view = ws.run_multi(&g, source, Some(&mask), &targets);
        let mut reached = 0;
        for v in 0..n {
            let Some((d, _, _)) = reference.settled[v as usize] else {
                check_assert!(!view.reached(v), "node {v} settled, reference did not");
                continue;
            };
            check_assert!(view.reached(v), "node {v} not settled, reference did");
            reached += 1;
            check_assert_eq!(view.dist(v).to_bits(), d.to_bits(), "node {v}");
            check_assert_eq!(
                view.extract_path(v).map(|p| (p.nodes, p.edges)),
                reference.path(v),
                "node {v}"
            );
        }
        check_assert_eq!(reached, reference.settled_count);
        Ok(())
    });
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

/// λ as a fold over a written edge list, each edge once: the definition
/// in [`Graph::lambda`]'s docs, with its constants spelled out.
fn reference_lambda(coords: &[[f64; 3]], edges: &[(u32, u32, f64)]) -> f64 {
    let margin = 1.0 - 1.0 / (1u64 << 20) as f64;
    let scale = 1.0 / (1u64 << 24) as f64;
    let (coord_max, len_min) = (
        f64::from_bits((1023 + 400) << 52),
        f64::from_bits((1023 - 400) << 52),
    );
    if edges.is_empty() {
        return 0.0;
    }
    let mut m = 0.0f64;
    for x in coords.iter().flatten() {
        if x.is_nan() || x.abs() > coord_max {
            return 0.0;
        }
        m = m.max(x.abs());
    }
    let (mut ratio, mut w_min, mut w_max) = (f64::INFINITY, f64::INFINITY, 0.0f64);
    for &(u, v, w) in edges {
        let (pu, pv) = (coords[u as usize], coords[v as usize]);
        let (dx, dy, dz) = (pu[0] - pv[0], pu[1] - pv[1], pu[2] - pv[2]);
        let len = (dx * dx + dy * dy + dz * dz).sqrt();
        if w <= 0.0 || (len < len_min && (len > 0.0 || pu != pv)) {
            return 0.0;
        }
        if len > 0.0 {
            ratio = ratio.min(w / len);
        }
        w_min = w_min.min(w);
        w_max = w_max.max(w);
    }
    if !ratio.is_finite() {
        return 0.0;
    }
    let lambda = margin * ratio;
    let d = 2.0 * coords.len() as f64 * w_max;
    if w_min >= scale * (d + d.max(4.0 * lambda * m)) {
        lambda
    } else {
        0.0
    }
}

/// A random edge between distinct nodes of `0..n`, either endpoint
/// first, and rarely of weight 0 (which zeroes λ); now and then a copy of
/// an earlier edge, reversed or not, as a parallel edge.
fn arb_written_edge(gen: &mut Gen, written: &[(u32, u32, f64)], n: u32) -> (u32, u32, f64) {
    let w = if gen.u32(0..200) == 0 {
        0.0
    } else {
        gen.f64(0.1..100.0)
    };
    if let Some(&(u, v, _)) = written.get(gen.usize(0..4 * written.len() + 1)) {
        return if gen.bool() { (v, u, w) } else { (u, v, w) };
    }
    let u = gen.u32(0..n);
    let v = (u + gen.u32(1..n)) % n;
    (u, v, w)
}

/// The graph hands back exactly what was written: every edge's endpoints
/// in their written order and its weight bits, for builder graphs and
/// for fills that mix `edge` and `append_edges` (written over in place,
/// so a previous fill's orientation bits must not show through); and λ
/// is bit-identical to a fold over the written list.
#[test]
fn derived_edge_table_returns_the_written_edges() {
    fn same(g: &Graph, written: &[(u32, u32, f64)], coords: &[[f64; 3]]) -> CaseResult {
        check_assert_eq!(g.num_edges(), written.len());
        for (e, &(u, v, w)) in written.iter().enumerate() {
            let (a, b, x) = g.edge(e as EdgeId);
            check_assert_eq!((a, b, x.to_bits()), (u, v, w.to_bits()), "edge {e}");
        }
        let want = reference_lambda(coords, written);
        check_assert_eq!(g.lambda().to_bits(), want.to_bits(), "λ {}", g.lambda());
        Ok(())
    }
    // Points from a small grid, so some endpoints coincide.
    fn arb_coords(gen: &mut Gen, n: usize) -> Vec<[f64; 3]> {
        (0..n)
            .map(|_| [0, 1, 2].map(|_| f64::from(gen.u32(0..5)) * 7.5 - 15.0))
            .collect()
    }
    check("derived_edge_table_returns_the_written_edges", |gen| {
        let n = gen.usize(2..30);
        let mut written = Vec::new();
        for _ in 0..gen.usize(0..80) {
            let edge = arb_written_edge(gen, &written, n as u32);
            written.push(edge);
        }
        let mut b = GraphBuilder::new(n);
        for &(u, v, w) in &written {
            b.add_edge(u, v, w);
        }
        let mut g = b.build();
        let coords = arb_coords(gen, n);
        g.set_coords(coords.iter().copied());
        same(&g, &written, &coords)?;
        for _ in 0..3 {
            // `s` scattered nodes; the rest are appended, each taking its
            // edges in one call, with scattered edges written between.
            let s = gen.usize(2..n.max(3));
            let n = s + gen.usize(0..20);
            let mut scattered = Vec::new();
            for _ in 0..gen.usize(0..40) {
                let edge = arb_written_edge(gen, &scattered, s as u32);
                scattered.push(edge);
            }
            // One call each, appended nodes in node order: `Some(leaf)`
            // appends the leaf's edges, `None` writes one scattered edge.
            type Op = (Option<u32>, Vec<(u32, u32, f64)>);
            let mut ops: Vec<Op> = Vec::new();
            let mut scattered = scattered.into_iter();
            for leaf in s as u32..n as u32 {
                for edge in scattered.by_ref().take(gen.usize(0..4)) {
                    ops.push((None, vec![edge]));
                }
                if gen.bool() {
                    let list = gen.vec(0..5, |g| (leaf, g.u32(0..s as u32), g.f64(0.1..100.0)));
                    ops.push((Some(leaf), list));
                }
            }
            ops.extend(scattered.map(|edge| (None, vec![edge])));
            let written: Vec<(u32, u32, f64)> = ops
                .iter()
                .flat_map(|(_, list)| list.iter().copied())
                .collect();
            let mut degree = vec![0u32; s];
            for &(u, v, _) in &written {
                for x in [u, v] {
                    if (x as usize) < s {
                        degree[x as usize] += 1;
                    }
                }
            }
            let mut fill = g.fill(n, written.len(), &mut degree);
            for (leaf, list) in &ops {
                match leaf {
                    Some(leaf) => fill.append_edges(*leaf, list.iter().map(|&(_, v, w)| (v, w))),
                    None => list.iter().for_each(|&(u, v, w)| fill.edge(u, v, w)),
                }
            }
            fill.complete();
            let coords = arb_coords(gen, n);
            g.set_coords(coords.iter().copied());
            same(&g, &written, &coords)?;
        }
        Ok(())
    });
}
