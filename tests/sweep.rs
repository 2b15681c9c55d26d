//! Property test: a [`TimeSweep`] stepped through *random* time
//! sequences is indistinguishable — down to edge-weight bits — from
//! building every snapshot from scratch with `snapshot_bundle`.
//!
//! The leo-core unit tests pin a handful of hand-picked instants; this
//! suite drives the incremental engine with randomized times, step
//! sizes (including backwards jumps), mode subsets, and two different
//! constellation geometries, so any drift the delta path could
//! accumulate — stale cell membership, missed transitions, reused link
//! buffers — shows up as a bit-level mismatch.

use leo_core::{
    EdgeKind, ExperimentScale, Mode, NetworkSnapshot, NodeKind, StudyContext, TimeSweep,
};
use leo_graph::{
    k_edge_disjoint_paths_with, DijkstraWorkspace, Graph, GraphBuilder, Path, SptWorkspace,
};
use leo_util::check::check_with;
use leo_util::{check_assert, check_assert_eq};

/// Tiny-scale context with the requested constellation swapped in.
fn ctx(kind: leo_core::ConstellationKind) -> StudyContext {
    let mut cfg = ExperimentScale::Tiny.config();
    cfg.constellation = kind;
    StudyContext::build(cfg)
}

/// Bit-exact CSR comparison: node and edge counts, every node's
/// neighbors in order (target, edge id, weight bits), and the edge
/// table. Neighbor order decides Dijkstra's parallel-edge ties and the
/// k-disjoint routes, so it is part of the contract.
fn assert_same_csr(a: &Graph, b: &Graph, what: &str) -> Result<(), leo_util::check::CaseError> {
    check_assert_eq!(a.num_nodes(), b.num_nodes(), "{what}: node count");
    check_assert_eq!(a.num_edges(), b.num_edges(), "{what}: edge count");
    for u in 0..a.num_nodes() as u32 {
        let (x, y) = (a.neighbors(u), b.neighbors(u));
        check_assert_eq!(x.len(), y.len(), "{what}: node {u} degree");
        for (i, (p, q)) in x.iter().zip(y).enumerate() {
            check_assert_eq!(
                (p.to, p.edge, p.weight.to_bits()),
                (q.to, q.edge, q.weight.to_bits()),
                "{what}: node {u} half-edge {i}"
            );
        }
    }
    for e in 0..a.num_edges() as u32 {
        let (u1, v1, w1) = a.edge(e);
        let (u2, v2, w2) = b.edge(e);
        check_assert_eq!((u1, v1), (u2, v2), "{what}: edge {e} endpoints");
        check_assert_eq!(
            w1.to_bits(),
            w2.to_bits(),
            "{what}: edge {e} weight ({w1} vs {w2})"
        );
    }
    Ok(())
}

/// Bit-exact snapshot comparison (graph topology, weights, metadata).
fn assert_identical(
    a: &NetworkSnapshot,
    b: &NetworkSnapshot,
    what: &str,
) -> Result<(), leo_util::check::CaseError> {
    check_assert_eq!(a.t_s.to_bits(), b.t_s.to_bits(), "{what}: t_s");
    check_assert_eq!(a.mode, b.mode, "{what}: mode");
    check_assert_eq!(a.nodes, b.nodes, "{what}: node table");
    check_assert_eq!(a.edges, b.edges, "{what}: edge metadata");
    check_assert_eq!(a.num_satellites, b.num_satellites, "{what}: num_satellites");
    check_assert_eq!(a.num_aircraft, b.num_aircraft, "{what}: num_aircraft");
    assert_same_csr(&a.graph, &b.graph, what)
}

/// The snapshot's graph, written again by [`GraphBuilder::build`] from
/// nothing but its own edge table, must match it half-edge for
/// half-edge, and each node's neighbors must be its edges in id order
/// (listed here without any CSR code); the edge metadata must name the
/// same endpoints.
fn assert_csr_matches_its_edge_table(
    snap: &NetworkSnapshot,
    what: &str,
) -> Result<(), leo_util::check::CaseError> {
    let g = &snap.graph;
    check_assert_eq!(g.num_nodes(), snap.nodes.len(), "{what}: node table");
    check_assert_eq!(g.num_edges(), snap.edges.len(), "{what}: edge table");
    let mut b = GraphBuilder::new(g.num_nodes());
    let mut lists: Vec<Vec<(u32, u32, u64)>> = vec![Vec::new(); g.num_nodes()];
    for e in 0..g.num_edges() as u32 {
        let (u, v, w) = g.edge(e);
        b.add_edge(u, v, w);
        lists[u as usize].push((v, e, w.to_bits()));
        lists[v as usize].push((u, e, w.to_bits()));
        let kind_ok = match snap.edges[e as usize] {
            EdgeKind::Isl => u < v && (v as usize) < snap.num_satellites,
            EdgeKind::UpDown { ground, .. } => {
                u == ground
                    && (u as usize) >= snap.num_satellites
                    && (v as usize) < snap.num_satellites
            }
        };
        check_assert!(kind_ok, "{what}: edge {e} metadata names other endpoints");
    }
    for (u, list) in lists.iter().enumerate() {
        let got: Vec<(u32, u32, u64)> = g
            .neighbors(u as u32)
            .iter()
            .map(|h| (h.to, h.edge, h.weight.to_bits()))
            .collect();
        check_assert_eq!(&got, list, "{what}: node {u} neighbors in edge-id order");
    }
    assert_same_csr(g, &b.build(), what)
}

/// Every sweep snapshot's CSR equals an independent build of its own
/// edge table — in all three modes, with and without delta tracking,
/// and across steps where aircraft take off or land (which reshapes the
/// ground-node tail the sweep appends).
#[test]
fn sweep_csr_matches_an_independent_build_of_its_edge_table() {
    const MODES: [Mode; 3] = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
    let c = ctx(leo_core::ConstellationKind::Starlink);
    let times = [20_000.0, 20_015.0, 20_900.0, 23_000.0, 22_100.0];
    let census = |snap: &NetworkSnapshot| -> Vec<u64> {
        snap.nodes
            .iter()
            .filter_map(|n| match n {
                NodeKind::Aircraft(id) => Some(*id),
                _ => None,
            })
            .collect()
    };
    for tracked in [false, true] {
        let mut sweep = TimeSweep::new(&c, &MODES);
        let mut prev_census: Option<Vec<u64>> = None;
        let mut census_changes = 0;
        for &t in &times {
            let snaps = if tracked {
                sweep.step_with_deltas(t).0
            } else {
                sweep.step(t)
            };
            for (snap, mode) in snaps.iter().zip(MODES) {
                let what = format!("tracked={tracked} t={t} {mode:?}");
                if let Err(e) = assert_csr_matches_its_edge_table(snap, &what) {
                    panic!("{}", e.message);
                }
            }
            let now = census(&snaps[0]);
            assert!(!now.is_empty(), "t={t}: BP snapshot carries aircraft");
            if prev_census.as_ref().is_some_and(|p| *p != now) {
                census_changes += 1;
            }
            prev_census = Some(now);
        }
        assert!(
            census_changes >= 2,
            "the walk must cross aircraft-census changes ({census_changes})"
        );
    }
}

fn random_sweep_property(c: &StudyContext, name: &str, cases: usize) {
    const MODES: [Mode; 3] = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
    check_with(name, cases, |g| {
        // Random non-empty mode subset, in fixed canonical order.
        let mask = g.u32(1..8);
        let modes: Vec<Mode> = MODES
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, &m)| m)
            .collect();
        // Random walk over the day: mixed step sizes, occasionally
        // stepping backwards (the sweep contract allows any order).
        let mut t = g.f64(0.0..86_400.0);
        let steps = g.usize(2..5);
        let mut sweep = TimeSweep::new(c, &modes);
        for s in 0..steps {
            let inc = sweep.step(t);
            let fresh = c.snapshot_bundle(t, &modes);
            check_assert!(inc.len() == fresh.len(), "bundle length");
            for (i, (a, b)) in inc.iter().zip(&fresh).enumerate() {
                assert_identical(a, b, &format!("step {s} t={t} mode #{i}"))?;
            }
            let dt = if g.bool() {
                g.f64(0.1..120.0) // sub-cell to few-cell motion
            } else {
                g.f64(120.0..20_000.0) // crosses many cells
            };
            t = if g.u32(0..8) == 0 { t - dt } else { t + dt };
        }
        Ok(())
    });
}

#[test]
fn random_sweeps_match_fresh_bundles_starlink() {
    let c = ctx(leo_core::ConstellationKind::Starlink);
    random_sweep_property(&c, "random_sweeps_match_fresh_bundles_starlink", 12);
}

#[test]
fn random_sweeps_match_fresh_bundles_kuiper() {
    // Different shell geometry (34×34 at 630 km, 51.9°) exercises
    // different cell-transition patterns and visibility radii.
    let c = ctx(leo_core::ConstellationKind::Kuiper);
    random_sweep_property(&c, "random_sweeps_match_fresh_bundles_kuiper", 8);
}

/// The incremental-SPT equivalence contract, driven end-to-end through
/// real sweep deltas: a [`SptWorkspace`] repaired with
/// `TimeSweep::step_with_deltas`'s per-mode [`EdgeDelta`]s must stay
/// bit-identical to a fresh Dijkstra on every step — distances AND
/// deterministic tie-broken parents — for every mode and across random
/// walks with forward, backward, sub-cell, and many-cell jumps.
///
/// [`EdgeDelta`]: leo_core::EdgeDelta
#[test]
fn spt_repairs_match_fresh_dijkstra_through_sweep_deltas() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const MODES: [Mode; 3] = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
    // 24 cases × 8 incremental steps × 3 modes × 2 sources ≥ 1000
    // delta repairs (`apply` invocations), each verified bitwise.
    const CASES: usize = 24;
    const STEPS: usize = 9;
    static APPLIES: AtomicUsize = AtomicUsize::new(0);
    let c = ctx(leo_core::ConstellationKind::Starlink);
    let num_cities = c.ground.cities.len();
    check_with("spt_repairs_match_fresh_dijkstra", CASES, |g| {
        let srcs = [
            g.usize(0..num_cities / 2),
            g.usize(num_cities / 2..num_cities),
        ];
        let mut spts: Vec<Vec<SptWorkspace>> = (0..MODES.len())
            .map(|_| srcs.iter().map(|_| SptWorkspace::new()).collect())
            .collect();
        let mut sweep = TimeSweep::new(&c, &MODES);
        let mut t = g.f64(0.0..86_400.0);
        for s in 0..STEPS {
            let (snaps, deltas) = sweep.step_with_deltas(t);
            check_assert_eq!(deltas.len(), MODES.len(), "delta count");
            for (mi, (snap, delta)) in snaps.iter().zip(deltas).enumerate() {
                for (si, &src) in srcs.iter().enumerate() {
                    let spt = &mut spts[mi][si];
                    let source = snap.city_node(src);
                    if delta.full || !spt.is_ready() {
                        spt.rebuild(&snap.graph, source);
                    } else {
                        spt.apply(&snap.graph, &delta.removed, &delta.reweighted);
                        APPLIES.fetch_add(1, Ordering::Relaxed);
                    }
                    let fresh = leo_graph::dijkstra(&snap.graph, source);
                    let n = snap.graph.num_nodes();
                    check_assert_eq!(spt.num_nodes(), n, "step {s} node count");
                    for v in 0..n {
                        let what = format!("step {s} t={t} mode #{mi} src {src} node {v}");
                        check_assert_eq!(
                            spt.dist(v as u32).to_bits(),
                            fresh.dist[v].to_bits(),
                            "{what}: dist"
                        );
                        check_assert_eq!(
                            spt.parent_nodes()[v],
                            fresh.parent_node[v],
                            "{what}: parent node"
                        );
                        check_assert_eq!(
                            spt.parent_edges()[v],
                            fresh.parent_edge[v],
                            "{what}: parent edge"
                        );
                    }
                    // Paths read off the repaired tree (the churn driver's
                    // access pattern) must match the fresh tree's too.
                    let target = snap.city_node(g.usize(0..num_cities));
                    let a = spt.extract_path(target);
                    let b = leo_graph::extract_path(&fresh, target);
                    check_assert_eq!(
                        a.is_some(),
                        b.is_some(),
                        "step {s} mode #{mi} target reachability"
                    );
                    if let (Some(pa), Some(pb)) = (a, b) {
                        check_assert_eq!(pa.nodes, pb.nodes, "step {s} path nodes");
                        check_assert_eq!(pa.edges, pb.edges, "step {s} path edges");
                        check_assert_eq!(
                            pa.total_weight.to_bits(),
                            pb.total_weight.to_bits(),
                            "step {s} path weight"
                        );
                    }
                }
            }
            let dt = if g.bool() {
                g.f64(0.1..120.0)
            } else {
                g.f64(120.0..20_000.0)
            };
            t = if g.u32(0..8) == 0 { t - dt } else { t + dt };
        }
        Ok(())
    });
    assert!(
        APPLIES.load(Ordering::Relaxed) >= 1000,
        "property suite must exercise >= 1000 delta repairs, got {}",
        APPLIES.load(Ordering::Relaxed)
    );
}

/// Relays and aircraft are the transit nodes of BP and hybrid snapshots,
/// and ISL-only snapshots have none; crossing them through the two-hop
/// index, which the BP and hybrid graphs of a step share, changes no
/// search. On a Tiny sweep in all three modes, every `pairs_by_src`
/// search reports the same distance bits and paths as on the same graph
/// unmarked, and settles no relay or aircraft, and every column of each
/// landmark table, at every row it holds (one per satellite and city),
/// is a full search on the unmarked graph from its landmark. In BP and
/// hybrid modes, every pair's k = 4 edge-disjoint paths, whose later
/// searches cross relays under their mask, are the unmarked graph's too.
#[test]
fn transit_searches_match_the_unmarked_graph() {
    const MODES: [Mode; 3] = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
    let c = ctx(leo_core::ConstellationKind::Starlink);
    let first = (c.num_satellites() + c.ground.cities.len()) as u32;
    let mut sweep = TimeSweep::new(&c, &MODES);
    let (mut ws, mut plain_ws) = (DijkstraWorkspace::new(), DijkstraWorkspace::new());
    let mut targets = Vec::new();
    let (mut searches, mut disjoint_pairs) = (0, 0);
    for t in [0.0, 900.0, 43_200.0] {
        let snaps = sweep.step(t);
        assert!(
            snaps[0].graph.shares_two_hop_with(&snaps[1].graph),
            "t={t}: BP and hybrid share one index"
        );
        assert!(!snaps[2].graph.shares_two_hop_with(&snaps[1].graph));
        for (snap, mode) in snaps.iter().zip(MODES) {
            let n = snap.graph.num_nodes() as u32;
            let what = format!("t={t} {mode:?}");
            let transit = if mode == Mode::IslOnly {
                n..n
            } else {
                first..n
            };
            assert_eq!(snap.graph.transit(), transit, "{what}: transit nodes");
            assert_eq!(
                snap.graph.two_hop_pairs().is_some(),
                mode != Mode::IslOnly,
                "{what}: two-hop index"
            );
            let mut plain = snap.graph.clone();
            plain.set_transit(n);
            for (src, idxs) in c.pairs_by_src() {
                targets.clear();
                targets.extend(
                    idxs.iter()
                        .map(|&i| snap.city_node(c.pairs[i].dst as usize)),
                );
                let source = snap.city_node(*src as usize);
                let want = plain_ws
                    .run_multi(&plain, source, None, &targets)
                    .to_shortest_paths();
                let view = ws.run_multi(&snap.graph, source, None, &targets);
                for &t in &targets {
                    assert_eq!(
                        view.dist(t).to_bits(),
                        want.dist[t as usize].to_bits(),
                        "{what}: {source} → {t}"
                    );
                    assert_eq!(
                        view.extract_path(t),
                        leo_graph::extract_path(&want, t),
                        "{what}: {source} → {t}"
                    );
                }
                assert!(
                    (first..n).all(|r| !view.reached(r)),
                    "{what}: a relay or aircraft settled"
                );
                searches += 1;
            }
            if mode != Mode::IslOnly {
                for pair in &c.pairs {
                    let (s, d) = (
                        snap.city_node(pair.src as usize),
                        snap.city_node(pair.dst as usize),
                    );
                    let got = k_edge_disjoint_paths_with(&snap.graph, s, d, 4, None, &mut ws);
                    let want = k_edge_disjoint_paths_with(&plain, s, d, 4, None, &mut plain_ws);
                    let bits = |paths: Vec<Path>| {
                        paths
                            .into_iter()
                            .map(|p| (p.nodes, p.edges, p.total_weight.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(got), bits(want), "{what}: {s} → {d}, k = 4");
                    disjoint_pairs += 1;
                }
            }
            let rows = ws.landmark_table(&snap.graph);
            assert_eq!(rows.len(), snap.graph.transit().start as usize, "{what}");
            for i in 0..rows[0].len() {
                // The landmark is the one node at distance 0: weights are
                // positive propagation delays.
                let mut at_zero = (0..rows.len()).filter(|&v| rows[v][i].to_bits() == 0);
                let l = at_zero.next().expect("a landmark is at distance 0") as u32;
                assert!(at_zero.next().is_none(), "{what}: column {i}");
                let full = plain_ws.run_multi(&plain, l, None, &[]).to_shortest_paths();
                for (v, row) in rows.iter().enumerate() {
                    assert_eq!(
                        row[i].to_bits(),
                        full.dist[v].to_bits(),
                        "{what}: landmark {l}, row {v}"
                    );
                }
            }
        }
    }
    assert!(searches >= 9 * 10, "only {searches} searches");
    assert_eq!(
        disjoint_pairs,
        3 * 2 * c.pairs.len(),
        "k = 4 pairs compared"
    );
}
