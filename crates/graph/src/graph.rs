//! Compact undirected weighted graph in CSR (compressed sparse row) form,
//! with optional per-node coordinates that give targeted searches a
//! straight-line lower bound (see [`Graph::lambda`]).

use std::sync::OnceLock;

/// Node index within a [`Graph`].
pub type NodeId = u32;

/// Stable identifier of an undirected edge: the index in insertion order.
/// Both directed half-edges of an undirected edge share one `EdgeId`, which
/// lets callers disable an edge once and have both directions disappear
/// (used by the k-edge-disjoint-paths routine and by link-failure
/// injection).
pub type EdgeId = u32;

/// Builder that accumulates undirected edges, then freezes into a
/// [`Graph`].
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// (u, v, weight) per undirected edge, in insertion order.
    edges: Vec<(NodeId, NodeId, f64)>,
    /// CSR fill cursor, reused across [`GraphBuilder::build_into`] calls.
    cursor: Vec<u32>,
}

impl GraphBuilder {
    /// Create a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// Reset for reuse: drop all accumulated edges and adopt a new node
    /// count, keeping the allocations. The builder behaves exactly like a
    /// fresh [`GraphBuilder::new`] afterwards.
    pub fn reset(&mut self, num_nodes: usize) {
        self.num_nodes = num_nodes;
        self.edges.clear();
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Add an undirected edge of the given non-negative weight, returning
    /// its stable [`EdgeId`].
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, on self-loops, or if the
    /// weight is negative or non-finite (Dijkstra's precondition).
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> EdgeId {
        // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
        assert!((u as usize) < self.num_nodes, "node {u} out of range");
        // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
        assert!((v as usize) < self.num_nodes, "node {v} out of range");
        // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
        assert_ne!(u, v, "self-loops are not allowed");
        // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
        assert!(
            weight.is_finite() && weight >= 0.0,
            "edge weight must be finite and non-negative, got {weight}"
        );
        let id = self.edges.len() as EdgeId;
        self.edges.push((u, v, weight));
        id
    }

    /// Freeze into an immutable CSR graph.
    pub fn build(mut self) -> Graph {
        let mut g = Graph {
            offsets: Vec::new(),
            adj: Vec::new(),
            edges: Vec::new(),
            coords: Vec::new(),
            lambda: OnceLock::new(),
        };
        self.build_into(&mut g);
        g
    }

    /// Freeze into `out`, overwriting its contents and reusing its
    /// allocations — the zero-alloc path for rebuilding a graph every
    /// instant of a time sweep. The result is element-for-element
    /// identical to [`GraphBuilder::build`] (so it carries no coordinates
    /// until [`Graph::set_coords`]); the builder keeps its edges and can
    /// be rebuilt again (call [`GraphBuilder::reset`] to start a new edge
    /// set).
    // lint: hot-path
    pub fn build_into(&mut self, out: &mut Graph) {
        let n = self.num_nodes;
        out.offsets.clear();
        out.offsets.resize(n + 1, 0);
        for &(u, v, _) in &self.edges {
            out.offsets[u as usize + 1] += 1;
            out.offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            out.offsets[i + 1] += out.offsets[i];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&out.offsets[..n]);
        out.adj.clear();
        out.adj.resize(
            2 * self.edges.len(),
            HalfEdge {
                to: 0,
                weight: 0.0,
                edge: 0,
            },
        );
        for (id, &(u, v, w)) in self.edges.iter().enumerate() {
            let id = id as EdgeId;
            out.adj[self.cursor[u as usize] as usize] = HalfEdge {
                to: v,
                weight: w,
                edge: id,
            };
            self.cursor[u as usize] += 1;
            out.adj[self.cursor[v as usize] as usize] = HalfEdge {
                to: u,
                weight: w,
                edge: id,
            };
            self.cursor[v as usize] += 1;
        }
        out.edges.clear();
        out.edges.extend_from_slice(&self.edges);
        out.coords.clear();
        out.lambda = OnceLock::new();
    }
}

/// One directed half of an undirected edge, as stored in the adjacency
/// array.
#[derive(Debug, Clone, Copy)]
pub struct HalfEdge {
    /// Target node.
    pub to: NodeId,
    /// Edge weight (e.g. propagation delay in seconds).
    pub weight: f64,
    /// Stable undirected edge id.
    pub edge: EdgeId,
}

/// Immutable CSR graph. Build with [`GraphBuilder`].
#[derive(Debug, Clone)]
pub struct Graph {
    offsets: Vec<u32>,
    adj: Vec<HalfEdge>,
    edges: Vec<(NodeId, NodeId, f64)>,
    /// One point per node in node order, or empty (see
    /// [`Graph::set_coords`]).
    coords: Vec<[f64; 3]>,
    /// [`Graph::lambda`], derived on first use.
    lambda: OnceLock<f64>,
}

/// `1 − 2⁻²⁰`: λ sits this far below the tightest weight-per-length
/// ratio, so every edge keeps a slack of `2⁻²⁰·w` (see [`Graph::lambda`]).
const LAMBDA_MARGIN: f64 = 1.0 - 1.0 / (1u64 << 20) as f64;
/// `2⁻²⁴`: the smallest weight must be at least this share of the
/// distance and heuristic bounds `D + H` for the slack to dominate
/// rounding.
const MARGIN_SCALE: f64 = 1.0 / (1u64 << 24) as f64;
/// `2⁴⁰⁰` / `2⁻⁴⁰⁰`: coordinate magnitudes above, or nonzero edge lengths
/// below, these leave λ at 0, so squared lengths stay normal and finite.
const COORD_MAX: f64 = f64::from_bits((1023 + 400) << 52);
const LEN_MIN: f64 = f64::from_bits((1023 - 400) << 52);

/// Squared Euclidean distance, in the one evaluation order every caller
/// shares (λ's derivation and the search heuristic must round alike).
#[inline]
pub(crate) fn dist_sq(a: &[f64; 3], b: &[f64; 3]) -> f64 {
    let (dx, dy, dz) = (a[0] - b[0], a[1] - b[1], a[2] - b[2]);
    dx * dx + dy * dy + dz * dz
}

impl Default for Graph {
    /// An empty zero-node graph — a valid [`GraphBuilder::build_into`]
    /// target.
    fn default() -> Self {
        GraphBuilder::new(0).build()
    }
}

impl Graph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Neighbors of node `u` (with weights and edge ids).
    #[inline]
    pub fn neighbors(&self, u: NodeId) -> &[HalfEdge] {
        let lo = self.offsets[u as usize] as usize;
        let hi = self.offsets[u as usize + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Endpoints and weight of undirected edge `e`.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> (NodeId, NodeId, f64) {
        self.edges[e as usize]
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: NodeId) -> usize {
        self.neighbors(u).len()
    }

    /// Per-node coordinates in node order, or an empty slice when none
    /// were set.
    pub fn coords(&self) -> &[[f64; 3]] {
        &self.coords
    }

    /// Replace the per-node coordinates (reusing the allocation). The
    /// points must come in node order, one per node, in the length unit
    /// the edge weights are proportional to (snapshots: ECEF metres,
    /// weights in seconds). Any other count — an empty iterator included —
    /// leaves the graph without coordinates. Coordinates never change a
    /// search result, only its speed (see [`Graph::lambda`]).
    pub fn set_coords(&mut self, points: impl IntoIterator<Item = [f64; 3]>) {
        self.coords.clear();
        // lint: allow(hot-path-alloc) refills a recycled buffer after clear; allocates only on a new peak node count
        self.coords.extend(points);
        if self.coords.len() != self.num_nodes() {
            self.coords.clear();
        }
        self.lambda = OnceLock::new();
    }

    /// λ, the weight-per-length scale of the straight-line lower bound
    /// that searches toward one or two targets add to their heap keys:
    /// every path from `v` to `t` weighs at least `λ·|p_v − p_t|`.
    /// Derived from the graph's own edges on first call (so graphs that
    /// are never searched that way never pay for it) as
    ///
    /// ```text
    /// λ = (1 − 2⁻²⁰) · min over edges of w / |p_u − p_v|
    /// ```
    ///
    /// It is **0** — and a targeted search is then exactly plain
    /// `(dist, node)` Dijkstra — unless all of these hold: every node has
    /// a finite coordinate with magnitude ≤ 2⁴⁰⁰; every edge weight is
    /// positive; every edge length is 0 (coincident endpoints) or
    /// ≥ 2⁻⁴⁰⁰, and at least one is nonzero; and the weights are not too
    /// small for the margin, `w_min ≥ 2⁻²⁴·(D + H)` with `D = 2n·w_max`
    /// (bounds every shortest distance: a simple path has < n edges) and
    /// `H = 4λ·M` (bounds every heuristic; `M` = the largest coordinate
    /// magnitude).
    ///
    /// **Why λ > 0 never changes a bit.** Let `ε = 2⁻⁵³` and write `h(v)`
    /// for the computed bound `fl(λ·fl(√ min_t |p_v − p_t|²))`. Computed
    /// lengths carry relative error ≤ 4ε (the magnitude guards keep edge
    /// squares normal; a node-to-target square that underflows is off by
    /// less than `λ·2⁻⁵³⁶`, far below the slack), and λ rounds up by
    /// ≤ 2ε, so for an edge `(u, v, w)` the triangle inequality through
    /// `v`'s nearest target gives
    ///
    /// ```text
    /// h(u) ≤ h(v) + w − 2⁻²⁰·w + 14ε·w + 12ε·H.                   (1)
    /// ```
    ///
    /// For any float `g ≤ D`, folding the edge in adds ≤ ε·D of rounding,
    /// so the real key sums satisfy `g + h(u) ≤ fl(g + w) + h(v) − δ` with
    /// `δ ≥ 2⁻²⁰·w_min − 26ε·(D + H)`, which the weight guard makes larger
    /// than two ulps of `D + H`. Keys are those sums rounded, and rounding
    /// is monotone, so **along any edge the key strictly grows**. Two
    /// consequences, by induction over heap pops:
    ///
    /// * *Settled distances are exact.* If `v` popped with a label above
    ///   its true distance, the first unsettled node `x` on a shortest
    ///   path to `v` holds a label no larger than that path's prefix fold
    ///   (its predecessor settled exactly and relaxed it); chaining the
    ///   strict growth along the rest of the path gives `key(x) < key(v)`,
    ///   so `x` would have popped first.
    /// * *Parents are Dijkstra's.* Every candidate parent `u` of `v` (a
    ///   neighbor with `dist(u) + w == dist(v)` exactly) has a smaller key,
    ///   so it settles, exactly, and relaxes `v` before `v` pops. On an
    ///   exact tie the search keeps the candidate with the smallest
    ///   `(dist, node)` — the canonical rule of `SptWorkspace`'s parent
    ///   recompute — and no candidate is left to change it later. Plain
    ///   Dijkstra picks the same one: with the weight guard `d + w > d`,
    ///   so it settles in `(dist, node)` order and keeps the first
    ///   candidate it settles. Parallel edges from one candidate resolve
    ///   to the lowest edge id in both (CSR order, strict replacement).
    ///
    /// So coordinates that are wrong, scrambled or missing only weaken
    /// (or zero) λ: the bound then prunes less, and every distance and
    /// path stays bit-identical.
    pub fn lambda(&self) -> f64 {
        *self.lambda.get_or_init(|| self.derive_lambda())
    }

    fn derive_lambda(&self) -> f64 {
        let n = self.num_nodes();
        if self.coords.len() != n || self.edges.is_empty() {
            return 0.0;
        }
        let mut m = 0.0f64;
        for p in &self.coords {
            for x in p {
                let a = x.abs();
                if a.is_nan() || a > COORD_MAX {
                    return 0.0;
                }
                m = m.max(a);
            }
        }
        let (mut ratio, mut w_min, mut w_max) = (f64::INFINITY, f64::INFINITY, 0.0f64);
        for &(u, v, w) in &self.edges {
            let (pu, pv) = (&self.coords[u as usize], &self.coords[v as usize]);
            let len = dist_sq(pu, pv).sqrt();
            if w <= 0.0 || (len < LEN_MIN && (len > 0.0 || pu != pv)) {
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
        let lambda = LAMBDA_MARGIN * ratio;
        let bound = 2.0 * n as f64 * w_max + 4.0 * lambda * m;
        if w_min >= MARGIN_SCALE * bound {
            lambda
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 0, 3.0);
        b.build()
    }

    #[test]
    fn csr_adjacency_complete() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        for u in 0..3 {
            assert_eq!(g.degree(u), 2, "triangle node degree");
        }
        let mut n0: Vec<u32> = g.neighbors(0).iter().map(|h| h.to).collect();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn edge_ids_stable_in_insertion_order() {
        let mut b = GraphBuilder::new(4);
        let e0 = b.add_edge(0, 1, 1.0);
        let e1 = b.add_edge(2, 3, 5.0);
        assert_eq!((e0, e1), (0, 1));
        let g = b.build();
        assert_eq!(g.edge(0), (0, 1, 1.0));
        assert_eq!(g.edge(1), (2, 3, 5.0));
    }

    #[test]
    fn half_edges_share_edge_id() {
        let g = triangle();
        for u in 0..3u32 {
            for h in g.neighbors(u) {
                let (a, b, w) = g.edge(h.edge);
                assert!(a == u || b == u);
                assert_eq!(w, h.weight);
            }
        }
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_node() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 5, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_weight() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, -1.0);
    }

    #[test]
    fn isolated_nodes_allowed() {
        let g = GraphBuilder::new(10).build();
        assert_eq!(g.num_nodes(), 10);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(5), 0);
    }

    #[test]
    fn build_into_reuse_matches_fresh_build() {
        let mut builder = GraphBuilder::new(0);
        let mut g = Graph::default();
        // Two rebuild rounds with different shapes through the same
        // builder + graph: contents must match a from-scratch build.
        for round in 0..2 {
            let n = 5 + round * 3;
            builder.reset(n);
            let mut fresh = GraphBuilder::new(n);
            for i in 0..(n as u32 - 1) {
                let w = (i as f64) * 0.5 + round as f64;
                builder.add_edge(i, i + 1, w);
                fresh.add_edge(i, i + 1, w);
            }
            builder.add_edge(0, n as u32 - 1, 9.0);
            fresh.add_edge(0, n as u32 - 1, 9.0);
            builder.build_into(&mut g);
            let f = fresh.build();
            assert_eq!(g.num_nodes(), f.num_nodes());
            assert_eq!(g.num_edges(), f.num_edges());
            for u in 0..n as NodeId {
                let (a, b) = (g.neighbors(u), f.neighbors(u));
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    assert_eq!(x.to, y.to);
                    assert_eq!(x.edge, y.edge);
                    assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                }
            }
            for e in 0..g.num_edges() as EdgeId {
                assert_eq!(g.edge(e), f.edge(e));
            }
        }
    }

    /// 4×4 unit grid with coordinates `(row, col, 0)` and unit weights:
    /// every edge is exactly as long as it weighs, and corner-to-corner
    /// paths tie in droves.
    fn unit_grid() -> Graph {
        let id = |r: u32, c: u32| r * 4 + c;
        let mut b = GraphBuilder::new(16);
        for r in 0..4 {
            for c in 0..4 {
                if c + 1 < 4 {
                    b.add_edge(id(r, c), id(r, c + 1), 1.0);
                }
                if r + 1 < 4 {
                    b.add_edge(id(r, c), id(r + 1, c), 1.0);
                }
            }
        }
        let mut g = b.build();
        g.set_coords((0..16).map(|i| [(i / 4) as f64, (i % 4) as f64, 0.0]));
        g
    }

    #[test]
    fn lambda_is_the_tightest_ratio_less_the_margin() {
        let g = unit_grid();
        assert_eq!(g.coords().len(), 16);
        assert_eq!(g.lambda(), LAMBDA_MARGIN);
    }

    #[test]
    fn lambda_is_zero_without_coordinates() {
        assert_eq!(triangle().lambda(), 0.0);
        // A wrong count is no coordinates at all.
        let mut g = unit_grid();
        g.set_coords([[0.0; 3]; 15]);
        assert!(g.coords().is_empty());
        assert_eq!(g.lambda(), 0.0);
        // Rebuilding into a graph drops its coordinates too.
        let mut b = GraphBuilder::new(16);
        b.add_edge(0, 1, 1.0);
        let mut g = unit_grid();
        b.build_into(&mut g);
        assert!(g.coords().is_empty());
        assert_eq!(g.lambda(), 0.0);
    }

    #[test]
    fn lambda_is_zero_with_a_zero_weight_edge() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 0.0);
        let mut g = b.build();
        g.set_coords([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]);
        assert_eq!(g.lambda(), 0.0);
    }

    #[test]
    fn lambda_is_zero_when_weights_are_too_small_for_the_margin() {
        // The second weight is below 2⁻²⁴ of the distance bound.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1e-9);
        let mut g = b.build();
        g.set_coords([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]]);
        assert_eq!(g.lambda(), 0.0);
        // Non-finite coordinates are refused as well.
        g.set_coords([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [f64::NAN, 0.0, 0.0]]);
        assert_eq!(g.lambda(), 0.0);
    }

    #[test]
    fn scrambled_coordinates_shrink_lambda_and_keep_results_exact() {
        use crate::shortest::DijkstraWorkspace;
        let g = unit_grid();
        let mut scrambled = g.clone();
        // Node i takes node 5i mod 16's point: neighbours land far apart,
        // so the tightest weight-per-length ratio drops.
        scrambled.set_coords((0..16).map(|i| g.coords()[i * 5 % 16]).collect::<Vec<_>>());
        assert!(
            0.0 < scrambled.lambda() && scrambled.lambda() < g.lambda(),
            "λ {} → {}",
            g.lambda(),
            scrambled.lambda()
        );
        let mut plain = g.clone();
        plain.set_coords([]);
        let (mut a, mut b, mut c) = (
            DijkstraWorkspace::new(),
            DijkstraWorkspace::new(),
            DijkstraWorkspace::new(),
        );
        for s in 0..16 {
            for t in 0..16 {
                let want = c.run(&plain, s, None, Some(t));
                for got in [
                    a.run(&g, s, None, Some(t)),
                    b.run(&scrambled, s, None, Some(t)),
                ] {
                    assert_eq!(got.dist(t).to_bits(), want.dist(t).to_bits());
                    assert_eq!(got.extract_path(t), want.extract_path(t), "{s} → {t}");
                }
            }
        }
    }

    #[test]
    fn parallel_edges_kept_distinct() {
        // Parallel edges model e.g. two frequency channels; both must
        // survive with distinct ids.
        let mut b = GraphBuilder::new(2);
        let e0 = b.add_edge(0, 1, 1.0);
        let e1 = b.add_edge(0, 1, 2.0);
        assert_ne!(e0, e1);
        let g = b.build();
        assert_eq!(g.degree(0), 2);
    }
}
