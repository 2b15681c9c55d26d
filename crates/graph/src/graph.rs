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
}

/// The checks every edge passes on its way into a graph, through
/// [`GraphBuilder::add_edge`] or a [`CsrFill`].
#[inline]
fn check_edge(num_nodes: usize, u: NodeId, v: NodeId, weight: f64) {
    // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
    assert!((u as usize) < num_nodes, "node {u} out of range");
    // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
    assert!((v as usize) < num_nodes, "node {v} out of range");
    // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
    assert_ne!(u, v, "self-loops are not allowed");
    // lint: allow(panic-reachable) documented `# Panics` contract guarding Dijkstra's preconditions at graph construction time
    assert!(
        weight.is_finite() && weight >= 0.0,
        "edge weight must be finite and non-negative, got {weight}"
    );
}

impl GraphBuilder {
    /// Create a builder for a graph with `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        Self {
            num_nodes,
            edges: Vec::new(),
        }
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
        check_edge(self.num_nodes, u, v, weight);
        let id = self.edges.len() as EdgeId;
        self.edges.push((u, v, weight));
        id
    }

    /// Freeze into an immutable CSR graph: count each node's degree, then
    /// write every edge once through a [`CsrFill`].
    pub fn build(self) -> Graph {
        let mut degree = vec![0u32; self.num_nodes];
        for &(u, v, _) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut g = Graph {
            offsets: vec![0],
            adj: Vec::new(),
            edges: Vec::new(),
            coords: Vec::new(),
            lambda: OnceLock::new(),
        };
        let mut fill = g.fill(self.num_nodes, self.edges.len(), &mut degree);
        for &(u, v, w) in &self.edges {
            fill.edge(u, v, w);
        }
        fill.complete();
        g
    }
}

/// One-pass CSR writer, from [`Graph::fill`]: edges arrive in id order
/// and each is written exactly once — into the edge table and as its two
/// half-edges — so every node's neighbors come out in edge-id order, as
/// [`GraphBuilder::build`] has always laid them out.
///
/// Nodes come in two kinds, split at the length of the degree slice:
///
/// * **Scattered** nodes (`0..degree.len()`) declared their exact degree
///   up front. Their slots are laid out from those degrees, and each
///   half-edge lands through the node's countdown: with `r` half-edges
///   still due, it goes to slot `end − r`.
/// * **Appended** nodes (the rest) take their half-edges in one
///   [`CsrFill::append_edges`] call each, in node order, all toward
///   scattered nodes; their slots are simply the next ones, so they need
///   no declared degree.
///
/// Declared counts that do not match the edges panic (when a node or the
/// graph gets one half-edge too many, or in [`CsrFill::complete`] when one
/// is left short), so a graph never leaves a fill with a slot unwritten
/// or written twice.
#[derive(Debug)]
#[must_use = "a fill leaves the graph incomplete until `complete` is called"]
pub struct CsrFill<'a> {
    g: &'a mut Graph,
    /// Half-edges each scattered node is still due; counts down to 0.
    due: &'a mut [u32],
    /// Node count of the graph being written.
    num_nodes: usize,
    /// Id of the next edge.
    next: EdgeId,
    /// Slot of the next appended half-edge.
    pos: usize,
    /// First node that may still take appended half-edges (every
    /// appended node below it is closed).
    open: usize,
}

impl CsrFill<'_> {
    /// Write an edge between two scattered nodes. Edge ids follow call
    /// order, as with [`GraphBuilder::add_edge`].
    ///
    /// # Panics
    /// On any edge [`GraphBuilder::add_edge`] rejects, on an appended
    /// endpoint, past the declared edge count, and when an endpoint has
    /// already received its declared degree.
    // lint: hot-path
    pub fn edge(&mut self, u: NodeId, v: NodeId, weight: f64) {
        check_edge(self.num_nodes, u, v, weight);
        let id = self.next;
        let g = &mut *self.g;
        // lint: allow(panic-reachable) documented `# Panics` contract: the edge table is sized by the declared edge count
        assert!((id as usize) < g.edges.len(), "more edges than declared");
        scatter(&mut g.adj, &g.offsets, self.due, u, v, weight, id);
        scatter(&mut g.adj, &g.offsets, self.due, v, u, weight, id);
        g.edges[id as usize] = (u, v, weight);
        self.next += 1;
    }

    /// Write every edge of appended node `u` — one `(v, weight)` per
    /// edge, each `v` a scattered node — taking the next edge ids in
    /// order. Appended nodes come in node order, one call each; a node
    /// skipped over keeps no edges.
    ///
    /// # Panics
    /// On any edge [`GraphBuilder::add_edge`] rejects, when `u` is not an
    /// appended node past every earlier call's, when some `v` is not a
    /// scattered node or has already received its declared degree, and
    /// past the declared edge count.
    // lint: hot-path
    pub fn append_edges(&mut self, u: NodeId, edges: impl IntoIterator<Item = (NodeId, f64)>) {
        // lint: allow(panic-reachable) documented `# Panics` contract: appended slots are laid out in node order
        assert!(
            u as usize >= self.open && (u as usize) < self.num_nodes,
            "appended node {u} out of order or range (next open node {})",
            self.open
        );
        self.close_below(u as usize);
        let g = &mut *self.g;
        append_block(
            Block {
                adj: &mut g.adj,
                table: &mut g.edges,
                offsets: &g.offsets,
                due: self.due,
                num_nodes: self.num_nodes,
                next: &mut self.next,
                pos: &mut self.pos,
            },
            u,
            edges,
        );
        self.close_below(u as usize + 1);
    }

    /// Complete the graph: close the remaining appended nodes and check
    /// that every declared slot and edge was written.
    ///
    /// # Panics
    /// When a scattered node received fewer half-edges than declared, or
    /// the graph fewer edges.
    pub fn complete(mut self) {
        self.close_below(self.num_nodes);
        if let Some(u) = self.due.iter().position(|&r| r != 0) {
            // lint: allow(panic-reachable) documented `# Panics` contract: an unfilled slot would leave a stale half-edge in the graph
            panic!(
                "node {u} received {} half-edge(s) fewer than its declared degree",
                self.due[u]
            );
        }
        // lint: allow(panic-reachable) documented `# Panics` contract: an unfilled slot would leave a stale edge in the graph
        assert!(
            self.next as usize == self.g.edges.len() && self.pos == self.g.adj.len(),
            "{} edge(s) written of {} declared",
            self.next,
            self.g.edges.len()
        );
    }

    /// Close every appended node below `end`: its slots end here.
    #[inline]
    fn close_below(&mut self, end: usize) {
        while self.open < end {
            self.g.offsets.push(self.pos as u32);
            self.open += 1;
        }
    }
}

/// The buffers one [`CsrFill::append_edges`] call writes, borrowed apart
/// so the loop over a node's edges keeps them in registers.
struct Block<'b> {
    adj: &'b mut [HalfEdge],
    table: &'b mut [(NodeId, NodeId, f64)],
    offsets: &'b [u32],
    due: &'b mut [u32],
    num_nodes: usize,
    next: &'b mut EdgeId,
    pos: &'b mut usize,
}

/// Write appended node `u`'s edges: its own half-edges into the next
/// slots, the other halves through the scattered nodes' countdowns.
#[inline]
fn append_block(b: Block<'_>, u: NodeId, edges: impl IntoIterator<Item = (NodeId, f64)>) {
    let Block {
        adj,
        table,
        offsets,
        due,
        num_nodes,
        next,
        pos,
    } = b;
    for (v, weight) in edges {
        check_edge(num_nodes, u, v, weight);
        let id = *next;
        // lint: allow(panic-reachable) documented `# Panics` contract: the edge table is sized by the declared edge count
        assert!(
            (id as usize) < table.len() && *pos < adj.len(),
            "more edges than declared"
        );
        adj[*pos] = HalfEdge {
            to: v,
            weight,
            edge: id,
        };
        *pos += 1;
        scatter(adj, offsets, due, v, u, weight, id);
        table[id as usize] = (u, v, weight);
        *next += 1;
    }
}

/// Place scattered node `u`'s half-edge toward `to` in `u`'s next
/// declared slot.
#[inline]
fn scatter(
    adj: &mut [HalfEdge],
    offsets: &[u32],
    due: &mut [u32],
    u: NodeId,
    to: NodeId,
    weight: f64,
    edge: EdgeId,
) {
    // lint: allow(panic-reachable) documented `# Panics` contract: only scattered nodes have declared slots
    assert!(
        (u as usize) < due.len(),
        "node {u} is appended; it has no declared slots"
    );
    let due = &mut due[u as usize];
    // lint: allow(panic-reachable) documented `# Panics` contract: a node's slots are exactly its declared degree
    assert!(
        *due > 0,
        "node {u} received more half-edges than its declared degree"
    );
    let slot = offsets[u as usize + 1] - *due;
    *due -= 1;
    adj[slot as usize] = HalfEdge { to, weight, edge };
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

/// Set `v`'s length to `len`, initialising only entries beyond the old
/// length (the caller overwrites every entry before reading any).
fn resize_for_overwrite<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) {
    if v.len() >= len {
        v.truncate(len);
    } else {
        // lint: allow(hot-path-alloc) grows a recycled buffer only on a new peak size
        v.resize(len, fill);
    }
}

/// Placeholder for a half-edge slot a fill has not written yet.
const UNWRITTEN: HalfEdge = HalfEdge {
    to: 0,
    weight: 0.0,
    edge: 0,
};

/// Immutable CSR graph. Build with [`GraphBuilder`], or write one over in
/// place with [`Graph::fill`].
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
    /// An empty zero-node graph, e.g. the placeholder a [`Graph::fill`]
    /// later writes over.
    fn default() -> Self {
        GraphBuilder::new(0).build()
    }
}

impl Graph {
    /// Start writing this graph over in place with `num_nodes` nodes and
    /// `num_edges` edges, keeping its allocations: the one CSR writer,
    /// behind [`GraphBuilder::build`] and every snapshot graph (see
    /// [`CsrFill`]).
    ///
    /// `degree[u]` is the exact degree of scattered node `u`; the fill
    /// counts it down to 0. Nodes from `degree.len()` to `num_nodes` are
    /// appended. Coordinates are dropped, as on a fresh build, until
    /// [`Graph::set_coords`].
    ///
    /// # Panics
    /// If `degree` is longer than `num_nodes`, or declares more
    /// half-edges than `num_edges` edges have.
    // lint: hot-path
    pub fn fill<'a>(
        &'a mut self,
        num_nodes: usize,
        num_edges: usize,
        degree: &'a mut [u32],
    ) -> CsrFill<'a> {
        // lint: allow(panic-reachable) documented `# Panics` contract: scattered nodes are a prefix of the node range
        assert!(
            degree.len() <= num_nodes,
            "more declared degrees than nodes"
        );
        self.offsets.clear();
        self.offsets.reserve(num_nodes + 1);
        self.offsets.push(0);
        let mut end = 0u64;
        for &d in degree.iter() {
            end += u64::from(d);
            self.offsets.push(end as u32);
        }
        // lint: allow(panic-reachable) documented `# Panics` contract: scattered slots are a share of all half-edges
        assert!(
            end <= 2 * num_edges as u64 && 2 * num_edges as u64 <= u64::from(u32::MAX),
            "{end} declared half-edges for {num_edges} edges"
        );
        // Every slot and edge is written exactly once before `complete`
        // returns, so entries left over from the previous fill need no
        // clearing: only growth is initialised.
        resize_for_overwrite(&mut self.adj, 2 * num_edges, UNWRITTEN);
        resize_for_overwrite(&mut self.edges, num_edges, (0, 0, 0.0));
        self.coords.clear();
        self.lambda = OnceLock::new();
        let open = degree.len();
        CsrFill {
            g: self,
            due: degree,
            num_nodes,
            next: 0,
            pos: end as usize,
            open,
        }
    }

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

    /// Bit-level CSR comparison: node count, every node's neighbors
    /// (target, edge id, weight bits) in order, and the edge table; and
    /// `a`'s neighbors are each node's edges in id order, listed straight
    /// from the edge table.
    fn assert_same_csr(a: &Graph, b: &Graph) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.num_edges(), b.num_edges());
        let mut lists = vec![Vec::new(); a.num_nodes()];
        for e in 0..a.num_edges() as EdgeId {
            let (u, v, w) = a.edge(e);
            lists[u as usize].push((v, e, w.to_bits()));
            lists[v as usize].push((u, e, w.to_bits()));
        }
        for (u, list) in lists.iter().enumerate() {
            let got: Vec<_> = a
                .neighbors(u as NodeId)
                .iter()
                .map(|h| (h.to, h.edge, h.weight.to_bits()))
                .collect();
            assert_eq!(&got, list, "node {u} in edge-id order");
        }
        for u in 0..a.num_nodes() as NodeId {
            let key = |h: &HalfEdge| (h.to, h.edge, h.weight.to_bits());
            let (x, y) = (a.neighbors(u), b.neighbors(u));
            assert_eq!(
                x.iter().map(key).collect::<Vec<_>>(),
                y.iter().map(key).collect::<Vec<_>>(),
                "node {u}"
            );
        }
        for e in 0..a.num_edges() as EdgeId {
            let ((u1, v1, w1), (u2, v2, w2)) = (a.edge(e), b.edge(e));
            assert_eq!((u1, v1, w1.to_bits()), (u2, v2, w2.to_bits()), "edge {e}");
        }
    }

    /// A star-of-stars in snapshot shape: `s` scattered hubs joined in a
    /// ring, then `n − s` appended leaves, each linked to a few hubs
    /// (some to none, some twice). Written once with `fill` and once
    /// with the builder.
    fn refill(g: &mut Graph, s: usize, n: usize, seed: u32) -> Graph {
        let leaf_edges = |leaf: usize| -> Vec<(NodeId, f64)> {
            (0..(leaf as u32 * 7 + seed) % 4)
                .map(|k| {
                    let hub = (leaf as u32 * 5 + k * 3 + seed) % s as u32;
                    (hub, leaf as f64 + hub as f64 / 8.0)
                })
                .collect()
        };
        let mut b = GraphBuilder::new(n);
        let mut degree = vec![0u32; s];
        for u in 0..s as u32 {
            let v = (u + 1) % s as u32;
            b.add_edge(u, v, 0.5 + u as f64);
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        for leaf in s..n {
            for (hub, w) in leaf_edges(leaf) {
                b.add_edge(leaf as u32, hub, w);
                degree[hub as usize] += 1;
            }
        }
        let mut fill = g.fill(n, b.num_edges(), &mut degree);
        for u in 0..s as u32 {
            fill.edge(u, (u + 1) % s as u32, 0.5 + u as f64);
        }
        // Every other edgeless leaf is skipped instead of written empty.
        for leaf in (s..n).filter(|&leaf| leaf % 2 == 1 || !leaf_edges(leaf).is_empty()) {
            fill.append_edges(leaf as u32, leaf_edges(leaf));
        }
        fill.complete();
        assert!(degree.iter().all(|&d| d == 0), "degrees count down to 0");
        b.build()
    }

    #[test]
    fn refill_in_place_matches_fresh_build() {
        // Shrinking, growing and reshaping one graph in place: entries
        // left over from an earlier fill must never show through.
        let mut g = Graph::default();
        for (round, &(s, n)) in [(6, 40), (3, 9), (9, 70), (4, 4), (5, 30)]
            .iter()
            .enumerate()
        {
            let fresh = refill(&mut g, s, n, round as u32 * 4);
            assert_same_csr(&g, &fresh);
        }
        // With no appended nodes, the fill is exactly the builder's.
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0, 1.0);
        b.add_edge(0, 3, 2.0);
        b.add_edge(1, 2, 3.0);
        let mut degree = vec![2, 1, 1, 2];
        let mut fill = g.fill(4, 3, &mut degree);
        fill.edge(3, 0, 1.0);
        fill.edge(0, 3, 2.0);
        fill.edge(1, 2, 3.0);
        fill.complete();
        assert_same_csr(&g, &b.build());
    }

    #[test]
    #[should_panic(expected = "more half-edges than its declared degree")]
    fn fill_rejects_an_undeclared_half_edge() {
        let mut g = Graph::default();
        let mut degree = vec![1, 1, 0];
        let mut fill = g.fill(3, 2, &mut degree);
        fill.edge(0, 1, 1.0);
        fill.edge(1, 2, 1.0);
    }

    #[test]
    #[should_panic(expected = "fewer than its declared degree")]
    fn fill_rejects_a_short_degree() {
        let mut g = Graph::default();
        let mut degree = vec![2, 1];
        let mut fill = g.fill(3, 2, &mut degree);
        fill.append_edges(2, [(0, 1.0)]);
        fill.complete();
    }

    #[test]
    #[should_panic(expected = "edge(s) written of 3 declared")]
    fn fill_rejects_a_short_edge_count() {
        let mut g = Graph::default();
        let mut degree = vec![2];
        let mut fill = g.fill(3, 3, &mut degree);
        fill.append_edges(1, [(0, 1.0)]);
        fill.append_edges(2, [(0, 1.0)]);
        fill.complete();
    }

    #[test]
    #[should_panic(expected = "more edges than declared")]
    fn fill_rejects_an_undeclared_edge() {
        let mut g = Graph::default();
        let mut degree = vec![2];
        let mut fill = g.fill(3, 1, &mut degree);
        fill.append_edges(1, [(0, 1.0)]);
        fill.append_edges(2, [(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn fill_appends_in_node_order() {
        let mut g = Graph::default();
        let mut degree = vec![2];
        let mut fill = g.fill(3, 2, &mut degree);
        fill.append_edges(2, [(0, 1.0)]);
        fill.append_edges(1, [(0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn fill_validates_like_add_edge() {
        let mut g = Graph::default();
        let mut degree = vec![1];
        let mut fill = g.fill(2, 1, &mut degree);
        fill.append_edges(1, [(0, f64::NAN)]);
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
        // Writing a graph over drops its coordinates too.
        let mut g = unit_grid();
        let mut degree = vec![1, 1];
        let mut fill = g.fill(16, 1, &mut degree);
        fill.edge(0, 1, 1.0);
        fill.complete();
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
