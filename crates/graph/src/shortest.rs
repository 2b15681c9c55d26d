//! Single-source shortest paths (Dijkstra) with optional edge masks.
//!
//! Two entry points:
//!
//! * The free functions [`dijkstra`] / [`dijkstra_with_mask`] allocate a
//!   fresh [`DijkstraWorkspace`] per call and materialize a
//!   [`ShortestPaths`] — convenient for one-shot queries and tests.
//! * A long-lived [`DijkstraWorkspace`] amortizes every buffer (distance,
//!   parent, settled, heap) across runs; clearing is generation-stamped,
//!   so resetting between runs costs O(nodes touched), not O(n). The hot
//!   experiment loops keep one workspace per worker thread.
//!
//! A run with one or two distinct targets on a graph with coordinates is
//! goal-directed: its heap keys add the straight-line bound
//! `λ·min_t |p_v − p_t|` (see [`Graph::lambda`]), which settles fewer
//! nodes and leaves every distance and path bit-identical to plain
//! Dijkstra. Runs with more targets are plain Dijkstra (see
//! `GOAL_MAX_TARGETS`).

use crate::graph::{dist_sq, EdgeId, Graph, NodeId};
use leo_util::telemetry::Counter;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Telemetry: total Dijkstra runs (plain + masked) across the process.
static DIJKSTRA_CALLS: Counter = Counter::new("dijkstra_calls");
/// Telemetry: nodes settled across all Dijkstra runs.
static DIJKSTRA_SETTLED: Counter = Counter::new("dijkstra_nodes_settled");
/// Telemetry: runs that reused a warm workspace (every run after the
/// first on a given [`DijkstraWorkspace`]).
static WORKSPACE_REUSES: Counter = Counter::new("workspace_reuses");
/// Telemetry: incremental [`SptWorkspace::apply`] repairs.
static SPT_REPAIRS: Counter = Counter::new("spt_repairs");
/// Telemetry: full [`SptWorkspace::rebuild`] runs (chunk starts and any
/// caller-decided fallback from the incremental path).
static SPT_FULL_FALLBACKS: Counter = Counter::new("spt_full_fallbacks");
/// Telemetry: delta entries (removed + reweighted) consumed by
/// [`SptWorkspace::apply`].
static DELTA_EDGES_APPLIED: Counter = Counter::new("delta_edges_applied");
/// Telemetry: [`SptWorkspace::apply_for_targets`] repairs that stopped
/// the Dial drain early because every queried target had settled.
static SPT_EARLY_EXITS: Counter = Counter::new("spt_early_exits");

/// Result of a single-source Dijkstra run.
#[derive(Debug, Clone)]
pub struct ShortestPaths {
    /// Source node.
    pub source: NodeId,
    /// `dist[v]` = shortest distance from the source, `f64::INFINITY` if
    /// unreached.
    ///
    /// When the run early-exited on a target, only nodes settled before
    /// the target report a (correct) finite distance; nodes that were
    /// merely queued report `INFINITY`, never a stale upper bound.
    pub dist: Vec<f64>,
    /// `parent_edge[v]` = edge id used to reach `v` on the shortest path,
    /// `EdgeId::MAX` for the source and unreached nodes.
    pub parent_edge: Vec<EdgeId>,
    /// `parent_node[v]` = predecessor of `v`, `NodeId::MAX` if none.
    pub parent_node: Vec<NodeId>,
}

impl ShortestPaths {
    /// True iff `v` was reached (settled with a shortest distance).
    pub fn reached(&self, v: NodeId) -> bool {
        self.dist[v as usize].is_finite()
    }
}

/// A path: node sequence plus the edges connecting them and total weight.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Nodes from source to destination (inclusive).
    pub nodes: Vec<NodeId>,
    /// Edge ids, one per hop (`nodes.len() - 1` of them).
    pub edges: Vec<EdgeId>,
    /// Sum of edge weights.
    pub total_weight: f64,
}

impl Path {
    /// Number of hops (edges) in the path.
    pub fn num_hops(&self) -> usize {
        self.edges.len()
    }

    /// The nodes strictly between source and destination: empty for
    /// paths of fewer than 3 nodes (including the one-node path from a
    /// node to itself).
    pub fn intermediate_nodes(&self) -> &[NodeId] {
        match self.nodes.len() {
            0..=2 => &[],
            len => &self.nodes[1..len - 1],
        }
    }
}

/// A heap entry: `dist` is the ordering key — the tentative distance,
/// plus the straight-line bound in a goal-directed run.
#[derive(Debug, PartialEq)]
struct HeapItem {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance: reverse the comparison. Distances are
        // finite non-NaN by construction.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable buffers for repeated Dijkstra runs.
///
/// Entries are validated with a per-run generation stamp: `dist[v]`,
/// `parent_edge[v]`, `parent_node[v]`, and `settled[v]` are meaningful
/// only where `stamp[v]` equals the current generation, so starting a new
/// run is a counter bump plus a heap clear — no O(n) refill. The arrays
/// grow monotonically to the largest graph seen and are reused across
/// graphs of different sizes.
///
/// A workspace is plain mutable state: keep one per thread (the
/// experiment fan-outs create one per `parallel_map` worker) and the hot
/// loop stays lock-free and allocation-free after warm-up.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    /// `stamp[v] == gen` iff `v` was touched by the current run.
    stamp: Vec<u32>,
    /// `target_stamp[v] == gen` iff `v` is a pending early-exit target of
    /// the current run (see [`DijkstraWorkspace::run_multi`]).
    target_stamp: Vec<u32>,
    /// Current generation; bumped by every run, never 0 after the first.
    gen: u32,
    dist: Vec<f64>,
    parent_edge: Vec<EdgeId>,
    parent_node: Vec<NodeId>,
    settled: Vec<bool>,
    /// Straight-line bound of each touched node in a goal-directed run.
    bound: Vec<f64>,
    /// Coordinates of the current run's distinct targets.
    target_pts: Vec<[f64; 3]>,
    heap: BinaryHeap<HeapItem>,
    /// Loanable scratch mask, used by the multi-path algorithms.
    mask_buf: Vec<bool>,
    /// Loanable scratch distances (Suurballe potentials).
    dist_buf: Vec<f64>,
    /// Node count of the most recent run's graph.
    active_n: usize,
    /// Source of the most recent run.
    source: NodeId,
    /// Completed runs on this workspace.
    runs: u64,
}

impl DijkstraWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed runs on this workspace.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Bump the generation and size buffers for an `n`-node graph.
    fn begin(&mut self, n: usize) {
        if self.stamp.len() < n {
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.stamp.resize(n, 0);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.target_stamp.resize(n, 0);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.dist.resize(n, f64::INFINITY);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.parent_edge.resize(n, EdgeId::MAX);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.parent_node.resize(n, NodeId::MAX);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.settled.resize(n, false);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.bound.resize(n, 0.0);
        }
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // u32 wrap: stale stamps could collide with a reused
            // generation, so pay one full clear every 2^32 runs.
            self.stamp.fill(0);
            self.target_stamp.fill(0);
            self.gen = 1;
        }
        self.heap.clear();
        self.active_n = n;
    }

    /// Run Dijkstra from `source`, skipping edges marked `true` in
    /// `disabled` and optionally stopping once `target` is settled.
    ///
    /// Returns a [`SsspView`] borrowing this workspace; the result stays
    /// readable (via [`DijkstraWorkspace::view`]) until the next run.
    pub fn run(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        target: Option<NodeId>,
    ) -> SsspView<'_> {
        match target {
            Some(t) => self.run_core(g, source, disabled, Some(std::slice::from_ref(&t))),
            None => self.run_core(g, source, disabled, None),
        }
    }

    /// Like [`DijkstraWorkspace::run`] with a *set* of early-exit targets:
    /// the run stops once every node in `targets` is settled (duplicates
    /// are fine). An empty `targets` slice disables early exit (same as
    /// `target: None`).
    ///
    /// Distances and paths to the targets are exact, bit for bit what a
    /// full Dijkstra run reports. Non-target nodes follow the settled-only
    /// contract: every node the run settles is exact too, but *which*
    /// nodes get settled depends on the graph's coordinates — with
    /// [`Graph::lambda`] > 0 and at most two distinct targets the search
    /// is goal-directed and settles mostly nodes toward the targets.
    ///
    /// This is the experiment-loop shape: one source city, a handful of
    /// destination cities, and a constellation graph whose far side never
    /// needs settling.
    pub fn run_multi(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        targets: &[NodeId],
    ) -> SsspView<'_> {
        self.run_core(
            g,
            source,
            disabled,
            if targets.is_empty() {
                None
            } else {
                Some(targets)
            },
        )
    }

    // lint: hot-path
    fn run_core(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        targets: Option<&[NodeId]>,
    ) -> SsspView<'_> {
        let n = g.num_nodes();
        // Release builds keep equivalent protection via the slice bounds
        // checks on `stamp`/`dist` indexing below; the named asserts are
        // kept for debug/test builds where the message matters.
        debug_assert!((source as usize) < n, "source out of range");
        if let Some(d) = disabled {
            debug_assert_eq!(d.len(), g.num_edges(), "mask length must equal edge count");
        }
        DIJKSTRA_CALLS.add(1);
        if self.runs > 0 {
            WORKSPACE_REUSES.add(1);
        }
        self.runs += 1;
        self.begin(n);
        let gen = self.gen;
        let coords = g.coords();
        self.target_pts.clear();
        // Pending distinct early-exit targets; `None` = run to exhaustion.
        let pending = targets.map(|ts| {
            let mut distinct = 0usize;
            for &t in ts {
                let ti = t as usize;
                debug_assert!(ti < n, "target out of range"); // release: target_stamp[ti] bounds-checks
                if self.target_stamp[ti] != gen {
                    self.target_stamp[ti] = gen;
                    distinct += 1;
                    if distinct <= GOAL_MAX_TARGETS && !coords.is_empty() {
                        self.target_pts.push(coords[ti]);
                    }
                }
            }
            distinct
        });
        // Goal direction needs a few targets to aim at (see
        // `GOAL_MAX_TARGETS`); λ = 0 keeps the keys equal to the
        // distances, i.e. plain (dist, node) Dijkstra.
        let lambda = match pending {
            Some(1..=GOAL_MAX_TARGETS) => g.lambda(),
            _ => 0.0,
        };
        let si = source as usize;
        self.stamp[si] = gen;
        self.dist[si] = 0.0;
        self.parent_edge[si] = EdgeId::MAX;
        self.parent_node[si] = NodeId::MAX;
        self.settled[si] = false;
        self.heap.push(HeapItem {
            dist: 0.0,
            node: source,
        });
        let settled_count = if lambda > 0.0 {
            self.settle::<true>(g, disabled, pending, lambda)
        } else {
            self.settle::<false>(g, disabled, pending, 0.0)
        };
        DIJKSTRA_SETTLED.add(settled_count);
        self.source = source;
        self.view()
    }

    /// The settle loop of a run, compiled twice: `GOAL = false` (λ = 0)
    /// is plain `(dist, node)` Dijkstra with no per-edge λ test, and
    /// `GOAL = true` adds `λ` times the straight-line distance to the
    /// nearest target to every heap key and applies the exact-tie parent
    /// rule (see [`Graph::lambda`]). Returns the number of nodes settled.
    // lint: hot-path
    fn settle<const GOAL: bool>(
        &mut self,
        g: &Graph,
        disabled: Option<&[bool]>,
        mut pending: Option<usize>,
        lambda: f64,
    ) -> u64 {
        let gen = self.gen;
        let coords = g.coords();
        let mut settled_count = 0u64;
        while let Some(HeapItem { dist: key, node: u }) = self.heap.pop() {
            let ui = u as usize;
            if self.settled[ui] {
                continue;
            }
            self.settled[ui] = true;
            settled_count += 1;
            if let Some(p) = pending.as_mut() {
                if self.target_stamp[ui] == gen {
                    *p -= 1;
                    if *p == 0 {
                        break;
                    }
                }
            }
            // A plain key is the label itself. A goal-directed node's
            // first pop carries its smallest key, hence its latest (and
            // final) label.
            let d = if GOAL { self.dist[ui] } else { key };
            for h in g.neighbors(u) {
                if let Some(mask) = disabled {
                    if mask[h.edge as usize] {
                        continue;
                    }
                }
                let nd = d + h.weight;
                let vi = h.to as usize;
                let fresh = self.stamp[vi] != gen;
                let cur = if fresh { f64::INFINITY } else { self.dist[vi] };
                if nd < cur {
                    self.stamp[vi] = gen;
                    self.dist[vi] = nd;
                    self.parent_edge[vi] = h.edge;
                    self.parent_node[vi] = u;
                    self.settled[vi] = false;
                    let key = if GOAL {
                        if fresh {
                            self.bound[vi] = lambda * nearest(&self.target_pts, &coords[vi]);
                        }
                        nd + self.bound[vi]
                    } else {
                        nd
                    };
                    self.heap.push(HeapItem {
                        dist: key,
                        node: h.to,
                    });
                } else if GOAL && nd == cur {
                    // Exact tie: keep the (dist, node)-smallest parent,
                    // the one plain Dijkstra settles first (see
                    // `Graph::lambda` for why no candidate comes later).
                    let p = self.parent_node[vi];
                    let dp = self.dist[p as usize];
                    if d < dp || (d == dp && u < p) {
                        self.parent_edge[vi] = h.edge;
                        self.parent_node[vi] = u;
                    }
                }
            }
        }
        settled_count
    }

    /// A view of the most recent run's result (empty before any run).
    pub fn view(&self) -> SsspView<'_> {
        SsspView { ws: self }
    }

    /// Borrow the scratch edge mask, cleared and sized to `len`. Return
    /// it with [`DijkstraWorkspace::put_mask`] so the allocation is
    /// reused; taking it twice without returning just allocates afresh.
    pub fn take_mask(&mut self, len: usize) -> Vec<bool> {
        let mut m = std::mem::take(&mut self.mask_buf);
        m.clear();
        m.resize(len, false);
        m
    }

    /// Return a mask borrowed with [`DijkstraWorkspace::take_mask`].
    pub fn put_mask(&mut self, m: Vec<bool>) {
        self.mask_buf = m;
    }

    /// Borrow the scratch distance buffer (cleared). Return it with
    /// [`DijkstraWorkspace::put_dist_buf`].
    pub fn take_dist_buf(&mut self) -> Vec<f64> {
        let mut d = std::mem::take(&mut self.dist_buf);
        d.clear();
        d
    }

    /// Return the buffer borrowed with
    /// [`DijkstraWorkspace::take_dist_buf`].
    pub fn put_dist_buf(&mut self, d: Vec<f64>) {
        self.dist_buf = d;
    }

    /// Test hook: force the generation counter near the wrap point.
    #[cfg(test)]
    fn set_gen_for_test(&mut self, gen: u32) {
        self.gen = gen;
    }
}

/// Most distinct targets a run aims the straight-line bound at; runs
/// with more are plain Dijkstra. The bound is the distance to the
/// *nearest* target, so it prunes well toward one or two targets but
/// little once they spread around the globe, while every touched node
/// pays one distance per target. Timed per search on Starlink BP and
/// hybrid snapshots over three real pair sets (`leo_benchmark`'s
/// `latency_day`, paper-scale fig2, `ext_million_pairs`), the bound
/// changed search time by −66…−27% at one target, −28…+15% at two,
/// −10…+39% at three to eight and +137…+163% at 64. A cap of two gave
/// the smallest BP + hybrid total on the first two sets and tied with a
/// cap of one on the third.
const GOAL_MAX_TARGETS: usize = 2;

/// Straight-line distance from `p` to the nearest of `targets` (one
/// square root: `√` is monotone, so the minimum commutes with it).
#[inline]
fn nearest(targets: &[[f64; 3]], p: &[f64; 3]) -> f64 {
    let mut best = f64::INFINITY;
    for t in targets {
        best = best.min(dist_sq(p, t));
    }
    best.sqrt()
}

/// Borrowed result of the most recent [`DijkstraWorkspace::run`].
///
/// Same contract as [`ShortestPaths`] without the materialization:
/// distances are reported only for **settled** nodes, so an early-exited
/// run never exposes a stale queued-but-unrelaxed upper bound. Targets
/// are always exact. Every other settled node is exact as well, but in a
/// goal-directed run (one or two distinct targets, [`Graph::lambda`] > 0)
/// *which* non-target nodes get settled depends on the coordinates.
#[derive(Clone, Copy)]
pub struct SsspView<'a> {
    ws: &'a DijkstraWorkspace,
}

impl SsspView<'_> {
    /// Source node of the run.
    pub fn source(&self) -> NodeId {
        self.ws.source
    }

    /// True iff `v` was settled with its shortest distance.
    pub fn reached(&self, v: NodeId) -> bool {
        let vi = v as usize;
        vi < self.ws.active_n && self.ws.stamp[vi] == self.ws.gen && self.ws.settled[vi]
    }

    /// Shortest distance to `v`, or `INFINITY` if `v` was not settled.
    pub fn dist(&self, v: NodeId) -> f64 {
        if self.reached(v) {
            self.ws.dist[v as usize]
        } else {
            f64::INFINITY
        }
    }

    /// Extract the path to `target`, or `None` if it was not settled.
    pub fn extract_path(&self, target: NodeId) -> Option<Path> {
        if !self.reached(target) {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut v = target;
        while v != self.ws.source {
            let e = self.ws.parent_edge[v as usize];
            let p = self.ws.parent_node[v as usize];
            debug_assert!(e != EdgeId::MAX && p != NodeId::MAX);
            edges.push(e);
            nodes.push(p);
            v = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path {
            nodes,
            edges,
            total_weight: self.ws.dist[target as usize],
        })
    }

    /// Overwrite `out` with the per-node distances (`INFINITY` where
    /// unsettled), sized to the run's graph.
    pub fn write_dists(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.ws.active_n);
        for v in 0..self.ws.active_n {
            let d = if self.ws.stamp[v] == self.ws.gen && self.ws.settled[v] {
                self.ws.dist[v]
            } else {
                f64::INFINITY
            };
            out.push(d);
        }
    }

    /// Materialize an owned [`ShortestPaths`] (allocates three `n`-vecs).
    pub fn to_shortest_paths(&self) -> ShortestPaths {
        let n = self.ws.active_n;
        let mut dist = vec![f64::INFINITY; n];
        let mut parent_edge = vec![EdgeId::MAX; n];
        let mut parent_node = vec![NodeId::MAX; n];
        for v in 0..n {
            if self.ws.stamp[v] == self.ws.gen && self.ws.settled[v] {
                dist[v] = self.ws.dist[v];
                parent_edge[v] = self.ws.parent_edge[v];
                parent_node[v] = self.ws.parent_node[v];
            }
        }
        ShortestPaths {
            source: self.ws.source,
            dist,
            parent_edge,
            parent_node,
        }
    }
}

thread_local! {
    static THREAD_WS: std::cell::RefCell<DijkstraWorkspace> =
        std::cell::RefCell::new(DijkstraWorkspace::new());
}

/// Run `f` with this thread's shared [`DijkstraWorkspace`] — a warm
/// workspace for one-shot call sites that don't manage their own.
///
/// Re-entrant use (calling `with_thread_workspace` from inside `f`)
/// panics on the `RefCell` borrow; pass the workspace down instead.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut DijkstraWorkspace) -> R) -> R {
    THREAD_WS.with(|ws| f(&mut ws.borrow_mut()))
}

/// Dijkstra from `source` over all edges.
pub fn dijkstra(g: &Graph, source: NodeId) -> ShortestPaths {
    DijkstraWorkspace::new()
        .run(g, source, None, None)
        .to_shortest_paths()
}

/// Dijkstra from `source`, ignoring edges whose id is marked `true` in
/// `disabled` (a bitmask indexed by [`EdgeId`]).
///
/// Used for k-edge-disjoint path computation and link-failure injection.
/// An optional `target` enables early exit once the target is settled; in
/// that case only nodes settled before the exit report finite distances
/// (see [`ShortestPaths::dist`]).
pub fn dijkstra_with_mask(
    g: &Graph,
    source: NodeId,
    disabled: &[bool],
    target: Option<NodeId>,
) -> ShortestPaths {
    DijkstraWorkspace::new()
        .run(g, source, Some(disabled), target)
        .to_shortest_paths()
}

/// A shortest-path **tree** maintained incrementally across graph
/// versions.
///
/// Where [`DijkstraWorkspace`] answers one-shot queries, an
/// `SptWorkspace` keeps the full tree of one source alive while the
/// graph evolves (a `TimeSweep`-style edge delta per step:
/// added / removed / reweighted edges with remapped ids), repairing it
/// in place instead of re-running Dijkstra from scratch:
///
/// 1. **Re-anchor** — walk every old tree path root→leaf and recompute
///    its distance fold with the *new* weights (a removed or unmapped
///    parent edge cuts the subtree to `INFINITY`). Every finite value
///    produced is the fold of a real path in the new graph, so it is a
///    valid upper bound on the new distance.
/// 2. **Fixpoint repair** — one scan over all new edges seeds a
///    label-correcting worklist with every violated bound (this is
///    where added edges enter); the worklist then relaxes to the unique
///    fixpoint. Because f64 addition is monotone, that fixpoint is
///    exactly `min` over all paths of the left-fold sum — the same
///    value, bit for bit, that a fresh Dijkstra computes.
/// 3. **Canonical parents** — recompute `parent[v]` as the candidate
///    `u` minimizing `(dist[u], u)` among neighbors with
///    `dist[u] + w == dist[v]` exactly and `(dist[u], u) < (dist[v], v)`
///    lexicographically, breaking ties among parallel edges by lowest
///    edge id. For strictly positive weights this is precisely the
///    parent a fresh [`dijkstra`] run assigns (its settle order *is*
///    the lexicographic order on `(dist, node)`), so repaired parents —
///    and therefore extracted paths — are bit-identical to a fresh run.
///
/// **Equivalence contract**: after `rebuild` or `apply`, `dists()` is
/// bitwise equal to a fresh [`dijkstra`] from the same source on the
/// same graph, and for graphs with strictly positive weights (every
/// snapshot graph: weights are propagation delays) `parent_nodes()` /
/// `parent_edges()` are bitwise equal too. The property suite in
/// `tests/sweep.rs` enforces this over thousands of random sweep steps.
///
/// Zero-weight edges keep distances exact but void the deterministic
/// parent guarantee (the canonical rule can fail to find a candidate;
/// `extract_path` then returns `None` rather than a wrong path).
///
/// Correctness does **not** depend on the delta being complete: an old
/// edge missing from `reweighted` merely loses its bound (treated as
/// removed), costing repair work, never accuracy — phase 2 always
/// converges on the true new-graph fixpoint.
#[derive(Debug, Default)]
pub struct SptWorkspace {
    source: NodeId,
    dist: Vec<f64>,
    parent_edge: Vec<EdgeId>,
    parent_node: Vec<NodeId>,
    /// Old-edge-id → new-edge-id scratch (`EdgeId::MAX` = removed).
    old_to_new: Vec<EdgeId>,
    /// Per-node "anchored this round" scratch (doubles as `settled` in
    /// [`SptWorkspace::rebuild`]).
    done: Vec<bool>,
    /// Parent-chain walk scratch for the re-anchor phase (doubles as
    /// the dirty list while seeding phase 2).
    stack: Vec<NodeId>,
    /// Dial-style bucket queue for phase-2 relaxation.
    buckets: Vec<Vec<(f64, NodeId)>>,
    heap: BinaryHeap<HeapItem>,
    ready: bool,
}

impl SptWorkspace {
    /// An empty workspace; buffers grow on first [`SptWorkspace::rebuild`].
    pub fn new() -> Self {
        Self::default()
    }

    /// True once a tree has been built (i.e. `rebuild` ran at least once).
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    /// Source node of the maintained tree.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Node count of the tree's current graph version.
    pub fn num_nodes(&self) -> usize {
        self.dist.len()
    }

    /// Shortest distance to `v` (`INFINITY` if unreached or out of range).
    pub fn dist(&self, v: NodeId) -> f64 {
        self.dist.get(v as usize).copied().unwrap_or(f64::INFINITY)
    }

    /// Per-node distances (`INFINITY` where unreached).
    pub fn dists(&self) -> &[f64] {
        &self.dist
    }

    /// Per-node parent edge ids (`EdgeId::MAX` for source / unreached).
    pub fn parent_edges(&self) -> &[EdgeId] {
        &self.parent_edge
    }

    /// Per-node parent nodes (`NodeId::MAX` for source / unreached).
    pub fn parent_nodes(&self) -> &[NodeId] {
        &self.parent_node
    }

    /// Build the tree from scratch with a full Dijkstra run.
    ///
    /// Also the fallback when a delta arrives with `full = true` (chunk
    /// starts, or a consumer that lost delta continuity).
    pub fn rebuild(&mut self, g: &Graph, source: NodeId) {
        let n = g.num_nodes();
        // Release builds bounds-check the same invariant at `dist[si]`.
        debug_assert!((source as usize) < n, "source out of range");
        SPT_FULL_FALLBACKS.add(1);
        self.source = source;
        self.dist.clear();
        // lint: allow(hot-path-alloc) clear+resize reuses capacity; allocates only on a new peak node count
        self.dist.resize(n, f64::INFINITY);
        self.done.clear();
        // lint: allow(hot-path-alloc) clear+resize reuses capacity; allocates only on a new peak node count
        self.done.resize(n, false);
        self.heap.clear();
        let si = source as usize;
        self.dist[si] = 0.0;
        self.heap.push(HeapItem {
            dist: 0.0,
            node: source,
        });
        while let Some(HeapItem { dist: d, node: u }) = self.heap.pop() {
            let ui = u as usize;
            if self.done[ui] {
                continue;
            }
            self.done[ui] = true;
            for h in g.neighbors(u) {
                let nd = d + h.weight;
                let vi = h.to as usize;
                if nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    self.heap.push(HeapItem {
                        dist: nd,
                        node: h.to,
                    });
                }
            }
        }
        self.recompute_parents(g);
        self.ready = true;
    }

    /// Repair the tree after the graph stepped to a new version.
    ///
    /// `removed` lists old edge ids that no longer exist; `reweighted`
    /// maps persisted edges `(old id, new id)` whose endpoints are
    /// unchanged but whose weight (and id) may have — every surviving
    /// old edge must appear in exactly one of the two. Added edges need
    /// no listing: the seeding scan in phase 2 discovers them. `g` is
    /// the **new** graph; its node count may differ from the previous
    /// version (the stable node prefix keeps its ids; tail nodes that
    /// vanished must have had their edges removed).
    pub fn apply(&mut self, g: &Graph, removed: &[EdgeId], reweighted: &[(EdgeId, EdgeId)]) {
        self.apply_impl(g, removed, reweighted, None);
    }

    /// [`SptWorkspace::apply`] when only `targets` will be queried: the
    /// Dial-bucket drain stops as soon as every target's label settles
    /// below the next bucket floor, instead of relaxing the whole graph
    /// to the fixpoint.
    ///
    /// Contract: for every target, `dist` and `extract_path` are
    /// **bitwise identical** to a full [`SptWorkspace::apply`] (and so
    /// to fresh [`dijkstra`]). The argument: after draining bucket `bi`,
    /// every pending queue entry carries a label `≥ (bi + 1) · width`,
    /// and positive weights only push labels up — so any node whose
    /// label sits strictly below that floor is final. Settled nodes'
    /// canonical parents also settle first (`du < dv`), so target parent
    /// chains are final too. Non-target state is *not* preserved:
    /// labels at or above the stop floor are discarded to `INFINITY` /
    /// `NodeId::MAX` parents, exactly the shape of an unreached node, so
    /// a later `apply`/`apply_for_targets` on this workspace re-anchors
    /// the kept prefix and re-discovers the rest from the seed scan —
    /// correctness never depends on how early a previous repair stopped.
    /// A target unreached in the new graph keeps an `INFINITY` label and
    /// therefore never satisfies the exit test; such repairs degrade to
    /// the full drain.
    pub fn apply_for_targets(
        &mut self,
        g: &Graph,
        removed: &[EdgeId],
        reweighted: &[(EdgeId, EdgeId)],
        targets: &[NodeId],
    ) {
        self.apply_impl(g, removed, reweighted, Some(targets));
    }

    // lint: hot-path
    fn apply_impl(
        &mut self,
        g: &Graph,
        removed: &[EdgeId],
        reweighted: &[(EdgeId, EdgeId)],
        targets: Option<&[NodeId]>,
    ) {
        // lint: allow(panic-reachable) API misuse trap: apply without a prior rebuild would repair an empty tree into garbage paths
        assert!(self.ready, "SptWorkspace::apply before rebuild");
        let n = g.num_nodes();
        let src = self.source as usize;
        // Release builds bounds-check the same invariant at `dist[src]`.
        debug_assert!(src < n, "source dropped by the new graph version");
        SPT_REPAIRS.add(1);
        DELTA_EDGES_APPLIED.add((removed.len() + reweighted.len()) as u64);
        if self.buckets.is_empty() {
            // lint: allow(hot-path-alloc) one-time growth to the fixed bucket count, then recycled
            self.buckets.resize_with(1024, Vec::new);
        }

        // Old-id → new-id map. Ids absent from `reweighted` (including
        // everything in `removed`) stay MAX = gone.
        let max_old = reweighted
            .iter()
            .map(|&(o, _)| o)
            .chain(removed.iter().copied())
            .max()
            .map_or(0, |m| m as usize + 1);
        self.old_to_new.clear();
        self.old_to_new.resize(max_old, EdgeId::MAX);
        for &(o, ne) in reweighted {
            self.old_to_new[o as usize] = ne;
        }

        let old_n = self.dist.len();
        if n > old_n {
            self.dist.resize(n, f64::INFINITY);
            self.parent_edge.resize(n, EdgeId::MAX);
            self.parent_node.resize(n, NodeId::MAX);
        } else if n < old_n {
            self.dist.truncate(n);
            self.parent_edge.truncate(n);
            self.parent_node.truncate(n);
        }

        // Phase 1: re-anchor — overwrite `dist` with the fold of each
        // old tree path under the new weights, root before leaf.
        self.done.clear();
        self.done.resize(n, false);
        self.dist[src] = 0.0;
        self.done[src] = true;
        for v0 in 0..n as NodeId {
            if self.done[v0 as usize] {
                continue;
            }
            self.stack.clear();
            let mut cur = v0;
            while !self.done[cur as usize] {
                self.stack.push(cur);
                let pn = self.parent_node[cur as usize];
                if pn == NodeId::MAX || (pn as usize) >= n || self.stack.len() > n {
                    // Chain root (unreached / stale-tail parent), or a
                    // defensively-broken cycle: the unwind below
                    // resolves every stacked node to INFINITY or to a
                    // valid fold off its (now `done`) parent.
                    debug_assert!(self.stack.len() <= n, "cycle in parent chain");
                    break;
                }
                cur = pn;
            }
            while let Some(v) = self.stack.pop() {
                let vi = v as usize;
                let pn = self.parent_node[vi];
                let pe = self.parent_edge[vi];
                let mut nd = f64::INFINITY;
                if pn != NodeId::MAX && (pn as usize) < n && self.done[pn as usize] {
                    let ne = self
                        .old_to_new
                        .get(pe as usize)
                        .copied()
                        .unwrap_or(EdgeId::MAX);
                    if ne != EdgeId::MAX {
                        let pd = self.dist[pn as usize];
                        if pd.is_finite() {
                            let (a, b, w) = g.edge(ne);
                            debug_assert!(
                                (a == pn && b == v) || (a == v && b == pn),
                                "reweighted pair changed endpoints"
                            );
                            debug_assert!(w > 0.0, "SPT repair requires positive weights");
                            nd = pd + w;
                        }
                    }
                }
                self.dist[vi] = nd;
                self.done[vi] = true;
            }
        }

        // Phase 2: seed a label-correcting worklist from every edge
        // whose bound is violated (added edges surface here), then
        // relax to the unique fixpoint = fresh-Dijkstra distances.
        self.heap.clear();
        self.stack.clear();
        for e in 0..g.num_edges() as EdgeId {
            let (u, v, w) = g.edge(e);
            let (ui, vi) = (u as usize, v as usize);
            let nd = self.dist[ui] + w;
            if nd < self.dist[vi] {
                self.dist[vi] = nd;
                if self.done[vi] {
                    self.done[vi] = false;
                    self.stack.push(v);
                }
            }
            let nd = self.dist[vi] + w;
            if nd < self.dist[ui] {
                self.dist[ui] = nd;
                if self.done[ui] {
                    self.done[ui] = false;
                    self.stack.push(u);
                }
            }
        }
        // Relax to the fixpoint through a two-level queue: coarse
        // Dial-style buckets defer far entries, and each bucket drains
        // through the binary heap (exact order, lazy stale skips). The
        // fixpoint is processing-order independent (see the type docs),
        // so the bucketing only bounds reprocessing — it never changes
        // the result. When edge weights exceed the bucket width (the
        // common constellation case) every relaxation lands in a later
        // bucket and the heap stays near-empty; the heap exists so
        // sub-width edges still drain in exact ascending order instead
        // of degenerating into within-bucket Bellman-Ford churn. An
        // improvement made while draining bucket `bi` lands in a later
        // bucket or back on the heap, so one ascending pass is
        // lossless.
        let mut max_d: f64 = 0.0;
        for &d in &self.dist {
            if d.is_finite() && d > max_d {
                max_d = d;
            }
        }
        let nb = self.buckets.len();
        let width = if max_d > 0.0 {
            // Finite bounds cap every final distance; the margin keeps
            // late-attaching orphan chains out of the clamped tail.
            max_d * 1.0625 / (nb - 1) as f64
        } else {
            1.0
        };
        let bucket_of = |d: f64| ((d / width) as usize).min(nb - 1);
        while let Some(v) = self.stack.pop() {
            let d = self.dist[v as usize];
            self.buckets[bucket_of(d)].push((d, v));
        }
        self.heap.clear();
        let mut stop_floor = f64::INFINITY;
        for bi in 0..nb {
            while let Some(&(d, v)) = self.buckets[bi].last() {
                self.buckets[bi].pop();
                self.heap.push(HeapItem { dist: d, node: v });
            }
            while let Some(HeapItem { dist: d, node: u }) = self.heap.pop() {
                let ui = u as usize;
                if d > self.dist[ui] {
                    continue; // stale entry; a tighter bound was queued later
                }
                for h in g.neighbors(u) {
                    let nd = d + h.weight;
                    let vi = h.to as usize;
                    if nd < self.dist[vi] {
                        self.dist[vi] = nd;
                        let tb = bucket_of(nd);
                        if tb <= bi {
                            self.heap.push(HeapItem {
                                dist: nd,
                                node: h.to,
                            });
                        } else {
                            self.buckets[tb].push((nd, h.to));
                        }
                    }
                }
            }
            if let Some(ts) = targets {
                // Tighten the floor by a relative margin that dwarfs the
                // `bucket_of` division rounding (~2⁻⁵²): an entry can be
                // misbucketed upward by at most an ulp, so requiring
                // labels strictly below the *tightened* floor keeps the
                // finality argument exact even at bucket boundaries.
                let floor = (bi + 1) as f64 * width * (1.0 - 1e-9);
                if ts
                    .iter()
                    .all(|&t| self.dist.get(t as usize).is_some_and(|&d| d < floor))
                {
                    SPT_EARLY_EXITS.add(1);
                    stop_floor = floor;
                    for b in &mut self.buckets[bi + 1..] {
                        b.clear();
                    }
                    break;
                }
            }
        }
        if stop_floor.is_finite() {
            // Labels at or above the stop floor never finished relaxing;
            // reset them to the unreached shape so later repairs (and
            // `recompute_parents` below) never see a half-settled label.
            for d in &mut self.dist {
                if *d >= stop_floor {
                    *d = f64::INFINITY;
                }
            }
        }

        self.recompute_parents(g);
    }

    /// Phase 3: canonical parent assignment (see the type docs for why
    /// this reproduces fresh-Dijkstra parents bit for bit).
    fn recompute_parents(&mut self, g: &Graph) {
        let n = g.num_nodes();
        self.parent_edge.clear();
        // lint: allow(hot-path-alloc) clear+resize reuses capacity; allocates only on a new peak node count
        self.parent_edge.resize(n, EdgeId::MAX);
        self.parent_node.clear();
        // lint: allow(hot-path-alloc) clear+resize reuses capacity; allocates only on a new peak node count
        self.parent_node.resize(n, NodeId::MAX);
        let src = self.source;
        for v in 0..n as NodeId {
            let dv = self.dist[v as usize];
            if v == src || !dv.is_finite() {
                continue;
            }
            let mut best_d = f64::INFINITY;
            let mut best_u = NodeId::MAX;
            let mut best_e = EdgeId::MAX;
            for h in g.neighbors(v) {
                let du = self.dist[h.to as usize];
                // Exact candidates that settle before `v` in a fresh
                // run: (du, u) < (dv, v) lexicographically. Parallel
                // edges tie-break by lowest id for free — the CSR slice
                // is in increasing edge-id order and replacement below
                // is strict.
                if du + h.weight == dv
                    && (du < dv || (du == dv && h.to < v))
                    && (du < best_d || (du == best_d && h.to < best_u))
                {
                    best_d = du;
                    best_u = h.to;
                    best_e = h.edge;
                }
            }
            debug_assert!(
                best_e != EdgeId::MAX,
                "no canonical parent for a reached node (zero-weight edges?)"
            );
            self.parent_edge[v as usize] = best_e;
            self.parent_node[v as usize] = best_u;
        }
    }

    /// Extract the tree path to `target`, or `None` if unreached.
    pub fn extract_path(&self, target: NodeId) -> Option<Path> {
        let ti = target as usize;
        if ti >= self.dist.len() || !self.dist[ti].is_finite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut edges = Vec::new();
        let mut v = target;
        while v != self.source {
            let e = self.parent_edge[v as usize];
            let p = self.parent_node[v as usize];
            if e == EdgeId::MAX || p == NodeId::MAX || nodes.len() > self.dist.len() {
                debug_assert!(false, "broken parent chain for reached node");
                return None;
            }
            edges.push(e);
            nodes.push(p);
            v = p;
        }
        nodes.reverse();
        edges.reverse();
        Some(Path {
            nodes,
            edges,
            total_weight: self.dist[ti],
        })
    }
}

/// Extract the path from the SSSP tree to `target`, or `None` if
/// unreached.
pub fn extract_path(sp: &ShortestPaths, target: NodeId) -> Option<Path> {
    if !sp.reached(target) {
        return None;
    }
    let mut nodes = vec![target];
    let mut edges = Vec::new();
    let mut v = target;
    while v != sp.source {
        let e = sp.parent_edge[v as usize];
        let p = sp.parent_node[v as usize];
        debug_assert!(e != EdgeId::MAX && p != NodeId::MAX);
        edges.push(e);
        nodes.push(p);
        v = p;
    }
    nodes.reverse();
    edges.reverse();
    Some(Path {
        nodes,
        edges,
        total_weight: sp.dist[target as usize],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// 0 --1-- 1 --1-- 2
    ///  \------5------/
    fn small() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 5.0);
        b.build()
    }

    #[test]
    fn prefers_two_hop_path() {
        let g = small();
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[2], 2.0);
        let p = extract_path(&sp, 2).unwrap();
        assert_eq!(p.nodes, vec![0, 1, 2]);
        assert_eq!(p.num_hops(), 2);
        assert_eq!(p.total_weight, 2.0);
    }

    #[test]
    fn masked_edge_forces_detour() {
        let g = small();
        let mut disabled = vec![false; g.num_edges()];
        disabled[0] = true; // kill 0-1
        let sp = dijkstra_with_mask(&g, 0, &disabled, None);
        assert_eq!(sp.dist[2], 5.0);
        let p = extract_path(&sp, 2).unwrap();
        assert_eq!(p.nodes, vec![0, 2]);
    }

    #[test]
    fn unreachable_is_infinite() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0);
        // 2,3 disconnected from 0,1; 2-3 connected.
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        let sp = dijkstra(&g, 0);
        assert!(!sp.reached(2));
        assert!(extract_path(&sp, 3).is_none());
    }

    #[test]
    fn source_path_is_trivial() {
        let g = small();
        let sp = dijkstra(&g, 1);
        let p = extract_path(&sp, 1).unwrap();
        assert_eq!(p.nodes, vec![1]);
        assert!(p.edges.is_empty());
        assert_eq!(p.total_weight, 0.0);
    }

    #[test]
    fn early_exit_still_correct_for_target() {
        let g = small();
        let sp = dijkstra_with_mask(&g, 0, &[false; 3], Some(2));
        assert_eq!(sp.dist[2], 2.0);
        assert!(extract_path(&sp, 2).is_some());
    }

    /// Regression: before the settled-only contract, an early-exited run
    /// reported `dist[v]` for queued-but-unsettled nodes as whatever
    /// upper bound had been relaxed so far — here 10.0 for node 2, whose
    /// true distance is 2.0 — and `reached(2)` claimed true.
    #[test]
    fn early_exit_does_not_report_stale_distances() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 10.0); // relaxes 2 to 10.0 before the exit
        b.add_edge(1, 2, 1.0); // true shortest: 0-1-2 = 2.0
        let g = b.build();
        let sp = dijkstra_with_mask(&g, 0, &[false; 3], Some(1));
        assert_eq!(sp.dist[1], 1.0, "target distance is exact");
        assert!(
            !sp.reached(2),
            "unsettled node must not be reported as reached (dist was {})",
            sp.dist[2]
        );
        assert!(sp.dist[2].is_infinite(), "no stale upper bound exposed");
        assert!(extract_path(&sp, 2).is_none());
    }

    #[test]
    fn zero_weight_edges_ok() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.0);
        b.add_edge(1, 2, 0.0);
        let g = b.build();
        let sp = dijkstra(&g, 0);
        assert_eq!(sp.dist[2], 0.0);
        assert_eq!(extract_path(&sp, 2).unwrap().num_hops(), 2);
    }

    #[test]
    fn grid_distances_match_manhattan() {
        // 5x5 unit grid: distance == Manhattan distance.
        let n = 5;
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
        let sp = dijkstra(&g, 0);
        for r in 0..n {
            for c in 0..n {
                assert_eq!(sp.dist[id(r, c) as usize], (r + c) as f64);
            }
        }
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs_across_graphs() {
        // One workspace reused across graphs of different sizes must
        // agree with fresh runs everywhere — including after shrinking.
        let graphs = [small(), two_cliques(), small()];
        let mut ws = DijkstraWorkspace::new();
        for g in &graphs {
            for s in 0..g.num_nodes() as NodeId {
                let fresh = dijkstra(g, s);
                let view = ws.run(g, s, None, None);
                for v in 0..g.num_nodes() as NodeId {
                    assert_eq!(view.dist(v), fresh.dist[v as usize], "src {s} node {v}");
                    assert_eq!(view.reached(v), fresh.reached(v));
                    assert_eq!(
                        view.extract_path(v).map(|p| p.nodes),
                        extract_path(&fresh, v).map(|p| p.nodes)
                    );
                }
            }
        }
        assert_eq!(ws.runs(), 3 + 8 + 3);
    }

    /// 8 nodes: clique {0..3} and clique {4..7}, disconnected.
    fn two_cliques() -> Graph {
        let mut b = GraphBuilder::new(8);
        for base in [0u32, 4] {
            for i in 0..4 {
                for j in (i + 1)..4 {
                    b.add_edge(base + i, base + j, (i + j + 1) as f64);
                }
            }
        }
        b.build()
    }

    #[test]
    fn generation_wrap_clears_stamps() {
        let g = small();
        let mut ws = DijkstraWorkspace::new();
        // Warm up so every stamp slot holds a nonzero generation.
        ws.run(&g, 0, None, None);
        // Jump to the wrap point: next run bumps u32::MAX -> 0, which
        // must trigger the full stamp clear, not treat slots stamped
        // with the warm-up generation as touched.
        ws.set_gen_for_test(u32::MAX);
        let view = ws.run(&g, 1, None, None);
        assert_eq!(view.dist(0), 1.0);
        assert_eq!(view.dist(2), 1.0);
        let view = ws.run(&g, 0, None, None);
        assert_eq!(view.dist(2), 2.0);
    }

    #[test]
    fn view_write_dists_and_materialize_agree() {
        let g = two_cliques();
        let mut ws = DijkstraWorkspace::new();
        let view = ws.run(&g, 1, None, None);
        let sp = view.to_shortest_paths();
        let mut dists = Vec::new();
        view.write_dists(&mut dists);
        assert_eq!(dists.len(), g.num_nodes());
        for (a, b) in dists.iter().zip(&sp.dist) {
            assert_eq!(a, b);
        }
        assert!(!sp.reached(5), "other clique unreached");
    }

    #[test]
    fn mask_and_dist_buf_loans_round_trip() {
        let g = small();
        let mut ws = DijkstraWorkspace::new();
        let mut mask = ws.take_mask(g.num_edges());
        assert_eq!(mask, vec![false; 3]);
        mask[0] = true;
        let view = ws.run(&g, 0, Some(&mask), None);
        assert_eq!(view.dist(2), 5.0);
        ws.put_mask(mask);
        // Returned mask is re-cleared on the next take.
        let mask2 = ws.take_mask(2);
        assert_eq!(mask2, vec![false; 2]);
        ws.put_mask(mask2);
        let mut buf = ws.take_dist_buf();
        ws.view().write_dists(&mut buf);
        assert_eq!(buf[2], 5.0);
        assert_eq!(buf[1], 6.0, "0-1 masked, so 1 is reached via 0-2-1");
        ws.put_dist_buf(buf);
    }

    #[test]
    fn multi_target_early_exit_settles_all_targets() {
        // Line graph 0-1-2-3-4: targets {1, 3} must both be exact even
        // though the run may stop before settling 4.
        let mut b = GraphBuilder::new(5);
        for i in 0..4u32 {
            b.add_edge(i, i + 1, 1.0);
        }
        let g = b.build();
        let mut ws = DijkstraWorkspace::new();
        let view = ws.run_multi(&g, 0, None, &[3, 1]);
        assert_eq!(view.dist(1), 1.0);
        assert_eq!(view.dist(3), 3.0);
        assert!(view.extract_path(3).is_some());
        assert!(
            !view.reached(4),
            "node past the farthest target must not be settled"
        );
        // Duplicates and the source itself are fine.
        let view = ws.run_multi(&g, 2, None, &[2, 2, 4, 4]);
        assert_eq!(view.dist(2), 0.0);
        assert_eq!(view.dist(4), 2.0);
        // Empty target set means a full run.
        let view = ws.run_multi(&g, 0, None, &[]);
        for v in 0..5 {
            assert_eq!(view.dist(v), v as f64);
        }
    }

    #[test]
    fn multi_target_matches_full_run_on_targets() {
        let g = two_cliques();
        let mut ws = DijkstraWorkspace::new();
        for s in 0..g.num_nodes() as NodeId {
            let fresh = dijkstra(&g, s);
            let targets: Vec<NodeId> = (0..g.num_nodes() as NodeId).step_by(2).collect();
            let view = ws.run_multi(&g, s, None, &targets);
            for &t in &targets {
                // Unreachable targets can never settle; the run still
                // terminates (heap exhaustion) and reports INFINITY.
                assert_eq!(view.dist(t), fresh.dist[t as usize], "src {s} target {t}");
            }
        }
    }

    #[test]
    fn thread_workspace_is_warm_across_calls() {
        let g = small();
        let runs_before = with_thread_workspace(|ws| ws.runs());
        let d = with_thread_workspace(|ws| ws.run(&g, 0, None, None).dist(2));
        assert_eq!(d, 2.0);
        let runs_after = with_thread_workspace(|ws| ws.runs());
        assert_eq!(runs_after, runs_before + 1);
    }

    /// Assert the SPT's distances AND parents are bitwise equal to a
    /// fresh Dijkstra from the same source.
    fn assert_spt_matches_fresh(spt: &SptWorkspace, g: &Graph, ctx: &str) {
        let fresh = dijkstra(g, spt.source());
        assert_eq!(spt.num_nodes(), g.num_nodes(), "{ctx}: node count");
        for v in 0..g.num_nodes() {
            assert_eq!(
                spt.dists()[v].to_bits(),
                fresh.dist[v].to_bits(),
                "{ctx}: dist[{v}]"
            );
            assert_eq!(
                spt.parent_nodes()[v],
                fresh.parent_node[v],
                "{ctx}: pn[{v}]"
            );
            assert_eq!(
                spt.parent_edges()[v],
                fresh.parent_edge[v],
                "{ctx}: pe[{v}]"
            );
        }
    }

    #[test]
    fn spt_rebuild_matches_fresh_dijkstra() {
        for g in [small(), two_cliques()] {
            for s in 0..g.num_nodes() as NodeId {
                let mut spt = SptWorkspace::new();
                spt.rebuild(&g, s);
                assert_spt_matches_fresh(&spt, &g, &format!("rebuild src {s}"));
            }
        }
    }

    #[test]
    fn spt_apply_reweight_and_membership_churn() {
        // v0: 0-1 (1.0), 1-2 (1.0), 0-2 (5.0)  → 0-1-2 wins.
        let g0 = small();
        let mut spt = SptWorkspace::new();
        spt.rebuild(&g0, 0);
        // v1: reweight 1-2 up to 10.0 (old ids keep their slots), so the
        // direct 0-2 edge wins; all three edges persist.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 10.0);
        b.add_edge(0, 2, 5.0);
        let g1 = b.build();
        spt.apply(&g1, &[], &[(0, 0), (1, 1), (2, 2)]);
        assert_spt_matches_fresh(&spt, &g1, "reweight");
        assert_eq!(spt.extract_path(2).unwrap().nodes, vec![0, 2]);
        // v2: remove the direct edge, add a detour via a new node 3;
        // surviving edges get fresh ids (0-1 → id 0, 1-2 → id 1).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.5);
        b.add_edge(1, 2, 10.0);
        b.add_edge(0, 3, 1.0);
        b.add_edge(3, 2, 1.0);
        let g2 = b.build();
        spt.apply(&g2, &[2], &[(0, 0), (1, 1)]);
        assert_spt_matches_fresh(&spt, &g2, "remove+add+grow");
        assert_eq!(spt.extract_path(2).unwrap().nodes, vec![0, 3, 2]);
        // v3: shrink back to 3 nodes, disconnecting 2 entirely.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0);
        let g3 = b.build();
        spt.apply(&g3, &[1, 2, 3], &[(0, 0)]);
        assert_spt_matches_fresh(&spt, &g3, "shrink+disconnect");
        assert!(spt.extract_path(2).is_none());
    }

    #[test]
    fn spt_apply_handles_removal_disconnected_subtree() {
        // Line 0-1-2-3-4; cutting 1-2 strands {2,3,4}.
        let mut b = GraphBuilder::new(5);
        for i in 0..4u32 {
            b.add_edge(i, i + 1, 1.0 + i as f64);
        }
        let g0 = b.build();
        let mut spt = SptWorkspace::new();
        spt.rebuild(&g0, 0);
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 3.0);
        b.add_edge(3, 4, 4.0);
        let g1 = b.build();
        spt.apply(&g1, &[1], &[(0, 0), (2, 1), (3, 2)]);
        assert_spt_matches_fresh(&spt, &g1, "disconnect");
        // Reconnect with a *different* topology: 0-4 direct.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 3.0);
        b.add_edge(3, 4, 4.0);
        b.add_edge(0, 4, 0.5);
        let g2 = b.build();
        spt.apply(&g2, &[], &[(0, 0), (1, 1), (2, 2)]);
        assert_spt_matches_fresh(&spt, &g2, "reconnect");
        assert_eq!(spt.extract_path(2).unwrap().nodes, vec![0, 4, 3, 2]);
    }

    #[test]
    fn spt_parallel_edges_and_ties_pick_lowest_edge_id() {
        // Two equal-weight parallel edges 0-1 plus an equal-cost two-hop
        // alternative through 2: fresh Dijkstra and the repaired tree
        // must agree on the same deterministic choice.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 2.0);
        b.add_edge(0, 1, 2.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(2, 1, 1.0);
        let g0 = b.build();
        let mut spt = SptWorkspace::new();
        spt.rebuild(&g0, 0);
        assert_spt_matches_fresh(&spt, &g0, "parallel ties rebuild");
        // Same structure, jittered weights, ids shuffled by an insert.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 1, 2.0);
        b.add_edge(0, 1, 2.0);
        b.add_edge(2, 1, 1.0);
        let g1 = b.build();
        spt.apply(&g1, &[], &[(0, 1), (1, 2), (2, 0), (3, 3)]);
        assert_spt_matches_fresh(&spt, &g1, "parallel ties apply");
    }

    #[test]
    fn spt_incomplete_delta_still_exact() {
        // Contract robustness: forgetting a surviving edge in
        // `reweighted` must cost efficiency only, never accuracy.
        let g = small();
        let mut spt = SptWorkspace::new();
        spt.rebuild(&g, 0);
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        b.add_edge(0, 2, 5.0);
        let g1 = b.build();
        spt.apply(&g1, &[], &[(2, 2)]); // edges 0 and 1 unlisted
        assert_spt_matches_fresh(&spt, &g1, "incomplete delta");
    }

    #[test]
    fn spt_random_walk_matches_fresh_every_step() {
        // Random dense-ish graphs under heavy churn: every step removes,
        // reweights, and adds edges with remapped ids.
        let mut rng = leo_util::rng::Rng64::seed_from_u64(0x5_e71d);
        let n = 24usize;
        // Persistent edge set as (u, v) pairs with weights; ids are
        // positional, so each rebuild assigns ids by current order.
        let mut edges: Vec<(NodeId, NodeId, f64)> = Vec::new();
        for u in 0..n as NodeId {
            for v in (u + 1)..n as NodeId {
                if rng.random_range(0u32..4) == 0 {
                    edges.push((u, v, 0.1 + rng.next_f64() * 10.0));
                }
            }
        }
        let build = |edges: &[(NodeId, NodeId, f64)]| {
            let mut b = GraphBuilder::new(n);
            for &(u, v, w) in edges {
                b.add_edge(u, v, w);
            }
            b.build()
        };
        let g0 = build(&edges);
        let mut spt = SptWorkspace::new();
        spt.rebuild(&g0, 3);
        assert_spt_matches_fresh(&spt, &g0, "walk rebuild");
        for step in 0..60 {
            let mut removed = Vec::new();
            let mut survivors = Vec::new();
            for (old_id, e) in edges.iter().enumerate() {
                if rng.random_range(0u32..6) == 0 {
                    removed.push(old_id as EdgeId);
                } else {
                    survivors.push((old_id as EdgeId, *e));
                }
            }
            // Shuffle survivor order so new ids differ from old ones.
            for i in (1..survivors.len()).rev() {
                let j = rng.random_range(0..i + 1);
                survivors.swap(i, j);
            }
            let mut reweighted = Vec::new();
            let mut next = Vec::new();
            for (new_id, (old_id, (u, v, w))) in survivors.into_iter().enumerate() {
                let w = if rng.random_range(0u32..2) == 0 {
                    0.1 + rng.next_f64() * 10.0
                } else {
                    w
                };
                reweighted.push((old_id, new_id as EdgeId));
                next.push((u, v, w));
            }
            for _ in 0..rng.random_range(0u32..6) {
                let u = rng.random_range(0..n as u32);
                let v = rng.random_range(0..n as u32);
                if u != v {
                    next.push((u.min(v), u.max(v), 0.1 + rng.next_f64() * 10.0));
                }
            }
            let g = build(&next);
            spt.apply(&g, &removed, &reweighted);
            assert_spt_matches_fresh(&spt, &g, &format!("walk step {step}"));
            edges = next;
        }
    }
}
