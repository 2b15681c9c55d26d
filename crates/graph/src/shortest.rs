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
//! The queue is an indexed 4-ary min-heap with one entry per open node:
//! an improved label lowers the node's key in place, and every pop
//! settles a node, in `(key, node)` order.
//!
//! A run toward at most [`GOAL_MAX_TARGETS`] distinct targets on a graph
//! with coordinates is goal-directed: its heap keys add a lower bound on
//! the distance to one target at a time (see [`Graph::lambda`]), which
//! settles fewer nodes and leaves every distance and path bit-identical
//! to plain Dijkstra. [`DijkstraWorkspace::run_multi`] takes the larger
//! of the straight-line bound and a landmark bound read from the graph's
//! table of exact distances (see [`LANDMARKS`]), which it builds on the
//! graph's first such search, whenever the table has a row for every
//! node the run can settle; [`DijkstraWorkspace::run`] uses the straight
//! line alone and never builds a table. Runs with more targets are plain
//! Dijkstra.
//!
//! On a graph with transit nodes (see [`Graph::set_transit`]), an
//! unmasked `run_multi` toward non-transit targets settles non-transit
//! nodes only, goal-directed or plain, and crosses the transit nodes
//! through the graph's two-hop index, again with every distance and path
//! bit-identical. So does every search of
//! [`crate::k_edge_disjoint_paths_with`], masked or not: it tells its
//! runs which nodes lie next to a masked transit link, and those cross
//! their transit neighbours without the index. A public masked
//! `run_multi` and [`DijkstraWorkspace::run`] settle every node, and on
//! a graph with transit nodes aim with the straight line alone: the
//! landmark table has rows for the non-transit nodes only.

use crate::graph::{dist_sq, EdgeId, Graph, HalfEdge, NodeId, LAMBDA_MARGIN, LANDMARKS};
use crate::transit::TwoHop;
use leo_util::telemetry::{enabled, now_ns, Counter, Level};
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
/// Telemetry: landmark tables built.
static LANDMARK_TABLES_BUILT: Counter = Counter::new("landmark_tables_built");
/// Telemetry: nanoseconds spent building landmark tables, not counting a
/// two-hop index their searches need.
static LANDMARK_TABLE_NS: Counter = Counter::new("landmark_table_build_ns");

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

/// An [`SptWorkspace`] heap entry, min-ordered by `(dist, node)`.
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

/// Children per [`NodeHeap`] slot: a shallower tree than a binary heap,
/// so a pop's sift-down takes half the levels.
const HEAP_ARITY: usize = 4;

/// The open nodes of a [`DijkstraWorkspace`] run: an indexed 4-ary
/// min-heap with one entry per node, ordered by `(key, node)`.
///
/// A node enters with [`NodeHeap::push`], moves up in place when its key
/// improves ([`NodeHeap::decrease`]) and leaves with [`NodeHeap::pop`].
/// `pos[v]` is the slot of `v`, meaningful only while `v` is in the
/// heap; the workspace knows that from its generation stamp and settled
/// flag, so clearing the heap never touches `pos`. Keys are finite and
/// never NaN.
#[derive(Debug, Default)]
struct NodeHeap {
    slots: Vec<(f64, NodeId)>,
    pos: Vec<u32>,
}

/// The heap order: by key, then by node.
#[inline]
fn heap_less(a: (f64, NodeId), b: (f64, NodeId)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

impl NodeHeap {
    fn clear(&mut self) {
        self.slots.clear();
    }

    /// Insert `node`, which must not be in the heap.
    #[inline]
    fn push(&mut self, key: f64, node: NodeId) {
        let i = self.slots.len();
        self.slots.push((key, node));
        self.sift_up(i, (key, node));
    }

    /// Lower the key of `node`, which must be in the heap, to `key`.
    #[inline]
    fn decrease(&mut self, key: f64, node: NodeId) {
        let i = self.pos[node as usize] as usize;
        debug_assert!(self.slots[i].1 == node && key <= self.slots[i].0);
        self.sift_up(i, (key, node));
    }

    /// Give every entry the key `key(node)` and restore the heap order
    /// bottom-up, in time linear in the entries.
    fn rekey(&mut self, mut key: impl FnMut(NodeId) -> f64) {
        for slot in &mut self.slots {
            slot.0 = key(slot.1);
        }
        let len = self.slots.len();
        if len > 1 {
            for i in (0..=(len - 2) / HEAP_ARITY).rev() {
                self.sift_down(i, self.slots[i]);
            }
        }
    }

    /// Remove and return the `(key, node)`-smallest entry.
    #[inline]
    fn pop(&mut self) -> Option<(f64, NodeId)> {
        let last = self.slots.pop()?;
        match self.slots.first() {
            Some(&top) => {
                self.sift_down(0, last);
                Some(top)
            }
            None => Some(last),
        }
    }

    /// Put `item` at slot `i` or above, moving larger ancestors down.
    #[inline]
    fn sift_up(&mut self, mut i: usize, item: (f64, NodeId)) {
        while i > 0 {
            let parent = (i - 1) / HEAP_ARITY;
            let p = self.slots[parent];
            if !heap_less(item, p) {
                break;
            }
            self.slots[i] = p;
            self.pos[p.1 as usize] = i as u32;
            i = parent;
        }
        self.slots[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }

    /// Put `item` at slot `i` or below, moving smaller children up.
    #[inline]
    fn sift_down(&mut self, mut i: usize, item: (f64, NodeId)) {
        let len = self.slots.len();
        loop {
            let first = HEAP_ARITY * i + 1;
            if first >= len {
                break;
            }
            let kids = &self.slots[first..len.min(first + HEAP_ARITY)];
            let (mut best, mut best_item) = (0, kids[0]);
            for (c, &kid) in kids.iter().enumerate().skip(1) {
                if heap_less(kid, best_item) {
                    (best, best_item) = (c, kid);
                }
            }
            if !heap_less(best_item, item) {
                break;
            }
            self.slots[i] = best_item;
            self.pos[best_item.1 as usize] = i as u32;
            i = first + best;
        }
        self.slots[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }
}

/// Reusable buffers for repeated Dijkstra runs.
///
/// Entries are validated with a per-run generation stamp: `dist[v]`,
/// `parent_edge[v]`, `parent_node[v]`, `settled[v]` and the heap slot of
/// `v` are meaningful only where `stamp[v]` equals the current
/// generation, so starting a new run is a counter bump plus a heap clear
/// — no O(n) refill. The arrays grow monotonically to the largest graph
/// seen and are reused across graphs of different sizes.
///
/// The queue holds one entry per open node (touched, not yet settled):
/// a node's first improvement pushes it, every later one lowers its key
/// in place, and every pop settles a node. A node's key only decreases
/// while it is open, so its entry always holds the smallest key any of
/// its labels produced, and nodes settle in `(key, node)` order.
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
    /// Labels. In a masked run that crosses transit nodes, a transit
    /// node's entry holds the smallest fold into it that an exposed
    /// node's crossing has offered (see [`DijkstraWorkspace::settle`]).
    dist: Vec<f64>,
    parent_edge: Vec<EdgeId>,
    parent_node: Vec<NodeId>,
    settled: Vec<bool>,
    /// Bound toward the aimed target of each open node in a
    /// goal-directed run.
    bound: Vec<f64>,
    /// In a run that crosses transit nodes (`crossed`), the rest of
    /// each touched node's parent record (see [`Hop`]).
    hop: Vec<Hop>,
    /// Whether the most recent run crossed transit nodes through a
    /// two-hop index.
    crossed: bool,
    /// `exposed[v] == exposed_gen` iff `v` is *exposed*: a neighbour of
    /// a transit node with a masked link, in the mask of the current
    /// [`crate::k_edge_disjoint_paths_with`] call (see
    /// [`DijkstraWorkspace::expose`]).
    exposed: Vec<u32>,
    /// The exposed set's generation, bumped by
    /// [`DijkstraWorkspace::clear_exposed`].
    exposed_gen: u32,
    heap: NodeHeap,
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

    /// Bump the generation, size buffers for an `n`-node graph and stamp
    /// `targets`; returns how many of them are distinct.
    fn begin(&mut self, n: usize, targets: &[NodeId]) -> usize {
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
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.hop.resize(n, Hop::NONE);
            // lint: allow(hot-path-alloc) grows once to the peak node count, then the guard above makes every resize a no-op
            self.heap.pos.resize(n, 0);
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
        let mut distinct = 0;
        for &t in targets {
            let ti = t as usize;
            // lint: allow(panic-reachable) documented `# Panics` contract: buffers a warm workspace grew for a larger graph would take the node without a bounds-check failure
            assert!(ti < n, "target {t} out of range for {n} nodes");
            if self.target_stamp[ti] != self.gen {
                self.target_stamp[ti] = self.gen;
                distinct += 1;
            }
        }
        distinct
    }

    /// Run Dijkstra from `source`, skipping edges marked `true` in
    /// `disabled` and optionally stopping once `target` is settled.
    ///
    /// A run toward a target on a graph with [`Graph::lambda`] > 0 is
    /// goal-directed on the straight-line bound alone. `run` serves
    /// callers that search a graph once or twice, for whom a landmark
    /// table would cost more than it saves, so it neither builds one nor
    /// reads one: its work never depends on what else searched the graph.
    ///
    /// Returns a [`SsspView`] borrowing this workspace; the result stays
    /// readable (via [`DijkstraWorkspace::view`]) until the next run.
    ///
    /// # Panics
    /// If `source` or `target` is not a node of `g`.
    pub fn run(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        target: Option<NodeId>,
    ) -> SsspView<'_> {
        self.run_core(g, source, disabled, target.as_slice(), Shortcuts::Line)
    }

    /// Like [`DijkstraWorkspace::run`] with a *set* of early-exit targets:
    /// the run stops once every node in `targets` is settled (duplicates
    /// are fine). An empty `targets` slice disables early exit (same as
    /// `target: None`).
    ///
    /// Distances and paths to the targets are exact, bit for bit what a
    /// full Dijkstra run reports. Non-target nodes follow the settled-only
    /// contract: every node the run settles is exact too, but *which*
    /// nodes get settled depends on the graph's coordinates. With
    /// [`Graph::lambda`] > 0 and at most [`GOAL_MAX_TARGETS`] distinct
    /// targets the search is goal-directed and aims at one target at a
    /// time, in the order given: its keys add the larger of the
    /// straight-line and the landmark bound toward that target, and when
    /// it settles while others are pending, the search aims at the next
    /// unsettled one and re-keys every open node. The graph's first such
    /// search builds the graph's landmark table
    /// ([`DijkstraWorkspace::landmark_table`]) on this workspace, so the
    /// table's searches count like any other run of it.
    ///
    /// Without a mask, and when no target is a transit node (see
    /// [`Graph::set_transit`]), the run settles non-transit nodes only:
    /// it crosses transit nodes through the graph's two-hop index, built
    /// on the graph's first such run, and reports them unreached. The
    /// source is settled even when it is a transit node. Paths through
    /// transit nodes extract as usual. A masked run settles every node
    /// it reaches: only [`crate::k_edge_disjoint_paths_with`], which
    /// knows where its mask touches transit nodes, crosses them under a
    /// mask. A run on a graph with transit nodes that settles them aims
    /// with the straight line alone, as `run` does: the landmark table
    /// has no rows for them.
    ///
    /// This is the experiment-loop shape: one source city, a handful of
    /// destination cities, and a constellation graph whose far side never
    /// needs settling, and whose relays never need settling at all.
    ///
    /// # Panics
    /// If `source` or any target is not a node of `g`.
    pub fn run_multi(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        targets: &[NodeId],
    ) -> SsspView<'_> {
        self.run_core(g, source, disabled, targets, Shortcuts::Multi)
    }

    /// A one-target `run_multi` under the working mask of
    /// [`crate::k_edge_disjoint_paths_with`], which has exposed (see
    /// [`DijkstraWorkspace::expose`]) every neighbour of a transit node
    /// with a masked link. Unlike a public masked `run_multi`, it
    /// crosses transit nodes even under the mask: through the two-hop
    /// index from every node but the exposed ones, which check each
    /// relay pair against the mask instead, skipping a relay an earlier
    /// exposed node offered a smaller fold (see [`Graph::set_transit`]).
    pub(crate) fn run_exposed(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        target: NodeId,
    ) -> SsspView<'_> {
        let targets = std::slice::from_ref(&target);
        self.run_core(g, source, disabled, targets, Shortcuts::Exposed)
    }

    /// Start an empty exposed set for a search over an `n`-node graph.
    pub(crate) fn clear_exposed(&mut self, n: usize) {
        if self.exposed.len() < n {
            self.exposed.resize(n, 0);
        }
        self.exposed_gen = self.exposed_gen.wrapping_add(1);
        if self.exposed_gen == 0 {
            // u32 wrap, as in `begin`.
            self.exposed.fill(0);
            self.exposed_gen = 1;
        }
    }

    /// Expose every neighbour of transit node `r`, one of whose links the
    /// caller has masked (or is about to): from then on, until the next
    /// [`DijkstraWorkspace::clear_exposed`], `run_exposed` crosses its
    /// transit neighbours without the two-hop index.
    pub(crate) fn expose(&mut self, g: &Graph, r: NodeId) {
        for h in g.neighbors(r) {
            self.exposed[h.to as usize] = self.exposed_gen;
        }
    }

    /// One run, with the given shortcuts (see [`Shortcuts`]).
    // lint: hot-path
    fn run_core(
        &mut self,
        g: &Graph,
        source: NodeId,
        disabled: Option<&[bool]>,
        targets: &[NodeId],
        shortcuts: Shortcuts,
    ) -> SsspView<'_> {
        let n = g.num_nodes();
        // lint: allow(panic-reachable) documented `# Panics` contract: buffers a warm workspace grew for a larger graph would take the node without a bounds-check failure
        assert!(
            (source as usize) < n,
            "source {source} out of range for {n} nodes"
        );
        if let Some(d) = disabled {
            debug_assert_eq!(d.len(), g.num_edges(), "mask length must equal edge count");
        }
        let distinct = self.begin(n, targets);
        // Goal direction needs a few targets to aim at (see
        // `GOAL_MAX_TARGETS`); λ = 0 keeps the keys equal to the
        // distances, i.e. plain (dist, node) Dijkstra.
        let lambda = match distinct {
            1..=GOAL_MAX_TARGETS => g.lambda(),
            _ => 0.0,
        };
        let first = g.transit().start;
        let hops = match (shortcuts, disabled) {
            (Shortcuts::Multi, None) | (Shortcuts::Exposed, _)
                if targets.iter().all(|&t| t < first) =>
            {
                g.two_hop()
            }
            _ => None,
        };
        // The landmark table has rows for the non-transit nodes only: a
        // run reads it when it settles no other node, because it crosses
        // them through the index or the graph has none.
        let table =
            shortcuts != Shortcuts::Line && lambda > 0.0 && (hops.is_some() || first as usize == n);
        let rows = match (table, g.landmarks.get()) {
            (false, _) => None,
            (true, Some(rows)) => Some(rows.as_slice()),
            (true, None) => {
                // Another thread may be building the table; then this
                // waits for it instead of running the searches itself.
                let rows = g.landmarks.get_or_init(|| self.landmark_table(g));
                // The table's searches may have run on this workspace:
                // start over.
                self.begin(n, targets);
                Some(rows.as_slice())
            }
        };
        self.crossed = hops.is_some();
        DIJKSTRA_CALLS.add(1);
        if self.runs > 0 {
            WORKSPACE_REUSES.add(1);
        }
        self.runs += 1;
        let gen = self.gen;
        let si = source as usize;
        self.stamp[si] = gen;
        self.dist[si] = 0.0;
        self.parent_edge[si] = EdgeId::MAX;
        self.parent_node[si] = NodeId::MAX;
        self.hop[si] = Hop::NONE;
        self.settled[si] = false;
        self.heap.push(0.0, source);
        let mut aim = Aim {
            lambda,
            coords: g.coords(),
            rows,
            target: NodeId::MAX,
            point: [0.0; 3],
            row: [0.0; LANDMARKS],
            next: 0,
        };
        if lambda > 0.0 {
            aim.next_pending(targets, |_| false);
        }
        let settled_count = match (lambda > 0.0, hops.is_some()) {
            (true, false) => self.settle::<true, false>(g, disabled, targets, distinct, aim, hops),
            (true, true) => self.settle::<true, true>(g, disabled, targets, distinct, aim, hops),
            (false, false) => {
                self.settle::<false, false>(g, disabled, targets, distinct, aim, hops)
            }
            (false, true) => self.settle::<false, true>(g, disabled, targets, distinct, aim, hops),
        };
        DIJKSTRA_SETTLED.add(settled_count);
        self.source = source;
        self.view()
    }

    /// The settle loop of a run, compiled four times. `GOAL = false`
    /// (λ = 0) is plain `(dist, node)` Dijkstra with no per-edge λ test,
    /// and `GOAL = true` adds `aim`'s bound to every heap key, re-aims
    /// when the aimed target settles and applies the exact-tie parent
    /// rule (see [`Graph::lambda`]). `HOPS = true` settles non-transit
    /// nodes only: each relaxes its non-transit neighbours directly and
    /// crosses its transit ones through `hops`, the graph's two-hop index,
    /// with the tie rule in both settle orders (see [`Graph::set_transit`]);
    /// under a mask, an exposed node crosses every unmasked relay pair
    /// instead, but skips a transit node that an earlier such crossing
    /// offered a smaller fold. `pending` counts the distinct targets not
    /// yet settled (0: run to exhaustion). Returns the number of nodes
    /// settled.
    // lint: hot-path
    fn settle<const GOAL: bool, const HOPS: bool>(
        &mut self,
        g: &Graph,
        disabled: Option<&[bool]>,
        targets: &[NodeId],
        mut pending: usize,
        mut aim: Aim<'_>,
        hops: Option<&TwoHop>,
    ) -> u64 {
        let gen = self.gen;
        let mut settled_count = 0u64;
        // Every relay pair's second half-edge, by its position.
        let section = hops.map_or(&[][..], |ix| ix.section(g));
        while let Some((key, u)) = self.heap.pop() {
            let ui = u as usize;
            debug_assert!(!self.settled[ui], "a node is in the heap at most once");
            self.settled[ui] = true;
            settled_count += 1;
            if self.target_stamp[ui] == gen {
                pending -= 1;
                if pending == 0 {
                    break;
                }
                if GOAL && u == aim.target {
                    self.retarget(&mut aim, targets);
                }
            }
            // A plain key is the label itself; a goal-directed key adds
            // the node's bound to it.
            let d = if GOAL { self.dist[ui] } else { key };
            if let Some(ix) = hops.filter(|ix| HOPS && u < ix.first) {
                let relays = ix.relays(g, u);
                for h in ix.direct(g, u) {
                    if let Some(mask) = disabled {
                        if mask[h.edge as usize] {
                            continue;
                        }
                    }
                    self.offer::<GOAL, true>(&aim, d + h.weight, Via::direct(d, u, h), h.to);
                }
                if let Some(mask) = disabled.filter(|_| self.exposed[ui] == self.exposed_gen) {
                    // Next to a masked transit link: the index's pairs
                    // were kept against pairs the mask may cut, so cross
                    // every unmasked pair instead.
                    for hr in relays {
                        if mask[hr.edge as usize] {
                            continue;
                        }
                        let (r, dr) = (hr.to as usize, d + hr.weight);
                        // A transit node that a full crossing offered a
                        // smaller fold, or the source, already gave each
                        // neighbour a better offer than this one would.
                        if self.stamp[r] == gen && (self.settled[r] || dr > self.dist[r]) {
                            continue;
                        }
                        self.stamp[r] = gen;
                        self.dist[r] = dr;
                        self.settled[r] = false;
                        for hv in g.neighbors(hr.to) {
                            if hv.to == u || mask[hv.edge as usize] {
                                continue;
                            }
                            let via = Via::crossing(dr, u, hr, hv);
                            self.offer::<GOAL, true>(&aim, dr + hv.weight, via, hv.to);
                        }
                    }
                    continue;
                }
                // Each relay pair `u → r → v`, with the plain search's
                // folds through `r`; none has a masked link.
                for &[a, b] in ix.hops(u) {
                    let (hr, hv) = (&relays[a as usize], &section[b as usize]);
                    let dr = d + hr.weight;
                    let via = Via::crossing(dr, u, hr, hv);
                    self.offer::<GOAL, true>(&aim, dr + hv.weight, via, hv.to);
                }
                continue;
            }
            // Every node of a plain run, and a transit source, whose
            // neighbours are all non-transit.
            for h in g.neighbors(u) {
                if let Some(mask) = disabled {
                    if mask[h.edge as usize] {
                        continue;
                    }
                }
                self.offer::<GOAL, HOPS>(&aim, d + h.weight, Via::direct(d, u, h), h.to);
            }
        }
        settled_count
    }

    /// Offer node `v` the label `nd` through `via`, its would-be parent:
    /// take it if it is lower than `v`'s, and on an exact tie, in a
    /// goal-directed run or one that crosses transit nodes, keep the
    /// parent that comes first (see [`DijkstraWorkspace::outranks`]).
    #[inline(always)]
    fn offer<const GOAL: bool, const HOPS: bool>(
        &mut self,
        aim: &Aim<'_>,
        nd: f64,
        via: Via,
        v: NodeId,
    ) {
        let vi = v as usize;
        let fresh = self.stamp[vi] != self.gen;
        let cur = if fresh { f64::INFINITY } else { self.dist[vi] };
        if nd < cur {
            self.stamp[vi] = self.gen;
            self.dist[vi] = nd;
            self.take::<HOPS>(&via, vi);
            if GOAL && fresh {
                self.bound[vi] = aim.bound(vi);
            }
            let key = if GOAL { nd + self.bound[vi] } else { nd };
            if fresh {
                self.settled[vi] = false;
                self.heap.push(key, v);
            } else {
                // Touched and improved, so still open: settled labels
                // are final (see `Graph::lambda`).
                debug_assert!(!self.settled[vi]);
                self.heap.decrease(key, v);
            }
        } else if (GOAL || HOPS)
            && nd == cur
            && !self.settled[vi]
            && self.outranks::<HOPS>(&via, vi)
        {
            self.take::<HOPS>(&via, vi);
        }
    }

    /// Make `via` node `v`'s parent.
    #[inline(always)]
    fn take<const HOPS: bool>(&mut self, via: &Via, v: usize) {
        self.parent_edge[v] = via.edge;
        self.parent_node[v] = via.node;
        if HOPS {
            self.hop[v] = Hop {
                d: via.d,
                node: via.hop,
                edge: via.hop_edge,
            };
        }
    }

    /// Whether `via` comes before touched node `v`'s parent in the order
    /// of the exact-tie rule: the smallest `(dist, node)`, the parent
    /// plain Dijkstra keeps (see [`Graph::lambda`] for why no candidate
    /// comes later). A run that crosses transit nodes extends the order
    /// to `(dist, node, edge)` and, between two crossings of one transit
    /// node over one edge, to the transit node's own parent by the same
    /// rule: each offer's label is the fold through its own relay pair,
    /// which the canonical parent's offer beats (see
    /// [`Graph::set_transit`]).
    #[inline]
    fn outranks<const HOPS: bool>(&self, via: &Via, v: usize) -> bool {
        let (p, pe) = (self.parent_node[v], self.parent_edge[v]);
        if !HOPS {
            let dp = self.dist[p as usize];
            return via.d < dp || (via.d == dp && via.node < p);
        }
        let h = self.hop[v];
        if (via.d, via.node, via.edge) != (h.d, p, pe) {
            return via.d < h.d
                || (via.d == h.d && (via.node < p || (via.node == p && via.edge < pe)));
        }
        // One transit node over one edge, offered from two of its
        // neighbours, both settled.
        let (a, b) = (self.dist[via.hop as usize], self.dist[h.node as usize]);
        a < b || (a == b && (via.hop < h.node || (via.hop == h.node && via.hop_edge < h.edge)))
    }

    /// The aimed target just settled with others pending: aim at the next
    /// unsettled target in the order given, and re-key every open node
    /// toward it.
    fn retarget(&mut self, aim: &mut Aim<'_>, targets: &[NodeId]) {
        let gen = self.gen;
        let (stamp, settled) = (&self.stamp, &self.settled);
        aim.next_pending(targets, |t| stamp[t] == gen && settled[t]);
        let (dist, bound) = (&self.dist, &mut self.bound);
        self.heap.rekey(|v| {
            let vi = v as usize;
            bound[vi] = aim.bound(vi);
            dist[vi] + bound[vi]
        });
    }

    /// `g`'s landmark table (see [`LANDMARKS`]): for every non-transit
    /// node (see [`Graph::set_transit`]), its exact distance from each
    /// landmark, bit for bit what a full plain search from that landmark
    /// reports (`INFINITY` where it does not reach).
    ///
    /// Farthest-point selection picks the landmarks among the non-transit
    /// nodes: the first is the one farthest from the highest-degree one,
    /// and each next one the one farthest from its nearest landmark so
    /// far, lowest id on ties. All are drawn from the nodes that first
    /// search reaches, so on a graph with edges an isolated node is never
    /// one. Any landmarks would give a valid bound; these spread out. The
    /// table costs `LANDMARKS + 1` full searches on this workspace, each
    /// counted like any other run, and each crossing transit nodes as
    /// `run_multi` does. [`DijkstraWorkspace::run_multi`] builds it once
    /// per graph and keeps it in the graph; this call always builds
    /// afresh.
    pub fn landmark_table(&mut self, g: &Graph) -> Vec<[f64; LANDMARKS]> {
        // An index the searches below build is timed as its own.
        g.two_hop();
        let t0 = enabled(Level::Info).then(now_ns);
        let m = g.transit().start as usize;
        // lint: allow(hot-path-alloc) one table per graph, built by the graph's first goal-directed search and kept in it
        let mut rows = vec![[f64::INFINITY; LANDMARKS]; m];
        if m == 0 {
            return rows;
        }
        let mut hub = 0;
        for v in 1..m as NodeId {
            if g.degree(v) > g.degree(hub) {
                hub = v;
            }
        }
        let mut dist = self.take_dist_buf();
        self.full_dists(g, hub, &mut dist);
        let mut landmark = farthest(m, |v| dist[v as usize]);
        for i in 0..LANDMARKS {
            self.full_dists(g, landmark, &mut dist);
            for (row, &d) in rows.iter_mut().zip(&dist) {
                row[i] = d;
            }
            landmark = farthest(m, |v| {
                rows[v as usize][..=i]
                    .iter()
                    .fold(f64::INFINITY, |m, &d| m.min(d))
            });
        }
        self.put_dist_buf(dist);
        if let Some(t0) = t0 {
            LANDMARK_TABLES_BUILT.add(1);
            LANDMARK_TABLE_NS.add(now_ns().saturating_sub(t0));
        }
        rows
    }

    /// Every non-transit node's distance from `source` into `out`, bit
    /// for bit what a full plain search reports: one full search, which
    /// on a graph with a two-hop index settles non-transit nodes only
    /// (see [`Graph::set_transit`]).
    fn full_dists(&mut self, g: &Graph, source: NodeId, out: &mut Vec<f64>) {
        self.run_core(g, source, None, &[], Shortcuts::Multi)
            .write_dists(out);
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

/// A relaxation's would-be parent of its head: the label it offers the
/// head through, its node and edge, and, when that node is a transit
/// node crossed through a relay pair `u → r → v`, the node's own parent
/// `u` and edge (`NodeId::MAX` and `EdgeId::MAX` otherwise).
#[derive(Clone, Copy, Debug)]
struct Via {
    d: f64,
    node: NodeId,
    edge: EdgeId,
    hop: NodeId,
    hop_edge: EdgeId,
}

impl Via {
    /// Half-edge `h` of node `u`, whose label is `d`.
    #[inline(always)]
    fn direct(d: f64, u: NodeId, h: &HalfEdge) -> Self {
        Via {
            d,
            node: u,
            edge: h.edge,
            hop: NodeId::MAX,
            hop_edge: EdgeId::MAX,
        }
    }

    /// Relay pair `u → r → v`, half-edges `hr` of `u` and `hv` of `r`,
    /// where `dr` is the fold into `r`.
    #[inline(always)]
    fn crossing(dr: f64, u: NodeId, hr: &HalfEdge, hv: &HalfEdge) -> Self {
        Via {
            d: dr,
            node: hr.to,
            edge: hv.edge,
            hop: u,
            hop_edge: hr.edge,
        }
    }
}

/// The part of a node's parent record that only a run crossing transit
/// nodes keeps: the label its parent offered it (its parent's own label,
/// or for a transit parent the fold into it through the relay pair), and
/// the transit parent's parent and edge (`NodeId::MAX` and `EdgeId::MAX`
/// for a non-transit parent). Transit nodes keep no record of their own.
#[derive(Clone, Copy, Debug)]
struct Hop {
    d: f64,
    node: NodeId,
    edge: EdgeId,
}

impl Hop {
    const NONE: Hop = Hop {
        d: f64::INFINITY,
        node: NodeId::MAX,
        edge: EdgeId::MAX,
    };
}

/// The shortcuts a run takes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Shortcuts {
    /// [`DijkstraWorkspace::run`]'s: a goal-directed run adds the
    /// straight-line bound alone, and every node settles.
    Line,
    /// [`DijkstraWorkspace::run_multi`]'s: an unmasked run crosses
    /// transit nodes, and a run that settles only nodes the landmark
    /// table has rows for adds the landmark bound.
    Multi,
    /// [`DijkstraWorkspace::run_exposed`]'s: as `Multi`, and a masked run
    /// crosses transit nodes too, reading the exposed set.
    Exposed,
}

/// Most distinct targets a goal-directed run aims at; runs with more are
/// plain Dijkstra. Aiming at one target at a time, a run re-keys its open
/// nodes once per target and settles one corridor per target, which
/// stops paying once many targets ring the source. Each search was timed
/// both ways (goal-directed with no cap, and plain) on Starlink BP and
/// hybrid snapshots over three real pair sets. Goal direction changed
/// search time by −87…−52% on `latency_day`'s (1 to 6 targets); by
/// −89…−33% at 1 to 12 targets and −18…−17% at 13 to 16 on paper-scale
/// fig2's; and on a quarter of `ext_million_pairs`' by −83…−24% at 1 to 8,
/// −26…−1% at 9 to 12, −3…+25% at 13 to 16 and +150…+155% past 16. A cap
/// of 12 gave the smallest BP + hybrid total on the million-pair set and
/// came within 2% of the best (no cap) on paper-scale fig2; every cap
/// from 6 up ties on `latency_day`.
pub const GOAL_MAX_TARGETS: usize = 12;

/// The node below `n` with the largest finite `score`, lowest id on ties
/// (node 0 when no score is finite).
fn farthest(n: usize, score: impl Fn(NodeId) -> f64) -> NodeId {
    let (mut best, mut best_score) = (0, f64::NEG_INFINITY);
    for v in 0..n as NodeId {
        let s = score(v);
        if s.is_finite() && s > best_score {
            (best, best_score) = (v, s);
        }
    }
    best
}

/// The target a goal-directed run is aimed at, and the bound of every
/// node toward it.
struct Aim<'g> {
    /// The straight-line scale, [`Graph::lambda`].
    lambda: f64,
    coords: &'g [[f64; 3]],
    /// The graph's landmark table, in `run_multi` runs that settle only
    /// nodes it has rows for.
    rows: Option<&'g [[f64; LANDMARKS]]>,
    /// The aimed target, with its point and table row.
    target: NodeId,
    point: [f64; 3],
    row: [f64; LANDMARKS],
    /// Position in the run's target list just past the aimed target.
    next: usize,
}

impl Aim<'_> {
    /// Aim at the first target from position `next` on that has not
    /// `settled`. Every target before `next` has settled.
    fn next_pending(&mut self, targets: &[NodeId], settled: impl Fn(usize) -> bool) {
        while let Some(&t) = targets.get(self.next) {
            self.next += 1;
            let ti = t as usize;
            if !settled(ti) {
                self.target = t;
                self.point = self.coords[ti];
                if let Some(rows) = self.rows {
                    self.row = rows[ti];
                }
                return;
            }
        }
    }

    /// `v`'s bound toward the aimed target: the larger of the
    /// straight-line and the landmark bound (see [`Graph::lambda`]).
    #[inline]
    fn bound(&self, v: usize) -> f64 {
        let line = self.lambda * dist_sq(&self.coords[v], &self.point).sqrt();
        let Some(rows) = self.rows else {
            return line;
        };
        let mut far = 0.0f64;
        for (&at_target, &at_v) in self.row.iter().zip(&rows[v]) {
            let d = (at_target - at_v).abs();
            // A landmark that reaches only one of the two gives ∞ or NaN.
            if d.is_finite() && d > far {
                far = d;
            }
        }
        line.max(LAMBDA_MARGIN * far)
    }
}

/// Borrowed result of the most recent [`DijkstraWorkspace::run`].
///
/// Same contract as [`ShortestPaths`] without the materialization:
/// distances are reported only for **settled** nodes, so an early-exited
/// run never exposes a stale queued-but-unrelaxed upper bound. Targets
/// are always exact. Every other settled node is exact as well, but in a
/// goal-directed run (at most [`GOAL_MAX_TARGETS`] distinct targets,
/// [`Graph::lambda`] > 0) *which* non-target nodes get settled depends on
/// the coordinates and, in `run_multi`, on the landmark table. A
/// `run_multi` that crossed transit nodes settled none of them but a
/// transit source (see [`Graph::set_transit`]).
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
            let vi = v as usize;
            let e = self.ws.parent_edge[vi];
            let p = self.ws.parent_node[vi];
            debug_assert!(e != EdgeId::MAX && p != NodeId::MAX);
            edges.push(e);
            nodes.push(p);
            v = p;
            // A transit parent: its own parent is in `v`'s record.
            let hop = self.ws.hop[vi];
            if self.ws.crossed && hop.node != NodeId::MAX {
                edges.push(hop.edge);
                nodes.push(hop.node);
                v = hop.node;
            }
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
        // lint: allow(hot-path-alloc) grows a recycled buffer only on a new peak node count
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
    /// After a run that crossed transit nodes, a transit node on a
    /// settled node's path keeps its parent, though not its distance, so
    /// [`extract_path`] on the result matches [`SsspView::extract_path`].
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
                let hop = self.ws.hop[v];
                if self.ws.crossed && hop.node != NodeId::MAX {
                    let r = parent_node[v] as usize;
                    parent_edge[r] = hop.edge;
                    parent_node[r] = hop.node;
                }
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
                            // The parent edge's new weight, read from `v`'s
                            // half-edges: a repair derives no edge table.
                            if let Some(h) = g.neighbors(v).iter().find(|h| h.edge == ne) {
                                debug_assert!(h.to == pn, "reweighted pair changed endpoints");
                                debug_assert!(
                                    h.weight > 0.0,
                                    "SPT repair requires positive weights"
                                );
                                nd = pd + h.weight;
                            }
                        }
                    }
                }
                self.dist[vi] = nd;
                self.done[vi] = true;
            }
        }

        // Phase 2: seed a label-correcting worklist from every half-edge
        // whose bound is violated (added edges surface here), then
        // relax to the unique fixpoint = fresh-Dijkstra distances.
        self.heap.clear();
        self.stack.clear();
        for u in 0..n as NodeId {
            for h in g.neighbors(u) {
                let nd = self.dist[u as usize] + h.weight;
                let vi = h.to as usize;
                if nd < self.dist[vi] {
                    self.dist[vi] = nd;
                    if self.done[vi] {
                        self.done[vi] = false;
                        self.stack.push(h.to);
                    }
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

    /// Regression: a release build once took `target` 5 of a 3-node graph
    /// through buffers the workspace had grown for a larger graph, and
    /// reported it unreached instead of panicking like a fresh workspace.
    #[test]
    #[should_panic(expected = "target 5 out of range for 3 nodes")]
    fn out_of_range_target_panics_on_a_warm_workspace() {
        let mut ws = DijkstraWorkspace::new();
        ws.run(&two_cliques(), 0, None, None);
        ws.run_multi(&small(), 0, None, &[1, 5]);
    }

    #[test]
    #[should_panic(expected = "source 6 out of range for 3 nodes")]
    fn out_of_range_source_panics_on_a_warm_workspace() {
        let mut ws = DijkstraWorkspace::new();
        ws.run(&two_cliques(), 0, None, None);
        ws.run(&small(), 6, None, Some(1));
    }

    /// A 4×4 unit grid whose coordinates are its `(row, col)` (nodes
    /// 0–15, λ > 0), an isolated node (16), a two-node component (17–18)
    /// and another isolated node (19).
    fn grid_with_islands() -> Graph {
        let id = |r: u32, c: u32| r * 4 + c;
        let mut b = GraphBuilder::new(20);
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
        b.add_edge(17, 18, 1.0);
        let mut g = b.build();
        let mut points: Vec<[f64; 3]> = (0..16)
            .map(|i| [(i / 4) as f64, (i % 4) as f64, 0.0])
            .collect();
        points.extend([
            [9.0, 9.0, 0.0],
            [20.0, 0.0, 0.0],
            [21.0, 0.0, 0.0],
            [0.0, 30.0, 0.0],
        ]);
        g.set_coords(points);
        assert!(g.lambda() > 0.0);
        g
    }

    /// Each table column's landmark: the node at distance 0, which on a
    /// graph with positive weights is the landmark alone.
    fn landmarks_of(rows: &[[f64; LANDMARKS]]) -> Vec<NodeId> {
        (0..LANDMARKS)
            .map(|i| {
                let mut at_zero = (0..rows.len()).filter(|&v| rows[v][i].to_bits() == 0);
                let l = at_zero
                    .next()
                    .expect("a landmark is at distance 0 from itself");
                assert!(at_zero.next().is_none(), "column {i} has one node at 0");
                l as NodeId
            })
            .collect()
    }

    #[test]
    fn landmark_rows_are_full_search_distances() {
        let g = grid_with_islands();
        let rows = DijkstraWorkspace::new().landmark_table(&g);
        assert_eq!(rows.len(), g.num_nodes());
        for (i, &l) in landmarks_of(&rows).iter().enumerate() {
            let full = dijkstra(&g, l);
            for (v, row) in rows.iter().enumerate() {
                assert_eq!(
                    row[i].to_bits(),
                    full.dist[v].to_bits(),
                    "landmark {l}, node {v}"
                );
            }
        }
    }

    /// Farthest-point selection from the highest-degree node (5, the
    /// first of the four interior nodes): the far corner 15, then the
    /// corner 0 farthest from it, then each time the lowest id among the
    /// nodes farthest from their nearest landmark (corner 3 at 3, node 9
    /// at 3, 6 and 12 at 2, 1 and 2 at 1). The same on a fresh and on a
    /// warm workspace, and never an isolated node or the other component.
    #[test]
    fn landmark_selection_is_deterministic_and_skips_isolated_nodes() {
        let g = grid_with_islands();
        let fresh = DijkstraWorkspace::new().landmark_table(&g);
        let mut warm = DijkstraWorkspace::new();
        warm.run(&two_cliques(), 3, None, None);
        let again = warm.landmark_table(&g);
        for (a, b) in fresh.iter().zip(&again) {
            assert_eq!(a.map(f64::to_bits), b.map(f64::to_bits));
        }
        let landmarks = landmarks_of(&fresh);
        assert_eq!(landmarks, [15, 0, 3, 9, 6, 12, 1, 2]);
        assert!(landmarks.iter().all(|&l| g.degree(l) > 0));
        for (v, row) in fresh.iter().enumerate().skip(16) {
            assert!(row.iter().all(|d| d.is_infinite()), "node {v}");
        }
    }

    /// Only a goal-directed `run_multi` builds the table: `run`, plain
    /// runs, runs past the target cap and runs on a graph with λ = 0
    /// leave it unbuilt. `set_coords` keeps it; `fill` drops it.
    #[test]
    fn landmark_table_is_built_once_by_run_multi_and_dropped_by_fill() {
        let mut g = grid_with_islands();
        let mut ws = DijkstraWorkspace::new();
        ws.run(&g, 0, None, Some(15));
        ws.run_multi(&g, 0, None, &[]);
        let too_many: Vec<NodeId> = (1..=GOAL_MAX_TARGETS as NodeId + 1).collect();
        ws.run_multi(&g, 0, None, &too_many);
        let mut plain = g.clone();
        plain.set_coords([]);
        ws.run_multi(&plain, 0, None, &[15]);
        assert!(g.landmarks.get().is_none() && plain.landmarks.get().is_none());
        let runs = ws.runs();
        assert_eq!(ws.run_multi(&g, 0, None, &[15, 17]).dist(15), 6.0);
        assert_eq!(
            ws.runs(),
            runs + LANDMARKS as u64 + 2,
            "table searches count as runs"
        );
        let table = g
            .landmarks
            .get()
            .expect("built by the first goal-directed run_multi");
        assert_eq!(table, &DijkstraWorkspace::new().landmark_table(&g));
        ws.run_multi(&g, 3, None, &[12]);
        assert_eq!(ws.runs(), runs + LANDMARKS as u64 + 3, "built once");
        g.set_coords(g.coords().to_vec());
        assert!(g.landmarks.get().is_some());
        let mut degree = vec![1, 1];
        let mut fill = g.fill(20, 1, &mut degree);
        fill.edge(0, 1, 1.0);
        fill.complete();
        assert!(g.landmarks.get().is_none());
    }

    /// A bent-pipe chain in miniature, weights equal to lengths: four
    /// satellites 0–3 on a line at height 1, cities 4 and 5 below the
    /// ends, and transit nodes from 6: relays 6, 7 and 8 each below and
    /// linked to two neighbouring satellites, relay 9 a copy of relay 7
    /// (an exact tie) and relay 10 a dead end under satellite 0.
    fn relay_chain() -> Graph {
        relay_chain_after(&[])
    }

    /// [`relay_chain`] with `direct` edges written first, as a snapshot
    /// writes its ISLs: the same transit layout, other direct edges.
    fn relay_chain_after(direct: &[(NodeId, NodeId, f64)]) -> Graph {
        let mut b = GraphBuilder::new(11);
        for &(u, v, w) in direct {
            b.add_edge(u, v, w);
        }
        let mut points = vec![[0.0; 3]; 11];
        for (i, p) in points.iter_mut().take(4).enumerate() {
            *p = [2.0 * i as f64, 1.0, 0.0];
        }
        points[5] = [6.0, 0.0, 0.0];
        b.add_edge(4, 0, 1.0);
        b.add_edge(5, 3, 1.0);
        for (r, sats) in [(6, [0, 1]), (7, [1, 2]), (8, [2, 3]), (9, [1, 2])] {
            points[r as usize] = [2.0 * sats[0] as f64 + 1.0, 0.0, 0.0];
            for s in sats {
                b.add_edge(r, s, 2f64.sqrt());
            }
        }
        b.add_edge(10, 0, 1.0);
        let mut g = b.build();
        g.set_coords(points);
        g.set_transit(6);
        g
    }

    /// Every column of a marked graph's landmark table, at every row it
    /// holds (one per non-transit node), is a full plain search on the
    /// unmarked graph from that column's landmark.
    fn assert_rows_are_plain_searches(rows: &[[f64; LANDMARKS]], g: &Graph) {
        let mut plain = g.clone();
        plain.set_transit(g.num_nodes() as NodeId);
        assert_eq!(
            rows.len(),
            g.transit().start as usize,
            "one row per non-transit node"
        );
        for (i, &l) in landmarks_of(rows).iter().enumerate() {
            let full = dijkstra(&plain, l);
            for (v, row) in rows.iter().enumerate() {
                assert_eq!(
                    row[i].to_bits(),
                    full.dist[v].to_bits(),
                    "landmark {l}, node {v}"
                );
            }
        }
    }

    /// Only an unmasked `run_multi` toward non-transit targets, or a
    /// landmark table's search, builds the two-hop index, and a run that
    /// uses it settles no transit node but a transit source: `run`, a
    /// masked run and a run toward a transit target settle relays, aim
    /// with the straight line alone and build no landmark table. Paths
    /// match the unmarked graph's, through the lower-numbered of two tied
    /// relays. `set_coords` keeps the index; `set_transit` and `fill`
    /// drop it.
    #[test]
    fn two_hop_index_is_built_by_unmasked_run_multi_and_dropped_by_fill() {
        let mut g = relay_chain();
        assert_eq!(g.transit(), 6..11);
        let mut plain = g.clone();
        plain.set_transit(11);
        assert!(plain.transit().is_empty());
        let (mut ws, mut plain_ws) = (DijkstraWorkspace::new(), DijkstraWorkspace::new());
        assert!(ws.run(&g, 4, None, Some(5)).reached(7));
        let mask = vec![false; g.num_edges()];
        assert!(ws.run_multi(&g, 4, Some(&mask), &[]).reached(7));
        assert!(ws.run_multi(&g, 4, Some(&mask), &[5]).reached(7));
        assert_eq!(
            ws.run_multi(&g, 4, None, &[5, 7]).dist(5),
            1.0 + 6.0 * 2f64.sqrt() + 1.0
        );
        assert!(g.landmarks.get().is_none(), "plain runs build no table");
        assert!(!g.two_hop_built(), "plain runs build no index");
        let table = g.clone();
        assert_rows_are_plain_searches(&ws.landmark_table(&table), &g);
        assert!(table.two_hop_built(), "the table's searches build it");
        for (source, target) in [(4, 5), (5, 4), (9, 5), (10, 5)] {
            let view = ws.run_multi(&g, source, None, &[target]);
            let want = plain_ws.run_multi(&plain, source, None, &[target]);
            assert_eq!(view.dist(target).to_bits(), want.dist(target).to_bits());
            assert_eq!(view.extract_path(target), want.extract_path(target));
            assert!(
                (6..11).all(|r| view.reached(r) == (r == source)),
                "{source} → {target}: a transit node other than the source settled"
            );
        }
        assert!(g.landmarks.get().is_some(), "contracted runs read a table");
        let r2 = 2f64.sqrt();
        assert_eq!(
            ws.run_multi(&g, 4, None, &[5, 7]).dist(7),
            1.0 + r2 + r2 + r2
        );
        assert!(ws.run_multi(&g, 4, Some(&mask), &[5]).reached(6));
        let path = ws.run_multi(&g, 4, None, &[5]).extract_path(5);
        assert_eq!(path.map(|p| p.nodes), Some(vec![4, 0, 6, 1, 7, 2, 8, 3, 5]));
        assert_eq!(g.two_hop_pairs(), Some(8), "both tied relays kept");
        g.set_coords(g.coords().to_vec());
        assert!(g.two_hop_built(), "set_coords keeps the index");
        g.set_transit(6);
        assert!(
            !g.two_hop_built() && g.landmarks.get().is_none(),
            "set_transit drops the index and the table"
        );
        ws.run_multi(&g, 4, None, &[5]);
        let mut degree = vec![1, 1];
        let mut fill = g.fill(11, 1, &mut degree);
        fill.edge(0, 1, 1.0);
        fill.complete();
        assert!(!g.two_hop_built() && g.transit().is_empty());
    }

    /// Landmarks are non-transit nodes, with a row each: farthest-point
    /// selection on [`relay_chain`] would otherwise reach for the dead-end
    /// relay 10 or a far relay.
    #[test]
    fn every_landmark_is_a_non_transit_node() {
        let g = relay_chain();
        let rows = DijkstraWorkspace::new().landmark_table(&g);
        assert_eq!(rows.len(), 6);
        assert!(landmarks_of(&rows).iter().all(|&l| l < 6));
        assert_rows_are_plain_searches(&rows, &g);
        let mut plain = g.clone();
        plain.set_transit(11);
        let all = DijkstraWorkspace::new().landmark_table(&plain);
        assert_eq!(all.len(), 11, "an unmarked graph keeps a row per node");
        assert!(landmarks_of(&all).iter().any(|&l| l >= 6));
    }

    /// Two graphs with one transit layout share one index, built with the
    /// larger margin by the first contracted search on either, and each
    /// searches as its unmarked copy does; `fill` or `set_transit` on one
    /// drops its link.
    #[test]
    fn a_shared_index_serves_a_sibling_with_heavier_direct_edges() {
        let mut a = relay_chain();
        let mut b = relay_chain_after(&[(0, 3, 7.0), (1, 2, 2.5)]);
        assert!(!a.shares_two_hop_with(&b));
        a.share_two_hop(&mut b);
        assert!(a.shares_two_hop_with(&b) && b.shares_two_hop_with(&a));
        let mut ws = DijkstraWorkspace::new();
        ws.run_multi(&b, 4, None, &[5]);
        assert!(a.two_hop_built(), "built once, for both");
        assert_eq!(a.two_hop_pairs(), b.two_hop_pairs());
        for g in [&a, &b] {
            let mut plain = g.clone();
            plain.set_transit(11);
            let mut plain_ws = DijkstraWorkspace::new();
            for (source, target) in [(4, 5), (5, 4), (9, 5), (0, 3)] {
                let view = ws.run_multi(g, source, None, &[target]);
                let want = plain_ws.run_multi(&plain, source, None, &[target]);
                assert_eq!(view.dist(target).to_bits(), want.dist(target).to_bits());
                assert_eq!(view.extract_path(target), want.extract_path(target));
            }
            assert_rows_are_plain_searches(&ws.landmark_table(g), g);
        }
        b.set_transit(6);
        assert!(!a.shares_two_hop_with(&b) && a.two_hop_built());
        assert!(!b.two_hop_built());
    }

    #[test]
    #[should_panic(expected = "different transit layouts")]
    fn sharing_needs_one_transit_marking() {
        let (mut a, mut b) = (relay_chain(), relay_chain());
        b.set_transit(7);
        a.share_two_hop(&mut b);
    }

    #[test]
    #[should_panic(expected = "transit node 6 has transit neighbour 7")]
    fn two_hop_index_rejects_a_transit_edge() {
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 6, 1.0);
        b.add_edge(6, 7, 1.0);
        b.add_edge(7, 1, 1.0);
        let mut g = b.build();
        g.set_transit(6);
        DijkstraWorkspace::new().run_multi(&g, 0, None, &[1]);
    }

    /// A non-transit node that lists a transit neighbour before a
    /// non-transit one leaves the graph without an index: its searches
    /// stay plain and settle the relay.
    #[test]
    fn interleaved_neighbours_leave_the_graph_without_an_index() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(3, 0, 1.0);
        b.add_edge(1, 0, 1.0);
        b.add_edge(3, 2, 1.0);
        let mut g = b.build();
        g.set_transit(3);
        assert_eq!(g.two_hop_pairs(), None);
        let mut ws = DijkstraWorkspace::new();
        let view = ws.run_multi(&g, 1, None, &[2]);
        assert_eq!(view.dist(2), 3.0);
        assert!(view.reached(3), "plain searches settle relays");
    }

    #[test]
    #[should_panic(expected = "transit nodes from 12 past the 11 nodes")]
    fn transit_marking_stays_within_the_nodes() {
        relay_chain().set_transit(12);
    }

    /// `NodeHeap` against a sorted `(key, node)` list: random pushes,
    /// in-place decreases and pops over a few distinct keys (so most
    /// comparisons tie on the key and fall to the node) always pop the
    /// list's first entry. Popped nodes may be pushed again.
    #[test]
    fn node_heap_pops_in_key_node_order() {
        use leo_util::check::{check, Gen};
        use leo_util::check_assert_eq;
        check("node_heap_pops_in_key_node_order", |gen| {
            let n = gen.usize(1..80);
            let mut heap = NodeHeap::default();
            heap.pos.resize(n, 0);
            let mut open: Vec<(f64, NodeId)> = Vec::new();
            let key = |gen: &mut Gen| f64::from(gen.u32(0..4)) * 0.25;
            for _ in 0..gen.usize(0..300) {
                let v = gen.u32(0..n as u32);
                if gen.u32(0..3) == 0 {
                    open.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    let expected = (!open.is_empty()).then(|| open.remove(0));
                    check_assert_eq!(heap.pop(), expected);
                } else if let Some(slot) = open.iter_mut().find(|e| e.1 == v) {
                    slot.0 = slot.0.min(key(gen));
                    heap.decrease(slot.0, v);
                } else {
                    let k = key(gen);
                    heap.push(k, v);
                    open.push((k, v));
                }
            }
            open.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &entry in &open {
                check_assert_eq!(heap.pop(), Some(entry));
            }
            check_assert_eq!(heap.pop(), None);
            Ok(())
        });
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
