//! Time-frozen network snapshots: the dynamic graph the experiments run
//! on.
//!
//! Two construction paths produce [`NetworkSnapshot`]s:
//!
//! * [`StudyContext::snapshot`] / [`StudyContext::snapshot_bundle`] —
//!   freeze one instant from scratch.
//! * [`TimeSweep`] (via [`StudyContext::sweep`],
//!   [`StudyContext::sweep_times`], or the parallel
//!   [`StudyContext::sweep_map`]) — walk a whole time series keeping the
//!   satellite state, the sub-point cell index, the previous step's links
//!   and every output buffer alive between instants, so consecutive
//!   snapshots cost an incremental update instead of a full rebuild.
//!
//! Both paths are **bit-identical**: a sweep step performs the same
//! floating-point operations in the same order as a fresh
//! `snapshot_bundle` at the same instant (`snapshot_bundle` is in fact a
//! one-step sweep). The equivalence is enforced by tests here and by the
//! cross-crate property tests in `tests/sweep.rs`.

use crate::config::{NetworkConfig, StudyConfig};
use crate::ground::GroundSegment;
use leo_data::flights::{Aircraft, FlightSchedule};
use leo_data::traffic::{sample_city_pairs, CityPair};
use leo_geo::{CellGrid, CellOrder, Ecef, GeoPoint, VisibilityScan, SPEED_OF_LIGHT_M_S};
use leo_graph::{EdgeId, Graph, NodeId};
use leo_orbit::{
    isl_line_of_sight, plus_grid_isls, CellTransition, Constellation, ConstellationSnapshot,
    IslLink, VisibilityParams, SUBPOINT_BIN_DEG,
};
use leo_util::telemetry::{enabled, Counter, Level};
use leo_util::{debug_span, span};

/// Telemetry: snapshots frozen across all experiments (the unit of work
/// the pipeline fans out over).
static SNAPSHOTS_BUILT: Counter = Counter::new("snapshots_built");
/// Telemetry: snapshots materialized from a shared per-timestep
/// position/visibility pass beyond the first — every count here is one
/// position propagation + sub-point index + visibility sweep that
/// [`StudyContext::snapshot_bundle`] did *not* redo.
static VISIBILITY_SHARED_MODES: Counter = Counter::new("visibility_shared_modes");
/// Telemetry: sweep steps that rebuilt satellite state from scratch (the
/// first step of every [`TimeSweep`], including each parallel-sweep chunk).
static SWEEP_FULL_REBUILDS: Counter = Counter::new("sweep_full_rebuilds");
/// Telemetry: satellites relocated between sub-point cells by incremental
/// sweep steps — the work a full index rebuild would redo for *every*
/// satellite.
static SWEEP_CELL_TRANSITIONS: Counter = Counter::new("sweep_cell_transitions");
/// Telemetry: GT–satellite links whose membership persisted from the
/// previous sweep step (only the delay/elevation weights were refreshed).
/// Counted for static ground points (cities + relays); aircraft links
/// are always recomputed because the aircraft themselves move.
static SWEEP_EDGES_REUSED: Counter = Counter::new("sweep_edges_reused");
/// Telemetry: GT–satellite links that newly appeared in a sweep step
/// (satellite rose above the minimum elevation for that ground point).
static SWEEP_EDGES_RECOMPUTED: Counter = Counter::new("sweep_edges_recomputed");

/// How one mode's edge set changed between two consecutive
/// [`TimeSweep`] steps.
///
/// Edge ids are **positional** (the order a step writes the edges: ISLs,
/// then each ground node's links), so a persisted link generally changes
/// id between steps; the delta carries the mapping:
///
/// * `reweighted` — links whose endpoints persisted, as
///   `(old id, new id)` pairs. Their weight is always refreshed
///   (satellites move every step), so *every* surviving edge appears
///   here — sweep deltas have no "unchanged" class.
/// * `removed` — old ids whose link vanished (satellite set below the
///   minimum elevation, ISL lost line of sight, aircraft stepped).
/// * `added` — new ids that have no old counterpart.
/// * `full` — true when no previous step exists to diff against (the
///   first step of a sweep or chunk): the id vectors are empty and
///   consumers must rebuild their derived state from the snapshot.
///
/// Aircraft relays move themselves, but while the aircraft census is
/// unchanged between steps their node ids are stable and their links
/// pair by satellite id like any ground point. Only a census change
/// (takeoff / landing shifts the node-table tail) degrades aircraft
/// links to a wholesale `removed` + `added` diff (`num_nodes` carries
/// the new node count).
///
/// The exact shape [`leo_graph::SptWorkspace::apply`] consumes:
/// `apply(&snap.graph, &delta.removed, &delta.reweighted)` repairs a
/// shortest-path tree to bit-identity with a fresh Dijkstra run. The
/// replay invariant — old edge set transformed by the delta equals the
/// new snapshot's edge set exactly — is pinned by the property suite in
/// `tests/sweep.rs`.
#[derive(Debug, Clone, Default)]
pub struct EdgeDelta {
    /// No previous step to diff against; id vectors are empty.
    pub full: bool,
    /// Node count of the new snapshot's graph.
    pub num_nodes: usize,
    /// New-graph ids of edges with no old counterpart.
    pub added: Vec<EdgeId>,
    /// Old-graph ids of edges that vanished.
    pub removed: Vec<EdgeId>,
    /// `(old id, new id)` for links whose endpoints persisted.
    pub reweighted: Vec<(EdgeId, EdgeId)>,
}

/// Connectivity mode of a snapshot (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Bent-pipe only: no ISLs; city GTs, grid relays, and over-water
    /// aircraft all participate as hops.
    BpOnly,
    /// BP plus ISLs — the paper's "hybrid" network.
    Hybrid,
    /// ISLs plus city GTs only (no relays or aircraft as intermediate
    /// hops) — used by the weather analysis to isolate ISL paths.
    IslOnly,
}

/// What a graph node represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind {
    /// Satellite with its constellation-wide id.
    Satellite(u32),
    /// Source/sink city (index into [`GroundSegment::cities`]).
    City(u32),
    /// Transit-only grid relay (index into [`GroundSegment::relays`]).
    Relay(u32),
    /// In-flight aircraft relay (schedule id).
    Aircraft(u64),
}

impl NodeKind {
    /// True for any ground-side node (city, relay, or aircraft).
    pub fn is_ground(&self) -> bool {
        !matches!(self, NodeKind::Satellite(_))
    }
}

/// What a graph edge represents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeKind {
    /// Laser inter-satellite link.
    Isl,
    /// Radio GT–satellite link, with the geometry the weather model
    /// needs.
    UpDown {
        /// Ground-side node.
        ground: NodeId,
        /// Satellite node.
        sat: NodeId,
        /// Elevation of the satellite as seen from the ground node,
        /// radians.
        elevation_rad: f64,
    },
}

/// Everything static about one study run.
#[derive(Debug, Clone)]
pub struct StudyContext {
    /// The configuration this context was built from.
    pub config: StudyConfig,
    /// The constellation under study.
    pub constellation: Constellation,
    /// Cities + relay grid.
    pub ground: GroundSegment,
    /// The day's synthetic air traffic.
    pub flights: FlightSchedule,
    /// The sampled traffic matrix.
    pub pairs: Vec<CityPair>,
    /// Static +Grid ISL topology (per shell, constellation-wide ids).
    isls: Vec<IslLink>,
    /// Node-table prefix shared by every snapshot: satellites, then
    /// cities (built once instead of per snapshot call).
    static_nodes: Vec<NodeKind>,
    /// Static relay node kinds (appended after cities in non-ISL-only
    /// snapshots).
    relay_nodes: Vec<NodeKind>,
    /// City positions — the ground-position prefix of every snapshot.
    city_positions: Vec<GeoPoint>,
    /// Pair indices grouped by source city, sorted by source id (the
    /// Dijkstra fan-out unit: one SSSP per entry per snapshot).
    pairs_by_src: Vec<(u32, Vec<usize>)>,
}

/// Group pair indices by source city via a stable sort (keeps pair
/// order within a source) — no hash-order dependence anywhere near the
/// routing fan-out.
fn group_pairs_by_src(pairs: &[CityPair]) -> Vec<(u32, Vec<usize>)> {
    let mut by_src: Vec<(u32, usize)> = pairs.iter().enumerate().map(|(i, p)| (p.src, i)).collect();
    by_src.sort_by_key(|&(src, _)| src);
    let mut grouped: Vec<(u32, Vec<usize>)> = Vec::new();
    for (src, i) in by_src {
        match grouped.last_mut() {
            Some((s, v)) if *s == src => v.push(i),
            _ => grouped.push((src, vec![i])),
        }
    }
    grouped
}

impl StudyContext {
    /// Assemble the full study context from a configuration.
    pub fn build(config: StudyConfig) -> Self {
        let _span = span!(
            "study_context_build",
            constellation = config.constellation.name()
        );
        let constellation = config.constellation.constellation();
        let ground = GroundSegment::build(&config);
        let flights = FlightSchedule::new(config.flight_density);
        let pairs = sample_city_pairs(
            &ground.cities,
            config.num_pairs,
            config.min_pair_distance_m,
            config.seed,
        );
        let mut isls = Vec::new();
        for (i, shell) in constellation.shells().iter().enumerate() {
            isls.extend(plus_grid_isls(shell, constellation.shell_offset(i)));
        }
        let s = constellation.num_satellites();
        let mut static_nodes = Vec::with_capacity(s + ground.cities.len());
        for sat in 0..s as u32 {
            static_nodes.push(NodeKind::Satellite(sat));
        }
        for i in 0..ground.cities.len() as u32 {
            static_nodes.push(NodeKind::City(i));
        }
        let relay_nodes: Vec<NodeKind> = (0..ground.relays.len() as u32)
            .map(NodeKind::Relay)
            .collect();
        let city_positions: Vec<GeoPoint> = ground.cities.iter().map(|c| c.pos).collect();
        let pairs_by_src = group_pairs_by_src(&pairs);
        Self {
            config,
            constellation,
            ground,
            flights,
            pairs,
            isls,
            static_nodes,
            relay_nodes,
            city_positions,
            pairs_by_src,
        }
    }

    /// Pair indices grouped by source city, sorted by source id — the
    /// per-snapshot Dijkstra fan-out (one SSSP per entry), precomputed
    /// once instead of rebuilt per snapshot by every experiment.
    pub fn pairs_by_src(&self) -> &[(u32, Vec<usize>)] {
        &self.pairs_by_src
    }

    /// Narrow the traffic matrix to the global pair-index range
    /// `lo..hi` — one shard of a pair-sharded run — rebuilding the
    /// per-source fan-out for the kept slice.
    ///
    /// Everything else is untouched: the configuration (and therefore
    /// the config hash), the constellation, the ground segment, and the
    /// pair *sampling* are those of the full run, so every shard shares
    /// provenance and shard workers see exactly the pairs a
    /// single-process run indexes as `lo..hi`, in the same order. Local
    /// pair index `j` in the restricted context is global pair `lo + j`
    /// — the offset shard files record so merges can reassemble global
    /// order.
    pub fn restrict_pair_range(&mut self, lo: usize, hi: usize) {
        // lint: allow(panic-reachable) API misuse trap: an out-of-range shard window would silently drop traffic
        assert!(
            lo <= hi && hi <= self.pairs.len(),
            "pair range {lo}..{hi} outside 0..{}",
            self.pairs.len()
        );
        self.pairs.truncate(hi);
        self.pairs.drain(..lo);
        self.pairs_by_src = group_pairs_by_src(&self.pairs);
    }

    /// Number of satellites (node ids `0..S` in every snapshot).
    pub fn num_satellites(&self) -> usize {
        self.constellation.num_satellites()
    }

    /// Graph node id of city `i` (valid in every snapshot of this
    /// context).
    pub fn city_node(&self, city_idx: usize) -> NodeId {
        debug_assert!(city_idx < self.ground.cities.len());
        (self.num_satellites() + city_idx) as NodeId
    }

    /// Freeze the network at `t_s` under `mode`.
    ///
    /// Edge weights are one-way propagation delays in **seconds** (both
    /// radio and laser links propagate at `c`), so shortest paths are
    /// lowest-latency paths and `2 × weight` is RTT.
    ///
    /// Building several modes at the same `t_s`? Use
    /// [`StudyContext::snapshot_bundle`]. Walking a time series? Use
    /// [`StudyContext::sweep_times`] or [`StudyContext::sweep_map`],
    /// which additionally keep state alive *between* instants.
    pub fn snapshot(&self, t_s: f64, mode: Mode) -> NetworkSnapshot {
        self.snapshot_bundle(t_s, &[mode])
            .pop()
            // lint: allow(unwrap-in-lib) snapshot_bundle returns one snapshot per requested mode, and one mode was passed
            .expect("one mode requested")
    }

    /// Freeze the network at `t_s` under each of `modes`, computing
    /// satellite positions, the sub-point cell index, ISL line-of-sight,
    /// and GT visibility **once** and materializing every requested mode
    /// from that shared pass. Returns one snapshot per entry of `modes`,
    /// in order (duplicates allowed).
    ///
    /// Byte-identical to building each mode via [`StudyContext::snapshot`]
    /// separately — the shared pass performs the same floating-point
    /// operations in the same order. Implemented as a single-step
    /// [`TimeSweep`].
    pub fn snapshot_bundle(&self, t_s: f64, modes: &[Mode]) -> Vec<NetworkSnapshot> {
        if modes.is_empty() {
            return Vec::new();
        }
        let mut sweep = TimeSweep::new(self, modes);
        sweep.step(t_s);
        sweep.into_snapshots()
    }

    /// Walk the time series `times`, calling `f(i, snapshots)` with the
    /// bundle for `times[i]` under `modes` (one snapshot per mode, in
    /// order). Consecutive instants share a [`TimeSweep`], so each step
    /// after the first is an incremental update, not a rebuild.
    ///
    /// The snapshot slice passed to `f` is reused between steps — clone
    /// out anything that must outlive the call.
    pub fn sweep_times(
        &self,
        times: &[f64],
        modes: &[Mode],
        mut f: impl FnMut(usize, &[NetworkSnapshot]),
    ) {
        let mut sweep = TimeSweep::new(self, modes);
        for (i, &t) in times.iter().enumerate() {
            f(i, sweep.step(t));
        }
    }

    /// [`StudyContext::sweep_times`] over the arithmetic grid
    /// `t0_s + i·dt_s` for `i in 0..n`.
    pub fn sweep(
        &self,
        t0_s: f64,
        dt_s: f64,
        n: usize,
        modes: &[Mode],
        mut f: impl FnMut(usize, &[NetworkSnapshot]),
    ) {
        let mut sweep = TimeSweep::new(self, modes);
        for i in 0..n {
            f(i, sweep.step(t0_s + i as f64 * dt_s));
        }
    }

    /// Parallel [`StudyContext::sweep_times`] that collects
    /// `f(i, snapshots)` for every index, in order — a
    /// [`StudyContext::sweep_fold`] into a `Vec`, so it shares that
    /// fan-out's chunking and thread-count invariance.
    pub fn sweep_map<R, F>(&self, times: &[f64], modes: &[Mode], threads: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, &[NetworkSnapshot]) -> R + Sync,
    {
        self.sweep_fold(
            times,
            modes,
            threads,
            Vec::new,
            |out, i, snaps| out.push(f(i, snaps)),
            |into, from| into.extend(from),
        )
    }

    /// Streaming parallel sweep: splits `times` into `threads`
    /// contiguous chunks, runs one [`TimeSweep`] per chunk, and folds
    /// each chunk into an accumulator of type `A` — memory stays
    /// O(threads · |A|) no matter how long the time series is.
    ///
    /// `threads == 0` means "use available parallelism", exactly like
    /// [`crate::par::parallel_map`]. `make` builds a fresh accumulator
    /// per chunk, `step(acc, i, snaps)` folds snapshot `i` in, and
    /// `merge(into, from)` combines chunk accumulators **in time order**
    /// (chunk 0 first). Only the first step of each chunk pays the full
    /// rebuild cost, and sweep-built snapshots are bit-identical to fresh
    /// ones, so the whole fold is thread-count invariant exactly when
    /// `merge ∘ step` is associative over chunk boundaries — true for
    /// min/max folds, integer counts, `leo_util::sketch` types, and
    /// [`crate::metrics::TailQuantile`]; see `tests/streaming.rs` for the
    /// cross-crate pin.
    pub fn sweep_fold<A, F, M>(
        &self,
        times: &[f64],
        modes: &[Mode],
        threads: usize,
        make: impl Fn() -> A + Sync,
        step: F,
        merge: M,
    ) -> A
    where
        A: Send,
        F: Fn(&mut A, usize, &[NetworkSnapshot]) + Sync,
        M: Fn(&mut A, A),
    {
        self.fold_chunks(
            times,
            modes,
            threads,
            make,
            |sweep, acc, i, t| step(acc, i, sweep.step(t)),
            merge,
        )
    }

    /// [`StudyContext::sweep_times`] with per-mode [`EdgeDelta`]s:
    /// `f(i, snapshots, deltas)` receives, alongside each bundle, how
    /// every mode's edge set changed since the previous step (`full` on
    /// step 0). Both slices are reused between steps.
    pub fn sweep_deltas(
        &self,
        times: &[f64],
        modes: &[Mode],
        mut f: impl FnMut(usize, &[NetworkSnapshot], &[EdgeDelta]),
    ) {
        let mut sweep = TimeSweep::new(self, modes);
        for (i, &t) in times.iter().enumerate() {
            let (snaps, deltas) = sweep.step_with_deltas(t);
            f(i, snaps, deltas);
        }
    }

    /// [`StudyContext::sweep_fold`] with per-mode [`EdgeDelta`]s — the
    /// streaming parallel sweep for delta-consuming accumulators (e.g.
    /// per-source [`leo_graph::SptWorkspace`]s). Each chunk's first step
    /// carries `full = true` deltas, so accumulators rebuild derived
    /// state at chunk starts and repair incrementally inside the chunk;
    /// because repaired state is bit-identical to a fresh rebuild, the
    /// fold stays thread-count invariant under the same associativity
    /// condition as `sweep_fold`.
    pub fn sweep_fold_deltas<A, F, M>(
        &self,
        times: &[f64],
        modes: &[Mode],
        threads: usize,
        make: impl Fn() -> A + Sync,
        step: F,
        merge: M,
    ) -> A
    where
        A: Send,
        F: Fn(&mut A, usize, &[NetworkSnapshot], &[EdgeDelta]) + Sync,
        M: Fn(&mut A, A),
    {
        self.fold_chunks(
            times,
            modes,
            threads,
            make,
            |sweep, acc, i, t| {
                let (snaps, deltas) = sweep.step_with_deltas(t);
                step(acc, i, snaps, deltas);
            },
            merge,
        )
    }

    /// The one chunk-and-merge fan-out behind every parallel sweep:
    /// `advance(sweep, acc, i, times[i])` steps the chunk's
    /// [`TimeSweep`] and folds the result into the chunk accumulator.
    fn fold_chunks<A, S, M>(
        &self,
        times: &[f64],
        modes: &[Mode],
        threads: usize,
        make: impl Fn() -> A + Sync,
        advance: S,
        merge: M,
    ) -> A
    where
        A: Send,
        S: Fn(&mut TimeSweep<'_>, &mut A, usize, f64) + Sync,
        M: Fn(&mut A, A),
    {
        let n = times.len();
        if n == 0 {
            return make();
        }
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(4, |p| p.get())
        } else {
            threads
        }
        .min(n);
        let chunk = n.div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..n)
            .step_by(chunk)
            .map(|lo| (lo, (lo + chunk).min(n)))
            .collect(); // lint: allow(hot-path-alloc) one tiny Vec of chunk bounds per sweep fan-out, not per step
        let per_chunk = crate::par::parallel_map(&ranges, threads, |&(lo, hi)| {
            let mut sweep = TimeSweep::new(self, modes);
            let mut acc = make();
            for (i, &t) in times.iter().enumerate().take(hi).skip(lo) {
                advance(&mut sweep, &mut acc, i, t);
            }
            acc
        });
        let mut iter = per_chunk.into_iter();
        // lint: allow(unwrap-in-lib) n > 0 guarantees at least one chunk accumulator
        let mut acc = iter.next().expect("at least one chunk");
        for part in iter {
            merge(&mut acc, part);
        }
        acc
    }
}

/// Incremental snapshot engine: walks a time series keeping satellite
/// state, the sub-point [`CellGrid`], the previous step's links, and all
/// output buffers alive between instants.
///
/// Created by [`TimeSweep::new`]; each [`TimeSweep::step`] produces one
/// [`NetworkSnapshot`] per requested mode. The first step propagates every
/// satellite and builds the cell index from scratch; every later step
/// advances the same state in place — satellites are *relocated* between
/// cells only when their sub-point crosses a cell boundary (reported by
/// [`ConstellationSnapshot::advance_to`]), ground-point cell windows are
/// precomputed once, and link/edge/node vectors are recycled.
///
/// A step writes every GT–satellite link into one flat **link arena**
/// (ground point by ground point, in node order), counting each
/// satellite's degree as the visibility scan emits, and then writes each
/// mode's graph from the arena in a single pass ([`Graph::fill`]). The
/// arena is double-buffered: the previous step's copy is what
/// [`EdgeDelta`] matching and the reused/recomputed link counters read.
///
/// **Delta invariant**: the snapshots returned by step `k` of a sweep are
/// node-for-node, edge-for-edge, and weight-bit identical to
/// [`StudyContext::snapshot_bundle`] called fresh at the same instant.
/// Membership of a GT–satellite link persists across steps whenever the
/// satellite stays above the minimum elevation; its delay/elevation
/// weights are always refreshed (satellites move every step). A full
/// rebuild happens only on the first step of a sweep — there is no other
/// fallback path, because the incremental update is exact.
#[derive(Debug)]
pub struct TimeSweep<'a> {
    ctx: &'a StudyContext,
    modes: Vec<Mode>,
    needs_full_ground: bool,
    needs_isls: bool,
    query_radius_m: f64,
    /// Satellite state advanced in place across steps.
    sats: ConstellationSnapshot,
    /// Sub-point cell index maintained incrementally alongside `sats`.
    grid: CellGrid,
    /// `grid` flattened each step, with the satellites' x/y/z gathered
    /// into cell order, so the visibility scans stream contiguous arrays
    /// instead of one heap bucket per cell and one lookup per satellite.
    cells: CellOrder,
    /// Batched elevation test with the threshold trig precomputed once
    /// per sweep.
    vis: VisibilityScan,
    transitions: Vec<CellTransition>,
    started: bool,
    /// Static ground points: cities, then relays (relays only when some
    /// mode uses them).
    static_ground: Vec<GeoPoint>,
    /// Surface ECEF position + norm per static ground point, hoisted out
    /// of the per-step visibility loops.
    static_ecef: Vec<(Ecef, f64)>,
    /// Cell window per static ground point as consecutive-cell segments
    /// (see [`CellGrid::window_segments`]), precomputed once — window
    /// geometry depends only on the grid shape, not its contents. Point
    /// `gi`'s segments are `static_segments[static_seg_off[gi]..static_seg_off[gi + 1]]`.
    static_segments: Vec<(u32, u32)>,
    static_seg_off: Vec<u32>,
    aircraft: Vec<Aircraft>,
    /// Surface ECEF position per aircraft, this step (the point its link
    /// delays are measured from).
    air_ecef: Vec<Ecef>,
    air_cells: Vec<(u32, u32)>,
    isl_links: Vec<(NodeId, NodeId, f64)>,
    /// The link arena: ground point `gp`'s links (static points, then
    /// aircraft) are `links[link_off[gp]..link_off[gp + 1]]`, in the
    /// order the scan emitted them, which is the order they become edges.
    links: Vec<Link>,
    link_off: Vec<u32>,
    /// The previous step's arena, swapped in at the start of each step
    /// that reads it (delta tracking or the link counters).
    prev_links: Vec<Link>,
    prev_link_off: Vec<u32>,
    /// Per-satellite degree this step: ISLs with line of sight, links to
    /// cities, and links to relays and aircraft.
    deg_isl: Vec<u32>,
    deg_city: Vec<u32>,
    deg_rest: Vec<u32>,
    /// One mode's satellite degrees, handed to [`Graph::fill`] (which
    /// counts them down).
    fill_degree: Vec<u32>,
    /// One ground point's previous visible-satellite ids, sorted, for the
    /// reused/recomputed link counters.
    prev_ids: Vec<u32>,
    snapshots: Vec<NetworkSnapshot>,
    /// Delta tracking (opt-in via [`TimeSweep::step_with_deltas`]).
    track_deltas: bool,
    /// True once one tracked step completed — i.e. the previous arena and
    /// the `prev_*` bookkeeping below describe a real previous step.
    delta_ready: bool,
    deltas: Vec<EdgeDelta>,
    /// Line-of-sight flag per [`StudyContext::isls`] entry, this step /
    /// previous step (swapped before each recompute).
    isl_present: Vec<bool>,
    prev_isl_present: Vec<bool>,
    /// Previous step's aircraft census (schedule ids, census order). When
    /// the census survives a step unchanged, aircraft node ids are stable
    /// and links pair by satellite id exactly like static ground.
    prev_air_ids: Vec<u64>,
    /// Block-local (old, new) id pairs for ISLs with line of sight in
    /// both steps, plus old-only / new-only positions.
    isl_matched: Vec<(u32, u32)>,
    isl_removed: Vec<u32>,
    isl_added: Vec<u32>,
    prev_isl_count: u32,
    /// Ground links matched across the step, as arena positions: (old,
    /// new) pairs, old-only and new-only positions, each in ground-point
    /// order (so each list ascends in the positions it holds).
    link_matched: Vec<(u32, u32)>,
    link_removed: Vec<u32>,
    link_added: Vec<u32>,
    /// Matching scratch: (sat id, old position) sorted by sat id, and a
    /// consumed flag per entry.
    match_sorted: Vec<(u32, u32)>,
    match_consumed: Vec<bool>,
}

/// One GT–satellite link as the visibility scan emitted it.
#[derive(Debug, Clone, Copy)]
struct Link {
    sat: u32,
    /// One-way propagation delay, s.
    delay_s: f64,
    /// Elevation of the satellite seen from the ground point, rad.
    elevation_rad: f64,
}

/// Ground point `gp`'s links in an arena (empty when the arena has no
/// such point, e.g. before the first step).
#[inline]
fn arena_block<'l>(links: &'l [Link], off: &[u32], gp: usize) -> &'l [Link] {
    match off.get(gp..gp + 2) {
        Some(&[lo, hi]) => &links[lo as usize..hi as usize],
        _ => &[],
    }
}

impl<'a> TimeSweep<'a> {
    /// Set up a sweep over `ctx` producing one snapshot per entry of
    /// `modes` at every step. No orbital work happens until the first
    /// [`TimeSweep::step`].
    pub fn new(ctx: &'a StudyContext, modes: &[Mode]) -> Self {
        let needs_full_ground = modes.iter().any(|&m| m != Mode::IslOnly);
        let needs_isls = modes.iter().any(|&m| m != Mode::BpOnly);
        let params = VisibilityParams {
            min_elevation_rad: ctx.constellation.min_elevation_rad(),
            max_altitude_m: ctx.config.constellation.max_altitude_m(),
        };
        let query_radius_m = params.query_radius_m();
        let mut static_ground = ctx.city_positions.clone();
        if needs_full_ground {
            static_ground.extend(ctx.ground.relays.iter().copied());
        }
        let grid = CellGrid::new(SUBPOINT_BIN_DEG);
        let static_ecef: Vec<(Ecef, f64)> = static_ground
            .iter()
            .map(|&g| {
                let e = Ecef::from_geo(g, 0.0);
                let norm = e.norm();
                (e, norm)
            })
            .collect();
        let (mut static_segments, mut static_seg_off) = (Vec::new(), vec![0u32]);
        let mut segments = Vec::new();
        for &g in &static_ground {
            grid.window_segments(g, query_radius_m, &mut segments);
            static_segments.extend_from_slice(&segments);
            static_seg_off.push(static_segments.len() as u32);
        }
        let s = ctx.num_satellites();
        let snapshots = modes
            .iter()
            .map(|&mode| NetworkSnapshot {
                t_s: 0.0,
                mode,
                graph: Graph::default(),
                nodes: Vec::new(),
                edges: Vec::new(),
                ground_positions: Vec::new(),
                num_satellites: s,
                num_aircraft: 0,
            })
            .collect();
        Self {
            ctx,
            modes: modes.to_vec(),
            needs_full_ground,
            needs_isls,
            query_radius_m,
            sats: ConstellationSnapshot::default(),
            grid,
            cells: CellOrder::default(),
            vis: VisibilityScan::new(params.min_elevation_rad),
            transitions: Vec::new(),
            started: false,
            static_ground,
            static_ecef,
            static_segments,
            static_seg_off,
            aircraft: Vec::new(),
            air_ecef: Vec::new(),
            air_cells: Vec::new(),
            isl_links: Vec::new(),
            links: Vec::new(),
            link_off: Vec::new(),
            prev_links: Vec::new(),
            prev_link_off: Vec::new(),
            deg_isl: vec![0; s],
            deg_city: vec![0; s],
            deg_rest: vec![0; s],
            fill_degree: vec![0; s],
            prev_ids: Vec::new(),
            snapshots,
            track_deltas: false,
            delta_ready: false,
            deltas: Vec::new(),
            isl_present: Vec::new(),
            prev_isl_present: Vec::new(),
            prev_air_ids: Vec::new(),
            isl_matched: Vec::new(),
            isl_removed: Vec::new(),
            isl_added: Vec::new(),
            prev_isl_count: 0,
            link_matched: Vec::new(),
            link_removed: Vec::new(),
            link_added: Vec::new(),
            match_sorted: Vec::new(),
            match_consumed: Vec::new(),
        }
    }

    /// Advance to `t_s` and rebuild the per-mode snapshots, returning
    /// them in `modes` order. The slice borrows the sweep's internal
    /// buffers and is overwritten by the next step.
    ///
    /// Steps may be in any order and arbitrarily far apart — the
    /// incremental update is exact regardless of `dt` (a large jump just
    /// relocates more satellites between cells).
    pub fn step(&mut self, t_s: f64) -> &[NetworkSnapshot] {
        self.step_impl(t_s);
        &self.snapshots
    }

    /// Like [`TimeSweep::step`], additionally returning one [`EdgeDelta`]
    /// per mode describing how each edge set changed since the previous
    /// step. Tracking starts with the first call, so the first call's
    /// deltas are `full = true` — whether or not plain
    /// [`TimeSweep::step`]s came before it — and every later step,
    /// through either method, is diffed against the one before it.
    ///
    /// Both returned slices borrow the sweep and are overwritten by the
    /// next step.
    pub fn step_with_deltas(&mut self, t_s: f64) -> (&[NetworkSnapshot], &[EdgeDelta]) {
        if !self.track_deltas {
            self.start_delta_tracking();
        }
        self.step_impl(t_s);
        (&self.snapshots, &self.deltas)
    }

    /// One-time allocation of the delta-tracking bookkeeping, on the
    /// first [`TimeSweep::step_with_deltas`] call. Everything sized here
    /// is recycled on every subsequent step (declared cold in
    /// `lint.toml`, so `hot-path-alloc` reachability stops at this fn).
    fn start_delta_tracking(&mut self) {
        self.track_deltas = true;
        self.delta_ready = false;
        self.deltas = self.modes.iter().map(|_| EdgeDelta::default()).collect();
        self.isl_present = vec![false; self.ctx.isls.len()];
        self.prev_isl_present = vec![false; self.ctx.isls.len()];
    }

    /// The deltas produced by the most recent step (empty unless
    /// [`TimeSweep::step_with_deltas`] has been used).
    pub fn deltas(&self) -> &[EdgeDelta] {
        &self.deltas
    }

    fn step_impl(&mut self, t_s: f64) {
        if self.modes.is_empty() {
            return;
        }
        let _span = debug_span!("sweep_step", t_s = t_s, modes = self.modes.len());
        SNAPSHOTS_BUILT.add(self.modes.len() as u64);
        VISIBILITY_SHARED_MODES.add(self.modes.len() as u64 - 1);
        if self.started {
            self.sats.advance_to(
                &self.ctx.constellation,
                t_s,
                &mut self.grid,
                &mut self.transitions,
            );
            SWEEP_CELL_TRANSITIONS.add(self.transitions.len() as u64);
        } else {
            self.sats = self.ctx.constellation.positions_at(t_s);
            self.grid = self.sats.cell_grid(SUBPOINT_BIN_DEG);
            SWEEP_FULL_REBUILDS.add(1);
            self.started = true;
        }
        let count = enabled(Level::Info);
        if self.track_deltas {
            // Stash the outgoing census before `aircraft_into` below
            // replaces it.
            self.prev_air_ids.clear();
            // lint: allow(hot-path-alloc) refills a recycled buffer after clear; allocates only on a new peak aircraft count
            self.prev_air_ids.extend(self.aircraft.iter().map(|a| a.id));
            std::mem::swap(&mut self.prev_isl_present, &mut self.isl_present);
        }
        // `links` holds the outgoing step's arena whether or not that step
        // swapped, so swapping here always makes `prev_links` the step
        // before this one.
        if count || self.track_deltas {
            std::mem::swap(&mut self.links, &mut self.prev_links);
            std::mem::swap(&mut self.link_off, &mut self.prev_link_off);
        }
        self.links.clear();
        self.link_off.clear();
        self.link_off.push(0);
        self.grid.flatten_into(self.sats.xyz(), &mut self.cells);
        if self.needs_full_ground {
            self.ctx
                .flights
                .aircraft_into(t_s, true, &mut self.aircraft);
        } else {
            self.aircraft.clear();
        }
        self.recompute_isls();
        self.recompute_static_links(count);
        self.recompute_aircraft_links();
        if self.track_deltas && self.delta_ready {
            self.compute_link_matches();
        }
        for mi in 0..self.modes.len() {
            self.assemble_mode(mi, t_s);
            if self.track_deltas {
                self.assemble_delta(mi);
            }
        }
        if self.track_deltas {
            self.delta_ready = true;
        }
    }

    /// The snapshots produced by the most recent [`TimeSweep::step`]
    /// (placeholders with empty graphs before the first step).
    pub fn snapshots(&self) -> &[NetworkSnapshot] {
        &self.snapshots
    }

    /// Consume the sweep, keeping the final step's snapshots.
    pub fn into_snapshots(self) -> Vec<NetworkSnapshot> {
        self.snapshots
    }

    /// Refresh ISL line-of-sight and delays against the current
    /// satellite positions, counting each satellite's ISL degree.
    // lint: hot-path
    fn recompute_isls(&mut self) {
        self.isl_links.clear();
        self.deg_isl.fill(0);
        if !self.needs_isls {
            return;
        }
        let clearance = self.ctx.config.network.isl_clearance_m;
        for (i, l) in self.ctx.isls.iter().enumerate() {
            let pa = self.sats.position(l.a as usize);
            let pb = self.sats.position(l.b as usize);
            let visible = isl_line_of_sight(&pa, &pb, clearance);
            if self.track_deltas {
                self.isl_present[i] = visible;
            }
            if visible {
                self.isl_links
                    .push((l.a, l.b, pa.distance(&pb) / SPEED_OF_LIGHT_M_S));
                self.deg_isl[l.a as usize] += 1;
                self.deg_isl[l.b as usize] += 1;
            }
        }
    }

    /// Scan every static ground point (cities + relays) into the link
    /// arena via the batched SoA elevation test over its precomputed
    /// cell window; with `count`, also tally which links persisted from
    /// the previous step.
    ///
    /// Enumerating window cells in canonical grid order with id-sorted
    /// buckets reproduces the satellite order of a fresh
    /// `SphereGrid::query_radius` pass exactly, and the elevation test
    /// alone decides membership: any satellite outside the query radius
    /// is below the minimum elevation by construction, so no great-circle
    /// prefilter is needed.
    // lint: hot-path
    fn recompute_static_links(&mut self, count: bool) {
        let num_cities = self.ctx.city_positions.len();
        self.deg_city.fill(0);
        self.deg_rest.fill(0);
        let (mut reused, mut recomputed) = (0u64, 0u64);
        let links = &mut self.links;
        for (gi, &(g, g_norm)) in self.static_ecef.iter().enumerate() {
            if count {
                self.prev_ids.clear();
                for l in arena_block(&self.prev_links, &self.prev_link_off, gi) {
                    self.prev_ids.push(l.sat);
                }
                self.prev_ids.sort_unstable();
            }
            let start = links.len();
            let degree = if gi < num_cities {
                &mut self.deg_city
            } else {
                &mut self.deg_rest
            };
            let segments = &self.static_segments
                [self.static_seg_off[gi] as usize..self.static_seg_off[gi + 1] as usize];
            scan_into_arena(
                &self.vis,
                (&g, g_norm),
                &self.cells,
                segments,
                degree,
                (links, &mut self.link_off),
            );
            if count {
                for l in &links[start..] {
                    if self.prev_ids.binary_search(&l.sat).is_ok() {
                        reused += 1;
                    } else {
                        recomputed += 1;
                    }
                }
            }
        }
        if count {
            SWEEP_EDGES_REUSED.add(reused);
            SWEEP_EDGES_RECOMPUTED.add(recomputed);
        }
    }

    /// Scan every aircraft into the link arena, after the static points.
    /// Aircraft move between steps, so their cell windows are recomputed
    /// per step (against the current grid shape — contents-independent).
    // lint: hot-path
    fn recompute_aircraft_links(&mut self) {
        self.air_ecef.clear();
        for a in &self.aircraft {
            let g = Ecef::from_geo(a.pos, 0.0);
            let g_norm = g.norm();
            self.air_ecef.push(g);
            self.grid
                .window_segments(a.pos, self.query_radius_m, &mut self.air_cells);
            scan_into_arena(
                &self.vis,
                (&g, g_norm),
                &self.cells,
                &self.air_cells,
                &mut self.deg_rest,
                (&mut self.links, &mut self.link_off),
            );
        }
    }

    /// Rebuild snapshot `mi` (graph, node/edge tables, ground positions)
    /// from the refreshed links, recycling all of its buffers.
    ///
    /// The graph is written in one pass ([`Graph::fill`]): satellites are
    /// its scattered nodes, with this mode's degrees as counted by the
    /// scans, and ground nodes are appended straight from the arena. Edge
    /// ids run ISLs first (modes with ISLs), then each ground node's
    /// links in node order, so every satellite's neighbor list starts
    /// with its ISLs. The graph also gets one coordinate per node — the
    /// exact ECEF points every link delay was measured between — so
    /// searches on it toward one or two targets run goal-directed (see
    /// [`Graph::lambda`]).
    // lint: hot-path
    fn assemble_mode(&mut self, mi: usize, t_s: f64) {
        let mode = self.modes[mi];
        let s = self.ctx.num_satellites();
        let num_cities = self.ctx.city_positions.len();
        let num_static = self.static_ground.len();
        let num_ground = if mode == Mode::IslOnly {
            num_cities
        } else {
            num_static + self.aircraft.len()
        };
        let snap = &mut self.snapshots[mi];
        snap.nodes.clear();
        snap.nodes.extend_from_slice(&self.ctx.static_nodes);
        if mode != Mode::IslOnly {
            snap.nodes.extend_from_slice(&self.ctx.relay_nodes);
            snap.nodes
                .extend(self.aircraft.iter().map(|a| NodeKind::Aircraft(a.id)));
        }
        debug_assert_eq!(snap.nodes.len(), s + num_ground);

        let (isl, rest) = (mode != Mode::BpOnly, mode != Mode::IslOnly);
        for (i, d) in self.fill_degree.iter_mut().enumerate() {
            *d = self.deg_city[i]
                + if isl { self.deg_isl[i] } else { 0 }
                + if rest { self.deg_rest[i] } else { 0 };
        }
        let num_isls = if isl { self.isl_links.len() } else { 0 };
        let num_edges = num_isls + self.link_off[num_ground] as usize;
        let mut fill = snap
            .graph
            .fill(snap.nodes.len(), num_edges, &mut self.fill_degree);
        snap.edges.clear();
        snap.edges.reserve(num_edges);
        for &(a, b, delay) in &self.isl_links[..num_isls] {
            fill.edge(a, b, delay);
            snap.edges.push(EdgeKind::Isl);
        }
        for gi in 0..num_ground {
            let ground = (s + gi) as NodeId;
            let block = arena_block(&self.links, &self.link_off, gi);
            fill.append_edges(ground, block.iter().map(|l| (l.sat, l.delay_s)));
            snap.edges.extend(block.iter().map(|l| EdgeKind::UpDown {
                ground,
                sat: l.sat,
                elevation_rad: l.elevation_rad,
            }));
        }
        fill.complete();
        debug_assert_eq!(snap.graph.num_edges(), snap.edges.len());
        let (xs, ys, zs) = self.sats.xyz();
        let num_air = num_ground - num_ground.min(num_static);
        let ground = self.static_ecef[..num_ground - num_air]
            .iter()
            .map(|(e, _)| e)
            .chain(&self.air_ecef[..num_air]);
        snap.graph.set_coords(
            (0..s)
                .map(|i| [xs[i], ys[i], zs[i]])
                .chain(ground.map(|e| [e.x, e.y, e.z])),
        );

        snap.ground_positions.clear();
        snap.ground_positions
            .extend_from_slice(&self.static_ground[..num_ground.min(num_static)]);
        if mode != Mode::IslOnly {
            snap.ground_positions
                .extend(self.aircraft.iter().map(|a| a.pos));
        }
        snap.t_s = t_s;
        snap.mode = mode;
        snap.num_satellites = s;
        snap.num_aircraft = if mode == Mode::IslOnly {
            0
        } else {
            self.aircraft.len()
        };
    }

    /// Match the previous step's links against the refreshed ones:
    /// block-local ISL pairs, and ground-link pairs as arena positions,
    /// which [`TimeSweep::assemble_delta`] offsets into per-mode edge ids.
    ///
    /// Static ground points pair links by satellite id (unique per
    /// ground point); ISLs pair by position in the fixed `ctx.isls`
    /// order via the presence flags. Aircraft pair by satellite id too
    /// whenever the census survived the step unchanged (stable node
    /// ids); a census change (takeoff / landing reorders the node tail)
    /// falls back to the wholesale removed + added diff.
    // lint: hot-path
    fn compute_link_matches(&mut self) {
        self.isl_matched.clear();
        self.isl_removed.clear();
        self.isl_added.clear();
        let (mut oc, mut nc) = (0u32, 0u32);
        if self.needs_isls {
            for i in 0..self.ctx.isls.len() {
                match (self.prev_isl_present[i], self.isl_present[i]) {
                    (true, true) => {
                        self.isl_matched.push((oc, nc));
                        oc += 1;
                        nc += 1;
                    }
                    (true, false) => {
                        self.isl_removed.push(oc);
                        oc += 1;
                    }
                    (false, true) => {
                        self.isl_added.push(nc);
                        nc += 1;
                    }
                    (false, false) => {}
                }
            }
        }
        self.prev_isl_count = oc;
        self.link_matched.clear();
        self.link_removed.clear();
        self.link_added.clear();
        let num_static = self.static_ground.len();
        let census_stable = self.prev_air_ids.len() == self.aircraft.len()
            && self
                .aircraft
                .iter()
                .zip(&self.prev_air_ids)
                .all(|(a, &id)| a.id == id);
        let matched_blocks = if census_stable {
            num_static + self.aircraft.len()
        } else {
            num_static
        };
        for gp in 0..matched_blocks {
            match_link_block(
                (
                    &self.prev_links,
                    self.prev_link_off[gp],
                    self.prev_link_off[gp + 1],
                ),
                (&self.links, self.link_off[gp], self.link_off[gp + 1]),
                &mut self.link_matched,
                &mut self.link_removed,
                &mut self.link_added,
                &mut self.match_sorted,
                &mut self.match_consumed,
            );
        }
        if !census_stable {
            let old_total = *self.prev_link_off.last().unwrap_or(&0);
            let new_total = *self.link_off.last().unwrap_or(&0);
            for o in self.prev_link_off[num_static]..old_total {
                self.link_removed.push(o);
            }
            for n in self.link_off[num_static]..new_total {
                self.link_added.push(n);
            }
        }
    }

    /// Offset the matches into mode `mi`'s edge-id space, mirroring
    /// [`TimeSweep::assemble_mode`]'s emission order exactly: the ISL
    /// block first (modes with ISLs), then the ground links in arena
    /// order — the city blocks only, in ISL-only mode, which are a
    /// prefix of every match list.
    // lint: hot-path
    fn assemble_delta(&mut self, mi: usize) {
        let mode = self.modes[mi];
        let num_nodes = self.snapshots[mi].nodes.len();
        let d = &mut self.deltas[mi];
        d.num_nodes = num_nodes;
        d.added.clear();
        d.removed.clear();
        d.reweighted.clear();
        d.full = !self.delta_ready;
        if d.full {
            return;
        }
        let (mut ob, mut nb) = (0u32, 0u32);
        if mode != Mode::BpOnly {
            for &(o, n) in &self.isl_matched {
                d.reweighted.push((o as EdgeId, n as EdgeId));
            }
            for &o in &self.isl_removed {
                d.removed.push(o as EdgeId);
            }
            for &n in &self.isl_added {
                d.added.push(n as EdgeId);
            }
            ob = self.prev_isl_count;
            nb = self.isl_links.len() as u32;
        }
        let (old_end, new_end) = if mode == Mode::IslOnly {
            let cities = self.ctx.city_positions.len();
            (self.prev_link_off[cities], self.link_off[cities])
        } else {
            (u32::MAX, u32::MAX)
        };
        for &(o, n) in self.link_matched.iter().take_while(|&&(_, n)| n < new_end) {
            d.reweighted.push(((ob + o) as EdgeId, (nb + n) as EdgeId));
        }
        for &o in self.link_removed.iter().take_while(|&&o| o < old_end) {
            d.removed.push((ob + o) as EdgeId);
        }
        for &n in self.link_added.iter().take_while(|&&n| n < new_end) {
            d.added.push((nb + n) as EdgeId);
        }
    }
}

/// Scan one ground point's cell window into the link arena, counting
/// each emitted satellite in `degree`, and close the point's block.
// lint: hot-path
fn scan_into_arena(
    vis: &VisibilityScan,
    (g, g_norm): (&Ecef, f64),
    cells: &CellOrder,
    segments: &[(u32, u32)],
    degree: &mut [u32],
    (links, link_off): (&mut Vec<Link>, &mut Vec<u32>),
) {
    vis.scan_window(
        g,
        g_norm,
        cells,
        segments,
        degree,
        &mut |sat, range_m, elevation_rad| {
            links.push(Link {
                sat,
                delay_s: range_m / SPEED_OF_LIGHT_M_S,
                elevation_rad,
            });
        },
    );
    link_off.push(links.len() as u32);
}

/// Pair one ground point's previous links (`old`, an arena with the
/// block's range) against its refreshed ones (`new`) by satellite id
/// (unique within a block), appending (old position, new position)
/// matches in new order plus ascending old-only and new-only positions —
/// all as arena positions. `sorted` / `consumed` are recycled scratch.
// lint: hot-path
fn match_link_block(
    (old, old_lo, old_hi): (&[Link], u32, u32),
    (new, new_lo, new_hi): (&[Link], u32, u32),
    matched: &mut Vec<(u32, u32)>,
    removed: &mut Vec<u32>,
    added: &mut Vec<u32>,
    sorted: &mut Vec<(u32, u32)>,
    consumed: &mut Vec<bool>,
) {
    sorted.clear();
    for p in old_lo..old_hi {
        sorted.push((old[p as usize].sat, p));
    }
    sorted.sort_unstable();
    consumed.clear();
    consumed.resize(sorted.len(), false);
    for np in new_lo..new_hi {
        match sorted.binary_search_by_key(&new[np as usize].sat, |&(s, _)| s) {
            Ok(k) => {
                consumed[k] = true;
                matched.push((sorted[k].1, np));
            }
            Err(_) => added.push(np),
        }
    }
    let first_removed = removed.len();
    for (k, &(_, op)) in sorted.iter().enumerate() {
        if !consumed[k] {
            removed.push(op);
        }
    }
    removed[first_removed..].sort_unstable();
}

/// The network frozen at one instant: a weighted graph plus metadata.
///
/// Layout: satellites are nodes `0..num_satellites`, then the ground
/// nodes (cities, then relays and aircraft outside ISL-only mode). Edge
/// ids run ISLs first, then every ground node's links in node order, so
/// each satellite's neighbor list starts with its ISLs.
#[derive(Debug, Clone)]
pub struct NetworkSnapshot {
    /// Snapshot time, seconds since epoch.
    pub t_s: f64,
    /// Connectivity mode the snapshot was built under.
    pub mode: Mode,
    /// Delay-weighted undirected graph.
    pub graph: Graph,
    /// Node metadata, indexed by [`NodeId`].
    pub nodes: Vec<NodeKind>,
    /// Edge metadata, indexed by [`EdgeId`].
    pub edges: Vec<EdgeKind>,
    /// Positions of ground-side nodes, indexed by `node_id −
    /// num_satellites`.
    pub ground_positions: Vec<GeoPoint>,
    /// Number of satellites (node ids `0..num_satellites`).
    pub num_satellites: usize,
    /// Number of aircraft relays included.
    pub num_aircraft: usize,
}

impl NetworkSnapshot {
    /// Node id of city `i`.
    pub fn city_node(&self, city_idx: usize) -> NodeId {
        (self.num_satellites + city_idx) as NodeId
    }

    /// Ground position of a ground-side node.
    pub fn ground_position(&self, node: NodeId) -> Option<GeoPoint> {
        let i = (node as usize).checked_sub(self.num_satellites)?;
        self.ground_positions.get(i).copied()
    }

    /// Capacity of an edge under the link configuration, Gbps.
    pub fn edge_capacity_gbps(&self, net: &NetworkConfig, e: EdgeId) -> f64 {
        match self.edges[e as usize] {
            EdgeKind::Isl => net.isl_gbps,
            EdgeKind::UpDown { .. } => net.gt_link_gbps,
        }
    }
}

/// Re-export for convenient pair iteration.
pub use leo_data::traffic::CityPair as Pair;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    fn ctx() -> StudyContext {
        StudyContext::build(ExperimentScale::Tiny.config())
    }

    #[test]
    fn node_layout_is_stable() {
        let c = ctx();
        let snap = c.snapshot(0.0, Mode::Hybrid);
        let s = c.num_satellites();
        assert_eq!(snap.num_satellites, s);
        assert!(matches!(snap.nodes[0], NodeKind::Satellite(0)));
        assert!(matches!(snap.nodes[s], NodeKind::City(0)));
        assert_eq!(snap.city_node(3), (s + 3) as NodeId);
        assert_eq!(c.city_node(3), snap.city_node(3));
    }

    #[test]
    fn bp_mode_has_no_isls() {
        let c = ctx();
        let snap = c.snapshot(0.0, Mode::BpOnly);
        assert!(snap
            .edges
            .iter()
            .all(|e| matches!(e, EdgeKind::UpDown { .. })));
    }

    #[test]
    fn hybrid_has_both_kinds() {
        let c = ctx();
        let snap = c.snapshot(0.0, Mode::Hybrid);
        let isls = snap
            .edges
            .iter()
            .filter(|e| matches!(e, EdgeKind::Isl))
            .count();
        let radio = snap.edges.len() - isls;
        // +Grid: 2 links/satellite; a handful can be suppressed by the
        // 80 km clearance rule.
        assert!(isls > 2 * c.num_satellites() * 9 / 10, "isls = {isls}");
        assert!(radio > 0);
    }

    #[test]
    fn isl_only_excludes_relays_and_aircraft() {
        let c = ctx();
        let snap = c.snapshot(0.0, Mode::IslOnly);
        assert!(snap
            .nodes
            .iter()
            .all(|n| matches!(n, NodeKind::Satellite(_) | NodeKind::City(_))));
        assert_eq!(snap.num_aircraft, 0);
    }

    #[test]
    fn bp_includes_relays_and_aircraft() {
        let c = ctx();
        let snap = c.snapshot(30_000.0, Mode::BpOnly);
        let relays = snap
            .nodes
            .iter()
            .filter(|n| matches!(n, NodeKind::Relay(_)))
            .count();
        let aircraft = snap
            .nodes
            .iter()
            .filter(|n| matches!(n, NodeKind::Aircraft(_)))
            .count();
        assert_eq!(relays, c.ground.relays.len());
        assert_eq!(aircraft, snap.num_aircraft);
        assert!(aircraft > 0, "some aircraft should be over water mid-day");
    }

    #[test]
    fn edge_weights_are_plausible_delays() {
        let c = ctx();
        let snap = c.snapshot(0.0, Mode::Hybrid);
        for e in 0..snap.graph.num_edges() as EdgeId {
            let (_, _, w) = snap.graph.edge(e);
            // 550 km overhead ≈ 1.8 ms; longest slant/ISL a few ms.
            assert!(w > 0.0015 && w < 0.03, "edge {e} delay {w}s");
        }
    }

    #[test]
    fn updown_metadata_consistent() {
        let c = ctx();
        let snap = c.snapshot(0.0, Mode::Hybrid);
        for (e, kind) in snap.edges.iter().enumerate() {
            if let EdgeKind::UpDown {
                ground,
                sat,
                elevation_rad,
            } = kind
            {
                let (u, v, _) = snap.graph.edge(e as EdgeId);
                assert!(
                    (u == *ground && v == *sat) || (u == *sat && v == *ground),
                    "edge endpoints disagree with metadata"
                );
                assert!(*elevation_rad >= c.constellation.min_elevation_rad() - 1e-9);
                assert!((*sat as usize) < snap.num_satellites);
                assert!((*ground as usize) >= snap.num_satellites);
            }
        }
    }

    #[test]
    fn capacities_follow_kind() {
        let c = ctx();
        let snap = c.snapshot(0.0, Mode::Hybrid);
        let net = c.config.network;
        for e in 0..snap.edges.len() as EdgeId {
            let cap = snap.edge_capacity_gbps(&net, e);
            match snap.edges[e as usize] {
                EdgeKind::Isl => assert_eq!(cap, 100.0),
                EdgeKind::UpDown { .. } => assert_eq!(cap, 20.0),
            }
        }
    }

    #[test]
    fn pairs_sampled() {
        let c = ctx();
        assert_eq!(c.pairs.len(), c.config.num_pairs);
    }

    #[test]
    fn snapshots_differ_over_time() {
        let c = ctx();
        let a = c.snapshot(0.0, Mode::Hybrid);
        let b = c.snapshot(900.0, Mode::Hybrid);
        // Compare the edge *endpoint sets*, not raw edge counts — counts
        // can coincide by chance at other scales/seeds even though the
        // satellites moved. 15 minutes of orbital motion must change
        // which GT–satellite links exist.
        let endpoints = |s: &NetworkSnapshot| -> std::collections::HashSet<(NodeId, NodeId)> {
            (0..s.graph.num_edges() as EdgeId)
                .map(|e| {
                    let (u, v, _) = s.graph.edge(e);
                    (u.min(v), u.max(v))
                })
                .collect()
        };
        assert_ne!(endpoints(&a), endpoints(&b));
    }

    #[test]
    fn bundle_matches_individual_snapshots() {
        // The shared-pass bundle must be indistinguishable from building
        // each mode separately — same nodes, same edges in the same
        // order, bit-identical weights.
        let c = ctx();
        for t in [0.0, 30_000.0] {
            let modes = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
            let bundle = c.snapshot_bundle(t, &modes);
            assert_eq!(bundle.len(), modes.len());
            for (snap, &mode) in bundle.iter().zip(&modes) {
                let solo = c.snapshot(t, mode);
                assert_eq!(snap.mode, mode);
                assert_eq!(snap.nodes, solo.nodes, "{mode:?} node table");
                assert_eq!(snap.edges, solo.edges, "{mode:?} edge metadata");
                assert_eq!(snap.num_aircraft, solo.num_aircraft);
                assert_eq!(snap.ground_positions.len(), solo.ground_positions.len());
                assert_eq!(snap.graph.num_edges(), solo.graph.num_edges());
                for e in 0..snap.graph.num_edges() as EdgeId {
                    let (u1, v1, w1) = snap.graph.edge(e);
                    let (u2, v2, w2) = solo.graph.edge(e);
                    assert_eq!((u1, v1), (u2, v2));
                    assert_eq!(
                        w1.to_bits(),
                        w2.to_bits(),
                        "edge {e} weight must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn bundle_empty_and_duplicate_modes() {
        let c = ctx();
        assert!(c.snapshot_bundle(0.0, &[]).is_empty());
        let twice = c.snapshot_bundle(0.0, &[Mode::Hybrid, Mode::Hybrid]);
        assert_eq!(twice.len(), 2);
        assert_eq!(twice[0].graph.num_edges(), twice[1].graph.num_edges());
    }

    /// Every snapshot graph carries one coordinate per node, in node
    /// order, and its weights are delays along exactly those points: λ
    /// lands within rounding of 1/c. A mis-ordered fill would not fail a
    /// search — it would only shrink λ and fall back to Dijkstra speed —
    /// so this is the test that notices.
    #[test]
    fn snapshot_graphs_carry_coordinates_with_lambda_near_one_over_c() {
        use crate::config::ConstellationKind;
        let lo = 1.0 - 1.0 / (1u64 << 19) as f64;
        for kind in [
            ConstellationKind::Starlink,
            ConstellationKind::Kuiper,
            ConstellationKind::StarlinkPlusPolar,
        ] {
            let mut cfg = ExperimentScale::Tiny.config();
            cfg.constellation = kind;
            let c = StudyContext::build(cfg);
            let modes = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
            for snap in c.snapshot_bundle(900.0, &modes) {
                let what = format!("{kind:?} {:?}", snap.mode);
                let g = &snap.graph;
                assert_eq!(
                    g.coords().len(),
                    g.num_nodes(),
                    "{what}: one point per node"
                );
                for v in snap.num_satellites..g.num_nodes() {
                    let e = Ecef::from_geo(snap.ground_position(v as NodeId).unwrap(), 0.0);
                    assert_eq!(g.coords()[v], [e.x, e.y, e.z], "{what}: ground node {v}");
                }
                let scaled = g.lambda() * SPEED_OF_LIGHT_M_S;
                assert!(
                    (lo..=1.0).contains(&scaled),
                    "{what}: λ·c = {scaled} outside [1 − 2⁻¹⁹, 1]"
                );
            }
        }
    }

    #[test]
    fn pairs_by_src_covers_all_pairs_once() {
        let c = ctx();
        let mut seen = vec![false; c.pairs.len()];
        let mut prev_src = None;
        for (src, idxs) in c.pairs_by_src() {
            if let Some(p) = prev_src {
                assert!(*src > p, "sources must be strictly increasing");
            }
            prev_src = Some(*src);
            for &i in idxs {
                assert_eq!(c.pairs[i].src, *src);
                assert!(!seen[i], "pair {i} listed twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every pair must appear");
    }

    /// Assert two snapshots are indistinguishable: same metadata, same
    /// node/edge tables, bit-identical graph.
    fn assert_snapshots_identical(a: &NetworkSnapshot, b: &NetworkSnapshot, what: &str) {
        assert_eq!(a.t_s.to_bits(), b.t_s.to_bits(), "{what}: t_s");
        assert_eq!(a.mode, b.mode, "{what}: mode");
        assert_eq!(a.nodes, b.nodes, "{what}: node table");
        assert_eq!(a.edges, b.edges, "{what}: edge metadata");
        assert_eq!(a.num_satellites, b.num_satellites, "{what}: num_satellites");
        assert_eq!(a.num_aircraft, b.num_aircraft, "{what}: num_aircraft");
        assert_eq!(
            a.ground_positions.len(),
            b.ground_positions.len(),
            "{what}: ground positions"
        );
        for (pa, pb) in a.ground_positions.iter().zip(&b.ground_positions) {
            assert_eq!(pa.lat().to_bits(), pb.lat().to_bits(), "{what}: ground lat");
            assert_eq!(pa.lon().to_bits(), pb.lon().to_bits(), "{what}: ground lon");
        }
        assert_eq!(a.graph.num_edges(), b.graph.num_edges(), "{what}: edges");
        assert_eq!(
            a.graph.coords().len(),
            b.graph.coords().len(),
            "{what}: coordinates"
        );
        for (pa, pb) in a.graph.coords().iter().zip(b.graph.coords()) {
            assert_eq!(
                pa.map(f64::to_bits),
                pb.map(f64::to_bits),
                "{what}: coordinate"
            );
        }
        for e in 0..a.graph.num_edges() as EdgeId {
            let (u1, v1, w1) = a.graph.edge(e);
            let (u2, v2, w2) = b.graph.edge(e);
            assert_eq!((u1, v1), (u2, v2), "{what}: edge {e} endpoints");
            assert_eq!(w1.to_bits(), w2.to_bits(), "{what}: edge {e} weight bits");
        }
        assert_eq!(a.graph.num_nodes(), b.graph.num_nodes(), "{what}: nodes");
        for u in 0..a.graph.num_nodes() as NodeId {
            let half_edges = |g: &Graph| -> Vec<(NodeId, EdgeId, u64)> {
                g.neighbors(u)
                    .iter()
                    .map(|h| (h.to, h.edge, h.weight.to_bits()))
                    .collect()
            };
            assert_eq!(
                half_edges(&a.graph),
                half_edges(&b.graph),
                "{what}: node {u} neighbors"
            );
        }
    }

    #[test]
    fn sweep_matches_fresh_bundles_step_by_step() {
        // The incremental path (advance_to + cell relocation + persisted
        // link sets) must be indistinguishable from a fresh rebuild at
        // every step — including irregular and large time jumps, which
        // cross many cell boundaries.
        let c = ctx();
        let modes = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
        let times = [0.0, 90.0, 900.0, 947.3, 30_000.0, 29_000.0];
        let mut sweep = TimeSweep::new(&c, &modes);
        for &t in &times {
            let inc = sweep.step(t);
            let fresh = c.snapshot_bundle(t, &modes);
            assert_eq!(inc.len(), fresh.len());
            for (i, (a, b)) in inc.iter().zip(&fresh).enumerate() {
                assert_snapshots_identical(a, b, &format!("t={t} mode #{i}"));
            }
        }
    }

    #[test]
    fn sweep_times_and_grid_sweep_agree() {
        let c = ctx();
        let modes = [Mode::Hybrid];
        let times = [100.0, 550.0, 1000.0];
        let mut from_times: Vec<usize> = Vec::new();
        let mut edges_times: Vec<usize> = Vec::new();
        c.sweep_times(&times, &modes, |i, snaps| {
            from_times.push(i);
            edges_times.push(snaps[0].graph.num_edges());
        });
        let mut from_grid: Vec<usize> = Vec::new();
        let mut edges_grid: Vec<usize> = Vec::new();
        c.sweep(100.0, 450.0, 3, &modes, |i, snaps| {
            from_grid.push(i);
            edges_grid.push(snaps[0].graph.num_edges());
        });
        assert_eq!(from_times, vec![0, 1, 2]);
        assert_eq!(from_times, from_grid);
        assert_eq!(edges_times, edges_grid);
    }

    #[test]
    fn sweep_deltas_replay_reconstructs_edge_sets() {
        // Core delta contract: per mode, the old edge ids partition into
        // `removed` ∪ {o | (o, n) ∈ reweighted}, the new edge ids into
        // `added` ∪ {n | (o, n) ∈ reweighted}, and every reweighted pair
        // refers to the *same physical link* — identical endpoint node
        // ids in old and new graph (stable because aircraft, the only
        // nodes whose ids shift, are always wholesale removed+added).
        let c = ctx();
        let modes = [Mode::BpOnly, Mode::Hybrid, Mode::IslOnly];
        let times = [0.0, 15.0, 90.0, 947.3, 1000.0, 30_000.0];
        let mut sweep = TimeSweep::new(&c, &modes);
        let mut prev: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); modes.len()];
        for (step, &t) in times.iter().enumerate() {
            let (snaps, deltas) = sweep.step_with_deltas(t);
            assert_eq!(deltas.len(), modes.len());
            for (mi, (snap, d)) in snaps.iter().zip(deltas).enumerate() {
                let fresh = c.snapshot(t, modes[mi]);
                assert_snapshots_identical(snap, &fresh, &format!("t={t} mode #{mi}"));
                assert_eq!(d.num_nodes, snap.nodes.len(), "t={t} mode #{mi} nodes");
                assert_eq!(d.full, step == 0, "t={t} mode #{mi} full flag");
                let ne = snap.graph.num_edges();
                if !d.full {
                    let no = prev[mi].len();
                    let mut old_seen = vec![false; no];
                    let mut new_seen = vec![false; ne];
                    for &o in &d.removed {
                        assert!(!old_seen[o as usize], "old id {o} twice");
                        old_seen[o as usize] = true;
                    }
                    for &n in &d.added {
                        assert!(!new_seen[n as usize], "new id {n} twice");
                        new_seen[n as usize] = true;
                    }
                    for &(o, n) in &d.reweighted {
                        assert!(!old_seen[o as usize], "old id {o} twice");
                        assert!(!new_seen[n as usize], "new id {n} twice");
                        old_seen[o as usize] = true;
                        new_seen[n as usize] = true;
                        let (u2, v2, _) = snap.graph.edge(n);
                        assert_eq!(
                            prev[mi][o as usize],
                            (u2, v2),
                            "t={t} mode #{mi}: pair ({o}, {n}) endpoints moved"
                        );
                    }
                    assert!(old_seen.iter().all(|&s| s), "old edge unaccounted");
                    assert!(new_seen.iter().all(|&s| s), "new edge unaccounted");
                    // Small steps must be dominated by reweights — the
                    // whole point of the delta path. Modes with aircraft
                    // churn those links wholesale (the aircraft move, so
                    // node ids shift), so only IslOnly pins dominance.
                    if t - times[step - 1] < 100.0 {
                        assert!(!d.reweighted.is_empty(), "t={t} mode #{mi}: no reweights");
                        if modes[mi] == Mode::IslOnly {
                            assert!(
                                d.reweighted.len() > d.added.len() + d.removed.len(),
                                "t={t} mode #{mi}: delta not incremental \
                                 ({} reweighted vs {} added + {} removed)",
                                d.reweighted.len(),
                                d.added.len(),
                                d.removed.len()
                            );
                        }
                    }
                }
                prev[mi].clear();
                prev[mi].extend((0..ne as EdgeId).map(|e| {
                    let (u, v, _) = snap.graph.edge(e);
                    (u, v)
                }));
            }
        }
    }

    #[test]
    fn sweep_fold_deltas_is_thread_count_invariant() {
        // Chunk boundaries reset delta tracking (each chunk's first step
        // is a `full` delta), but folding with a full-rebuild-aware step
        // function must still be chunking-invariant.
        let c = ctx();
        let modes = [Mode::Hybrid];
        let times: Vec<f64> = (0..7).map(|i| i as f64 * 137.0).collect();
        let fold = |threads: usize| -> (u64, usize) {
            c.sweep_fold_deltas(
                &times,
                &modes,
                threads,
                || (0u64, 0usize),
                |acc, i, snaps, deltas| {
                    assert_eq!(deltas.len(), 1);
                    acc.0 ^= (snaps[0].graph.num_edges() as u64).wrapping_mul(0x9e37 + i as u64);
                    acc.1 += 1;
                },
                |a, b| {
                    a.0 ^= b.0;
                    a.1 += b.1;
                },
            )
        };
        let one = fold(1);
        assert_eq!(one.1, times.len(), "every snapshot folded exactly once");
        assert_eq!(one, fold(3));
        assert_eq!(one, fold(7));
        assert_eq!(one, fold(0));
    }

    #[test]
    fn sweep_map_is_thread_count_invariant() {
        // Chunked parallel sweeps must produce the same results for any
        // thread count — each chunk's first step is a full rebuild and
        // sweep steps are bit-identical to fresh builds, so where the
        // chunk boundaries fall cannot matter.
        let c = ctx();
        let modes = [Mode::Hybrid, Mode::BpOnly];
        let times: Vec<f64> = (0..7).map(|i| i as f64 * 137.0).collect();
        let digest = |threads: usize| -> Vec<(usize, u64)> {
            c.sweep_map(&times, &modes, threads, |i, snaps| {
                let mut h = 0u64;
                for snap in snaps {
                    for e in 0..snap.graph.num_edges() as EdgeId {
                        let (u, v, w) = snap.graph.edge(e);
                        h = h
                            .wrapping_mul(1_099_511_628_211)
                            .wrapping_add(u as u64 ^ ((v as u64) << 20) ^ w.to_bits());
                    }
                }
                (i, h)
            })
        };
        let one = digest(1);
        assert_eq!(one.len(), times.len());
        assert_eq!(one, digest(3));
        assert_eq!(one, digest(7));
        assert_eq!(one, digest(0));
    }

    #[test]
    fn sweep_fold_is_thread_count_invariant_and_covers_all_snapshots() {
        let c = ctx();
        let modes = [Mode::Hybrid];
        let times: Vec<f64> = (0..7).map(|i| i as f64 * 137.0).collect();
        // Fold an (xor-hash, count) accumulator — xor is associative and
        // commutative, so any chunking must agree.
        let fold = |threads: usize| -> (u64, usize) {
            c.sweep_fold(
                &times,
                &modes,
                threads,
                || (0u64, 0usize),
                |acc, i, snaps| {
                    acc.0 ^= (snaps[0].graph.num_edges() as u64).wrapping_mul(0x9e37 + i as u64);
                    acc.1 += 1;
                },
                |a, b| {
                    a.0 ^= b.0;
                    a.1 += b.1;
                },
            )
        };
        let one = fold(1);
        assert_eq!(one.1, times.len(), "every snapshot folded exactly once");
        assert_eq!(one, fold(3));
        assert_eq!(one, fold(7));
        assert_eq!(one, fold(0));
        // Empty sweep returns the fresh accumulator.
        assert_eq!(
            c.sweep_fold(&[], &modes, 2, || 42u32, |_, _, _| {}, |_, _| {}),
            42
        );
    }
}
