//! In-memory span recorder for `trace`, and the self-time accounting
//! that turns spans into per-layer numbers.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public functions (never inside the program), kept in memory, and only
//! evaluated after the run.
//!
//! **Self time.** A span's self time is its duration minus the part of it
//! that its children on the same thread cover. Work a fan-out hands to
//! worker threads is accounted in wall-equivalent seconds: a worker
//! span's self time is divided by the fan-out's width (its worker count),
//! and the fan-out span itself (layer `core.par`) keeps only the wall
//! time its workers left idle. So the self times of one repetition sum
//! exactly to that repetition's traced wall time, and each layer's share
//! says how much of `wall_s` it can move.

use leo_util::telemetry::{now_ns, thread_id};

/// A layer of the pipeline, named after its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `leo_core::snapshot`: orbit propagation, cell grid, visibility,
    /// graph assembly (`TimeSweep` steps, `StudyContext::snapshot`).
    Snapshot,
    /// `leo_graph::shortest`: Dijkstra (`snapshot_rtts_on`, `run_multi`,
    /// `extract_path`).
    Shortest,
    /// `leo_core::experiments::spt`: pooled incremental trees
    /// (`snapshot_rtts_spt`).
    Spt,
    /// `leo_graph::disjoint`: k edge-disjoint paths.
    Disjoint,
    /// `leo_flow::maxmin`: the max-min-fair solve
    /// (`throughput_from_path_edges`).
    MaxMin,
    /// `leo_graph::components` (`disconnected_fraction_of`).
    Components,
    /// `leo_atmo::model`: attenuation. It has no public entry point in
    /// the weather driver, so this is the weather step's time not spent
    /// in a measured layer ("derived").
    Atmo,
    /// `leo_core::experiments`: the driver's own fold, merge and glue.
    Experiments,
    /// `leo_core::par`: a fan-out over worker threads; its self time is
    /// worker capacity left idle.
    Par,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::Snapshot,
        Layer::Shortest,
        Layer::Spt,
        Layer::Disjoint,
        Layer::MaxMin,
        Layer::Components,
        Layer::Atmo,
        Layer::Experiments,
        Layer::Par,
    ];
}

/// Marks a span with no parent, or one outside any snapshot.
pub const NONE: u32 = u32::MAX;

/// One timed call. The id of the work it belongs to is
/// (workload, `rep`, `snapshot`); the workload is the process's.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    /// Index of the parent span in the same [`Trace`], or [`NONE`].
    pub parent: u32,
    pub thread: u32,
    pub rep: u32,
    /// Index into the workload's snapshot times, or [`NONE`].
    pub snapshot: u32,
    /// Worker count of a `core.par` fan-out; 1 for every other span.
    pub width: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Work counts the replays take where the work happens (the program's
/// own counters come from the run manifest instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Snapshot graphs seen, and their node and edge totals.
    Graphs,
    Nodes,
    Edges,
    /// Incremental (non-`full`) per-mode sweep deltas, and their total
    /// added + removed + reweighted edges.
    DeltaSteps,
    DeltaEdges,
    /// Paths asked of `graph.disjoint` (pairs × k) and paths it found.
    PathsWanted,
    PathsFound,
}

const N_COUNTS: usize = 7;

/// Spans and counts of one repetition (or one sweep chunk of it).
#[derive(Debug, Clone)]
pub struct Trace {
    pub rep: u32,
    pub spans: Vec<Span>,
    counts: [u64; N_COUNTS],
}

impl Trace {
    pub fn new(rep: u32) -> Trace {
        Trace {
            rep,
            spans: Vec::new(),
            counts: [0; N_COUNTS],
        }
    }

    pub fn count(&self, c: Count) -> u64 {
        self.counts[c as usize]
    }

    pub fn add_count(&mut self, c: Count, n: u64) {
        self.counts[c as usize] += n;
    }

    /// Record an already-timed span; returns its index.
    pub fn push_span(&mut self, layer: Layer, parent: u32, snapshot: u32, start_ns: u64) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            layer,
            parent,
            thread: thread_id() as u32,
            rep: self.rep,
            snapshot,
            width: 1,
            start_ns,
            end_ns: now_ns(),
        });
        idx
    }

    /// Start a span now; finish it with [`Trace::close`].
    pub fn open(&mut self, layer: Layer, parent: u32, snapshot: u32) -> u32 {
        let idx = self.push_span(layer, parent, snapshot, 0);
        let s = &mut self.spans[idx as usize];
        s.start_ns = s.end_ns;
        idx
    }

    /// Start a `core.par` fan-out span over `width` workers.
    pub fn open_fanout(&mut self, parent: u32, width: usize) -> u32 {
        let idx = self.open(Layer::Par, parent, NONE);
        self.spans[idx as usize].width = width.max(1) as u32;
        idx
    }

    pub fn close(&mut self, idx: u32) {
        self.spans[idx as usize].end_ns = now_ns();
    }

    /// Time `f` as a `layer` span under `parent`.
    pub fn timed<R>(
        &mut self,
        layer: Layer,
        parent: u32,
        snapshot: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = now_ns();
        let r = f();
        self.push_span(layer, parent, snapshot, start);
        r
    }

    /// Add a span timed with [`timed_detached`] under `parent`.
    pub fn adopt(&mut self, mut span: Span, parent: u32) {
        span.parent = parent;
        self.spans.push(span);
    }

    /// Append `other`'s spans and counts. Its root spans are re-parented
    /// under `root_parent` (a fan-out span of `self`, or [`NONE`] when two
    /// chunks of one fan-out merge).
    pub fn absorb(&mut self, other: Trace, root_parent: u32) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NONE {
                root_parent
            } else {
                s.parent + offset
            };
            s
        }));
        for (a, b) in self.counts.iter_mut().zip(other.counts) {
            *a += b;
        }
    }
}

/// Time `f` on this thread as a parentless `layer` span, for work inside
/// a `parallel_map` closure, which cannot borrow a [`Trace`]; the caller
/// hands the span to [`Trace::adopt`].
pub fn timed_detached<R>(layer: Layer, rep: u32, f: impl FnOnce() -> R) -> (R, Span) {
    let start_ns = now_ns();
    let r = f();
    let span = Span {
        layer,
        parent: NONE,
        thread: thread_id() as u32,
        rep,
        snapshot: NONE,
        width: 1,
        start_ns,
        end_ns: now_ns(),
    };
    (r, span)
}

/// Tracer for one chunk of a `sweep_fold` replay. The sweep's
/// `TimeSweep` step runs between two calls of the fold's step closure,
/// so the gap between them is recorded as a `core.snapshot` span; the
/// first gap starts when the chunk's accumulator is made.
pub struct ChunkTrace {
    pub trace: Trace,
    last_ns: u64,
}

impl ChunkTrace {
    pub fn new(rep: u32) -> ChunkTrace {
        ChunkTrace {
            trace: Trace::new(rep),
            last_ns: now_ns(),
        }
    }

    /// Call first in the step closure: records the sweep step that just
    /// ran and opens a span for the closure's own work (`layer`, normally
    /// `core.experiments`), whose index parents the layer calls made in
    /// it.
    pub fn enter_step(&mut self, snapshot: u32, layer: Layer) -> u32 {
        let start = self.last_ns;
        self.trace.push_span(Layer::Snapshot, NONE, snapshot, start);
        self.trace.open(layer, NONE, snapshot)
    }

    /// Call last in the step closure.
    pub fn exit_step(&mut self, idx: u32) {
        self.trace.close(idx);
        self.last_ns = self.trace.spans[idx as usize].end_ns;
    }

    /// Fold a later chunk in (for the sweep's merge closure).
    pub fn absorb(&mut self, other: ChunkTrace) {
        self.trace.absorb(other.trace, NONE);
    }
}

/// Per-span self times of a finished trace.
pub struct SelfTimes {
    /// Same-thread self time of each span, ns.
    pub thread_ns: Vec<f64>,
    /// Wall-equivalent self time of each span, ns (see the module docs).
    pub wall_ns: Vec<f64>,
    /// Σ worker self time and Σ capacity (width × wall) over fan-outs,
    /// ns, and the mean over fan-outs of max-over-mean worker busy time.
    pub fanout_busy_ns: f64,
    pub fanout_capacity_ns: f64,
    pub chunk_imbalance: f64,
}

/// Length of the union of `intervals` (start, end).
fn covered_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Compute self times for every span of `spans` (parents precede their
/// children's use but may come later in the vector).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let n = spans.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, s) in spans.iter().enumerate() {
        if s.parent != NONE {
            children[s.parent as usize].push(i);
        }
    }
    let thread_ns: Vec<f64> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let same_thread = children[i]
                .iter()
                .map(|&c| &spans[c])
                .filter(|c| c.thread == s.thread)
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            (s.dur_ns() - covered_ns(same_thread)) as f64
        })
        .collect();

    // The fan-out a span's work was handed to: its nearest `core.par`
    // ancestor on another thread.
    let fanout_of = |mut i: usize| -> Option<usize> {
        let thread = spans[i].thread;
        while spans[i].parent != NONE {
            i = spans[i].parent as usize;
            if spans[i].layer == Layer::Par && spans[i].thread != thread {
                return Some(i);
            }
        }
        None
    };
    let mut wall_ns = thread_ns.clone();
    let mut worker_busy: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        if let Some(f) = fanout_of(i) {
            wall_ns[i] = thread_ns[i] / f64::from(spans[f].width);
            wall_ns[f] -= wall_ns[i];
            let busy = &mut worker_busy[f];
            match busy.iter_mut().find(|(t, _)| *t == spans[i].thread) {
                Some((_, b)) => *b += thread_ns[i],
                None => busy.push((spans[i].thread, thread_ns[i])),
            }
        }
    }
    let (mut busy_ns, mut capacity_ns, mut imbalance, mut fanouts) = (0.0, 0.0, 0.0, 0);
    for (f, s) in spans.iter().enumerate() {
        if s.layer != Layer::Par {
            continue;
        }
        let width = f64::from(s.width);
        let busy: f64 = worker_busy[f].iter().map(|&(_, b)| b).sum();
        busy_ns += busy;
        capacity_ns += width * thread_ns[f];
        if busy > 0.0 {
            let max = worker_busy[f].iter().map(|&(_, b)| b).fold(0.0, f64::max);
            imbalance += max / (busy / width);
            fanouts += 1;
        }
    }
    SelfTimes {
        thread_ns,
        wall_ns,
        fanout_busy_ns: busy_ns,
        fanout_capacity_ns: capacity_ns,
        chunk_imbalance: if fanouts > 0 {
            imbalance / f64::from(fanouts)
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, thread: u32, start: u64, end: u64) -> Span {
        Span {
            layer,
            parent,
            thread,
            rep: 0,
            snapshot: NONE,
            width: if layer == Layer::Par { 2 } else { 1 },
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn union_of_overlapping_intervals() {
        assert_eq!(covered_ns(vec![(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(covered_ns(Vec::new()), 0);
    }

    #[test]
    fn wall_self_times_sum_to_the_root_duration() {
        // Driver 0..100 on thread 0; fan-out 10..90 over two workers;
        // worker 1 busy 10..90 (snapshot 10..50 + a shortest call
        // 50..80 inside a 50..90 step), worker 2 busy 10..50.
        let spans = vec![
            span(Layer::Experiments, NONE, 0, 0, 100),
            span(Layer::Par, 0, 0, 10, 90),
            span(Layer::Snapshot, 1, 1, 10, 50),
            span(Layer::Experiments, 1, 1, 50, 90),
            span(Layer::Shortest, 3, 1, 50, 80),
            span(Layer::Snapshot, 1, 2, 10, 50),
        ];
        let st = self_times(&spans);
        assert_eq!(st.thread_ns, vec![20.0, 80.0, 40.0, 10.0, 30.0, 40.0]);
        let total: f64 = st.wall_ns.iter().sum();
        assert_eq!(total, 100.0);
        // Worker capacity 2 × 80 = 160, busy 120: idle wall 20.
        assert_eq!(st.wall_ns[1], 20.0);
        assert_eq!(st.fanout_busy_ns, 120.0);
        assert_eq!(st.fanout_capacity_ns, 160.0);
        // Busy 80 vs 40: max / mean = 80 / 60.
        assert!((st.chunk_imbalance - 80.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_reparents_roots_and_shifts_children() {
        let mut main = Trace::new(0);
        let d = main.open(Layer::Experiments, NONE, NONE);
        let f = main.open_fanout(d, 2);
        let mut chunk = ChunkTrace::new(0);
        let step = chunk.enter_step(0, Layer::Experiments);
        chunk.trace.timed(Layer::Shortest, step, 0, || ());
        chunk.exit_step(step);
        chunk.trace.add_count(Count::Graphs, 2);
        main.close(f);
        main.absorb(chunk.trace, f);
        main.close(d);
        let parents: Vec<u32> = main.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![NONE, 0, 1, 1, 3]);
        assert_eq!(main.count(Count::Graphs), 2);
    }
}
