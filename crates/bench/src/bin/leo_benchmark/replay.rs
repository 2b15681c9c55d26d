//! Traced replays: each workload's driver re-run through the same public
//! calls it makes, with a span around every call into a layer.
//!
//! A replay must return exactly what the real driver returns (the
//! output digests are compared on every traced repetition), so each one
//! mirrors its driver's fold step for step. The drivers' telemetry
//! series are kept too, so a traced run does the same work as an
//! untraced one under `LEO_LOG=info`; heartbeats, which only report
//! progress, are left out.

use crate::trace::{timed_detached, ChunkTrace, Count, Layer, Trace, NONE};
use crate::workloads::{Output, Workload, LATENCY_MODES, THROUGHPUT_COMBOS};
use leo_atmo::{AttenuationModel, Climatology, SlantPath, WeatherProcess};
use leo_core::experiments::latency::{snapshot_rtts_on, snapshot_rtts_spt, PairStats};
use leo_core::experiments::spt::SourceSptPool;
use leo_core::experiments::throughput::{
    disconnected_fraction_of, throughput_from_path_edges, ThroughputResult,
};
use leo_core::experiments::weather::WeatherStudy;
use leo_core::metrics::TailQuantile;
use leo_core::par::parallel_map;
use leo_core::{EdgeDelta, EdgeKind, Mode, NetworkSnapshot, StudyContext};
use leo_flow::FlowWorkspace;
use leo_graph::{k_edge_disjoint_paths_with, with_thread_workspace, Path};
use leo_util::telemetry::{now_ns, MetricSeries};

/// Replay `w`'s driver on `ctxs` as traced repetition `rep`. The whole
/// call is one `core.experiments` root span.
pub fn replay(w: Workload, ctxs: &[StudyContext], seed: u64, rep: u32) -> (Output, Trace) {
    let mut t = Trace::new(rep);
    let root = t.open(Layer::Experiments, NONE, NONE);
    let out = match w {
        Workload::LatencyDay | Workload::LatencyBurst => {
            Output::Latency(latency(&ctxs[0], &mut t, root))
        }
        Workload::ThroughputSnapshot => Output::Throughput(
            ctxs.iter()
                .flat_map(|ctx| THROUGHPUT_COMBOS.iter().map(move |&c| (ctx, c)))
                .map(|(ctx, (mode, k))| throughput(ctx, mode, k, &mut t, root))
                .collect(),
        ),
        Workload::WeatherDay => Output::Weather(weather(&ctxs[0], seed, &mut t, root)),
        Workload::CoverageDay => Output::Coverage(coverage(&ctxs[0], &mut t, root)),
    };
    t.close(root);
    (out, t)
}

/// Worker count of a fan-out over `items` (the rule `parallel_map` and
/// `sweep_fold` apply with `threads = 0`).
fn workers(items: usize) -> usize {
    std::thread::available_parallelism()
        .map_or(4, |p| p.get())
        .min(items)
}

fn count_graph(t: &mut Trace, snap: &NetworkSnapshot) {
    t.add_count(Count::Graphs, 1);
    t.add_count(Count::Nodes, snap.graph.num_nodes() as u64);
    t.add_count(Count::Edges, snap.graph.num_edges() as u64);
}

fn count_delta(t: &mut Trace, delta: &EdgeDelta) {
    if !delta.full {
        t.add_count(Count::DeltaSteps, 1);
        let edges = delta.added.len() + delta.removed.len() + delta.reweighted.len();
        t.add_count(Count::DeltaEdges, edges as u64);
    }
}

/// `latency_studies(ctx, LATENCY_MODES, 0)`.
fn latency(ctx: &StudyContext, t: &mut Trace, root: u32) -> Vec<Vec<PairStats>> {
    let times = &ctx.config.snapshot_times_s;
    let num_pairs = ctx.pairs.len();
    let pooled = SourceSptPool::fits(ctx, LATENCY_MODES.len());
    let rep = t.rep;

    struct ModeAgg {
        min: Vec<f64>,
        max: Vec<f64>,
        reachable: Vec<u32>,
        series: MetricSeries,
        spt: Option<SourceSptPool>,
    }
    struct Acc {
        total: usize,
        modes: Vec<ModeAgg>,
        chunk: ChunkTrace,
    }

    let fan = t.open_fanout(root, workers(times.len()));
    let acc = ctx.sweep_fold_deltas(
        times,
        &LATENCY_MODES,
        0,
        || Acc {
            total: 0,
            modes: LATENCY_MODES
                .iter()
                .map(|&m| ModeAgg {
                    min: vec![f64::INFINITY; num_pairs],
                    max: vec![f64::NEG_INFINITY; num_pairs],
                    reachable: vec![0; num_pairs],
                    series: MetricSeries::new(match m {
                        Mode::BpOnly => "rtt_ms_bp",
                        _ => "rtt_ms_hybrid",
                    }),
                    spt: pooled.then(|| SourceSptPool::new(ctx)),
                })
                .collect(),
            chunk: ChunkTrace::new(rep),
        },
        |acc, i, snaps, deltas| {
            let si = i as u32;
            let step = acc.chunk.enter_step(si, Layer::Experiments);
            for (mi, snap) in snaps.iter().enumerate() {
                let tr = &mut acc.chunk.trace;
                count_graph(tr, snap);
                count_delta(tr, &deltas[mi]);
                let agg = &mut acc.modes[mi];
                let rtts = match agg.spt.as_mut() {
                    Some(pool) => tr.timed(Layer::Spt, step, si, || {
                        snapshot_rtts_spt(ctx, snap, &deltas[mi], pool)
                    }),
                    None => tr.timed(Layer::Shortest, step, si, || snapshot_rtts_on(ctx, snap)),
                };
                for (pi, r) in rtts.iter().enumerate() {
                    if let Some(rtt) = *r {
                        agg.min[pi] = agg.min[pi].min(rtt);
                        agg.max[pi] = agg.max[pi].max(rtt);
                        agg.reachable[pi] += 1;
                        agg.series.record(rtt);
                    }
                }
                agg.series.snapshot_done(i, snap.t_s);
            }
            acc.total += 1;
            acc.chunk.exit_step(step);
        },
        |a, b| {
            let start = now_ns();
            a.total += b.total;
            for (am, bm) in a.modes.iter_mut().zip(&b.modes) {
                for pi in 0..num_pairs {
                    am.min[pi] = am.min[pi].min(bm.min[pi]);
                    am.max[pi] = am.max[pi].max(bm.max[pi]);
                    am.reachable[pi] += bm.reachable[pi];
                }
                am.series.merge(&bm.series);
            }
            a.chunk.absorb(b.chunk);
            a.chunk
                .trace
                .push_span(Layer::Experiments, NONE, NONE, start);
        },
    );
    t.close(fan);
    t.absorb(acc.chunk.trace, fan);

    acc.modes
        .iter()
        .map(|agg| {
            ctx.pairs
                .iter()
                .enumerate()
                .map(|(pi, &pair)| {
                    let reachable = agg.reachable[pi] as usize;
                    PairStats {
                        pair,
                        min_rtt_ms: (reachable > 0).then_some(agg.min[pi]),
                        max_rtt_ms: (reachable > 0).then_some(agg.max[pi]),
                        reachable,
                        total: acc.total,
                    }
                })
                .collect()
        })
        .collect()
}

/// `throughput(ctx, t_s, mode, k)` at the configured instant: a cold
/// snapshot, `route_pair_paths` (replayed as its `parallel_map` so each
/// pair's k-disjoint search is a span), and the max-min solve.
fn throughput(
    ctx: &StudyContext,
    mode: Mode,
    k: usize,
    t: &mut Trace,
    root: u32,
) -> ThroughputResult {
    let t_s = ctx.config.snapshot_times_s[0];
    let snap = t.timed(Layer::Snapshot, root, NONE, || ctx.snapshot(t_s, mode));
    count_graph(t, &snap);
    let rep = t.rep;
    let fan = t.open_fanout(root, workers(ctx.pairs.len()));
    let routed: Vec<(Vec<Path>, crate::trace::Span)> = parallel_map(&ctx.pairs, 0, |pair| {
        timed_detached(Layer::Disjoint, rep, || {
            with_thread_workspace(|ws| {
                k_edge_disjoint_paths_with(
                    &snap.graph,
                    snap.city_node(pair.src as usize),
                    snap.city_node(pair.dst as usize),
                    k,
                    None,
                    ws,
                )
            })
        })
    });
    t.close(fan);
    let mut edge_lists = Vec::with_capacity(routed.len());
    for (paths, span) in routed {
        t.adopt(span, fan);
        t.add_count(Count::PathsWanted, k as u64);
        t.add_count(Count::PathsFound, paths.len() as u64);
        edge_lists.push(paths.into_iter().map(|p| p.edges).collect::<Vec<_>>());
    }
    t.timed(Layer::MaxMin, root, NONE, || {
        throughput_from_path_edges(
            ctx,
            &snap,
            &edge_lists,
            ctx.config.network.isl_gbps,
            &mut FlowWorkspace::new(),
        )
    })
}

/// `weather_study(ctx, weather_seed, 0)`. Its step closure's own time
/// is the attenuation model's (`atmo.model`, derived): everything else
/// it does is a timed `run_multi` or `extract_path` call.
fn weather(ctx: &StudyContext, weather_seed: u64, t: &mut Trace, root: u32) -> WeatherStudy {
    let model = AttenuationModel::new(Climatology::synthetic());
    let weather = WeatherProcess::new(weather_seed);
    let up = ctx.config.network.uplink_ghz;
    let down = ctx.config.network.downlink_ghz;
    let times = &ctx.config.snapshot_times_s;
    let num_pairs = ctx.pairs.len();
    let num_times = times.len();
    let rep = t.rep;
    const SERIES_NAMES: [&str; 2] = ["atten_db_bp", "atten_db_isl"];

    struct ModeAgg {
        tails: Vec<TailQuantile>,
        series: MetricSeries,
    }
    struct Acc {
        modes: Vec<ModeAgg>,
        chunk: ChunkTrace,
    }

    let fan = t.open_fanout(root, workers(num_times));
    let acc = ctx.sweep_fold(
        times,
        &[Mode::BpOnly, Mode::IslOnly],
        0,
        || Acc {
            modes: SERIES_NAMES
                .iter()
                .map(|&name| ModeAgg {
                    tails: (0..num_pairs)
                        .map(|_| TailQuantile::new(99.5, num_times))
                        .collect(),
                    series: MetricSeries::new(name),
                })
                .collect(),
            chunk: ChunkTrace::new(rep),
        },
        |acc, ti, snaps| {
            let si = ti as u32;
            let step = acc.chunk.enter_step(si, Layer::Atmo);
            let t_s = times[ti];
            let tr = &mut acc.chunk.trace;
            let mut targets = Vec::new();
            with_thread_workspace(|ws| {
                for (agg, snap) in acc.modes.iter_mut().zip(snaps.iter()) {
                    count_graph(tr, snap);
                    for (src, idxs) in ctx.pairs_by_src() {
                        targets.clear();
                        targets.extend(
                            idxs.iter()
                                .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
                        );
                        let start = now_ns();
                        let view = ws.run_multi(
                            &snap.graph,
                            snap.city_node(*src as usize),
                            None,
                            &targets,
                        );
                        tr.push_span(Layer::Shortest, step, si, start);
                        for &i in idxs {
                            let start = now_ns();
                            let path = view.extract_path(snap.city_node(ctx.pairs[i].dst as usize));
                            tr.push_span(Layer::Shortest, step, si, start);
                            if let Some(path) = path {
                                let db = worst_link_db(snap, &path, &model, weather, t_s, up, down);
                                agg.tails[i].record(db);
                                agg.series.record(db);
                            }
                        }
                    }
                    agg.series.snapshot_done(ti, snap.t_s);
                }
            });
            acc.chunk.exit_step(step);
        },
        |a, b| {
            let start = now_ns();
            for (am, bm) in a.modes.iter_mut().zip(&b.modes) {
                for (at, bt) in am.tails.iter_mut().zip(&bm.tails) {
                    at.merge(bt);
                }
                am.series.merge(&bm.series);
            }
            a.chunk.absorb(b.chunk);
            a.chunk
                .trace
                .push_span(Layer::Experiments, NONE, NONE, start);
        },
    );
    t.close(fan);
    t.absorb(acc.chunk.trace, fan);
    WeatherStudy {
        bp_db: acc.modes[0].tails.iter().map(|t| t.value()).collect(),
        isl_db: acc.modes[1].tails.iter().map(|t| t.value()).collect(),
    }
}

/// The weather driver's worst radio-hop attenuation along `path` under
/// the realized weather at `t_s` (lasers fly above the weather; a hop
/// that leaves its ground node transmits up, else down).
fn worst_link_db(
    snap: &NetworkSnapshot,
    path: &Path,
    model: &AttenuationModel,
    weather: WeatherProcess,
    t_s: f64,
    up_ghz: f64,
    down_ghz: f64,
) -> f64 {
    let mut worst = 0.0f64;
    for (hop, &e) in path.edges.iter().enumerate() {
        let EdgeKind::UpDown {
            ground,
            elevation_rad,
            ..
        } = snap.edges[e as usize]
        else {
            continue;
        };
        let slant = SlantPath {
            site: snap
                .ground_position(ground)
                .expect("up/down edges end at a positioned ground node"),
            elevation_rad,
            frequency_ghz: if path.nodes[hop] == ground {
                up_ghz
            } else {
                down_ghz
            },
        };
        worst = worst.max(weather.attenuation_db(model, &slant, t_s));
    }
    worst
}

/// `disconnected_satellite_fraction(ctx, Mode::BpOnly, 0)`.
fn coverage(ctx: &StudyContext, t: &mut Trace, root: u32) -> Vec<f64> {
    let times = &ctx.config.snapshot_times_s;
    let rep = t.rep;
    struct Acc {
        vals: Vec<f64>,
        series: MetricSeries,
        chunk: ChunkTrace,
    }
    let fan = t.open_fanout(root, workers(times.len()));
    let acc = ctx.sweep_fold(
        times,
        &[Mode::BpOnly],
        0,
        || Acc {
            vals: Vec::new(),
            series: MetricSeries::new("disconnected_fraction"),
            chunk: ChunkTrace::new(rep),
        },
        |acc, ti, snaps| {
            let si = ti as u32;
            let step = acc.chunk.enter_step(si, Layer::Experiments);
            let snap = &snaps[0];
            count_graph(&mut acc.chunk.trace, snap);
            let f = acc.chunk.trace.timed(Layer::Components, step, si, || {
                disconnected_fraction_of(snap)
            });
            acc.vals.push(f);
            acc.series.record(f);
            acc.series.snapshot_done(ti, snap.t_s);
            acc.chunk.exit_step(step);
        },
        |a, b| {
            let start = now_ns();
            a.vals.extend_from_slice(&b.vals);
            a.series.merge(&b.series);
            a.chunk.absorb(b.chunk);
            a.chunk
                .trace
                .push_span(Layer::Experiments, NONE, NONE, start);
        },
    );
    t.close(fan);
    t.absorb(acc.chunk.trace, fan);
    acc.vals
}
