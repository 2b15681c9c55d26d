//! Routing-workspace benchmarks: the evidence for the zero-alloc
//! `DijkstraWorkspace` + `snapshot_bundle` refactor.
//!
//! Three before/after pairs, each isolating one layer of the change:
//!
//! * `sssp_fresh_alloc` vs `sssp_workspace` — one single-source run with
//!   per-call allocation vs warm generation-stamped buffers.
//! * `snapshot_two_calls` vs `snapshot_bundle_2modes` — materializing
//!   BpOnly + Hybrid with two independent orbit/visibility passes vs one
//!   shared pass.
//! * `inner_loop_seed` vs `inner_loop_workspace` — the fig2 per-snapshot
//!   inner loop end to end (snapshots + per-source SSSP + per-pair RTT
//!   reads), seed-style vs workspace-style. **This pair is the headline
//!   number**: `scripts/ci.sh` checks seed/workspace median ≥ its
//!   threshold, and `BENCH_routing.json` records the trajectory.
//! * `inner_loop_sweep` — the same inner loop on a warm [`TimeSweep`]
//!   stepped 15 s per iteration, i.e. what `sweep_map`-based drivers now
//!   run per instant after the first. Here and in `inner_loop_workspace`
//!   the BP and hybrid graphs of each bundle or step share one two-hop
//!   index, which the first search builds.
//! * `k_disjoint_pairs` — fig4's routing step at bench scale: k = 4
//!   edge-disjoint paths for every pair on one cold Hybrid snapshot, on
//!   a warm workspace. Every search here has one target, so this is
//!   where the goal-directed bound shows most directly. The snapshot's
//!   landmark table is built by the first iteration and kept.
//! * `landmark_table_build` — the table itself: the `LANDMARKS + 1` full
//!   searches of one landmark table on the same bench Hybrid snapshot,
//!   what a graph's first goal-directed `run_multi` pays, with a row for
//!   each satellite and city. Its searches cross the relays and aircraft
//!   through the snapshot's two-hop index, which its first iteration
//!   builds.
//! * `two_hop_index_build` — that index itself on the same snapshot: the
//!   relay pairs kept for every satellite and city, what the first
//!   unmasked `run_multi` on the BP or hybrid graph of an instant pays,
//!   once for both.
//! * `many_targets_sources` — the other side of the goal-direction cap:
//!   one early-exit search per source of a 15,500-pair bench-scale set
//!   (~62 destinations per source, a quarter of `ext_million_pairs`'
//!   fan-out) on one Hybrid snapshot. These searches run as plain
//!   Dijkstra, so this arm does not move with the bound, but it does
//!   with the two-hop index: they settle satellites and cities only.
//! * `maxflow_fresh` vs `maxflow_workspace` — one Dinic run with
//!   per-call scratch vs a warm [`MaxFlowWorkspace`] (both pay the same
//!   residual-network clone).
//! * `maxmin_fresh` vs `maxmin_workspace` — one fig4-style max-min-fair
//!   solve with per-call buffers vs a warm [`FlowWorkspace`].
//!
//! `cargo bench -p leo-bench --bench routing` writes `BENCH_routing.json`
//! (JSON lines) into `LEO_BENCH_DIR` or the cwd.

use std::collections::HashMap;

use leo_bench::{finish_run, init_run};
use leo_core::{ExperimentScale, Mode, StudyContext, TimeSweep};
use leo_flow::{FlowSim, FlowWorkspace};
use leo_graph::{
    dijkstra, k_edge_disjoint_paths, k_edge_disjoint_paths_with, max_flow, max_flow_with,
    DijkstraWorkspace, FlowNetwork, MaxFlowWorkspace,
};
use leo_util::bench::Harness;

/// Seed-style grouping of pair indices by source city (what
/// `latency.rs` rebuilt per snapshot before the refactor).
fn group_by_src(ctx: &StudyContext) -> HashMap<u32, Vec<usize>> {
    let mut by_src: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, pair) in ctx.pairs.iter().enumerate() {
        by_src.entry(pair.src).or_default().push(i);
    }
    by_src
}

fn bench_sssp(h: &mut Harness, ctx: &StudyContext) {
    let snap = ctx.snapshot(0.0, Mode::Hybrid);
    let src = snap.city_node(0);
    h.bench("sssp_fresh_alloc", || dijkstra(&snap.graph, src));
    let mut ws = DijkstraWorkspace::new();
    h.bench("sssp_workspace", move || {
        let view = ws.run(&snap.graph, src, None, None);
        view.dist(snap.city_node(1))
    });
}

fn bench_snapshot(h: &mut Harness, ctx: &StudyContext) {
    h.bench("snapshot_two_calls", || {
        let bp = ctx.snapshot(900.0, Mode::BpOnly);
        let hy = ctx.snapshot(900.0, Mode::Hybrid);
        bp.graph.num_edges() + hy.graph.num_edges()
    });
    h.bench("snapshot_bundle_2modes", || {
        let snaps = ctx.snapshot_bundle(900.0, &[Mode::BpOnly, Mode::Hybrid]);
        snaps.iter().map(|s| s.graph.num_edges()).sum::<usize>()
    });
}

fn bench_inner_loop(h: &mut Harness, ctx: &StudyContext) {
    // Seed path: two independent snapshot builds, a per-snapshot HashMap
    // grouping, and a freshly-allocated Dijkstra per source city.
    h.bench("inner_loop_seed", || {
        let mut acc = 0.0f64;
        for mode in [Mode::BpOnly, Mode::Hybrid] {
            let snap = ctx.snapshot(1800.0, mode);
            let by_src = group_by_src(ctx);
            for (src, idxs) in &by_src {
                let sp = dijkstra(&snap.graph, snap.city_node(*src as usize));
                for &i in idxs {
                    let d = sp.dist[snap.city_node(ctx.pairs[i].dst as usize) as usize];
                    if d.is_finite() {
                        acc += d;
                    }
                }
            }
        }
        acc
    });
    // Workspace path: one shared orbit/visibility pass for both modes,
    // the precomputed pair grouping, warm SSSP buffers, and multi-target
    // early exit (matches `snapshot_rtts_on`).
    let mut ws = DijkstraWorkspace::new();
    let mut targets = Vec::new();
    h.bench("inner_loop_workspace", move || {
        let mut acc = 0.0f64;
        for snap in ctx.snapshot_bundle(1800.0, &[Mode::BpOnly, Mode::Hybrid]) {
            for (src, idxs) in ctx.pairs_by_src() {
                targets.clear();
                targets.extend(
                    idxs.iter()
                        .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
                );
                let view = ws.run_multi(&snap.graph, snap.city_node(*src as usize), None, &targets);
                for &i in idxs {
                    let d = view.dist(snap.city_node(ctx.pairs[i].dst as usize));
                    if d.is_finite() {
                        acc += d;
                    }
                }
            }
        }
        acc
    });
    // Sweep path: one warm TimeSweep stepped forward 15 s per iteration,
    // so the snapshot build reuses SoA satellite state, cell residency,
    // and every visibility edge whose satellite stayed in the GT's cell
    // window — the steady-state cost of `sweep_map`-based drivers.
    let mut sweep = TimeSweep::new(ctx, &[Mode::BpOnly, Mode::Hybrid]);
    let mut ws = DijkstraWorkspace::new();
    let mut targets = Vec::new();
    let mut t = 1800.0;
    h.bench("inner_loop_sweep", move || {
        let mut acc = 0.0f64;
        for snap in sweep.step(t) {
            for (src, idxs) in ctx.pairs_by_src() {
                targets.clear();
                targets.extend(
                    idxs.iter()
                        .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
                );
                let view = ws.run_multi(&snap.graph, snap.city_node(*src as usize), None, &targets);
                for &i in idxs {
                    let d = view.dist(snap.city_node(ctx.pairs[i].dst as usize));
                    if d.is_finite() {
                        acc += d;
                    }
                }
            }
        }
        t += 15.0;
        acc
    });
}

fn bench_k_disjoint(h: &mut Harness) {
    let ctx = StudyContext::build(ExperimentScale::Bench.config());
    let snap = ctx.snapshot(0.0, Mode::Hybrid);
    let mut ws = DijkstraWorkspace::new();
    let mut g = snap.graph.clone();
    let first = g.transit().start;
    h.bench("two_hop_index_build", move || {
        // A fresh marking drops the index; the next query builds it.
        g.set_transit(first);
        g.two_hop_pairs()
    });
    h.bench("landmark_table_build", || {
        ws.landmark_table(&snap.graph).len()
    });
    h.bench("k_disjoint_pairs", move || {
        let mut paths = 0usize;
        for pair in &ctx.pairs {
            let s = snap.city_node(pair.src as usize);
            let d = snap.city_node(pair.dst as usize);
            paths += k_edge_disjoint_paths_with(&snap.graph, s, d, 4, None, &mut ws).len();
        }
        paths
    });
}

fn bench_many_targets(h: &mut Harness) {
    let mut cfg = ExperimentScale::Bench.config();
    cfg.num_pairs = 15_500;
    let ctx = StudyContext::build(cfg);
    let snap = ctx.snapshot(0.0, Mode::Hybrid);
    let mut ws = DijkstraWorkspace::new();
    let mut targets = Vec::new();
    h.bench("many_targets_sources", move || {
        let mut acc = 0.0f64;
        for (src, idxs) in ctx.pairs_by_src() {
            targets.clear();
            targets.extend(
                idxs.iter()
                    .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
            );
            let view = ws.run_multi(&snap.graph, snap.city_node(*src as usize), None, &targets);
            acc += targets
                .iter()
                .map(|&t| view.dist(t))
                .filter(|d| d.is_finite())
                .sum::<f64>();
        }
        acc
    });
}

fn bench_maxflow(h: &mut Harness, ctx: &StudyContext) {
    // Dinic consumes residual capacities, so both sides pay one network
    // clone per call; the pair isolates the per-call scratch allocation.
    let snap = ctx.snapshot(900.0, Mode::Hybrid);
    let mut base = FlowNetwork::new(snap.graph.num_nodes());
    for e in 0..snap.graph.num_edges() as u32 {
        let (u, v, _) = snap.graph.edge(e);
        base.add_undirected(u, v, 1.0);
    }
    let (s, t) = (snap.city_node(0), snap.city_node(1));
    h.bench("maxflow_fresh", || max_flow(&mut base.clone(), s, t));
    let mut ws = MaxFlowWorkspace::new();
    h.bench("maxflow_workspace", move || {
        max_flow_with(&mut base.clone(), s, t, &mut ws)
    });
}

fn bench_maxmin(h: &mut Harness, ctx: &StudyContext) {
    // The fig4 flow structure: one link per snapshot edge, k=2 disjoint
    // sub-flows per pair, solved to a max-min-fair allocation.
    let snap = ctx.snapshot(900.0, Mode::Hybrid);
    let mut sim = FlowSim::new();
    for e in 0..snap.graph.num_edges() as u32 {
        sim.add_link(snap.edge_capacity_gbps(&ctx.config.network, e));
    }
    for pair in &ctx.pairs {
        let s = snap.city_node(pair.src as usize);
        let d = snap.city_node(pair.dst as usize);
        for p in k_edge_disjoint_paths(&snap.graph, s, d, 2, None) {
            sim.add_flow(p.edges);
        }
    }
    h.bench("maxmin_fresh", || sim.solve().aggregate);
    let mut ws = FlowWorkspace::new();
    h.bench("maxmin_workspace", move || {
        sim.solve_with(&mut ws).aggregate
    });
}

fn main() {
    init_run("routing");
    let ctx = StudyContext::build(ExperimentScale::Tiny.config());
    let mut h = Harness::new("routing");
    bench_sssp(&mut h, &ctx);
    bench_snapshot(&mut h, &ctx);
    bench_inner_loop(&mut h, &ctx);
    bench_k_disjoint(&mut h);
    bench_many_targets(&mut h);
    bench_maxflow(&mut h, &ctx);
    bench_maxmin(&mut h, &ctx);
    h.finish().expect("write BENCH_routing.json");
    finish_run("routing", &ExperimentScale::Tiny.config());
}
