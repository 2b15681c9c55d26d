//! Metric definitions (the names `BENCHMARK.json` lists) and the
//! per-layer numbers `trace` derives from its spans and the program's
//! own counters.

use crate::stats::{median, tail};
use crate::trace::{self_times, Count, Layer, Trace, NONE};
use std::collections::BTreeMap;

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `run` reports it, `compare` judges it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before `compare` calls it a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// Per-layer metrics `trace` reports, as (name, unit, better).
pub const PER_LAYER: [(&str, &str, Better); 40] = [
    ("core.snapshot.self_s", "s", Better::Lower),
    ("core.snapshot.share", "ratio", Better::Lower),
    ("core.snapshot.step_p50_ms", "ms", Better::Lower),
    ("core.snapshot.step_tail_ms", "ms", Better::Lower),
    ("core.snapshot.nodes_mean", "count", Better::Lower),
    ("core.snapshot.edges_mean", "count", Better::Lower),
    ("core.snapshot.delta_edges_per_step", "count", Better::Lower),
    ("core.snapshot.edges_reused_frac", "ratio", Better::Higher),
    (
        "core.snapshot.cell_transitions_per_step",
        "count",
        Better::Lower,
    ),
    ("graph.shortest.self_s", "s", Better::Lower),
    ("graph.shortest.share", "ratio", Better::Lower),
    ("graph.shortest.snapshot_p50_ms", "ms", Better::Lower),
    ("graph.shortest.snapshot_tail_ms", "ms", Better::Lower),
    ("graph.shortest.calls", "count", Better::Lower),
    ("graph.shortest.settled_frac", "ratio", Better::Lower),
    ("core.spt.self_s", "s", Better::Lower),
    ("core.spt.share", "ratio", Better::Lower),
    ("core.spt.repair_frac", "ratio", Better::Higher),
    ("core.spt.early_exit_frac", "ratio", Better::Higher),
    ("core.spt.delta_edges_applied", "count", Better::Lower),
    ("graph.disjoint.self_s", "s", Better::Lower),
    ("graph.disjoint.share", "ratio", Better::Lower),
    ("graph.disjoint.paths_found_frac", "ratio", Better::Higher),
    ("flow.maxmin.self_s", "s", Better::Lower),
    ("flow.maxmin.share", "ratio", Better::Lower),
    ("flow.maxmin.rounds", "count", Better::Lower),
    ("graph.components.self_s", "s", Better::Lower),
    ("graph.components.share", "ratio", Better::Lower),
    ("atmo.model.self_s", "s", Better::Lower),
    ("atmo.model.share", "ratio", Better::Lower),
    ("core.ground.build_s", "s", Better::Lower),
    ("data.flights.build_s", "s", Better::Lower),
    ("data.traffic.sample_s", "s", Better::Lower),
    ("core.experiments.self_s", "s", Better::Lower),
    ("core.experiments.share", "ratio", Better::Lower),
    ("core.par.self_s", "s", Better::Lower),
    ("core.par.share", "ratio", Better::Lower),
    ("core.par.busy_frac", "ratio", Better::Higher),
    ("core.par.chunk_imbalance", "ratio", Better::Lower),
    ("trace.overhead_frac", "ratio", Better::Lower),
];

/// One reported number: `n` is the sample count behind it and `note`
/// says how it was formed, where that is not obvious.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
    pub note: String,
}

/// Everything `trace` measured besides the spans.
pub struct TraceInputs {
    /// Program counters from the traced run's manifest.
    pub counters: BTreeMap<String, f64>,
    /// Median seconds of `GroundSegment::build`, `FlightSchedule::new`
    /// and `sample_city_pairs` per set-up, with the set-up count.
    pub ground_s: f64,
    pub flights_s: f64,
    pub traffic_s: f64,
    pub setups: usize,
    /// Median untraced (`run`) and traced repetition wall times, s.
    pub run_wall_s: f64,
    pub traced_wall_s: f64,
}

/// `num / den`, or 0 when there is nothing to divide (a layer the
/// workload does not exercise).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// A `*_tail_ms` value: the sample at the highest percentile with ten
/// samples beyond it, or 0 below 11 samples.
fn tail_metric(name: &'static str, samples_ms: &[f64]) -> Metric {
    let (value, note) = match tail(samples_ms) {
        Some((p, v)) => (v, format!("p{p:.1}")),
        None => (0.0, "fewer than 11 samples".to_string()),
    };
    Metric {
        name,
        value,
        unit: "ms",
        n: samples_ms.len(),
        note,
    }
}

/// Every [`PER_LAYER`] metric from the traced repetitions `traces`.
pub fn per_layer(traces: &[Trace], inputs: &TraceInputs) -> Vec<Metric> {
    let reps = traces.len();
    let mut attributed: BTreeMap<Layer, f64> = BTreeMap::new();
    let mut snapshot_steps_ms = Vec::new();
    let mut shortest_by_snapshot: BTreeMap<(u32, u32), f64> = BTreeMap::new();
    let (mut traced_ns, mut busy_ns, mut capacity_ns, mut imbalance) = (0.0, 0.0, 0.0, 0.0);
    let count = |c: Count| traces.iter().map(|t| t.count(c) as f64).sum::<f64>();
    for t in traces {
        let st = self_times(&t.spans);
        for (i, s) in t.spans.iter().enumerate() {
            *attributed.entry(s.layer).or_default() += st.wall_ns[i];
            if s.parent == NONE {
                traced_ns += (s.end_ns - s.start_ns) as f64;
            }
            match s.layer {
                Layer::Snapshot => snapshot_steps_ms.push(st.thread_ns[i] / 1e6),
                Layer::Shortest => {
                    *shortest_by_snapshot.entry((s.rep, s.snapshot)).or_default() +=
                        st.thread_ns[i] / 1e6;
                }
                _ => {}
            }
        }
        busy_ns += st.fanout_busy_ns;
        capacity_ns += st.fanout_capacity_ns;
        imbalance += st.chunk_imbalance;
    }
    let counter = |name: &str| inputs.counters.get(name).copied().unwrap_or(0.0);
    let per_rep = |v: f64| v / reps as f64;
    let graphs = count(Count::Graphs);
    let nodes_mean = ratio(count(Count::Nodes), graphs);
    let steps = snapshot_steps_ms.len() as f64;
    let shortest_ms: Vec<f64> = shortest_by_snapshot.into_values().collect();
    let dijkstra_calls = counter("dijkstra_calls");
    let spt_repairs = counter("spt_repairs");
    let reused = counter("sweep_edges_reused");

    let mut out = Vec::new();
    let mut push = |name: &'static str, value: f64, unit: &'static str, n: usize| {
        out.push(Metric {
            name,
            value,
            unit,
            n,
            note: String::new(),
        });
    };
    let layer_self = |l: Layer| attributed.get(&l).copied().unwrap_or(0.0) / 1e9;
    for l in Layer::ALL {
        let (self_name, share_name) = layer_metric_names(l);
        push(self_name, per_rep(layer_self(l)), "s", reps);
        push(
            share_name,
            ratio(layer_self(l), traced_ns / 1e9),
            "ratio",
            reps,
        );
    }
    push(
        "core.snapshot.step_p50_ms",
        median(&snapshot_steps_ms),
        "ms",
        snapshot_steps_ms.len(),
    );
    push(
        "core.snapshot.nodes_mean",
        nodes_mean,
        "count",
        graphs as usize,
    );
    push(
        "core.snapshot.edges_mean",
        ratio(count(Count::Edges), graphs),
        "count",
        graphs as usize,
    );
    push(
        "core.snapshot.delta_edges_per_step",
        ratio(count(Count::DeltaEdges), count(Count::DeltaSteps)),
        "count",
        count(Count::DeltaSteps) as usize,
    );
    push(
        "core.snapshot.edges_reused_frac",
        ratio(reused, reused + counter("sweep_edges_recomputed")),
        "ratio",
        reps,
    );
    push(
        "core.snapshot.cell_transitions_per_step",
        ratio(
            counter("sweep_cell_transitions"),
            steps - counter("sweep_full_rebuilds"),
        ),
        "count",
        steps as usize,
    );
    push(
        "graph.shortest.snapshot_p50_ms",
        if shortest_ms.is_empty() {
            0.0
        } else {
            median(&shortest_ms)
        },
        "ms",
        shortest_ms.len(),
    );
    push(
        "graph.shortest.calls",
        per_rep(dijkstra_calls),
        "count",
        reps,
    );
    push(
        "graph.shortest.settled_frac",
        ratio(
            counter("dijkstra_nodes_settled"),
            dijkstra_calls * nodes_mean,
        ),
        "ratio",
        reps,
    );
    push(
        "core.spt.repair_frac",
        ratio(spt_repairs, spt_repairs + counter("spt_full_fallbacks")),
        "ratio",
        reps,
    );
    push(
        "core.spt.early_exit_frac",
        ratio(counter("spt_early_exits"), spt_repairs),
        "ratio",
        reps,
    );
    push(
        "core.spt.delta_edges_applied",
        per_rep(counter("delta_edges_applied")),
        "count",
        reps,
    );
    push(
        "graph.disjoint.paths_found_frac",
        ratio(count(Count::PathsFound), count(Count::PathsWanted)),
        "ratio",
        reps,
    );
    push(
        "flow.maxmin.rounds",
        ratio(counter("maxmin_rounds"), counter("maxmin_solves")),
        "count",
        counter("maxmin_solves") as usize,
    );
    push("core.ground.build_s", inputs.ground_s, "s", inputs.setups);
    push("data.flights.build_s", inputs.flights_s, "s", inputs.setups);
    push(
        "data.traffic.sample_s",
        inputs.traffic_s,
        "s",
        inputs.setups,
    );
    push(
        "core.par.busy_frac",
        ratio(busy_ns, capacity_ns),
        "ratio",
        reps,
    );
    push(
        "core.par.chunk_imbalance",
        per_rep(imbalance),
        "ratio",
        reps,
    );
    push(
        "trace.overhead_frac",
        inputs.traced_wall_s / inputs.run_wall_s - 1.0,
        "ratio",
        reps,
    );
    out.push(tail_metric(
        "core.snapshot.step_tail_ms",
        &snapshot_steps_ms,
    ));
    out.push(tail_metric("graph.shortest.snapshot_tail_ms", &shortest_ms));
    // Report in the order BENCHMARK.json lists them.
    out.sort_by_key(|m| PER_LAYER.iter().position(|&(n, ..)| n == m.name));
    out
}

/// The `<layer>.self_s` and `<layer>.share` metric names.
fn layer_metric_names(l: Layer) -> (&'static str, &'static str) {
    match l {
        Layer::Snapshot => ("core.snapshot.self_s", "core.snapshot.share"),
        Layer::Shortest => ("graph.shortest.self_s", "graph.shortest.share"),
        Layer::Spt => ("core.spt.self_s", "core.spt.share"),
        Layer::Disjoint => ("graph.disjoint.self_s", "graph.disjoint.share"),
        Layer::MaxMin => ("flow.maxmin.self_s", "flow.maxmin.share"),
        Layer::Components => ("graph.components.self_s", "graph.components.share"),
        Layer::Atmo => ("atmo.model.self_s", "atmo.model.share"),
        Layer::Experiments => ("core.experiments.self_s", "core.experiments.share"),
        Layer::Par => ("core.par.self_s", "core.par.share"),
    }
}

/// The result line the benchmark prints last: exactly `correct`,
/// `attempted`, `failed` and `metrics` (name → value and unit).
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// A finite number as JSON (shortest round-trip digits); anything else
/// as `null`, which JSON has no number for.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ChunkTrace;

    #[test]
    fn per_layer_reports_every_listed_metric_once_in_order() {
        let mut t = Trace::new(0);
        let root = t.open(Layer::Experiments, NONE, NONE);
        let fan = t.open_fanout(root, 2);
        let mut chunk = ChunkTrace::new(0);
        let step = chunk.enter_step(0, Layer::Experiments);
        chunk.trace.timed(Layer::Shortest, step, 0, || ());
        chunk.exit_step(step);
        t.close(fan);
        t.absorb(chunk.trace, fan);
        t.close(root);
        let inputs = TraceInputs {
            counters: BTreeMap::new(),
            ground_s: 0.1,
            flights_s: 0.2,
            traffic_s: 0.3,
            setups: 5,
            run_wall_s: 1.0,
            traced_wall_s: 1.02,
        };
        let names: Vec<&str> = per_layer(&[t], &inputs).iter().map(|m| m.name).collect();
        let listed: Vec<&str> = PER_LAYER.iter().map(|&(n, ..)| n).collect();
        assert_eq!(names, listed);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let m = Metric {
            name: "wall_s",
            value: 1.25,
            unit: "s",
            n: 5,
            note: String::new(),
        };
        let line = result_json(true, 5, 0, &[m]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":5,\"failed\":0,\
             \"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
        let parsed = leo_util::telemetry::Json::parse(&line).expect("valid JSON");
        assert!(parsed.get("metrics").is_some());
    }
}
