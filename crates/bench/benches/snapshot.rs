//! Snapshot-construction benchmarks: the evidence for the `TimeSweep`
//! engine.
//!
//! The first three benches advance time by 15 s per iteration at Tiny
//! scale, so every measurement is a *consecutive-instant* snapshot build
//! — the regime every time-series driver lives in:
//!
//! * `bundle_per_instant_rebuild` — the pre-sweep path: a fresh
//!   orbit propagation, visibility query, and graph assembly for each
//!   instant, with nothing carried over.
//! * `sweep_consecutive` — one warm `TimeSweep` stepped instant to
//!   instant: SoA satellite state advanced in place, cell residency
//!   updated by transition, every ground point rescanned into the flat
//!   link arena, and each mode's graph written from the arena in one
//!   pass.
//! * `sweep_cold_start` — `TimeSweep::new` + first `step`, the one-off
//!   cost a driver pays before the deltas start paying rent.
//!
//! **The first pair is the headline number**: `scripts/ci.sh` checks
//! rebuild/sweep median ≥ its smoke floor, and `BENCH_snapshot.json`
//! records the trajectory.
//!
//! * `paper_bp_sweep_step` — one warm BP `TimeSweep::step` at paper
//!   scale (1,000 cities, ~67k relays) and the paper's 900 s cadence:
//!   the unit of work of the §5 disconnected-satellite statistic
//!   (`leo_benchmark`'s `coverage_day`), single-threaded.
//!
//! `cargo bench -p leo-bench --bench snapshot` writes
//! `BENCH_snapshot.json` (JSON lines) into `LEO_BENCH_DIR` or the cwd.

use leo_bench::{finish_run, init_run};
use leo_core::{ExperimentScale, Mode, StudyContext, TimeSweep};
use leo_util::bench::Harness;

/// Fig2-style snapshot cadence.
const DT_S: f64 = 15.0;
/// The paper's snapshot cadence (96 per day).
const PAPER_DT_S: f64 = 900.0;
const MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];

fn edge_total(snaps: &[leo_core::NetworkSnapshot]) -> usize {
    snaps.iter().map(|s| s.graph.num_edges()).sum()
}

fn main() {
    init_run("snapshot");
    let ctx = StudyContext::build(ExperimentScale::Tiny.config());
    let mut h = Harness::new("snapshot");

    let c = &ctx;
    let mut t = 0.0;
    h.bench("bundle_per_instant_rebuild", move || {
        t += DT_S;
        edge_total(&c.snapshot_bundle(t, &MODES))
    });

    let mut sweep = TimeSweep::new(&ctx, &MODES);
    let mut t = 0.0;
    h.bench("sweep_consecutive", move || {
        t += DT_S;
        edge_total(sweep.step(t))
    });

    h.bench("sweep_cold_start", || {
        let mut sweep = TimeSweep::new(&ctx, &MODES);
        edge_total(sweep.step(0.0))
    });

    let paper = StudyContext::build(ExperimentScale::Paper.config());
    let mut sweep = TimeSweep::new(&paper, &[Mode::BpOnly]);
    sweep.step(0.0);
    let mut t = 0.0;
    h.bench("paper_bp_sweep_step", move || {
        t += PAPER_DT_S;
        edge_total(sweep.step(t))
    });

    h.finish().expect("write BENCH_snapshot.json");
    finish_run("snapshot", &ExperimentScale::Tiny.config());
}
