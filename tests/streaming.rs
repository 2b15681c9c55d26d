//! Streaming-telemetry pipeline, end to end (PR 7's tentpole):
//!
//! * The `series` events a bench-scale fig2 run emits reconstruct the
//!   exact RTT distribution within the sketch's documented rank-error
//!   bound (`QuantileSketch::RELATIVE_ERROR`).
//! * The streamed drivers are thread-count invariant: `sweep_fold`'s
//!   chunk merges are exact, so results are bit-identical however the
//!   sweep is split.
//! * `latency_studies`' two branches agree: the SPT pool over sweep
//!   deltas, and the plain sweep with one search per source that a study
//!   over the pool's budget takes.
//!
//! The telemetry level is process-wide, but a run log takes events only
//! from its own run's threads, so the thread-invariance checks here may
//! run while the sketch-vs-exact check captures its log; that test also
//! runs a study of its own beside the capture to pin this. It is the
//! binary's one test that opens a run log: a second `init_at` would
//! replace the sink.

use leo_core::experiments::latency::{latency_studies, snapshot_rtts, PairStats};
use leo_core::experiments::spt::SourceSptPool;
use leo_core::experiments::weather::weather_study;
use leo_core::{ExperimentScale, Mode, StudyContext};
use leo_util::sketch::QuantileSketch;
use leo_util::telemetry::{self, Json, Level};

/// Merge every `series` event named `name` from a run log back into one
/// run-level sketch (exactly what `leo-report` does).
fn merged_series(lines: &[&str], name: &str) -> QuantileSketch {
    let mut merged = QuantileSketch::new();
    let mut events = 0;
    for l in lines {
        let v = Json::parse(l).unwrap();
        if v.get("type").and_then(Json::as_str) == Some("series")
            && v.get("name").and_then(Json::as_str) == Some(name)
        {
            merged.merge(&QuantileSketch::from_json(&v).expect("valid sketch"));
            events += 1;
        }
    }
    assert!(events > 0, "no `{name}` series events in the run log");
    merged
}

#[test]
fn bench_scale_fig2_sketches_match_exact_pipeline_within_bound() {
    let dir = std::env::temp_dir().join("leo_streaming_fig2");
    let _ = std::fs::remove_dir_all(&dir);

    telemetry::set_level(Level::Info);
    let path = telemetry::init_at(&dir, "streaming_fig2").expect("open run log");
    // A concurrent study outside the run: none of its events may reach
    // the run log.
    let noise = std::thread::spawn(|| {
        let tiny = StudyContext::build(ExperimentScale::Tiny.config());
        latency_studies(&tiny, &[Mode::BpOnly, Mode::Hybrid], 2)
    });
    let ctx = StudyContext::build(ExperimentScale::Bench.config());
    let modes = [Mode::BpOnly, Mode::Hybrid];
    let studies = latency_studies(&ctx, &modes, 0);
    noise.join().expect("concurrent study");
    let manifest = telemetry::RunManifest::new("streaming_fig2", 0, ctx.config.seed, 0);
    telemetry::finish_run(&manifest).expect("close run log");
    telemetry::set_level(Level::Off);

    let text = std::fs::read_to_string(&path).expect("run log readable");
    let lines: Vec<&str> = text.lines().collect();
    let manifest = Json::parse(lines.last().expect("manifest line")).unwrap();
    let study_phase = manifest
        .get("phases")
        .and_then(|p| p.get("latency_study"))
        .and_then(|p| p.get("count"))
        .and_then(Json::as_num);
    assert_eq!(
        study_phase,
        Some(1.0),
        "latency_study spans in the manifest"
    );

    for (mode, series_name, stats) in [
        (Mode::BpOnly, "rtt_ms_bp", &studies[0]),
        (Mode::Hybrid, "rtt_ms_hybrid", &studies[1]),
    ] {
        let sketch = merged_series(&lines, series_name);

        // The exact sample stream the driver folded: every reachable
        // (pair, snapshot) RTT, recomputed via the non-streaming path.
        let mut exact: Vec<f64> = Vec::new();
        for &t in &ctx.config.snapshot_times_s {
            exact.extend(snapshot_rtts(&ctx, t, mode).into_iter().flatten());
        }
        exact.sort_by(f64::total_cmp);
        assert!(!exact.is_empty());

        // Count / extremes are exact, not merely bounded.
        assert_eq!(sketch.count(), exact.len() as u64, "{series_name}");
        assert_eq!(sketch.min().to_bits(), exact[0].to_bits());
        assert_eq!(sketch.max().to_bits(), exact[exact.len() - 1].to_bits());

        // Every quantile of the reconstructed CDF lands within the
        // documented relative rank-error bound of the exact pipeline.
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1) - 1;
            let truth = exact[rank];
            let est = sketch.quantile(q);
            assert!(
                (est - truth).abs() <= truth * QuantileSketch::RELATIVE_ERROR,
                "{series_name} q={q}: sketch {est} vs exact {truth}"
            );
        }

        // CDF points: each reported fraction is exact for a value within
        // the bucket-width bound, so evaluating the exact empirical CDF
        // at v*(1 ± RELATIVE_ERROR) must bracket the reported fraction.
        for (v, frac) in sketch.cdf_points(200) {
            let lo_frac =
                exact.partition_point(|&x| x <= v * (1.0 - QuantileSketch::RELATIVE_ERROR)) as f64
                    / exact.len() as f64;
            let hi_frac =
                exact.partition_point(|&x| x <= v * (1.0 + QuantileSketch::RELATIVE_ERROR)) as f64
                    / exact.len() as f64;
            assert!(
                (lo_frac..=hi_frac).contains(&frac),
                "{series_name}: cdf point ({v}, {frac}) outside exact band [{lo_frac}, {hi_frac}]"
            );
        }

        // And the streamed per-pair aggregates agree with the sketch's
        // extremes (the driver's two outputs are views of one stream).
        let driver_min = stats
            .iter()
            .filter_map(|s| s.min_rtt_ms)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(driver_min.to_bits(), sketch.min().to_bits());
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn latency_studies_are_thread_count_invariant() {
    let ctx = StudyContext::build(ExperimentScale::Tiny.config());
    let modes = [Mode::BpOnly, Mode::Hybrid];
    let base = latency_studies(&ctx, &modes, 1);
    for threads in [2, 3, 5] {
        let other = latency_studies(&ctx, &modes, threads);
        for (a_mode, b_mode) in base.iter().zip(&other) {
            for (a, b) in a_mode.iter().zip(b_mode) {
                assert_eq!(a.pair, b.pair);
                assert_eq!(a.reachable, b.reachable);
                assert_eq!(a.total, b.total);
                assert_eq!(
                    a.min_rtt_ms.map(f64::to_bits),
                    b.min_rtt_ms.map(f64::to_bits),
                    "threads={threads}"
                );
                assert_eq!(
                    a.max_rtt_ms.map(f64::to_bits),
                    b.max_rtt_ms.map(f64::to_bits),
                    "threads={threads}"
                );
            }
        }
    }
}

/// The same Tiny study through both branches of `latency_studies`: two
/// modes fit the SPT pool's budget, and the same modes repeated until
/// they no longer fit take the fallback, which sweeps without deltas.
/// Every repeated mode must match its pooled run bit for bit.
#[test]
fn pooled_and_fallback_latency_studies_agree() {
    let ctx = StudyContext::build(ExperimentScale::Tiny.config());
    let modes = [Mode::BpOnly, Mode::Hybrid];
    assert!(SourceSptPool::fits(&ctx, modes.len()));
    let mut repeated = modes.to_vec();
    while SourceSptPool::fits(&ctx, repeated.len()) {
        repeated.extend(modes);
    }
    assert!(!SourceSptPool::fits(&ctx, repeated.len()));
    let bits = |s: &PairStats| {
        (
            s.pair,
            s.min_rtt_ms.map(f64::to_bits),
            s.max_rtt_ms.map(f64::to_bits),
            s.reachable,
            s.total,
        )
    };
    for threads in [1, 3] {
        let pooled = latency_studies(&ctx, &modes, threads);
        let fallback = latency_studies(&ctx, &repeated, threads);
        assert_eq!(fallback.len(), repeated.len());
        assert!(pooled.iter().all(|m| m.iter().any(|s| s.reachable > 0)));
        for (mi, stats) in fallback.iter().enumerate() {
            let expected = &pooled[mi % modes.len()];
            assert_eq!(stats.len(), expected.len());
            for (a, b) in expected.iter().zip(stats) {
                assert_eq!(
                    bits(a),
                    bits(b),
                    "threads={threads} mode {:?} (#{mi})",
                    repeated[mi]
                );
            }
        }
    }
}

#[test]
fn weather_study_is_thread_count_invariant() {
    // Per-pair TailQuantile keepers merge exactly across chunk splits, so
    // the 99.5th-percentile outputs are bit-identical for any thread
    // count.
    let ctx = StudyContext::build(ExperimentScale::Tiny.config());
    let base = weather_study(&ctx, 7, 1);
    for threads in [2, 4] {
        let other = weather_study(&ctx, 7, threads);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&base.bp_db), bits(&other.bp_db), "threads={threads}");
        assert_eq!(bits(&base.isl_db), bits(&other.isl_db), "threads={threads}");
    }
}
