//! End-to-end telemetry: run a real (Tiny-scale) study with logging
//! enabled and check the `RUN_*.jsonl` it produces — every line valid
//! against the event schema, spans and counters from the instrumented
//! pipeline present, and the closing manifest carrying the right config
//! hash and seed.
//!
//! The telemetry level is process-wide, and a second `init_at` would
//! replace the open sink, so everything lives in one `#[test]` (this
//! file is its own test binary). Counters are process-wide too; the
//! log's spans and series come only from this run's threads.

use leo_core::experiments::latency::latency_study;
use leo_core::experiments::throughput::throughput;
use leo_core::{ExperimentScale, Mode, StudyContext};
use leo_util::telemetry::{self, fnv1a_64, validate_event_line, Json, Level, RunManifest};

#[test]
fn tiny_study_produces_valid_run_log_with_manifest() {
    let dir = std::env::temp_dir().join("leo_telemetry_e2e");
    let _ = std::fs::remove_dir_all(&dir);

    telemetry::set_level(Level::Info);
    let path = telemetry::init_at(&dir, "e2e_tiny").expect("open run log");

    let cfg = ExperimentScale::Tiny.config();
    let config_hash = fnv1a_64(cfg.to_kv_string().as_bytes());
    let seed = cfg.seed;
    let ctx = StudyContext::build(cfg);
    let bp = latency_study(&ctx, Mode::BpOnly, 2);
    let hy = latency_study(&ctx, Mode::Hybrid, 2);
    assert_eq!(bp.len(), hy.len(), "studies must cover the same pairs");
    let th = throughput(&ctx, 0.0, Mode::Hybrid, 1);
    assert!(th.aggregate_gbps > 0.0);

    let manifest = RunManifest::new("e2e_tiny", config_hash, seed, 2);
    let finished = telemetry::finish_run(&manifest).expect("close run log");
    telemetry::set_level(Level::Off);
    assert_eq!(finished, path);

    let text = std::fs::read_to_string(&path).expect("run log readable");
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 4, "run log too short:\n{text}");

    // Every line validates; first is run_start, last is the manifest.
    let types: Vec<&str> = lines
        .iter()
        .enumerate()
        .map(|(i, l)| {
            validate_event_line(l).unwrap_or_else(|e| panic!("line {}: {e}\n  {l}", i + 1))
        })
        .collect();
    assert_eq!(types[0], "run_start");
    assert_eq!(*types.last().unwrap(), "manifest");
    assert_eq!(
        types.iter().filter(|t| **t == "manifest").count(),
        1,
        "exactly one manifest"
    );

    // The instrumented pipeline must have shown up: study spans and the
    // Dijkstra / snapshot counters.
    let span_names: Vec<String> = lines
        .iter()
        .filter_map(|l| {
            let v = Json::parse(l).unwrap();
            (v.get("type").and_then(Json::as_str) == Some("span"))
                .then(|| v.get("name").and_then(Json::as_str).unwrap().to_string())
        })
        .collect();
    assert!(
        span_names.iter().any(|n| n == "latency_study"),
        "missing latency_study span in {span_names:?}"
    );
    assert!(span_names.iter().any(|n| n == "throughput"));
    assert!(span_names.iter().any(|n| n == "study_context_build"));

    // Manifest provenance: config hash, seed, per-phase totals, counters.
    let m = Json::parse(lines.last().unwrap()).unwrap();
    assert_eq!(
        m.get("config_hash").and_then(Json::as_str),
        Some(format!("0x{config_hash:016x}")).as_deref()
    );
    assert_eq!(m.get("seed").and_then(Json::as_num), Some(seed as f64));
    assert_eq!(m.get("label").and_then(Json::as_str), Some("e2e_tiny"));
    let phases = m.get("phases").expect("manifest has phases");
    let latency_phase = phases.get("latency_study").expect("latency_study phase");
    assert_eq!(latency_phase.get("count").and_then(Json::as_num), Some(2.0));
    assert!(
        latency_phase
            .get("total_ns")
            .and_then(Json::as_num)
            .unwrap()
            > 0.0
    );
    let counters = m.get("counters").expect("manifest has counters");
    assert!(
        counters
            .get("dijkstra_calls")
            .and_then(Json::as_num)
            .unwrap()
            > 0.0
    );
    assert!(
        counters
            .get("snapshots_built")
            .and_then(Json::as_num)
            .unwrap()
            >= 4.0
    );
    assert!(
        counters
            .get("maxmin_solves")
            .and_then(Json::as_num)
            .unwrap()
            >= 1.0
    );

    // Every timestamp falls inside the run window: at or after the
    // run_start stamp, at or before the manifest's wall clock. (Span
    // events carry their *enter* time, so file order alone is not
    // monotone — but the window always bounds them.)
    let wall_ns = m.get("wall_ns").and_then(Json::as_num).unwrap();
    let t_ns: Vec<f64> = lines
        .iter()
        .filter_map(|l| Json::parse(l).unwrap().get("t_ns").and_then(Json::as_num))
        .collect();
    let start = t_ns[0];
    assert!(
        t_ns.iter().all(|&t| t >= start && t <= wall_ns),
        "timestamp outside run window [{start}, {wall_ns}]: {t_ns:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
