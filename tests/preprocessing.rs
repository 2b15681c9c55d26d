//! Routing preprocessing in run logs: at `LEO_LOG=info` the run manifest
//! counts the two-hop indexes and landmark tables built, and the BP and
//! hybrid graphs of one sweep step build one index between them, only
//! when something searches them.
//!
//! The telemetry level and counters are process-wide, so everything
//! lives in one `#[test]` (this file is its own test binary).

use leo_core::experiments::latency::snapshot_rtts_on;
use leo_core::{ExperimentScale, Mode, StudyContext, TimeSweep};
use leo_util::telemetry::{self, Json, Level, RunManifest};

#[test]
fn a_searched_bp_and_hybrid_step_builds_one_index() {
    let dir = std::env::temp_dir().join("leo_preprocessing_counters");
    let _ = std::fs::remove_dir_all(&dir);
    telemetry::set_level(Level::Info);
    let path = telemetry::init_at(&dir, "preprocessing").expect("open run log");

    let ctx = StudyContext::build(ExperimentScale::Tiny.config());
    let modes = [Mode::BpOnly, Mode::Hybrid];
    // Steps that nothing searches build no index and no table.
    let mut idle = TimeSweep::new(&ctx, &modes);
    for t in [0.0, 900.0] {
        idle.step(t);
    }
    // Every step searched, both graphs: one index per step, one table per
    // graph.
    let times = [0.0, 900.0, 1800.0];
    let mut sweep = TimeSweep::new(&ctx, &modes);
    let mut reached = 0;
    for &t in &times {
        for snap in sweep.step(t) {
            reached += snapshot_rtts_on(&ctx, snap).iter().flatten().count();
        }
    }
    assert!(reached > 0, "the searches reach their targets");

    let manifest = RunManifest::new("preprocessing", 0, ctx.config.seed, 1);
    let finished = telemetry::finish_run(&manifest).expect("close run log");
    telemetry::set_level(Level::Off);
    assert_eq!(finished, path);
    let text = std::fs::read_to_string(&path).expect("run log readable");
    let last = text.lines().last().expect("run log has a manifest");
    let manifest = Json::parse(last).expect("manifest is JSON");
    let counters = manifest.get("counters").expect("manifest has counters");
    let count = |name: &str| counters.get(name).and_then(Json::as_num);
    assert_eq!(count("two_hop_indexes_built"), Some(times.len() as f64));
    assert_eq!(
        count("landmark_tables_built"),
        Some(2.0 * times.len() as f64)
    );
    for timer in ["two_hop_build_ns", "landmark_table_build_ns"] {
        assert!(count(timer).is_some_and(|ns| ns > 0.0), "{timer}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
