//! The lint policy: path scoping for the rules and the hot/cold split
//! of the hot-path reachability roots, compiled in as
//! [`LintConfig::default`] so it is reviewed where it is used.
//!
//! All paths are workspace-relative prefixes with forward slashes.

/// The lint policy (see the module docs).
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Path prefixes excluded from all linting (fixture corpora).
    pub exclude: Vec<String>,
    /// Result-path prefixes where `unordered-iter` applies.
    pub unordered_iter_paths: Vec<String>,
    /// Hot-path root fn patterns (`Type::name`, `Type::*`, or a free-fn
    /// `name`) — everything reachable from these must be alloc-free.
    pub hot_path_roots: Vec<String>,
    /// Path prefixes exempt from reachability `hot-path-alloc` findings
    /// (cold code dragged in by over-approximate method resolution).
    pub hot_path_allow: Vec<String>,
    /// Cold-boundary fn patterns: reachability stops at (and does not
    /// report inside) these fns — declared setup/teardown/debug paths
    /// that hot roots invoke once per run, not once per step. The list
    /// lives here, so the hot/cold boundary is auditable in one place.
    pub hot_path_cold: Vec<String>,
    /// Path prefixes exempt from `panic-reachable` (files whose job is
    /// panicking, e.g. the property-test assertion harness).
    pub panic_allow: Vec<String>,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            // Fixture corpora contain violations on purpose.
            exclude: vec!["crates/lint/tests/fixtures".into()],
            // Result paths: crates whose modules produce CSV/JSONL/stdout
            // rows or feed them.
            unordered_iter_paths: vec![
                "crates/core/src".into(),
                "crates/graph/src".into(),
                "crates/flow/src".into(),
                "crates/data/src".into(),
                "crates/orbit/src".into(),
                "crates/packetsim/src".into(),
                "crates/bench/src".into(),
            ],
            // The inner loops the paper's artifact timings stand on
            // (`// lint: hot-path`-marked fns are roots implicitly).
            hot_path_roots: vec![
                // The repair the SPT pool runs.
                "SptWorkspace::apply_for_targets".into(),
                "SptWorkspace::rebuild".into(),
                "DijkstraWorkspace::run".into(),
                "DijkstraWorkspace::run_multi".into(),
                "VisibilityScan::*".into(),
                "StudyContext::sweep_fold".into(),
                // The delta sweep, reached only through the SPT pool: a
                // latency study over the pool's budget folds through
                // `sweep_fold` and builds no deltas.
                "StudyContext::sweep_fold_deltas".into(),
                "TimeSweep::step_with_deltas".into(),
            ],
            // The analyzer itself is offline tooling — never on the
            // pipeline's hot paths; edges into it are method-name
            // resolution artifacts (`build`, `chain` are common names).
            hot_path_allow: vec!["crates/lint/".into()],
            hot_path_cold: vec![
                // Per-sweep setup: builds the constellation, cities,
                // grids, and link tables once, then the per-instant
                // stepping takes over. A parallel sweep builds its static
                // ground geometry once per fan-out and hands it to every
                // chunk's sweep.
                "TimeSweep::new".into(),
                "TimeSweep::with_ground".into(),
                "StaticGround::new".into(),
                "StudyContext::build".into(),
                // Debug-gated telemetry rendering: only runs under
                // LEO_LOG=debug, which is outside the timing contract.
                "debug_log".into(),
                // Property-test harness error path (allocates a report
                // string after a case already failed/skipped).
                "CaseError::skip".into(),
                // Fan-out scaffolding: one thread-spawn + result-vec
                // round per sweep, amortised over every snapshot the
                // fan-out computes. The per-item closures it runs are
                // still attributed to their *defining* fns and patrolled.
                "parallel_map_stats".into(),
                "record_fanout".into(),
                // One-time lazy inits behind a boolean: delta tracking
                // (first `step_with_deltas`) and the land-mask bbox
                // cache (first point test).
                "TimeSweep::start_delta_tracking".into(),
                "poly_bboxes".into(),
                // Full-rebuild fallback for the first step of a sweep;
                // every later step takes the incremental `advance_to` /
                // `relocate` path.
                "Constellation::positions_at".into(),
                "CellGrid::new".into(),
            ],
            // leo_util::check asserts by panicking — that *is* its API.
            panic_allow: vec!["crates/util/src/check.rs".into()],
        }
    }
}

impl LintConfig {
    /// Does `path` fall under any prefix in `prefixes`?
    pub fn path_matches(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Is `path` excluded from linting entirely?
    pub fn is_excluded(&self, path: &str) -> bool {
        Self::path_matches(path, &self.exclude)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_repo_layout() {
        let cfg = LintConfig::default();
        assert!(cfg.is_excluded("crates/lint/tests/fixtures/unseeded-rng/bad.rs"));
        assert!(LintConfig::path_matches(
            "crates/core/src/experiments/latency.rs",
            &cfg.unordered_iter_paths
        ));
        assert!(!LintConfig::path_matches(
            "crates/geo/src/ecef.rs",
            &cfg.unordered_iter_paths
        ));
        // The reachability rules' roots and exemptions name real code.
        assert!(cfg
            .hot_path_roots
            .iter()
            .any(|r| r == "DijkstraWorkspace::run"));
        assert!(cfg.panic_allow.iter().any(|p| p.ends_with("check.rs")));
    }
}
