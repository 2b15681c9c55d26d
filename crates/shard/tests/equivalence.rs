//! The sharding contract: a `K`-sharded latency run — restricted
//! contexts, spill files, and all — reproduces the single-process study
//! results **bit-identically**. Each shard is spilled exactly as an OS
//! worker spills it, and the files are merged exactly as the coordinator
//! merges them.

use leo_core::experiments::latency::{latency_studies, PairStats};
use leo_core::{ExperimentScale, Mode, StudyContext};
use leo_shard::runner::{config_hash, merge_latency_files, spill_latency_shard};
use leo_shard::ShardSpec;

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("leo_shard_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn assert_stats_eq(full: &[Vec<PairStats>], merged: &[Vec<PairStats>]) {
    assert_eq!(full.len(), merged.len(), "mode count");
    for (mi, (a, b)) in full.iter().zip(merged).enumerate() {
        assert_eq!(a.len(), b.len(), "mode {mi} pair count");
        for (pi, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.pair, y.pair, "mode {mi} pair {pi}");
            assert_eq!(
                x.min_rtt_ms.map(f64::to_bits),
                y.min_rtt_ms.map(f64::to_bits),
                "mode {mi} pair {pi} min"
            );
            assert_eq!(
                x.max_rtt_ms.map(f64::to_bits),
                y.max_rtt_ms.map(f64::to_bits),
                "mode {mi} pair {pi} max"
            );
            assert_eq!(x.reachable, y.reachable, "mode {mi} pair {pi} reachable");
            assert_eq!(x.total, y.total, "mode {mi} pair {pi} total");
        }
    }
}

/// Latency: every shard count produces the exact single-process stats,
/// and different shard counts agree with each other.
#[test]
fn sharded_latency_is_bit_identical_to_single_process() {
    let cfg = ExperimentScale::Tiny.config();
    let modes = [Mode::BpOnly, Mode::Hybrid];
    let ctx = StudyContext::build(cfg.clone());
    let full = latency_studies(&ctx, &modes, 0);

    for k in [1usize, 3] {
        let dir = scratch_dir(&format!("lat{k}"));
        let files: Vec<_> = ShardSpec::all(k)
            .into_iter()
            .map(|spec| spill_latency_shard(&cfg, &modes, spec, 1, &dir, "equiv").expect("spill"))
            .collect();
        let (run, keepers) = merge_latency_files(&files).expect("merge");
        assert_eq!(run.shard_count, k as u32);
        assert_eq!(run.n_pairs as usize, ctx.pairs.len());
        assert_eq!(run.config_hash, config_hash(&cfg));
        assert_eq!(run.seed, cfg.seed);
        let merged = keepers.to_stats(&ctx.pairs).expect("restore stats");
        assert_stats_eq(&full, &merged);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
