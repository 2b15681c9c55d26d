//! Shard-pipeline overhead benchmarks: the evidence that out-of-core
//! execution (`leo-shard`) is close to free at the merge layer.
//!
//! Three measurements, tiny scale:
//!
//! * `latency_unsharded` — the baseline: one `latency_studies` fold over
//!   the full pair set, single-threaded.
//! * `merge_4_shards` — `merge_latency_files` over 4 pre-spilled shard
//!   files alone: decode + validate + concatenate + sketch merges — the
//!   coordinator's share of a sharded run. **This / `latency_unsharded`
//!   is the overhead ratio** gated by `scripts/ci.sh`.
//! * `keepers_roundtrip` — encode + decode of one shard's keepers in
//!   memory (codec cost with no I/O).
//!
//! `cargo bench -p leo-bench --bench shard` writes `BENCH_shard.json`
//! (JSON lines) into `LEO_BENCH_DIR` or the cwd.

use leo_core::experiments::latency::latency_studies;
use leo_core::{ExperimentScale, Mode, StudyContext};
use leo_shard::runner::{config_hash, latency_shard, spill_latency_shard};
use leo_shard::{LatencyKeepers, ShardSpec};
use leo_util::bench::Harness;

const MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];
const SHARDS: usize = 4;

fn main() {
    let mut h = Harness::new("shard");
    let cfg = ExperimentScale::Tiny.config();
    let dir = std::env::temp_dir().join(format!("leo_bench_shard_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create shard bench scratch dir");

    // Baseline: the unsharded fold the figure bins run by default.
    let ctx = StudyContext::build(cfg.clone());
    h.bench("latency_unsharded", || latency_studies(&ctx, &MODES, 1));

    // Merge alone, over files spilled as the OS workers spill them.
    let files: Vec<_> = ShardSpec::all(SHARDS)
        .into_iter()
        .map(|spec| spill_latency_shard(&cfg, &MODES, spec, 1, &dir, "merge_only").expect("spill"))
        .collect();
    h.bench("merge_4_shards", || {
        leo_shard::runner::merge_latency_files(&files).expect("merge")
    });

    // Codec alone, in memory.
    let spec = ShardSpec::new(0, 1).expect("valid spec");
    let (header, keepers) = latency_shard(&cfg, &MODES, spec, 1);
    assert_eq!(header.config_hash, config_hash(&cfg));
    h.bench("keepers_roundtrip", || {
        let bytes = keepers.encode();
        LatencyKeepers::decode(&bytes).expect("decode")
    });

    let _ = std::fs::remove_dir_all(&dir);
    h.finish().expect("write BENCH_shard.json");
}
