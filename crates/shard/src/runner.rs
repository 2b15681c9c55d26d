//! Shard execution: build a range-restricted [`StudyContext`], run the
//! study fold on it, spill keepers, and merge shard files back into a
//! full run.
//!
//! Determinism contract: every shard builds the **same** context —
//! constellation, ground segment, and the seeded pair sample are pure
//! functions of the [`StudyConfig`] — and then restricts itself to its
//! partition range. Snapshot graphs are pair-independent and latency
//! folds are per-pair independent, so a shard's results are exactly the
//! corresponding slice of a single-process run's results. The merge
//! concatenates those slices in global pair order, which is why
//! `K`-sharded output is bit-identical to `K = 1`.
//!
//! Sharding exists to bound per-process memory, so every shard runs in
//! its own OS process: a worker (`--shard i/K --shard-dir D`) builds the
//! restricted context, holds only `O(pairs/K)` pair state, and spills it
//! ([`spill_latency_shard`]); the coordinator merges the spill files
//! ([`merge_latency_files`]).

use crate::codec::{read_shard, write_shard, ShardError, ShardHeader};
use crate::keepers::{merge_latency_shards, LatencyKeepers, MergedRun};
use crate::partition::ShardSpec;
use leo_core::experiments::latency::latency_studies;
use leo_core::{Mode, StudyConfig, StudyContext};
use leo_util::telemetry::fnv1a_64;
use std::path::{Path, PathBuf};

/// The run-identity hash stamped into shard headers: FNV-1a 64 of the
/// config's canonical kv string — the same hash run manifests carry, so
/// shard files, manifests, and reports all name a run identically.
pub fn config_hash(cfg: &StudyConfig) -> u64 {
    fnv1a_64(cfg.to_kv_string().as_bytes())
}

/// Canonical spill-file name for one shard of a labelled run.
pub fn shard_file_name(label: &str, spec: ShardSpec) -> String {
    format!("SHARD_{label}.s{}of{}.bin", spec.index, spec.count)
}

/// Run one latency shard: build the shared context, restrict it to
/// `spec`'s pair range, and fold `modes` over the configured snapshots
/// for those pairs only. `threads` is the worker's own thread count
/// (`0` = one per core, as for an unsharded run).
pub fn latency_shard(
    cfg: &StudyConfig,
    modes: &[Mode],
    spec: ShardSpec,
    threads: usize,
) -> (ShardHeader, LatencyKeepers) {
    let mut ctx = StudyContext::build(cfg.clone());
    let range = spec.range(ctx.pairs.len());
    ctx.restrict_pair_range(range.start, range.end);
    let studies = latency_studies(&ctx, modes, threads);
    let total = cfg.snapshot_times_s.len() as u64;
    let header = ShardHeader {
        config_hash: config_hash(cfg),
        seed: cfg.seed,
        shard_index: spec.index as u32,
        shard_count: spec.count as u32,
        pair_lo: range.start as u64,
        pair_hi: range.end as u64,
    };
    (header, LatencyKeepers::from_stats(&studies, modes, total))
}

/// Run one latency shard and spill it to `dir`; returns the file path.
pub fn spill_latency_shard(
    cfg: &StudyConfig,
    modes: &[Mode],
    spec: ShardSpec,
    threads: usize,
    dir: &Path,
    label: &str,
) -> Result<PathBuf, ShardError> {
    let (header, keepers) = latency_shard(cfg, modes, spec, threads);
    let path = dir.join(shard_file_name(label, spec));
    write_shard(&path, &header, &keepers.encode())?;
    Ok(path)
}

/// Read, decode, and merge latency shard files (any order).
pub fn merge_latency_files(paths: &[PathBuf]) -> Result<(MergedRun, LatencyKeepers), ShardError> {
    let mut shards = Vec::with_capacity(paths.len());
    for p in paths {
        let (header, payload) = read_shard(p)?;
        shards.push((header, LatencyKeepers::decode(&payload)?));
    }
    merge_latency_shards(shards)
}
