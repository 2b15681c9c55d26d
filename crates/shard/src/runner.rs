//! Shard execution: build a range-restricted [`StudyContext`], run the
//! study fold on it, spill keepers, and merge shard files back into a
//! full run.
//!
//! Determinism contract: every shard builds the **same** context —
//! constellation, ground segment, and the seeded pair sample are pure
//! functions of the [`StudyConfig`] — and then restricts itself to its
//! partition range. Snapshot graphs are pair-independent, latency folds
//! are per-pair independent, and fig4's routing reads only the snapshot
//! graph, so a shard's results are exactly the corresponding slice of a
//! single-process run's results. The merge concatenates those slices in
//! global pair order, which is why `K`-sharded output is bit-identical
//! to `K = 1`.
//!
//! Sharding exists to bound per-process memory, so every shard runs in
//! its own OS process: a worker (`--shard i/K --shard-dir D`) builds the
//! restricted context, holds only `O(pairs/K)` pair state, and spills it
//! ([`spill_latency_shard`], [`spill_flow_shard`]); the coordinator
//! merges the spill files ([`merge_latency_files`], [`merge_flow_files`]).

use crate::codec::{read_shard, write_shard, PayloadKind, ShardError, ShardHeader};
use crate::keepers::{
    merge_flow_shards, merge_latency_shards, FlowCombo, FlowPathsKeepers, LatencyKeepers, MergedRun,
};
use crate::partition::ShardSpec;
use leo_core::experiments::latency::latency_studies;
use leo_core::experiments::throughput::route_pair_paths;
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

/// Canonical tag for a routed (mode, k) combination — merge identity
/// for fig4 shards.
pub fn combo_tag(mode: Mode, k: usize) -> String {
    format!("{mode:?}/k{k}")
}

/// Build the shared context and restrict it to `spec`'s pair range.
/// Returns the restricted context and the global range it covers.
fn restricted_context(
    cfg: &StudyConfig,
    spec: ShardSpec,
) -> (StudyContext, std::ops::Range<usize>) {
    let mut ctx = StudyContext::build(cfg.clone());
    let range = spec.range(ctx.pairs.len());
    ctx.restrict_pair_range(range.start, range.end);
    (ctx, range)
}

fn header_for(
    cfg: &StudyConfig,
    spec: ShardSpec,
    range: &std::ops::Range<usize>,
    kind: PayloadKind,
) -> ShardHeader {
    ShardHeader {
        config_hash: config_hash(cfg),
        seed: cfg.seed,
        shard_index: spec.index as u32,
        shard_count: spec.count as u32,
        pair_lo: range.start as u64,
        pair_hi: range.end as u64,
        kind,
    }
}

/// Run one latency shard: fold `modes` over the configured snapshots
/// for this shard's pairs only. `threads` is the worker's own thread
/// count (`0` = one per core, as for an unsharded run).
pub fn latency_shard(
    cfg: &StudyConfig,
    modes: &[Mode],
    spec: ShardSpec,
    threads: usize,
) -> (ShardHeader, LatencyKeepers) {
    let (ctx, range) = restricted_context(cfg, spec);
    let studies = latency_studies(&ctx, modes, threads);
    let total = cfg.snapshot_times_s.len() as u64;
    let keepers = LatencyKeepers::from_stats(&studies, modes, total);
    (header_for(cfg, spec, &range, PayloadKind::Latency), keepers)
}

/// Run one throughput-routing shard: route every `(mode, k)` combo at
/// `t_s` for this shard's pairs and keep the per-pair path edge sets.
/// The global max-min solve happens after the merge, on the full
/// concatenated path list.
pub fn flow_shard(
    cfg: &StudyConfig,
    t_s: f64,
    combos: &[(Mode, usize)],
    spec: ShardSpec,
) -> (ShardHeader, FlowPathsKeepers) {
    let (ctx, range) = restricted_context(cfg, spec);
    let mut modes: Vec<Mode> = Vec::new();
    for &(m, _) in combos {
        if !modes.contains(&m) {
            modes.push(m);
        }
    }
    let snaps = ctx.snapshot_bundle(t_s, &modes);
    let combos = combos
        .iter()
        .map(|&(mode, k)| {
            #[expect(
                clippy::expect_used,
                reason = "modes was built from combos, so every combo's mode is present"
            )]
            let mi = modes.iter().position(|&m| m == mode).expect("mode present");
            let paths = route_pair_paths(&ctx, &snaps[mi], k)
                .into_iter()
                .map(|pair| pair.into_iter().map(|p| p.edges).collect())
                .collect();
            FlowCombo {
                tag: combo_tag(mode, k),
                paths,
            }
        })
        .collect();
    (
        header_for(cfg, spec, &range, PayloadKind::FlowPaths),
        FlowPathsKeepers { combos },
    )
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

/// Run one throughput-routing shard and spill it to `dir`.
pub fn spill_flow_shard(
    cfg: &StudyConfig,
    t_s: f64,
    combos: &[(Mode, usize)],
    spec: ShardSpec,
    dir: &Path,
    label: &str,
) -> Result<PathBuf, ShardError> {
    let (header, keepers) = flow_shard(cfg, t_s, combos, spec);
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

/// Read, decode, and merge throughput shard files (any order).
pub fn merge_flow_files(paths: &[PathBuf]) -> Result<(MergedRun, FlowPathsKeepers), ShardError> {
    let mut shards = Vec::with_capacity(paths.len());
    for p in paths {
        let (header, payload) = read_shard(p)?;
        shards.push((header, FlowPathsKeepers::decode(&payload)?));
    }
    merge_flow_shards(shards)
}
