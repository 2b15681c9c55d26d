//! # leo-shard — out-of-core pair-sharded execution
//!
//! The latency studies are embarrassingly parallel in the *pair*
//! dimension: each pair's min/max RTT fold depends only on the snapshot
//! graphs, never on another pair. This crate exploits that to run
//! latency studies (fig2, `ext_million_pairs`) whose per-pair state
//! would not fit one process:
//!
//! 1. **Partition** ([`partition`]): the sampled traffic matrix is
//!    split into `K` balanced contiguous index ranges — a pure function
//!    of `(n_pairs, i, K)`, stable across machines and thread counts.
//! 2. **Execute** ([`runner`]): each shard builds the *same*
//!    deterministic [`StudyContext`] and then restricts it to its pair
//!    range ([`StudyContext::restrict_pair_range`]), so per-shard
//!    memory for pair-dimension state is `O(n/K)`. Each shard runs as a
//!    separate OS process speaking the `--shard i/K` CLI protocol.
//! 3. **Spill** ([`codec`], [`keepers`]): each worker writes its
//!    keepers — per-pair min/max RTT, reachability counts, and a
//!    [`QuantileSketch`] + [`FixedSum`] over min RTTs — to a compact
//!    versioned binary file whose checksummed header carries
//!    `(config_hash, seed, shard range)` provenance.
//! 4. **Merge** ([`keepers::merge_latency_shards`]): shard payloads
//!    concatenate in global pair order and keeper aggregates merge with
//!    the exact associative merges `leo_util::sketch` guarantees, so the
//!    final output is **bit-identical** to a single-process run and
//!    invariant to shard arrival order.
//!
//! Fig. 4's throughput is not sharded: its max-min-fair allocation is
//! one solve over every pair's sub-flows, so each worker would rebuild
//! the whole context and snapshots only to route a slice of the pairs,
//! and the coordinator would still hold every path (DESIGN.md §5.3).
//!
//! Telemetry: spills bump [`static@SHARD_SPILL_BYTES`], merges bump
//! [`static@SHARD_MERGE_NS`]; both ride the standard counter snapshot
//! into run manifests, and sharded workers emit ordinary `RUN_*.jsonl`
//! logs that `validate_run` accepts.
//!
//! [`StudyContext`]: leo_core::StudyContext
//! [`StudyContext::restrict_pair_range`]: leo_core::StudyContext::restrict_pair_range
//! [`QuantileSketch`]: leo_util::sketch::QuantileSketch
//! [`FixedSum`]: leo_util::sketch::FixedSum

pub mod codec;
pub mod keepers;
pub mod partition;
pub mod runner;

pub use codec::{ShardError, ShardHeader};
pub use keepers::{LatencyKeepers, MergedRun};
pub use partition::ShardSpec;

use leo_util::telemetry::Counter;

/// Total bytes written to shard spill files.
pub static SHARD_SPILL_BYTES: Counter = Counter::new("shard_spill_bytes");
/// Nanoseconds spent validating + merging shard payloads.
pub static SHARD_MERGE_NS: Counter = Counter::new("shard_merge_ns");
