//! The shard payload: the per-pair latency keepers a worker spills and
//! the exact associative merge that reassembles a full run.
//!
//! [`LatencyKeepers`] hold fig2's per-pair `{min RTT, max RTT,
//! reachable}` fold plus whole-shard keeper aggregates (a
//! [`QuantileSketch`] and a [`FixedSum`] over the reachable pairs' min
//! RTTs). Merging concatenates the disjoint pair ranges and merges the
//! sketches with the exact associative merges `leo_util::sketch`
//! guarantees, so the merged result is bit-identical to a
//! single-process run.
//!
//! Every decode is total: malformed bytes produce
//! [`ShardError::Corrupt`], never a panic, and cross-field invariants
//! (array lengths, sketch-vs-array consistency, header pair ranges) are
//! re-verified so a corrupted payload that slips past the checksum still
//! cannot mis-merge silently.

use crate::codec::{ShardError, ShardHeader};
use leo_core::experiments::latency::PairStats;
use leo_core::Mode;
use leo_data::traffic::CityPair;
use leo_util::buf::{ByteReader, ByteWriter};
use leo_util::sketch::{FixedSum, QuantileSketch};

fn mode_tag(m: Mode) -> u8 {
    match m {
        Mode::BpOnly => 0,
        Mode::Hybrid => 1,
        Mode::IslOnly => 2,
    }
}

fn mode_from_tag(t: u8) -> Result<Mode, ShardError> {
    match t {
        0 => Ok(Mode::BpOnly),
        1 => Ok(Mode::Hybrid),
        2 => Ok(Mode::IslOnly),
        _ => Err(ShardError::Corrupt(format!("unknown mode tag {t}"))),
    }
}

/// Bit-level f64 slice equality (distinguishes `0.0`/`-0.0`, treats
/// equal-bits NaN as equal) — the right notion for "same spilled bytes".
fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Canonical sketch equality over the serialized fields. The sketch's
/// bucket vector is lazily allocated, so a derived comparison would
/// distinguish "never recorded" from "all-zero buckets"; comparing the
/// accessor views doesn't.
fn sketch_eq(a: &QuantileSketch, b: &QuantileSketch) -> bool {
    a.count() == b.count()
        && a.low_count() == b.low_count()
        && a.sum_fixed() == b.sum_fixed()
        && a.min().to_bits() == b.min().to_bits()
        && a.max().to_bits() == b.max().to_bits()
        && a.nonzero_buckets() == b.nonzero_buckets()
}

/// One mode's per-pair latency keepers over this shard's pair range.
#[derive(Debug, Clone)]
pub struct ModeLatencyKeepers {
    /// Connectivity mode these keepers were folded under.
    pub mode: Mode,
    /// Per-pair min RTT (ms) across snapshots; `INFINITY` = never
    /// reachable (matching the streaming fold's accumulator).
    pub min: Vec<f64>,
    /// Per-pair max RTT (ms); `NEG_INFINITY` = never reachable.
    pub max: Vec<f64>,
    /// Per-pair count of snapshots with a path.
    pub reachable: Vec<u32>,
    /// Keeper aggregate: sketch of the reachable pairs' min RTTs (the
    /// fig2a metric) — merges exactly across shards.
    pub min_rtt_sketch: QuantileSketch,
    /// Keeper aggregate: exact sum of the reachable pairs' min RTTs.
    pub min_rtt_sum: FixedSum,
}

impl PartialEq for ModeLatencyKeepers {
    fn eq(&self, other: &Self) -> bool {
        self.mode == other.mode
            && bits_eq(&self.min, &other.min)
            && bits_eq(&self.max, &other.max)
            && self.reachable == other.reachable
            && sketch_eq(&self.min_rtt_sketch, &other.min_rtt_sketch)
            && self.min_rtt_sum == other.min_rtt_sum
    }
}

/// The latency shard payload: per-mode keepers plus the snapshot count
/// every pair was evaluated over.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyKeepers {
    /// Snapshots evaluated (identical across shards of one run).
    pub total: u64,
    /// One entry per study mode, in study order.
    pub modes: Vec<ModeLatencyKeepers>,
}

impl LatencyKeepers {
    /// Fold per-mode [`PairStats`] (one inner `Vec` per mode, as
    /// returned by `latency_studies` on a range-restricted context)
    /// into spillable keepers. `total` is the snapshot count — passed
    /// explicitly so zero-pair shards still stamp it.
    pub fn from_stats(studies: &[Vec<PairStats>], modes: &[Mode], total: u64) -> LatencyKeepers {
        let modes = modes
            .iter()
            .zip(studies)
            .map(|(&mode, stats)| {
                let mut sketch = QuantileSketch::new();
                let mut sum = FixedSum::new();
                let mut keep = ModeLatencyKeepers {
                    mode,
                    min: Vec::with_capacity(stats.len()),
                    max: Vec::with_capacity(stats.len()),
                    reachable: Vec::with_capacity(stats.len()),
                    min_rtt_sketch: QuantileSketch::new(),
                    min_rtt_sum: FixedSum::new(),
                };
                for s in stats {
                    keep.min.push(s.min_rtt_ms.unwrap_or(f64::INFINITY));
                    keep.max.push(s.max_rtt_ms.unwrap_or(f64::NEG_INFINITY));
                    keep.reachable.push(s.reachable as u32);
                    if let Some(m) = s.min_rtt_ms {
                        sketch.record(m);
                        sum.add(m);
                    }
                }
                keep.min_rtt_sketch = sketch;
                keep.min_rtt_sum = sum;
                keep
            })
            .collect();
        LatencyKeepers { total, modes }
    }

    /// Rebuild per-mode [`PairStats`] for `pairs` (the city pairs this
    /// payload's range covers, in the same order). Exact inverse of
    /// [`LatencyKeepers::from_stats`] given matching pairs.
    pub fn to_stats(&self, pairs: &[CityPair]) -> Result<Vec<Vec<PairStats>>, ShardError> {
        self.modes
            .iter()
            .map(|m| {
                if m.min.len() != pairs.len() {
                    return Err(ShardError::Incompatible(format!(
                        "payload covers {} pairs, caller supplied {}",
                        m.min.len(),
                        pairs.len()
                    )));
                }
                Ok(pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &pair)| {
                        let reachable = m.reachable[i] as usize;
                        PairStats {
                            pair,
                            min_rtt_ms: (reachable > 0).then_some(m.min[i]),
                            max_rtt_ms: (reachable > 0).then_some(m.max[i]),
                            reachable,
                            total: self.total as usize,
                        }
                    })
                    .collect())
            })
            .collect()
    }

    /// Number of pairs this payload covers.
    pub fn num_pairs(&self) -> usize {
        self.modes.first().map_or(0, |m| m.min.len())
    }

    /// Encode as a shard payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.total);
        w.u32(self.modes.len() as u32);
        for m in &self.modes {
            w.u8(mode_tag(m.mode));
            w.u64(m.min.len() as u64);
            for &v in &m.min {
                w.f64(v);
            }
            for &v in &m.max {
                w.f64(v);
            }
            for &v in &m.reachable {
                w.u32(v);
            }
            let s = &m.min_rtt_sketch;
            w.u64(s.count());
            w.u64(s.low_count());
            w.i128(s.sum_fixed().raw());
            w.f64(s.min());
            w.f64(s.max());
            let buckets = s.nonzero_buckets();
            w.u32(buckets.len() as u32);
            for (k, c) in buckets {
                w.u32(k as u32);
                w.u64(c);
            }
            w.i128(m.min_rtt_sum.raw());
        }
        w.into_bytes()
    }

    /// Decode and cross-validate a shard payload. Beyond the structural
    /// checks, the keeper aggregates are re-derived from the per-pair
    /// arrays and must match exactly — a payload whose sketch disagrees
    /// with its own arrays is corrupt, checksum notwithstanding.
    pub fn decode(bytes: &[u8]) -> Result<LatencyKeepers, ShardError> {
        let mut r = ByteReader::new(bytes);
        let total = r.u64()?;
        let n_modes = r.u32()? as usize;
        if n_modes > 16 {
            return Err(ShardError::Corrupt(format!(
                "implausible mode count {n_modes}"
            )));
        }
        let mut modes = Vec::with_capacity(n_modes);
        let mut n_pairs: Option<usize> = None;
        for _ in 0..n_modes {
            let mode = mode_from_tag(r.u8()?)?;
            let n = r.u64()? as usize;
            if bytes.len() < n {
                // Cheap plausibility bound before allocating: each pair
                // needs ≥ 20 payload bytes, so n can never exceed len.
                return Err(ShardError::Corrupt(format!("implausible pair count {n}")));
            }
            match n_pairs {
                None => n_pairs = Some(n),
                Some(p) if p != n => {
                    return Err(ShardError::Corrupt(format!(
                        "mode pair counts disagree: {p} vs {n}"
                    )));
                }
                Some(_) => {}
            }
            let mut min = Vec::with_capacity(n);
            for _ in 0..n {
                min.push(r.f64()?);
            }
            let mut max = Vec::with_capacity(n);
            for _ in 0..n {
                max.push(r.f64()?);
            }
            let mut reachable = Vec::with_capacity(n);
            for _ in 0..n {
                reachable.push(r.u32()?);
            }
            let count = r.u64()?;
            let low = r.u64()?;
            let sum = FixedSum::from_raw(r.i128()?);
            let (smin, smax) = (r.f64()?, r.f64()?);
            let n_buckets = r.u32()? as usize;
            if n_buckets > 4096 {
                return Err(ShardError::Corrupt(format!(
                    "implausible bucket count {n_buckets}"
                )));
            }
            let mut buckets = Vec::with_capacity(n_buckets);
            for _ in 0..n_buckets {
                buckets.push((r.u32()? as usize, r.u64()?));
            }
            let min_rtt_sketch =
                QuantileSketch::from_raw_parts(count, low, sum, smin, smax, &buckets)
                    .map_err(ShardError::Corrupt)?;
            let min_rtt_sum = FixedSum::from_raw(r.i128()?);

            // Cross-validation: re-derive the keeper aggregates.
            let mut expect_sketch = QuantileSketch::new();
            let mut expect_sum = FixedSum::new();
            for (i, &m) in min.iter().enumerate() {
                let reached = reachable[i] > 0;
                if reached != m.is_finite() || reached != max[i].is_finite() {
                    return Err(ShardError::Corrupt(format!(
                        "pair {i}: reachable={} but min={m} max={}",
                        reachable[i], max[i]
                    )));
                }
                if u64::from(reachable[i]) > total {
                    return Err(ShardError::Corrupt(format!(
                        "pair {i}: reachable {} of {total} snapshots",
                        reachable[i]
                    )));
                }
                if reached {
                    expect_sketch.record(m);
                    expect_sum.add(m);
                }
            }
            if !sketch_eq(&expect_sketch, &min_rtt_sketch) {
                return Err(ShardError::Corrupt(
                    "min-RTT sketch disagrees with per-pair arrays".into(),
                ));
            }
            if expect_sum != min_rtt_sum {
                return Err(ShardError::Corrupt(
                    "min-RTT FixedSum disagrees with per-pair arrays".into(),
                ));
            }
            modes.push(ModeLatencyKeepers {
                mode,
                min,
                max,
                reachable,
                min_rtt_sketch,
                min_rtt_sum,
            });
        }
        if !r.is_exhausted() {
            return Err(ShardError::Corrupt("trailing bytes after payload".into()));
        }
        Ok(LatencyKeepers { total, modes })
    }
}

/// Provenance of a completed merge, for manifests and reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MergedRun {
    /// The (shared) config hash of every merged shard.
    pub config_hash: u64,
    /// The (shared) study seed.
    pub seed: u64,
    /// How many shards were merged.
    pub shard_count: u32,
    /// Total pairs covered, `0..n_pairs` contiguously.
    pub n_pairs: u64,
}

/// Verify that `shards` are exactly the `K` shards of one run: same
/// config hash, seed and declared count; indices a permutation of
/// `0..K`; pair ranges tiling `0..n` contiguously after sorting;
/// per-shard payload sizes matching their header ranges. Returns the
/// shards sorted by `pair_lo` plus the run provenance.
fn validate_shard_set(
    mut shards: Vec<(ShardHeader, LatencyKeepers)>,
) -> Result<(MergedRun, Vec<(ShardHeader, LatencyKeepers)>), ShardError> {
    let Some(first) = shards.first() else {
        return Err(ShardError::Incompatible("no shards to merge".into()));
    };
    let (h0, _) = first;
    let run = MergedRun {
        config_hash: h0.config_hash,
        seed: h0.seed,
        shard_count: h0.shard_count,
        n_pairs: 0,
    };
    if shards.len() != run.shard_count as usize {
        return Err(ShardError::Incompatible(format!(
            "{} shard files for a {}-shard run",
            shards.len(),
            run.shard_count
        )));
    }
    for (h, payload) in &shards {
        if h.config_hash != run.config_hash {
            return Err(ShardError::Incompatible(format!(
                "config hash {:#018x} != {:#018x} — shards from different runs",
                h.config_hash, run.config_hash
            )));
        }
        if h.seed != run.seed {
            return Err(ShardError::Incompatible(format!(
                "seed {} != {} — shards from different runs",
                h.seed, run.seed
            )));
        }
        if h.shard_count != run.shard_count {
            return Err(ShardError::Incompatible(format!(
                "shard count {} != {}",
                h.shard_count, run.shard_count
            )));
        }
        let declared = (h.pair_hi - h.pair_lo) as usize;
        if payload.num_pairs() != declared {
            return Err(ShardError::Corrupt(format!(
                "shard {} payload covers {} pairs, header says {declared}",
                h.shard_index,
                payload.num_pairs()
            )));
        }
    }
    shards.sort_by_key(|(h, _)| (h.pair_lo, h.shard_index));
    let mut next = 0u64;
    let mut seen = vec![false; shards.len()];
    for (h, _) in &shards {
        if h.pair_lo != next {
            return Err(ShardError::Incompatible(format!(
                "pair ranges not contiguous: expected shard starting at {next}, got {}..{}",
                h.pair_lo, h.pair_hi
            )));
        }
        next = h.pair_hi;
        let idx = h.shard_index as usize;
        if seen[idx] {
            return Err(ShardError::Incompatible(format!(
                "duplicate shard index {idx}"
            )));
        }
        seen[idx] = true;
    }
    Ok((
        MergedRun {
            n_pairs: next,
            ..run
        },
        shards,
    ))
}

/// Merge latency shards into the full run's keepers. Order-invariant:
/// shards may arrive in any permutation (they are re-sorted by
/// `pair_lo`); per-pair arrays concatenate in global pair order and the
/// keeper aggregates merge with the exact associative sketch merges, so
/// the result is bit-identical to a single-process run — and identical
/// across merge orders.
pub fn merge_latency_shards(
    shards: Vec<(ShardHeader, LatencyKeepers)>,
) -> Result<(MergedRun, LatencyKeepers), ShardError> {
    let t0 = leo_util::telemetry::now_ns();
    let (run, shards) = validate_shard_set(shards)?;
    let total = shards[0].1.total;
    let mode_seq: Vec<Mode> = shards[0].1.modes.iter().map(|m| m.mode).collect();
    for (h, k) in &shards {
        if k.total != total {
            return Err(ShardError::Incompatible(format!(
                "shard {} folded {} snapshots, expected {total}",
                h.shard_index, k.total
            )));
        }
        let seq: Vec<Mode> = k.modes.iter().map(|m| m.mode).collect();
        if seq != mode_seq {
            return Err(ShardError::Incompatible(format!(
                "shard {} modes {seq:?}, expected {mode_seq:?}",
                h.shard_index
            )));
        }
    }
    let mut merged = LatencyKeepers {
        total,
        modes: mode_seq
            .iter()
            .map(|&mode| ModeLatencyKeepers {
                mode,
                min: Vec::with_capacity(run.n_pairs as usize),
                max: Vec::with_capacity(run.n_pairs as usize),
                reachable: Vec::with_capacity(run.n_pairs as usize),
                min_rtt_sketch: QuantileSketch::new(),
                min_rtt_sum: FixedSum::new(),
            })
            .collect(),
    };
    for (_, k) in &shards {
        for (out, m) in merged.modes.iter_mut().zip(&k.modes) {
            out.min.extend_from_slice(&m.min);
            out.max.extend_from_slice(&m.max);
            out.reachable.extend_from_slice(&m.reachable);
            out.min_rtt_sketch.merge(&m.min_rtt_sketch);
            out.min_rtt_sum.merge(&m.min_rtt_sum);
        }
    }
    crate::SHARD_MERGE_NS.add(leo_util::telemetry::now_ns() - t0);
    Ok((run, merged))
}
