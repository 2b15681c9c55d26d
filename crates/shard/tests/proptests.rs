//! Property-based tests for the shard payload codec and merge (on
//! `leo_util::check`): encode→decode identity on random keepers, total
//! (panic-free) decoding of mutated bytes, and merge invariance across
//! random shard-arrival permutations.

use leo_core::experiments::latency::PairStats;
use leo_core::Mode;
use leo_data::traffic::CityPair;
use leo_shard::codec::{decode_shard, encode_shard, ShardHeader};
use leo_shard::keepers::{merge_latency_shards, LatencyKeepers};
use leo_shard::partition::ShardSpec;
use leo_util::check::{check, CaseError, Gen};
use leo_util::{check_assert, check_assert_eq};

const MODES: [Mode; 2] = [Mode::BpOnly, Mode::Hybrid];

/// Random but *internally consistent* per-pair stats: a pair is either
/// never reachable (no RTTs) or reachable `1..=total` snapshots with
/// finite `min ≤ max`.
fn arb_stats(g: &mut Gen, n_pairs: usize, total: usize) -> Vec<Vec<PairStats>> {
    let pairs: Vec<CityPair> = (0..n_pairs)
        .map(|i| CityPair {
            src: i as u32,
            dst: g.u32(1000..2000),
        })
        .collect();
    MODES
        .iter()
        .map(|_| {
            pairs
                .iter()
                .map(|&pair| {
                    if g.bool() {
                        PairStats {
                            pair,
                            min_rtt_ms: None,
                            max_rtt_ms: None,
                            reachable: 0,
                            total,
                        }
                    } else {
                        let min = g.f64(1.0..200.0);
                        let max = min + g.f64(0.0..100.0);
                        PairStats {
                            pair,
                            min_rtt_ms: Some(min),
                            max_rtt_ms: Some(max),
                            reachable: g.usize(1..total + 1),
                            total,
                        }
                    }
                })
                .collect()
        })
        .collect()
}

fn header(spec: ShardSpec, lo: u64, hi: u64) -> ShardHeader {
    ShardHeader {
        config_hash: 0xabcd_ef01_2345_6789,
        seed: 7,
        shard_index: spec.index as u32,
        shard_count: spec.count as u32,
        pair_lo: lo,
        pair_hi: hi,
    }
}

/// Latency keepers survive encode→decode bit-exactly, and
/// `to_stats(from_stats(x)) == x`.
#[test]
fn latency_keepers_roundtrip() {
    check("latency_keepers_roundtrip", |g| {
        let total = g.usize(1..6);
        let n_pairs = g.usize(0..40);
        let stats = arb_stats(g, n_pairs, total);
        let keepers = LatencyKeepers::from_stats(&stats, &MODES, total as u64);
        let back = LatencyKeepers::decode(&keepers.encode())
            .map_err(|e| CaseError::fail(e.to_string()))?;
        check_assert_eq!(back, keepers);
        let pairs: Vec<CityPair> = stats[0].iter().map(|s| s.pair).collect();
        let restored = back
            .to_stats(&pairs)
            .map_err(|e| CaseError::fail(e.to_string()))?;
        for (mode_in, mode_out) in stats.iter().zip(&restored) {
            for (a, b) in mode_in.iter().zip(mode_out) {
                check_assert_eq!(a.pair, b.pair);
                check_assert_eq!(
                    a.min_rtt_ms.map(f64::to_bits),
                    b.min_rtt_ms.map(f64::to_bits)
                );
                check_assert_eq!(
                    a.max_rtt_ms.map(f64::to_bits),
                    b.max_rtt_ms.map(f64::to_bits)
                );
                check_assert_eq!(a.reachable, b.reachable);
                check_assert_eq!(a.total, b.total);
            }
        }
        Ok(())
    });
}

/// Decoding is total: random byte mutations (flips and truncations) of
/// a valid payload either decode or error, never panic — and a mutated
/// *file image* never decodes at all (the checksums catch it).
#[test]
fn mutated_bytes_never_panic_and_mutated_files_never_pass() {
    check("mutated_bytes_never_panic", |g| {
        let total = g.usize(1..4);
        let n_pairs = g.usize(1..20);
        let stats = arb_stats(g, n_pairs, total);
        let keepers = LatencyKeepers::from_stats(&stats, &MODES, total as u64);
        let payload = keepers.encode();
        let spec = ShardSpec::new(0, 1).map_err(CaseError::fail)?;
        let image = encode_shard(&header(spec, 0, stats[0].len() as u64), &payload);

        // Raw payload mutation: decode() must stay total.
        let mut bytes = payload.clone();
        let i = g.usize(0..bytes.len());
        bytes[i] ^= 1 << g.u32(0..8);
        let _ = LatencyKeepers::decode(&bytes);
        let cut = g.usize(0..bytes.len());
        let _ = LatencyKeepers::decode(&bytes[..cut]);

        // File-image mutation: the container must reject it outright.
        let mut img = image.clone();
        let i = g.usize(0..img.len());
        img[i] ^= 1 << g.u32(0..8);
        check_assert!(
            decode_shard(&img).is_err(),
            "bit flip at byte {i} of the file image went undetected"
        );
        Ok(())
    });
}

/// Merging the same shards in any arrival order yields the same result
/// as the identity order — and equals the unsharded keepers.
#[test]
fn latency_merge_is_order_invariant() {
    check("latency_merge_is_order_invariant", |g| {
        let total = g.usize(1..4);
        let n_pairs = g.usize(0..60);
        let k = g.usize(1..7);
        let stats = arb_stats(g, n_pairs, total);
        let full = LatencyKeepers::from_stats(&stats, &MODES, total as u64);

        let mut shards = Vec::new();
        for spec in ShardSpec::all(k) {
            let r = spec.range(n_pairs);
            let slice: Vec<Vec<PairStats>> = stats.iter().map(|m| m[r.clone()].to_vec()).collect();
            shards.push((
                header(spec, r.start as u64, r.end as u64),
                LatencyKeepers::from_stats(&slice, &MODES, total as u64),
            ));
        }

        // Random permutation (Fisher–Yates on the shard list).
        let mut shuffled = shards.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, g.usize(0..i + 1));
        }

        let (run_a, merged_a) =
            merge_latency_shards(shards).map_err(|e| CaseError::fail(e.to_string()))?;
        let (run_b, merged_b) =
            merge_latency_shards(shuffled).map_err(|e| CaseError::fail(e.to_string()))?;
        check_assert_eq!(run_a, run_b);
        check_assert_eq!(merged_a, merged_b);
        check_assert_eq!(merged_a, full);
        check_assert_eq!(run_a.n_pairs, n_pairs as u64);
        Ok(())
    });
}

/// Incompatible shard sets are refused: wrong config hash, wrong seed,
/// overlapping or gapped pair ranges, duplicate indices, wrong count.
#[test]
fn merge_rejects_incompatible_sets() {
    let total = 2usize;
    let n = 10usize;
    let stats: Vec<Vec<PairStats>> = MODES
        .iter()
        .map(|_| {
            (0..n)
                .map(|i| PairStats {
                    pair: CityPair {
                        src: i as u32,
                        dst: 99,
                    },
                    min_rtt_ms: Some(10.0 + i as f64),
                    max_rtt_ms: Some(20.0 + i as f64),
                    reachable: 1,
                    total,
                })
                .collect()
        })
        .collect();
    let shard_of = |spec: ShardSpec| {
        let r = spec.range(n);
        let slice: Vec<Vec<PairStats>> = stats.iter().map(|m| m[r.clone()].to_vec()).collect();
        (
            header(spec, r.start as u64, r.end as u64),
            LatencyKeepers::from_stats(&slice, &MODES, total as u64),
        )
    };
    let specs = ShardSpec::all(2);
    let (a, b) = (shard_of(specs[0]), shard_of(specs[1]));

    assert!(merge_latency_shards(vec![a.clone(), b.clone()]).is_ok());
    assert!(merge_latency_shards(vec![]).is_err(), "empty set");
    assert!(
        merge_latency_shards(vec![a.clone()]).is_err(),
        "missing shard"
    );
    assert!(
        merge_latency_shards(vec![a.clone(), a.clone()]).is_err(),
        "duplicate shard"
    );
    let mut wrong_hash = b.clone();
    wrong_hash.0.config_hash ^= 1;
    assert!(
        merge_latency_shards(vec![a.clone(), wrong_hash]).is_err(),
        "foreign config hash"
    );
    let mut wrong_seed = b.clone();
    wrong_seed.0.seed ^= 1;
    assert!(
        merge_latency_shards(vec![a.clone(), wrong_seed]).is_err(),
        "foreign seed"
    );
    let mut gap = b.clone();
    gap.0.pair_lo += 1;
    gap.1.modes.iter_mut().for_each(|m| {
        m.min.remove(0);
        m.max.remove(0);
        m.reachable.remove(0);
    });
    assert!(
        merge_latency_shards(vec![a.clone(), gap]).is_err(),
        "gapped ranges"
    );
    let mut short = b.clone();
    short.1.modes.iter_mut().for_each(|m| {
        m.min.pop();
        m.max.pop();
        m.reachable.pop();
    });
    assert!(
        merge_latency_shards(vec![a, short]).is_err(),
        "payload shorter than its header range"
    );
}
