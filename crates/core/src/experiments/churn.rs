//! Path churn: how often end-to-end paths change between snapshots.
//!
//! The paper's latency-variability result (Fig. 2b) is a symptom of path
//! churn — BP paths depend on relay and aircraft geometry that shifts
//! continuously. This extension quantifies the churn itself: the
//! fraction of consecutive-snapshot transitions at which a pair's
//! shortest path changes its node sequence, and how much the RTT jumps
//! when it does.

use crate::snapshot::{Mode, StudyContext};
use leo_graph::with_thread_workspace;
use leo_util::sketch::FixedSum;
use leo_util::span;
use leo_util::telemetry::{Heartbeat, MetricSeries};

/// Churn statistics for one connectivity mode.
#[derive(Debug, Clone)]
pub struct ChurnStats {
    /// Fraction of (pair, transition) events where the path's node
    /// sequence changed.
    pub path_change_fraction: f64,
    /// Mean |ΔRTT| over transitions where the path changed, ms.
    pub mean_jump_ms: f64,
    /// Largest |ΔRTT| observed at a path change, ms.
    pub max_jump_ms: f64,
    /// Transitions evaluated (pairs × (snapshots − 1), minus
    /// unreachable endpoints).
    pub transitions: usize,
}

/// Per-pair streaming churn state inside one sweep chunk: the
/// observation at the chunk's first snapshot (for stitching with the
/// preceding chunk at merge time) and at its latest snapshot.
#[derive(Clone, Copy)]
struct PairChurn {
    first: Option<(u64, f64)>,
    prev: Option<(u64, f64)>,
}

/// Streaming accumulator for [`churn_study`].
struct ChurnAcc {
    /// Whether this chunk has processed at least one snapshot (an empty
    /// chunk must not contribute a phantom all-`None` boundary).
    started: bool,
    pairs: Vec<PairChurn>,
    transitions: u64,
    changes: u64,
    /// Fixed-point so the sum is exact and independent of both
    /// iteration order and chunk boundaries.
    jump_sum: FixedSum,
    jump_max: f64,
    series: MetricSeries,
}

/// Count one consecutive-snapshot transition for a pair.
#[inline]
fn count_transition(
    prev: Option<(u64, f64)>,
    next: Option<(u64, f64)>,
    transitions: &mut u64,
    changes: &mut u64,
    jump_sum: &mut FixedSum,
    jump_max: &mut f64,
) -> Option<f64> {
    let ((h0, r0), (h1, r1)) = (prev?, next?);
    *transitions += 1;
    if h0 == h1 {
        return None;
    }
    *changes += 1;
    let jump = (r1 - r0).abs();
    jump_sum.add(jump);
    *jump_max = jump_max.max(jump);
    Some(jump)
}

/// Measure path churn across the configured snapshots.
///
/// **Streaming**: the sweep folds each snapshot into per-pair
/// `{first, prev}` path observations plus running transition counters,
/// so memory is O(pairs) instead of O(snapshots × pairs). Transitions
/// that straddle a chunk boundary are stitched at merge time (chunks
/// merge in time order), and `|ΔRTT|` jumps accumulate into a
/// [`FixedSum`] so the totals are exact and identical for every thread
/// count. Each snapshot emits a `churn_jump_ms` `series` telemetry
/// event (boundary-stitched jumps are counted in the stats but not in
/// the series — they surface only at merge time, after the snapshot's
/// event has been emitted) and ticks a `churn_study` [`Heartbeat`].
///
/// Each snapshot runs one multi-target search per source city and reads
/// every pair's path off it.
pub fn churn_study(ctx: &StudyContext, mode: Mode, threads: usize) -> ChurnStats {
    let _span = span!(
        "churn_study",
        mode = format!("{mode:?}"),
        snapshots = ctx.config.snapshot_times_s.len(),
    );
    let times = ctx.config.snapshot_times_s.clone();
    let num_pairs = ctx.pairs.len();
    let hb = Heartbeat::new("churn_study", times.len() as u64);

    let acc = ctx.sweep_fold(
        &times,
        &[mode],
        threads,
        || ChurnAcc {
            started: false,
            pairs: vec![
                PairChurn {
                    first: None,
                    prev: None,
                };
                num_pairs
            ],
            transitions: 0,
            changes: 0,
            jump_sum: FixedSum::new(),
            jump_max: 0.0,
            series: MetricSeries::new("churn_jump_ms"),
        },
        |acc, ti, snaps| {
            let snap = &snaps[0];
            // Per snapshot, per pair: (node-sequence hash, rtt).
            let mut obs: Vec<Option<(u64, f64)>> = vec![None; num_pairs];
            let mut targets = Vec::new();
            with_thread_workspace(|ws| {
                for (src, idxs) in ctx.pairs_by_src() {
                    targets.clear();
                    targets.extend(
                        idxs.iter()
                            .map(|&i| snap.city_node(ctx.pairs[i].dst as usize)),
                    );
                    let view =
                        ws.run_multi(&snap.graph, snap.city_node(*src as usize), None, &targets);
                    for (&i, &d) in idxs.iter().zip(&targets) {
                        if let Some(path) = view.extract_path(d) {
                            obs[i] =
                                Some((hash_nodes(&path.nodes), crate::rtt_ms(path.total_weight)));
                        }
                    }
                }
            });
            let ChurnAcc {
                started,
                pairs,
                transitions,
                changes,
                jump_sum,
                jump_max,
                series,
            } = acc;
            if *started {
                for (p, o) in pairs.iter_mut().zip(&obs) {
                    if let Some(jump) =
                        count_transition(p.prev, *o, transitions, changes, jump_sum, jump_max)
                    {
                        series.record(jump);
                    }
                    p.prev = *o;
                }
            } else {
                *started = true;
                for (p, o) in pairs.iter_mut().zip(&obs) {
                    p.first = *o;
                    p.prev = *o;
                }
            }
            series.snapshot_done(ti, snap.t_s);
            hb.tick(1);
        },
        |a, b| {
            if !b.started {
                return;
            }
            if !a.started {
                *a = b;
                return;
            }
            let ChurnAcc {
                started: _,
                pairs,
                transitions,
                changes,
                jump_sum,
                jump_max,
                series,
            } = a;
            *transitions += b.transitions;
            *changes += b.changes;
            jump_sum.merge(&b.jump_sum);
            *jump_max = jump_max.max(b.jump_max);
            for (pa, pb) in pairs.iter_mut().zip(&b.pairs) {
                count_transition(pa.prev, pb.first, transitions, changes, jump_sum, jump_max);
                pa.prev = pb.prev;
            }
            series.merge(&b.series);
        },
    );

    let (transitions, changes) = (acc.transitions as usize, acc.changes as usize);
    ChurnStats {
        path_change_fraction: if transitions == 0 {
            0.0
        } else {
            changes as f64 / transitions as f64
        },
        mean_jump_ms: if changes == 0 {
            0.0
        } else {
            acc.jump_sum.value() / changes as f64
        },
        max_jump_ms: acc.jump_max,
        transitions,
    }
}

/// FNV-1a over the node sequence — collisions are irrelevant at this
/// scale and determinism is what matters.
fn hash_nodes(nodes: &[u32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for n in nodes {
        h ^= *n as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentScale;

    #[test]
    fn churn_is_measured_and_bounded() {
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        for mode in [Mode::BpOnly, Mode::Hybrid] {
            let s = churn_study(&ctx, mode, 2);
            assert!(s.transitions > 0);
            assert!((0.0..=1.0).contains(&s.path_change_fraction));
            assert!(s.mean_jump_ms >= 0.0 && s.max_jump_ms >= s.mean_jump_ms * 0.99);
        }
    }

    #[test]
    fn bp_jumps_are_larger() {
        // The paper's core claim, restated as churn: when BP paths change
        // they move the RTT more than hybrid path changes do.
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        let bp = churn_study(&ctx, Mode::BpOnly, 2);
        let hy = churn_study(&ctx, Mode::Hybrid, 2);
        assert!(
            bp.max_jump_ms >= hy.max_jump_ms,
            "BP max jump {} < hybrid {}",
            bp.max_jump_ms,
            hy.max_jump_ms
        );
    }

    #[test]
    fn churn_is_thread_count_invariant() {
        // Chunk-boundary stitching + FixedSum must make the streamed
        // stats bit-identical regardless of how the sweep is split.
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        let a = churn_study(&ctx, Mode::BpOnly, 1);
        for threads in [2, 3, 5] {
            let b = churn_study(&ctx, Mode::BpOnly, threads);
            assert_eq!(a.transitions, b.transitions);
            assert_eq!(
                a.path_change_fraction.to_bits(),
                b.path_change_fraction.to_bits()
            );
            assert_eq!(a.mean_jump_ms.to_bits(), b.mean_jump_ms.to_bits());
            assert_eq!(a.max_jump_ms.to_bits(), b.max_jump_ms.to_bits());
        }
    }

    #[test]
    fn fifteen_minute_snapshots_churn_heavily() {
        // LEO satellites cross a GT's sky in minutes, so at 15-minute
        // granularity nearly every path changes — churn near 1.0 is the
        // expected physical answer for both modes.
        let ctx = StudyContext::build(ExperimentScale::Tiny.config());
        let hy = churn_study(&ctx, Mode::Hybrid, 2);
        assert!(hy.path_change_fraction > 0.5);
    }
}
