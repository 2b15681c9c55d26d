//! Scoped-thread parallel map.
//!
//! The experiments are CPU-bound (thousands of Dijkstra runs per
//! snapshot), so — per the Rust networking guidance — an async runtime is
//! the wrong tool; plain scoped threads over an index-sharded work queue
//! are all we need, with no unsafe code and no extra dependencies.

use leo_util::telemetry::{Counter, Histogram, Level};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Telemetry: items processed across all `parallel_map` fan-outs.
static PAR_ITEMS: Counter = Counter::new("par_items_processed");
/// Telemetry: fan-out invocations.
static PAR_FANOUTS: Counter = Counter::new("par_fanouts");
/// Telemetry: per-worker busy nanoseconds (one sample per worker per
/// fan-out) — the imbalance fingerprint of the pipeline.
static PAR_WORKER_BUSY_NS: Histogram = Histogram::new("par_worker_busy_ns");

/// What one worker thread did during a [`parallel_map_stats`] fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items this worker pulled off the shared cursor.
    pub items: usize,
    /// Wall time this worker spent inside the mapped closure, ns.
    pub busy_ns: u64,
}

/// Per-worker accounting of one fan-out.
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// One entry per worker thread, in spawn order. Empty when the
    /// single-threaded fallback ran (0 or 1 workers requested, or a
    /// single item).
    pub workers: Vec<WorkerStats>,
}

impl ParStats {
    /// Sum of items across workers (equals the input length when the
    /// parallel path ran).
    pub fn total_items(&self) -> usize {
        self.workers.iter().map(|w| w.items).sum()
    }

    /// Sum of busy time across workers, ns.
    pub fn total_busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Max-over-mean busy time: 1.0 = perfectly balanced; large values
    /// mean one worker carried the fan-out. 0.0 when empty.
    pub fn imbalance(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        let max = self.workers.iter().map(|w| w.busy_ns).max().unwrap_or(0) as f64;
        let mean = self.total_busy_ns() as f64 / self.workers.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    }
}

/// Apply `f` to every item in parallel, preserving input order in the
/// output. `f` must be `Sync` (it is shared across threads).
///
/// Uses up to `threads` OS threads (0 = one per available core). Work is
/// distributed dynamically via an atomic cursor, so uneven item costs
/// (e.g. snapshots with more aircraft) balance out.
///
/// Results are deposited into per-thread local buffers and merged after
/// the workers join — there is **no lock anywhere on the per-item path**
/// (an earlier version took a global mutex per result, which serialized
/// the hottest fan-out in the pipeline: 96 snapshots × thousands of
/// Dijkstra runs).
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_stats(items, threads, f).0
}

/// [`parallel_map`] that also reports per-worker items/busy-time, so
/// load imbalance across the fan-out is visible. The stats are fed to
/// telemetry (`par_items_processed`, `par_worker_busy_ns`) when enabled.
/// Each worker joins the caller's telemetry run
/// ([`leo_util::telemetry::adopt_run`]), so its events reach the
/// caller's run log.
pub fn parallel_map_stats<T, R, F>(items: &[T], threads: usize, f: F) -> (Vec<R>, ParStats)
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return (Vec::new(), ParStats::default());
    }
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(4, |p| p.get())
    } else {
        threads
    }
    .min(n);
    if threads <= 1 {
        #[expect(
            clippy::disallowed_methods,
            reason = "feeds the busy_ns telemetry field only, which determinism comparisons exclude"
        )]
        let t0 = Instant::now();
        let out: Vec<R> = items.iter().map(&f).collect();
        let stats = ParStats {
            workers: vec![WorkerStats {
                items: n,
                busy_ns: t0.elapsed().as_nanos() as u64,
            }],
        };
        record_fanout(&stats);
        return (out, stats);
    }

    let cursor = AtomicUsize::new(0);
    let run = leo_util::telemetry::run_id();
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut stats = ParStats::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    leo_util::telemetry::adopt_run(run);
                    let mut local: Vec<(usize, R)> = Vec::new();
                    let mut busy_ns = 0u64;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        #[expect(
                            clippy::disallowed_methods,
                            reason = "feeds the busy_ns telemetry field only, which determinism comparisons exclude"
                        )]
                        let t0 = Instant::now();
                        let r = f(&items[i]);
                        busy_ns += t0.elapsed().as_nanos() as u64;
                        local.push((i, r));
                    }
                    (local, busy_ns)
                })
            })
            .collect();
        for w in workers {
            #[expect(
                clippy::expect_used,
                reason = "re-raising a worker panic on the coordinating thread is the intended failure mode"
            )]
            let (local, busy_ns) = w.join().expect("worker panicked");
            stats.workers.push(WorkerStats {
                items: local.len(),
                busy_ns,
            });
            for (i, r) in local {
                out[i] = Some(r);
            }
        }
    });
    record_fanout(&stats);
    (
        out.into_iter()
            .map(
                #[expect(
                    clippy::expect_used,
                    reason = "the atomic cursor hands each index to exactly one worker, so every slot is written"
                )]
                |r| r.expect("all slots filled"),
            )
            .collect(),
        stats,
    )
}

/// Feed one fan-out's stats to telemetry (no-op when disabled).
fn record_fanout(stats: &ParStats) {
    if !leo_util::telemetry::enabled(Level::Info) {
        return;
    }
    PAR_FANOUTS.add(1);
    PAR_ITEMS.add(stats.total_items() as u64);
    for w in &stats.workers {
        PAR_WORKER_BUSY_NS.record(w.busy_ns);
    }
    leo_util::telemetry::debug_log(|| {
        format!(
            "parallel_map: {} workers, {} items, imbalance {:.2}",
            stats.workers.len(),
            stats.total_items(),
            stats.imbalance()
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_fallback() {
        let items = vec![1, 2, 3];
        assert_eq!(parallel_map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<i32> = vec![];
        assert!(parallel_map(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still produce correct results.
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 8, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            (x, acc).0
        });
        assert_eq!(out, items);
    }

    #[test]
    fn order_preserved_under_many_uneven_items() {
        // 1,500 items whose costs differ by orders of magnitude, so the
        // dynamic cursor interleaves completions across threads heavily;
        // output order must still exactly match input order.
        let items: Vec<u64> = (0..1500).collect();
        let out = parallel_map(&items, 8, |&x| {
            let spin = (x % 13) * ((x % 3) * 7_000);
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            std::hint::black_box(acc);
            x * 31 + 7
        });
        assert_eq!(out.len(), items.len());
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u64 * 31 + 7, "slot {i} out of order");
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        let items = vec![5, 6];
        assert_eq!(parallel_map(&items, 0, |&x| x), vec![5, 6]);
    }

    #[test]
    fn stats_sum_to_item_count_under_uneven_costs() {
        // 1,200 items with costs spanning orders of magnitude: every item
        // must be accounted to exactly one worker, and each worker that
        // processed anything must report busy time.
        let items: Vec<u64> = (0..1200).collect();
        let (out, stats) = parallel_map_stats(&items, 8, |&x| {
            let spin = (x % 11) * ((x % 5) * 3_000);
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, items);
        assert_eq!(
            stats.total_items(),
            items.len(),
            "items must partition exactly"
        );
        assert!(stats.workers.len() <= 8);
        assert!(!stats.workers.is_empty());
        for (w, s) in stats.workers.iter().enumerate() {
            if s.items > 0 {
                assert!(
                    s.busy_ns > 0,
                    "worker {w} processed {} items in 0 ns",
                    s.items
                );
            }
        }
        assert!(stats.imbalance() >= 1.0 || stats.total_busy_ns() == 0);
    }

    #[test]
    fn stats_present_on_single_thread_path() {
        let items = vec![1u64, 2, 3];
        let (out, stats) = parallel_map_stats(&items, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
        assert_eq!(stats.workers.len(), 1);
        assert_eq!(stats.total_items(), 3);
    }

    #[test]
    fn imbalance_of_empty_stats_is_zero() {
        assert_eq!(ParStats::default().imbalance(), 0.0);
        let (_, stats) = parallel_map_stats::<u64, u64, _>(&[], 4, |&x| x);
        assert_eq!(stats.imbalance(), 0.0);
    }
}
