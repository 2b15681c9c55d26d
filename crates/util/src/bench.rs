//! A no-dependency timing harness (replaces `criterion` for this
//! workspace's benches).
//!
//! Protocol per benchmark: the closure is auto-calibrated so one sample
//! takes a measurable chunk of time, warmed up, then timed for a fixed
//! number of samples; the harness records min/mean/median/p95 across
//! samples (per-iteration nanoseconds) and appends one JSON line per
//! benchmark to `BENCH_<label>.json`:
//!
//! ```json
//! {"label":"seed","bench":"fig2_latency","median_ns":123456.0,...}
//! ```
//!
//! * Output directory: `LEO_BENCH_DIR` env var, else the current
//!   directory. The file is truncated per harness run, so each
//!   `BENCH_*.json` holds the latest run of that suite — the perf
//!   trajectory across PRs is the git history of these files.
//! * A human-readable line per benchmark is printed to stdout.
#![expect(
    clippy::disallowed_methods,
    reason = "the bench harness is a clock reader by design: timing closures is its job"
)]
#![expect(
    clippy::print_stdout,
    reason = "the bench harness reports to the bench binary's stdout, one line per benchmark"
)]

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Samples taken per benchmark (after warmup).
const SAMPLES: usize = 12;
/// Warmup samples (discarded).
const WARMUP_SAMPLES: usize = 3;
/// Target wall-clock time for one sample, in nanoseconds.
const TARGET_SAMPLE_NS: f64 = 20_000_000.0;
/// Hard cap on iterations per sample (cheap closures would otherwise
/// calibrate into the millions and make suites slow).
const MAX_ITERS: u64 = 100_000;

/// Summary statistics of one benchmark, in per-iteration nanoseconds.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters_per_sample: u64,
    /// Number of measured samples.
    pub samples: usize,
    /// Minimum per-iteration time, ns.
    pub min_ns: f64,
    /// Mean per-iteration time, ns.
    pub mean_ns: f64,
    /// Median per-iteration time, ns.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time, ns.
    pub p95_ns: f64,
}

impl BenchResult {
    fn json_line(&self, label: &str) -> String {
        format!(
            "{{\"label\":\"{}\",\"bench\":\"{}\",\"iters_per_sample\":{},\"samples\":{},\
             \"min_ns\":{:.1},\"mean_ns\":{:.1},\"median_ns\":{:.1},\"p95_ns\":{:.1}}}",
            label,
            self.name,
            self.iters_per_sample,
            self.samples,
            self.min_ns,
            self.mean_ns,
            self.median_ns,
            self.p95_ns,
        )
    }
}

/// A benchmark suite writing `BENCH_<label>.json`.
#[derive(Debug)]
pub struct Harness {
    label: String,
    results: Vec<BenchResult>,
}

impl Harness {
    /// New suite with the given label (used in the output filename).
    pub fn new(label: &str) -> Self {
        Harness {
            label: label.to_string(),
            results: Vec::new(),
        }
    }

    /// Time `f`, recording per-iteration statistics under `name`.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) {
        // Calibrate: run once to estimate cost, then pick an iteration
        // count that fills the target sample time.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once_ns = t0.elapsed().as_nanos().max(1) as f64;
        let iters = ((TARGET_SAMPLE_NS / once_ns).ceil() as u64).clamp(1, MAX_ITERS);

        let mut per_iter_ns = Vec::with_capacity(SAMPLES);
        for sample in 0..WARMUP_SAMPLES + SAMPLES {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            let ns = t.elapsed().as_nanos() as f64 / iters as f64;
            if sample >= WARMUP_SAMPLES {
                per_iter_ns.push(ns);
            }
        }
        per_iter_ns.sort_by(f64::total_cmp);
        let n = per_iter_ns.len();
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample: iters,
            samples: n,
            min_ns: per_iter_ns[0],
            mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
            median_ns: median_sorted(&per_iter_ns),
            p95_ns: percentile_sorted(&per_iter_ns, 0.95),
        };
        println!(
            "bench {:<40} median {:>12.1} ns/iter  p95 {:>12.1} ns/iter  ({} iters × {} samples)",
            result.name, result.median_ns, result.p95_ns, iters, n
        );
        self.results.push(result);
    }

    /// Results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Write `BENCH_<label>.json` (JSON lines) and return its path.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let dir = std::env::var_os("LEO_BENCH_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.label));
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for r in &self.results {
            writeln!(out, "{}", r.json_line(&self.label))?;
        }
        out.flush()?;
        println!("wrote {}", path.display());
        Ok(path)
    }
}

/// Median of an ascending-sorted slice.
fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Percentile (nearest-rank interpolation) of an ascending-sorted slice.
fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median_sorted(&v), 2.5);
        assert_eq!(median_sorted(&v[..3]), 2.0);
        assert_eq!(percentile_sorted(&v, 1.0), 4.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert!((percentile_sorted(&v, 0.5) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn bench_records_sane_stats() {
        let mut h = Harness::new("util_selftest");
        h.bench("noop_sum", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        let r = &h.results()[0];
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.p95_ns);
        assert_eq!(r.samples, SAMPLES);
    }

    #[test]
    fn json_line_shape() {
        let r = BenchResult {
            name: "x".into(),
            iters_per_sample: 10,
            samples: 12,
            min_ns: 1.0,
            mean_ns: 2.0,
            median_ns: 1.5,
            p95_ns: 3.0,
        };
        let line = r.json_line("seed");
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"bench\":\"x\""));
        assert!(line.contains("\"label\":\"seed\""));
        assert!(line.contains("\"median_ns\":1.5"));
    }

    #[test]
    fn finish_writes_json_lines() {
        let dir = std::env::temp_dir().join("leo_util_bench_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("LEO_BENCH_DIR", &dir);
        let mut h = Harness::new("selftest_io");
        h.bench("tiny", || 1 + 1);
        let path = h.finish().unwrap();
        std::env::remove_var("LEO_BENCH_DIR");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"bench\":\"tiny\""));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
