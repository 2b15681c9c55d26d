//! Zero-dependency tracing / metrics / run-manifest layer (std-only,
//! per the hermetic-build policy — see DESIGN.md).
//!
//! The pipeline's long multi-phase runs (96 snapshots × thousands of
//! Dijkstra runs, iterative water-filling, stochastic weather sweeps)
//! need provenance and per-phase timing without giving up the "stdout is
//! data" discipline of the figure harnesses. This module provides:
//!
//! * **structured spans** — [`span!`](crate::span) RAII guards recording wall-time
//!   (ns), nesting depth, and thread id, aggregated into per-phase
//!   totals for the final manifest;
//! * **counters & histograms** — lock-free `static` [`Counter`]s and
//!   fixed-bucket log₂-scale [`Histogram`]s (Dijkstra calls, max-min
//!   rounds, packetsim events, …);
//! * **a JSON-lines sink** — [`init`] opens `RUN_<label>.jsonl` (in
//!   `LEO_LOG_DIR`, default cwd) and [`finish_run`] appends counter and
//!   histogram records plus a final **manifest** record (config hash,
//!   RNG seed, thread count, per-phase wall-time totals);
//! * **streaming metric series** — [`MetricSeries`] wraps a mergeable
//!   [`QuantileSketch`](crate::sketch::QuantileSketch) and emits one
//!   `series` event per snapshot, so sweep drivers hold O(1) state
//!   instead of every per-pair sample (see DESIGN.md "Streaming
//!   telemetry");
//! * **live heartbeats** — [`Heartbeat`] periodically emits progress
//!   (items/s, ETA), current RSS (`/proc/self/statm`), peak RSS (the
//!   kernel's `VmHWM`), and a counter snapshot, cadence-gated by
//!   `LEO_LOG_HEARTBEAT`;
//! * **an env-controlled level** — `LEO_LOG=off|info|debug` (default
//!   `off`). When disabled, every hot-path operation costs exactly one
//!   relaxed atomic load and a predictable branch (pinned by the
//!   `telemetry` microbench, `BENCH_telemetry.json`).
//!
//! ## Event schema (one JSON object per line)
//!
//! | `type` | required fields |
//! |---|---|
//! | `run_start` | `label`, `level`, `t_ns` |
//! | `log` | `t_ns`, `msg` |
//! | `span` | `t_ns`, `name`, `dur_ns`, `depth`, `thread` (+optional `kv`) |
//! | `series` | `t_ns`, `name`, `index`, `t_s`, `count`, `low`, `sum`, `min`, `max`, `sub`, `buckets` |
//! | `heartbeat` | `t_ns`, `label`, `done`, `total`, `rate_per_s`, `eta_s`, `rss_kb`, `peak_rss_kb`, `counters` |
//! | `counter` | `name`, `value` |
//! | `hist` | `name`, `count`, `sum`, `min`, `max`, `buckets` |
//! | `manifest` | `label`, `config_hash`, `seed`, `threads`, `wall_ns`, `phases`, `counters` |
//!
//! The manifest is always the **last** line of a run file.
//! [`validate_event_line`] checks a single line against this schema (the
//! `validate_run` bin in `leo-bench` checks whole files; `scripts/ci.sh`
//! runs it on a fresh Tiny-scale run).
//!
//! Library code may record spans/counters without any setup: if the
//! level is enabled but no sink was [`init`]ialized, events go to
//! stderr, so unit tests and ad-hoc runs still see them.
//!
//! ## Run scope
//!
//! The level is process-wide, but the open sink belongs to one run:
//! [`init_at`] draws a fresh run id and stamps it on the sink and on the
//! calling thread, and [`adopt_run`] hands it to worker threads
//! (`leo_core::par` does so for every worker it spawns). `span`,
//! `series`, `heartbeat` and `log` events reach the sink, and spans
//! reach the manifest's phase table, only from threads of that run; a
//! thread outside it (say, a concurrent study in the same test binary)
//! writes nothing while another run's sink is open. Counters and
//! histograms stay process-wide: a manifest's `counters` and `hists`
//! total every thread of the process since start (or since
//! [`reset_for_tests`]).
#![expect(
    clippy::disallowed_methods,
    reason = "span timing is the clock's one home; measurement fields are excluded from determinism comparisons"
)]
#![expect(
    clippy::print_stderr,
    reason = "stderr is the fallback sink when the level is enabled but no run file is open"
)]

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Level

/// Telemetry verbosity, set via `LEO_LOG=off|info|debug`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Nothing is recorded; every probe is one relaxed load.
    Off = 0,
    /// Spans, counters, histograms, logs, and the run manifest.
    Info = 1,
    /// Everything in `Info` plus high-volume debug spans/events.
    Debug = 2,
}

impl Level {
    /// Parse an `LEO_LOG` value; unknown strings map to `Off`.
    pub fn parse(s: &str) -> Level {
        match s.trim().to_ascii_lowercase().as_str() {
            "info" | "1" | "on" | "true" => Level::Info,
            "debug" | "2" | "trace" => Level::Debug,
            _ => Level::Off,
        }
    }

    /// Stable lower-case name (`off`/`info`/`debug`).
    pub fn name(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }
}

/// 0xFF = "not yet read from the environment".
const LEVEL_UNSET: u8 = 0xFF;
static LEVEL: AtomicU8 = AtomicU8::new(LEVEL_UNSET);

/// First read: take `LEO_LOG` unless a level was set meanwhile. Another
/// thread's [`set_level`] can land between this thread's unset load and
/// the env read, and must win.
#[cold]
fn level_slow() -> u8 {
    let l = std::env::var("LEO_LOG").map_or(Level::Off, |v| Level::parse(&v)) as u8;
    match LEVEL.compare_exchange(LEVEL_UNSET, l, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => l,
        Err(set) => set,
    }
}

/// The current level (reads `LEO_LOG` once, lazily).
#[inline]
pub fn level() -> Level {
    let raw = LEVEL.load(Ordering::Relaxed);
    let raw = if raw == LEVEL_UNSET {
        level_slow()
    } else {
        raw
    };
    match raw {
        1 => Level::Info,
        2 => Level::Debug,
        _ => Level::Off,
    }
}

/// Is `l` currently enabled? The disabled path is one relaxed load plus
/// a compare (the claim `BENCH_telemetry.json` pins).
#[inline]
pub fn enabled(l: Level) -> bool {
    let raw = LEVEL.load(Ordering::Relaxed);
    if raw == LEVEL_UNSET {
        return level_slow() >= l as u8;
    }
    raw >= l as u8
}

/// Override the level programmatically (tests, benches). Takes
/// precedence over the lazily-read `LEO_LOG` value.
pub fn set_level(l: Level) {
    LEVEL.store(l as u8, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Clock, thread ids, sink

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Monotonic nanoseconds since the first telemetry probe of the process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);
/// Run ids handed out by [`init_at`]; 0 means "no run".
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD_ID: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static SPAN_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    static RUN: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Small dense id of the calling thread (assigned on first use).
pub fn thread_id() -> usize {
    THREAD_ID.with(|t| *t)
}

/// The run the calling thread belongs to: the id [`init_at`] drew on
/// this thread, or the one [`adopt_run`] handed it; 0 if neither.
pub fn run_id() -> u64 {
    RUN.get()
}

/// Make the calling thread part of run `id` (from [`run_id`] on the
/// thread that spawned it), so its events reach that run's sink.
pub fn adopt_run(id: u64) {
    RUN.set(id);
}

struct Sink {
    out: std::io::BufWriter<std::fs::File>,
    path: PathBuf,
    /// The run that opened the sink; only its threads write to it.
    run: u64,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Poison-tolerant locking for the telemetry registries: when an
/// experiment thread panics while holding (or after having held) one of
/// these locks, the guarded state is still a coherent set of counters —
/// telemetry must keep accepting events and flush what it has rather
/// than compound the failure with a second panic.
trait LockRecover<T> {
    fn lock_recover(&self) -> std::sync::MutexGuard<'_, T>;
}

impl<T> LockRecover<T> for Mutex<T> {
    fn lock_recover(&self) -> std::sync::MutexGuard<'_, T> {
        match self.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

/// Write one already-formatted JSON line to the sink when the calling
/// thread belongs to the sink's run, or to stderr if no sink is open.
/// While another run's sink is open the line is dropped. Returns whether
/// the line was written. Callers must pass a complete JSON object.
fn emit(line: &str) -> bool {
    let mut guard = SINK.lock_recover();
    match guard.as_mut() {
        Some(sink) if sink.run == RUN.get() => {
            let _ = writeln!(sink.out, "{line}");
            true
        }
        Some(_) => false,
        None => {
            eprintln!("{line}");
            true
        }
    }
}

/// Open the JSONL sink `RUN_<label>.jsonl` for this run.
///
/// Directory: `LEO_LOG_DIR` env var, else the current directory. Returns
/// `None` (and creates nothing) when the level is `Off`. A `run_start`
/// record is written immediately. Re-initializing replaces the sink.
/// The calling thread becomes the run's first thread (see the module's
/// "Run scope").
pub fn init(label: &str) -> Option<PathBuf> {
    if !enabled(Level::Info) {
        return None;
    }
    let dir = std::env::var_os("LEO_LOG_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    init_at(&dir, label)
}

/// [`init`] with an explicit directory (tests; `LEO_LOG_DIR` ignored).
///
/// Re-running the same label in one directory must not clobber the
/// earlier run file, so the name is collision-suffixed deterministically:
/// `RUN_<label>.jsonl`, then `RUN_<label>-01.jsonl`, `-02`, … (a counter,
/// not wall-clock, so reruns sort and diff predictably). Files are opened
/// with `create_new`, so concurrent runs race safely on the counter.
pub fn init_at(dir: &std::path::Path, label: &str) -> Option<PathBuf> {
    if !enabled(Level::Info) {
        return None;
    }
    std::fs::create_dir_all(dir).ok()?;
    let (file, path) = (0u32..100)
        .map(|n| {
            if n == 0 {
                dir.join(format!("RUN_{label}.jsonl"))
            } else {
                dir.join(format!("RUN_{label}-{n:02}.jsonl"))
            }
        })
        .find_map(|p| {
            match std::fs::File::options()
                .write(true)
                .create_new(true)
                .open(&p)
            {
                Ok(f) => Some(Some((f, p))),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => None,
                // Directory unwritable etc.: give up (matches the old
                // `.ok()?` behaviour).
                Err(_) => Some(None),
            }
        })
        // 100 collisions: recycle the base name rather than refusing to
        // log at all.
        .unwrap_or_else(|| {
            let p = dir.join(format!("RUN_{label}.jsonl"));
            std::fs::File::create(&p).ok().map(|f| (f, p))
        })?;
    let run = NEXT_RUN.fetch_add(1, Ordering::Relaxed);
    RUN.set(run);
    let mut guard = SINK.lock_recover();
    *guard = Some(Sink {
        out: std::io::BufWriter::new(file),
        path: path.clone(),
        run,
    });
    drop(guard);
    emit(&format!(
        "{{\"type\":\"run_start\",\"t_ns\":{},\"label\":{},\"level\":\"{}\"}}",
        now_ns(),
        json_string(label),
        level().name()
    ));
    Some(path)
}

/// Path of the currently-open sink, if any.
pub fn sink_path() -> Option<PathBuf> {
    SINK.lock_recover().as_ref().map(|s| s.path.clone())
}

// ---------------------------------------------------------------------------
// JSON helpers (writing)

/// JSON-escape and quote a string.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One `"key":"value"` fragment (both sides escaped) for [`span!`](crate::span) kv
/// lists. Values are always JSON strings, keeping the schema uniform.
pub fn json_kv(key: &str, value: &str) -> String {
    format!("{}:{}", json_string(key), json_string(value))
}

// ---------------------------------------------------------------------------
// Spans

/// Aggregated per-phase totals: `name → (count, total_ns, max_ns)`.
static PHASES: Mutex<Vec<(&'static str, u64, u64, u64)>> = Mutex::new(Vec::new());

/// RAII span guard; create via [`span!`](crate::span) (or [`Span::enter`]).
///
/// On drop (when the telemetry level is enabled) it emits a `span`
/// event carrying wall-time ns, nesting depth, and thread id, and, if
/// the event was written, folds the duration into the per-phase totals
/// reported by the manifest.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct Span {
    /// `None` when telemetry was disabled at entry (zero-cost drop).
    armed: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    kv: String,
    start: Instant,
    start_ns: u64,
    depth: u32,
}

impl Span {
    /// Enter a span. `kv` is only evaluated when the level is enabled;
    /// it must return a comma-joined list of [`json_kv`] fragments (or
    /// an empty string). `min_level` lets hot call sites demand `Debug`.
    pub fn enter(name: &'static str, min_level: Level, kv: impl FnOnce() -> String) -> Span {
        if !enabled(min_level) {
            return Span { armed: None };
        }
        let depth = SPAN_DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        Span {
            armed: Some(SpanInner {
                name,
                kv: kv(),
                start: Instant::now(),
                start_ns: now_ns(),
                depth,
            }),
        }
    }

    /// Name of the span (`""` for a disabled span).
    pub fn name(&self) -> &'static str {
        self.armed.as_ref().map_or("", |s| s.name)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.armed.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let kv = if inner.kv.is_empty() {
            String::new()
        } else {
            format!(",\"kv\":{{{}}}", inner.kv)
        };
        let written = emit(&format!(
            "{{\"type\":\"span\",\"t_ns\":{},\"name\":{},\"dur_ns\":{},\"depth\":{},\"thread\":{}{}}}",
            inner.start_ns,
            json_string(inner.name),
            dur_ns,
            inner.depth,
            thread_id(),
            kv
        ));
        if !written {
            return;
        }
        let mut phases = PHASES.lock_recover();
        match phases.iter_mut().find(|(n, ..)| *n == inner.name) {
            Some(entry) => {
                entry.1 += 1;
                entry.2 += dur_ns;
                entry.3 = entry.3.max(dur_ns);
            }
            None => phases.push((inner.name, 1, dur_ns, dur_ns)),
        }
    }
}

/// Enter an `Info`-level span: `let _s = span!("latency_study");` or
/// `let _s = span!("latency_study", mode = "bp", snapshots = n);`.
/// Key/value arguments are formatted with `Display` and only evaluated
/// when telemetry is enabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::telemetry::Span::enter($name, $crate::telemetry::Level::Info, String::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::telemetry::Span::enter($name, $crate::telemetry::Level::Info, || {
            let mut kv = String::new();
            $(
                if !kv.is_empty() { kv.push(','); }
                kv.push_str(&$crate::telemetry::json_kv(stringify!($k), &format!("{}", $v)));
            )+
            kv
        })
    };
}

/// [`span!`](crate::span) at `Debug` level, for per-snapshot / per-item scopes that
/// would flood an `info` run.
#[macro_export]
macro_rules! debug_span {
    ($name:expr) => {
        $crate::telemetry::Span::enter($name, $crate::telemetry::Level::Debug, String::new)
    };
    ($name:expr, $($k:ident = $v:expr),+ $(,)?) => {
        $crate::telemetry::Span::enter($name, $crate::telemetry::Level::Debug, || {
            let mut kv = String::new();
            $(
                if !kv.is_empty() { kv.push(','); }
                kv.push_str(&$crate::telemetry::json_kv(stringify!($k), &format!("{}", $v)));
            )+
            kv
        })
    };
}

// ---------------------------------------------------------------------------
// Diagnostics channel

/// Human-readable diagnostics: always printed to **stderr** (stdout is
/// reserved for figure data), and additionally recorded as a `log`
/// JSONL event when the level is enabled. Use via [`diag!`](crate::diag).
pub fn diag_str(msg: &str) {
    eprintln!("{msg}");
    if enabled(Level::Info) {
        emit(&format!(
            "{{\"type\":\"log\",\"t_ns\":{},\"msg\":{}}}",
            now_ns(),
            json_string(msg)
        ));
    }
}

/// `eprintln!`-style diagnostics through the telemetry logger: stderr
/// plus a `log` event when enabled. Keeps stdout machine-parseable.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        $crate::telemetry::diag_str(&format!($($arg)*))
    };
}

/// A `log` JSONL event at `Debug` level only — no stderr echo. For
/// high-volume markers (per-fan-out, per-snapshot) that would drown an
/// interactive run.
pub fn debug_log(msg: impl FnOnce() -> String) {
    if enabled(Level::Debug) {
        emit(&format!(
            "{{\"type\":\"log\",\"t_ns\":{},\"msg\":{}}}",
            now_ns(),
            json_string(&msg())
        ));
    }
}

// ---------------------------------------------------------------------------
// Counters

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

/// A named lock-free event counter, declared as a `static`:
///
/// ```
/// use leo_util::telemetry::Counter;
/// static DIJKSTRA_CALLS: Counter = Counter::new("dijkstra_calls");
/// DIJKSTRA_CALLS.add(1);
/// ```
///
/// Disabled cost: one relaxed load. Enabled cost: one relaxed
/// `fetch_add` (plus a one-time registration on first use, so the run
/// manifest can enumerate every counter the run touched).
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter; use in a `static`.
    pub const fn new(name: &'static str) -> Counter {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n` (no-op when telemetry is off).
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !enabled(Level::Info) {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    #[cold]
    fn register(&'static self) {
        let mut reg = COUNTERS.lock_recover();
        if !self.registered.swap(true, Ordering::Relaxed) {
            reg.push(self);
        }
    }

    /// Counter name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histograms

/// Bucket count: value `v` lands in bucket `⌈log₂(v+1)⌉` (bucket 0 holds
/// zeros, bucket `i ≥ 1` holds `[2^(i-1), 2^i)`), up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

static HISTOGRAMS: Mutex<Vec<&'static Histogram>> = Mutex::new(Vec::new());

/// A named lock-free fixed-bucket log₂-scale histogram, declared as a
/// `static` like [`Counter`]. Records `u64` samples (ns, bytes, queue
/// depths, …); disabled cost is one relaxed load.
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

/// Lower bound of bucket `i` (inclusive).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// Bucket index for a value.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

impl Histogram {
    /// A new histogram; use in a `static`.
    pub const fn new(name: &'static str) -> Histogram {
        // An inline-const repeat element: each array slot gets its own
        // fresh AtomicU64 (a named const here would trip
        // `declare_interior_mutable_const`).
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one sample (no-op when telemetry is off).
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled(Level::Info) {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        if !self.registered.load(Ordering::Relaxed) {
            self.register();
        }
    }

    #[cold]
    fn register(&'static self) {
        let mut reg = HISTOGRAMS.lock_recover();
        if !self.registered.swap(true, Ordering::Relaxed) {
            reg.push(self);
        }
    }

    /// Histogram name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Smallest sample (`u64::MAX` when empty).
    pub fn min(&self) -> u64 {
        self.min.load(Ordering::Relaxed)
    }

    /// Approximate quantile: the lower bound of the bucket where the
    /// cumulative count crosses `q` (0.0–1.0). 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                return bucket_lo(i);
            }
        }
        self.max()
    }

    /// `[bucket_lo, count]` pairs for non-empty buckets.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_lo(i), c))
            })
            .collect()
    }

    fn json_event(&self) -> String {
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .iter()
            .map(|(lo, c)| format!("[{lo},{c}]"))
            .collect();
        format!(
            "{{\"type\":\"hist\",\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
            json_string(self.name),
            self.count(),
            self.sum(),
            if self.count() == 0 { 0 } else { self.min() },
            self.max(),
            buckets.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// Streaming metric series

/// A named streaming metric: fixed-size sketch state that replaces
/// "collect every per-pair sample into a `Vec`" in the experiment
/// sweeps.
///
/// Usage inside a sweep fold: [`MetricSeries::record`] each sample while
/// a snapshot is being processed, then [`MetricSeries::snapshot_done`]
/// once per snapshot — this emits one `series` JSONL event (the
/// snapshot's count/sum/min/max plus the inline
/// [`QuantileSketch`](crate::sketch::QuantileSketch) buckets) and folds
/// the snapshot into a run-level sketch. Memory is O(1) in both the
/// sample count and the snapshot count.
///
/// Worker threads each own a `MetricSeries` for their chunk of the
/// sweep; [`MetricSeries::merge`] folds chunks together exactly (sketch
/// merge is associative and commutative), so the merged run sketch is
/// bit-identical for every thread count.
///
/// When the level is `Off`, [`MetricSeries::record`] is one relaxed
/// atomic load — the sketch is never touched.
#[derive(Debug, Clone)]
pub struct MetricSeries {
    name: &'static str,
    snap: crate::sketch::QuantileSketch,
    run: crate::sketch::QuantileSketch,
}

impl MetricSeries {
    /// A new, empty series.
    pub fn new(name: &'static str) -> MetricSeries {
        MetricSeries {
            name,
            snap: crate::sketch::QuantileSketch::new(),
            run: crate::sketch::QuantileSketch::new(),
        }
    }

    /// Series name (the `name` field of emitted `series` events).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Record one sample into the current snapshot (no-op when telemetry
    /// is off; non-finite samples are dropped by the sketch).
    #[inline]
    pub fn record(&mut self, v: f64) {
        if !enabled(Level::Info) {
            return;
        }
        self.snap.record(v);
    }

    /// Close the current snapshot: emit one `series` event tagged with
    /// the sweep `index` and simulation time `t_s`, fold the snapshot
    /// sketch into the run sketch, and reset the snapshot sketch.
    /// No-op when telemetry is off or no samples were recorded.
    pub fn snapshot_done(&mut self, index: usize, t_s: f64) {
        if !enabled(Level::Info) || self.snap.is_empty() {
            return;
        }
        emit(&format!(
            "{{\"type\":\"series\",\"t_ns\":{},\"name\":{},\"index\":{},\"t_s\":{},{}}}",
            now_ns(),
            json_string(self.name),
            index,
            t_s,
            self.snap.to_json_fragment()
        ));
        self.run.merge(&self.snap);
        self.snap = crate::sketch::QuantileSketch::new();
    }

    /// Fold another chunk's series in (exact; both run sketches merge,
    /// and any un-closed snapshot samples merge too).
    pub fn merge(&mut self, other: &MetricSeries) {
        self.run.merge(&other.run);
        self.snap.merge(&other.snap);
    }

    /// The run-level sketch (all snapshots closed so far).
    pub fn run_sketch(&self) -> &crate::sketch::QuantileSketch {
        &self.run
    }
}

// ---------------------------------------------------------------------------
// Heartbeats & RSS

/// Current resident set size in KiB from `/proc/self/statm` (Linux);
/// `None` where procfs is unavailable.
pub fn rss_kb() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/statm").ok()?;
    // statm fields are in pages; field 1 (0-based) is resident.
    let pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * (page_size_bytes() / 1024))
}

/// Peak resident set size of this process so far, in KiB: the kernel's
/// high-water mark (`VmHWM` in `/proc/self/status`), so it covers the
/// whole run, not only the moments [`rss_kb`] was read. 0 where procfs
/// is unavailable.
pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

fn page_size_bytes() -> u64 {
    // The kernels this workspace targets use 4 KiB pages; procfs offers
    // no portable page-size file and we avoid libc, so this is fixed.
    4096
}

/// Default heartbeat cadence when `LEO_LOG_HEARTBEAT` is unset, seconds.
const HEARTBEAT_DEFAULT_S: f64 = 10.0;

/// A progress heartbeat for long sweeps: emits periodic `heartbeat`
/// JSONL events carrying throughput (items/s), ETA, current and peak
/// RSS, and a snapshot of every registered [`Counter`] (so sweep-cache
/// counters like `sweep_edges_reused` are visible mid-run).
///
/// Cadence comes from the `LEO_LOG_HEARTBEAT` env var: seconds between
/// events (fractions allowed), `0` = every tick, `off` = never. Unset
/// defaults to 10 s. Heartbeats also require `LEO_LOG` at `info` or
/// higher — with telemetry off, [`Heartbeat::tick`] is one relaxed load.
///
/// The handle is cheaply cloneable (`Arc` inside) so parallel sweep
/// chunks share one progress count.
#[derive(Clone)]
pub struct Heartbeat {
    inner: std::sync::Arc<HeartbeatInner>,
}

struct HeartbeatInner {
    label: String,
    total: u64,
    done: AtomicU64,
    start_ns: u64,
    last_emit_ns: AtomicU64,
    /// Nanoseconds between events; `None` = disabled.
    cadence_ns: Option<u64>,
}

impl Heartbeat {
    /// A heartbeat for a sweep of `total` items (0 = unknown; ETA is
    /// then reported as 0).
    pub fn new(label: &str, total: u64) -> Heartbeat {
        let cadence_ns = if enabled(Level::Info) {
            match std::env::var("LEO_LOG_HEARTBEAT") {
                Err(_) => Some((HEARTBEAT_DEFAULT_S * 1e9) as u64),
                Ok(v) if v.trim().eq_ignore_ascii_case("off") => None,
                Ok(v) => v
                    .trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .map(|s| (s * 1e9) as u64),
            }
        } else {
            None
        };
        let now = now_ns();
        Heartbeat {
            inner: std::sync::Arc::new(HeartbeatInner {
                label: label.to_string(),
                total,
                done: AtomicU64::new(0),
                start_ns: now,
                last_emit_ns: AtomicU64::new(now),
                cadence_ns,
            }),
        }
    }

    /// Report `n` items finished; emits a `heartbeat` event when the
    /// cadence has elapsed (first tick past each cadence boundary wins
    /// via compare-exchange, so concurrent chunks emit exactly once).
    #[inline]
    pub fn tick(&self, n: u64) {
        if !enabled(Level::Info) {
            return;
        }
        let done = self.inner.done.fetch_add(n, Ordering::Relaxed) + n;
        let Some(cadence) = self.inner.cadence_ns else {
            return;
        };
        let now = now_ns();
        let last = self.inner.last_emit_ns.load(Ordering::Relaxed);
        if now.saturating_sub(last) >= cadence
            && self
                .inner
                .last_emit_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.emit_event(done, now);
        }
    }

    /// Items reported done so far.
    pub fn done(&self) -> u64 {
        self.inner.done.load(Ordering::Relaxed)
    }

    #[cold]
    fn emit_event(&self, done: u64, now: u64) {
        let elapsed_s = now.saturating_sub(self.inner.start_ns) as f64 / 1e9;
        let rate = if elapsed_s > 0.0 {
            done as f64 / elapsed_s
        } else {
            0.0
        };
        let eta_s = if rate > 0.0 && self.inner.total > done {
            (self.inner.total - done) as f64 / rate
        } else {
            0.0
        };
        let rss = rss_kb().unwrap_or(0);
        let counters: Vec<String> = COUNTERS
            .lock_recover()
            .iter()
            .map(|c| format!("{}:{}", json_string(c.name()), c.get()))
            .collect();
        emit(&format!(
            "{{\"type\":\"heartbeat\",\"t_ns\":{now},\"label\":{},\"done\":{done},\"total\":{},\
             \"rate_per_s\":{rate},\"eta_s\":{eta_s},\"rss_kb\":{rss},\"peak_rss_kb\":{},\
             \"counters\":{{{}}}}}",
            json_string(&self.inner.label),
            self.inner.total,
            peak_rss_kb(),
            counters.join(",")
        ));
    }
}

// ---------------------------------------------------------------------------
// Run manifest

/// Provenance of one run, written as the final JSONL record by
/// [`finish_run`].
#[derive(Debug, Clone)]
pub struct RunManifest {
    /// Run label (normally the bin name; matches `RUN_<label>.jsonl`).
    pub label: String,
    /// FNV-1a 64 hash of the config text (see [`fnv1a_64`] and
    /// `StudyConfig::to_kv_string`), formatted `0x…` in the record.
    pub config_hash: u64,
    /// Master RNG seed of the run.
    pub seed: u64,
    /// Worker thread count (0 = auto was requested; record the resolved
    /// number).
    pub threads: usize,
    /// Extra free-form provenance fields (`key`, `value`).
    pub extra: Vec<(String, String)>,
}

impl RunManifest {
    /// A manifest with the mandatory fields.
    pub fn new(label: &str, config_hash: u64, seed: u64, threads: usize) -> RunManifest {
        RunManifest {
            label: label.to_string(),
            config_hash,
            seed,
            threads,
            extra: Vec::new(),
        }
    }

    /// Attach an extra provenance field.
    pub fn with(mut self, key: &str, value: impl std::fmt::Display) -> RunManifest {
        self.extra.push((key.to_string(), value.to_string()));
        self
    }
}

/// FNV-1a 64-bit hash — the workspace's stable config fingerprint.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Emit every registered counter and histogram, then the final
/// `manifest` record, flush, and close the sink. No-op when disabled.
///
/// Returns the path of the closed run file, if a sink was open.
pub fn finish_run(manifest: &RunManifest) -> Option<PathBuf> {
    if !enabled(Level::Info) {
        return None;
    }
    for c in COUNTERS.lock_recover().iter() {
        emit(&format!(
            "{{\"type\":\"counter\",\"name\":{},\"value\":{}}}",
            json_string(c.name()),
            c.get()
        ));
    }
    for h in HISTOGRAMS.lock_recover().iter() {
        emit(&h.json_event());
    }

    let phases = PHASES.lock_recover();
    let phases_json: Vec<String> = phases
        .iter()
        .map(|(name, count, total_ns, max_ns)| {
            format!(
                "{}:{{\"count\":{count},\"total_ns\":{total_ns},\"max_ns\":{max_ns}}}",
                json_string(name)
            )
        })
        .collect();
    drop(phases);
    let counters_json: Vec<String> = COUNTERS
        .lock_recover()
        .iter()
        .map(|c| format!("{}:{}", json_string(c.name()), c.get()))
        .collect();
    let hists_json: Vec<String> = HISTOGRAMS
        .lock_recover()
        .iter()
        .map(|h| {
            format!(
                "{}:{{\"count\":{},\"max\":{},\"p95\":{}}}",
                json_string(h.name()),
                h.count(),
                h.max(),
                h.quantile(0.95)
            )
        })
        .collect();
    let extra_json: String = manifest
        .extra
        .iter()
        .map(|(k, v)| format!(",{}", json_kv(k, v)))
        .collect();
    emit(&format!(
        "{{\"type\":\"manifest\",\"label\":{},\"config_hash\":\"{:#018x}\",\"seed\":{},\
         \"threads\":{},\"wall_ns\":{},\"level\":\"{}\",\"phases\":{{{}}},\"counters\":{{{}}},\
         \"hists\":{{{}}}{}}}",
        json_string(&manifest.label),
        manifest.config_hash,
        manifest.seed,
        manifest.threads,
        now_ns(),
        level().name(),
        phases_json.join(","),
        counters_json.join(","),
        hists_json.join(","),
        extra_json,
    ));

    let mut guard = SINK.lock_recover();
    if let Some(mut sink) = guard.take() {
        let _ = sink.out.flush();
        Some(sink.path)
    } else {
        None
    }
}

/// Reset per-run aggregation state (phases; counters and histograms are
/// zeroed in place). For tests and multi-run processes.
pub fn reset_for_tests() {
    PHASES.lock_recover().clear();
    for c in COUNTERS.lock_recover().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in HISTOGRAMS.lock_recover().iter() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.min.store(u64::MAX, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
    *SINK.lock_recover() = None;
}

// ---------------------------------------------------------------------------
// Schema validation (reading side)

/// Minimal JSON value, produced by the in-tree validator parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as f64; integers round-trip to 2^53).
    Num(f64),
    /// String (unescaped).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (no trailing garbage allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Number, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number `{s}` at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // SAFETY: `b` is the byte view of a `&str`, so it is valid
                // UTF-8, and `utf8_len` derives the scalar's exact byte
                // length from its lead byte — the slice is one whole scalar
                // on a char boundary (continuation bytes never equal '"' or
                // '\\', so the escape scanner cannot split a scalar).
                out.push_str(unsafe {
                    std::str::from_utf8_unchecked(&b[*pos..*pos + utf8_len(b[*pos])])
                });
                *pos += utf8_len(b[*pos]);
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '['
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected , or ] at byte {}", *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // '{'
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected : at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected , or }} at byte {}", *pos)),
        }
    }
}

/// Every event type a `RUN_*.jsonl` file may contain.
pub const EVENT_TYPES: &[&str] = &[
    "run_start",
    "log",
    "span",
    "series",
    "heartbeat",
    "counter",
    "hist",
    "manifest",
];

/// Validate one JSONL event line against the documented schema.
///
/// Returns the event type on success. Fails on malformed JSON, unknown
/// event types, or missing/mistyped required fields.
pub fn validate_event_line(line: &str) -> Result<&'static str, String> {
    let v = Json::parse(line)?;
    let ty = v
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing string field `type`")?;
    let require_num = |keys: &[&str]| -> Result<(), String> {
        for k in keys {
            v.get(k)
                .and_then(Json::as_num)
                .ok_or(format!("{ty}: missing number field `{k}`"))?;
        }
        Ok(())
    };
    let require_str = |keys: &[&str]| -> Result<(), String> {
        for k in keys {
            v.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("{ty}: missing string field `{k}`"))?;
        }
        Ok(())
    };
    let require_obj = |keys: &[&str]| -> Result<(), String> {
        for k in keys {
            match v.get(k) {
                Some(Json::Obj(_)) => {}
                _ => return Err(format!("{ty}: missing object field `{k}`")),
            }
        }
        Ok(())
    };
    match ty {
        "run_start" => {
            require_str(&["label", "level"])?;
            require_num(&["t_ns"])?;
            Ok("run_start")
        }
        "log" => {
            require_str(&["msg"])?;
            require_num(&["t_ns"])?;
            Ok("log")
        }
        "span" => {
            require_str(&["name"])?;
            require_num(&["t_ns", "dur_ns", "depth", "thread"])?;
            Ok("span")
        }
        "series" => {
            require_str(&["name"])?;
            require_num(&[
                "t_ns", "index", "t_s", "count", "low", "sum", "min", "max", "sub",
            ])?;
            match v.get("buckets") {
                Some(Json::Arr(_)) => Ok("series"),
                _ => Err("series: missing array field `buckets`".into()),
            }
        }
        "heartbeat" => {
            require_str(&["label"])?;
            require_num(&[
                "t_ns",
                "done",
                "total",
                "rate_per_s",
                "eta_s",
                "rss_kb",
                "peak_rss_kb",
            ])?;
            require_obj(&["counters"])?;
            Ok("heartbeat")
        }
        "counter" => {
            require_str(&["name"])?;
            require_num(&["value"])?;
            Ok("counter")
        }
        "hist" => {
            require_str(&["name"])?;
            require_num(&["count", "sum", "min", "max"])?;
            match v.get("buckets") {
                Some(Json::Arr(_)) => Ok("hist"),
                _ => Err("hist: missing array field `buckets`".into()),
            }
        }
        "manifest" => {
            require_str(&["label", "config_hash", "level"])?;
            require_num(&["seed", "threads", "wall_ns"])?;
            require_obj(&["phases", "counters", "hists"])?;
            Ok("manifest")
        }
        other => Err(format!("unknown event type `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Global-state tests must not interleave.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: Mutex<()> = Mutex::new(());
        GUARD.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("info"), Level::Info);
        assert_eq!(Level::parse("DEBUG"), Level::Debug);
        assert_eq!(Level::parse("off"), Level::Off);
        assert_eq!(Level::parse("garbage"), Level::Off);
        assert_eq!(Level::parse(" 1 "), Level::Info);
        assert!(Level::Debug > Level::Info && Level::Info > Level::Off);
    }

    #[test]
    fn env_read_never_overrides_a_set_level() {
        let _g = lock();
        // A thread whose first probe found the level unset reads the env
        // after another thread set the level; the set level stays.
        set_level(Level::Debug);
        assert_eq!(level_slow(), Level::Debug as u8);
        assert_eq!(level(), Level::Debug);
        set_level(Level::Off);
    }

    #[test]
    fn bucket_boundaries() {
        // Bucket 0: zeros. Bucket i (i ≥ 1): [2^(i-1), 2^i).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..HIST_BUCKETS {
            // Lower bound of a bucket maps back into that bucket; the
            // value just below maps into the previous one.
            assert_eq!(bucket_index(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_index(bucket_lo(i) - 1), i - 1, "below bucket {i}");
        }
    }

    #[test]
    fn histogram_records_and_quantiles() {
        let _g = lock();
        set_level(Level::Info);
        static H: Histogram = Histogram::new("test_hist_records");
        H.record(0);
        H.record(1);
        H.record(100);
        H.record(1000);
        assert_eq!(H.count(), 4);
        assert_eq!(H.sum(), 1101);
        assert_eq!(H.min(), 0);
        assert_eq!(H.max(), 1000);
        // p50 lands in the bucket of the 2nd sample (value 1).
        assert_eq!(H.quantile(0.5), 1);
        // p100 lands in the bucket containing 1000: [512, 1024).
        assert_eq!(H.quantile(1.0), 512);
        let nz = H.nonzero_buckets();
        assert_eq!(nz.iter().map(|&(_, c)| c).sum::<u64>(), 4);
        set_level(Level::Off);
        reset_for_tests();
    }

    #[test]
    fn disabled_mode_emits_zero_events_and_costs_nothing() {
        let _g = lock();
        set_level(Level::Off);
        reset_for_tests();
        static C: Counter = Counter::new("test_disabled_counter");
        static H: Histogram = Histogram::new("test_disabled_hist");
        C.add(5);
        H.record(5);
        {
            let _s = span!("disabled_span", detail = 42);
        }
        assert_eq!(C.get(), 0, "disabled counter must not accumulate");
        assert_eq!(H.count(), 0, "disabled histogram must not accumulate");
        assert!(
            PHASES.lock_recover().is_empty(),
            "disabled span must not aggregate"
        );
        // init refuses to create a file when off.
        let dir = std::env::temp_dir().join("leo_telemetry_disabled");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(init_at(&dir, "nope").is_none());
        assert!(!dir.join("RUN_nope.jsonl").exists());
        let m = RunManifest::new("nope", 0, 0, 1);
        assert!(finish_run(&m).is_none());
    }

    #[test]
    fn span_nesting_and_timing_monotonicity() {
        let _g = lock();
        set_level(Level::Info);
        reset_for_tests();
        let dir = std::env::temp_dir().join("leo_telemetry_spans");
        let _ = std::fs::remove_dir_all(&dir);
        init_at(&dir, "spans").expect("sink");
        {
            let outer = span!("outer_phase");
            assert_eq!(outer.name(), "outer_phase");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span!("inner_phase", step = 1);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        let path = finish_run(&RunManifest::new("spans", 0xabc, 7, 2)).expect("path");
        set_level(Level::Off);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Every line validates; first is run_start, last is manifest.
        for l in &lines {
            validate_event_line(l).unwrap_or_else(|e| panic!("line failed: {e}\n{l}"));
        }
        assert_eq!(validate_event_line(lines[0]).unwrap(), "run_start");
        assert_eq!(
            validate_event_line(lines.last().unwrap()).unwrap(),
            "manifest"
        );
        // Inner span closes before outer and nests one deeper; the outer
        // duration dominates the inner.
        let spans: Vec<Json> = lines
            .iter()
            .filter_map(|l| {
                let v = Json::parse(l).unwrap();
                (v.get("type").and_then(Json::as_str) == Some("span")).then_some(v)
            })
            .collect();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.get("name").unwrap().as_str(), Some("inner_phase"));
        assert_eq!(outer.get("name").unwrap().as_str(), Some("outer_phase"));
        assert_eq!(inner.get("depth").unwrap().as_num(), Some(1.0));
        assert_eq!(outer.get("depth").unwrap().as_num(), Some(0.0));
        let d_in = inner.get("dur_ns").unwrap().as_num().unwrap();
        let d_out = outer.get("dur_ns").unwrap().as_num().unwrap();
        assert!(d_out >= d_in, "outer {d_out} must cover inner {d_in}");
        assert!(d_in >= 1_000_000.0, "inner slept ≥ 1 ms");
        // kv payload survived.
        assert_eq!(
            inner.get("kv").unwrap().get("step").unwrap().as_str(),
            Some("1")
        );
        // Manifest carries the phase totals and the config hash.
        let manifest = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(
            manifest.get("config_hash").unwrap().as_str(),
            Some("0x0000000000000abc")
        );
        assert_eq!(manifest.get("seed").unwrap().as_num(), Some(7.0));
        let phases = manifest.get("phases").unwrap();
        assert!(phases.get("outer_phase").is_some());
        assert!(phases.get("inner_phase").is_some());
        let _ = std::fs::remove_dir_all(&dir);
        reset_for_tests();
    }

    #[test]
    fn counters_accumulate_when_enabled() {
        let _g = lock();
        set_level(Level::Info);
        static C: Counter = Counter::new("test_enabled_counter");
        let before = C.get();
        C.add(3);
        C.add(4);
        assert_eq!(C.get(), before + 7);
        assert_eq!(C.name(), "test_enabled_counter");
        set_level(Level::Off);
        reset_for_tests();
    }

    #[test]
    fn fnv_hash_stable_and_sensitive() {
        // Pinned reference values (FNV-1a 64).
        assert_eq!(fnv1a_64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63dc4c8601ec8c);
        assert_ne!(fnv1a_64(b"seed = 42"), fnv1a_64(b"seed = 43"));
    }

    #[test]
    fn json_escaping_roundtrips() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let quoted = json_string(nasty);
        let back = Json::parse(&quoted).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn json_parser_handles_documents() {
        let v = Json::parse(r#"{"a":1,"b":[true,null,-2.5e3],"c":{"d":"x"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_num(), Some(1.0));
        match v.get("b").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::Bool(true));
                assert_eq!(items[1], Json::Null);
                assert_eq!(items[2], Json::Num(-2500.0));
            }
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_str(), Some("x"));
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"k":}"#).is_err());
    }

    #[test]
    fn validator_rejects_unknown_and_malformed() {
        assert!(validate_event_line("not json").is_err());
        assert!(validate_event_line(r#"{"type":"mystery"}"#).is_err());
        assert!(validate_event_line(r#"{"no_type":1}"#).is_err());
        // span missing dur_ns.
        assert!(
            validate_event_line(r#"{"type":"span","t_ns":1,"name":"x","depth":0,"thread":0}"#)
                .is_err()
        );
        // Good lines of each type pass.
        assert_eq!(
            validate_event_line(r#"{"type":"counter","name":"c","value":3}"#).unwrap(),
            "counter"
        );
        assert_eq!(
            validate_event_line(
                r#"{"type":"hist","name":"h","count":1,"sum":2,"min":2,"max":2,"buckets":[[2,1]]}"#
            )
            .unwrap(),
            "hist"
        );
        assert_eq!(
            validate_event_line(r#"{"type":"log","t_ns":5,"msg":"hello"}"#).unwrap(),
            "log"
        );
    }

    #[test]
    fn init_at_suffixes_instead_of_clobbering() {
        let _g = lock();
        set_level(Level::Info);
        reset_for_tests();
        let dir = std::env::temp_dir().join("leo_telemetry_collide");
        let _ = std::fs::remove_dir_all(&dir);
        let first = init_at(&dir, "clash").expect("first sink");
        assert!(first.ends_with("RUN_clash.jsonl"));
        finish_run(&RunManifest::new("clash", 0, 0, 1));
        let first_len = std::fs::metadata(&first).unwrap().len();
        assert!(first_len > 0);
        // Second run in the same dir: new file, first untouched.
        let second = init_at(&dir, "clash").expect("second sink");
        assert!(second.ends_with("RUN_clash-01.jsonl"), "{second:?}");
        finish_run(&RunManifest::new("clash", 0, 0, 1));
        assert_eq!(std::fs::metadata(&first).unwrap().len(), first_len);
        let third = init_at(&dir, "clash").expect("third sink");
        assert!(third.ends_with("RUN_clash-02.jsonl"), "{third:?}");
        finish_run(&RunManifest::new("clash", 0, 0, 1));
        set_level(Level::Off);
        let _ = std::fs::remove_dir_all(&dir);
        reset_for_tests();
    }

    #[test]
    fn metric_series_emits_valid_events_and_merges() {
        let _g = lock();
        set_level(Level::Info);
        reset_for_tests();
        let dir = std::env::temp_dir().join("leo_telemetry_series");
        let _ = std::fs::remove_dir_all(&dir);
        init_at(&dir, "series").expect("sink");
        let mut a = MetricSeries::new("rtt_ms");
        let mut b = MetricSeries::new("rtt_ms");
        for v in [10.0, 20.0, 30.0] {
            a.record(v);
        }
        a.snapshot_done(0, 0.0);
        for v in [40.0, 50.0] {
            b.record(v);
        }
        b.snapshot_done(1, 900.0);
        a.merge(&b);
        assert_eq!(a.run_sketch().count(), 5);
        assert_eq!(a.run_sketch().min(), 10.0);
        assert_eq!(a.run_sketch().max(), 50.0);
        let path = finish_run(&RunManifest::new("series", 0, 0, 1)).expect("path");
        set_level(Level::Off);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut series_lines = 0;
        let mut rebuilt = crate::sketch::QuantileSketch::new();
        for l in text.lines() {
            if validate_event_line(l).unwrap() == "series" {
                series_lines += 1;
                let v = Json::parse(l).unwrap();
                assert_eq!(v.get("name").unwrap().as_str(), Some("rtt_ms"));
                rebuilt.merge(&crate::sketch::QuantileSketch::from_json(&v).unwrap());
            }
        }
        assert_eq!(series_lines, 2);
        // The file's merged series matches the in-process run sketch.
        assert_eq!(rebuilt.count(), 5);
        assert_eq!(rebuilt.min().to_bits(), a.run_sketch().min().to_bits());
        assert_eq!(rebuilt.max().to_bits(), a.run_sketch().max().to_bits());
        assert_eq!(rebuilt.nonzero_buckets(), a.run_sketch().nonzero_buckets());
        let _ = std::fs::remove_dir_all(&dir);
        reset_for_tests();
    }

    #[test]
    fn metric_series_disabled_records_nothing() {
        let _g = lock();
        set_level(Level::Off);
        let mut s = MetricSeries::new("noop");
        s.record(1.0);
        s.snapshot_done(0, 0.0);
        assert!(s.run_sketch().is_empty());
    }

    #[test]
    fn heartbeat_emits_on_every_tick_at_zero_cadence() {
        let _g = lock();
        set_level(Level::Info);
        reset_for_tests();
        let dir = std::env::temp_dir().join("leo_telemetry_heartbeat");
        let _ = std::fs::remove_dir_all(&dir);
        init_at(&dir, "hb").expect("sink");
        std::env::set_var("LEO_LOG_HEARTBEAT", "0");
        let hb = Heartbeat::new("hb_test", 10);
        std::env::remove_var("LEO_LOG_HEARTBEAT");
        for _ in 0..4 {
            hb.tick(1);
        }
        assert_eq!(hb.done(), 4);
        let path = finish_run(&RunManifest::new("hb", 0, 0, 1)).expect("path");
        set_level(Level::Off);
        let text = std::fs::read_to_string(&path).unwrap();
        let beats: Vec<Json> = text
            .lines()
            .filter(|l| validate_event_line(l).unwrap() == "heartbeat")
            .map(|l| Json::parse(l).unwrap())
            .collect();
        assert!(!beats.is_empty(), "zero cadence must emit heartbeats");
        let last = beats.last().unwrap();
        assert_eq!(last.get("label").unwrap().as_str(), Some("hb_test"));
        assert_eq!(last.get("total").unwrap().as_num(), Some(10.0));
        // On Linux the statm read works and peak tracks current.
        if rss_kb().is_some() {
            let rss = last.get("rss_kb").unwrap().as_num().unwrap();
            assert!(rss > 0.0);
            assert!(peak_rss_kb() as f64 >= rss);
        }
        let _ = std::fs::remove_dir_all(&dir);
        reset_for_tests();
    }

    #[test]
    fn heartbeat_off_cadence_never_emits() {
        let _g = lock();
        set_level(Level::Info);
        reset_for_tests();
        std::env::set_var("LEO_LOG_HEARTBEAT", "off");
        let hb = Heartbeat::new("silent", 5);
        std::env::remove_var("LEO_LOG_HEARTBEAT");
        assert!(hb.inner.cadence_ns.is_none());
        hb.tick(5);
        assert_eq!(hb.done(), 5);
        set_level(Level::Off);
        reset_for_tests();
    }

    #[test]
    fn peak_rss_is_the_kernels_high_water_mark() {
        // A buffer filled and freed between two reads still counts: the
        // peak covers the whole process lifetime, not the sampled reads.
        let Some(before) = rss_kb() else { return };
        let buf = vec![0xa5u8; 64 << 20];
        std::hint::black_box(&buf);
        drop(buf);
        let peak = peak_rss_kb();
        assert!(
            peak >= before + (60 << 10),
            "peak {peak} KiB after a 64 MiB fill from {before} KiB"
        );
    }

    #[test]
    fn validator_accepts_series_and_heartbeat() {
        assert_eq!(
            validate_event_line(
                r#"{"type":"series","t_ns":1,"name":"m","index":0,"t_s":0,"count":2,"low":0,"sum":3,"min":1,"max":2,"sub":32,"buckets":[[2048,2]]}"#
            )
            .unwrap(),
            "series"
        );
        assert_eq!(
            validate_event_line(
                r#"{"type":"heartbeat","t_ns":1,"label":"x","done":1,"total":2,"rate_per_s":0.5,"eta_s":2,"rss_kb":100,"peak_rss_kb":100,"counters":{"c":1}}"#
            )
            .unwrap(),
            "heartbeat"
        );
        // Missing sketch payload fields fail.
        assert!(
            validate_event_line(r#"{"type":"series","t_ns":1,"name":"m","index":0,"t_s":0}"#)
                .is_err()
        );
        assert!(validate_event_line(r#"{"type":"heartbeat","t_ns":1,"label":"x"}"#).is_err());
    }

    #[test]
    fn thread_ids_are_distinct() {
        let main_id = thread_id();
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(main_id, other);
        // Stable within a thread.
        assert_eq!(main_id, thread_id());
    }
}
