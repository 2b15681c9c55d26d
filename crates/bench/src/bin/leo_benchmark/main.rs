//! `leo_benchmark` — the repository's end-to-end benchmark.
//!
//! ```text
//! leo_benchmark [run|trace] [--workload NAME] [--seed S] [--seconds N] [--trace 0|1]
//! leo_benchmark compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! * `run` (or `--trace 0`, the default) repeats one workload's real
//!   driver with telemetry off until `--seconds` have passed (at least
//!   five times), between two set-up phases that build its contexts
//!   repeatedly (`setup_s` is the median build time), and reports the
//!   end-to-end metrics.
//! * `trace` (or `--trace 1`) alternates for `--seconds` (at least three
//!   times each) untraced repetitions with replays of the driver through
//!   its public calls, a span around each call into a layer, and reports
//!   the per-layer metrics.
//! * `compare` judges two directories of saved results (see
//!   `compare.rs`).
//!
//! Without `--workload`, every workload runs in turn, each in its own
//! process so that its peak RSS is its own. The seed (default 42) picks
//! the start of the simulated day and the weather process (see
//! `workloads.rs` for why nothing else). Every repetition's output digest
//! is checked: against the digest pinned for seed 42, and for any other
//! seed against the first repetition's. The last line of stdout is the
//! JSON result; the lines before it are a readable table.
//!
//! Load model: a closed loop in one process — each repetition starts
//! when the previous one ends, and each driver fans out over
//! `available_parallelism()` threads (printed as `threads=`).
//!
//! See `README.md` beside this file for why each workload exists.

mod compare;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use leo_core::{GroundSegment, StudyConfig, StudyContext};
use leo_data::{sample_city_pairs, FlightSchedule};
use leo_util::telemetry::{self, now_ns, Json, Level};
use metrics::{Metric, TraceInputs, END_TO_END};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use workloads::{Output, Size, Workload, PINNED_SEED};

/// Measuring time per run when `--seconds` is not given, s (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 12.0;
/// Context builds in each of `run`'s two set-up phases at least, and
/// each phase's seconds at least, so cheap set-ups (~15 ms) get many
/// samples. One phase comes before the first repetition and one after
/// the last, so `setup_s` samples the machine's drifting speed at both
/// ends of the run without rebuilding between repetitions (184 MiB on
/// `coverage_day`), which would disturb the allocator and caches the
/// timed study runs on.
const MIN_SETUPS: usize = 3;
const SETUP_SECONDS: f64 = 0.5;
/// Set-ups whose components `trace` times.
const SETUP_REPS: usize = 5;
/// Repetitions per `run` at least, however long they take.
const MIN_REPS: usize = 5;
/// Traced (and untraced) repetitions per `trace` at least.
const MIN_TRACE_REPS: usize = 3;

const USAGE: &str = "usage: leo_benchmark [run|trace] [--workload NAME] [--seed S] \
                     [--seconds N] [--trace 0|1]\n       leo_benchmark compare PARENT_DIR CHANGE_DIR";

#[derive(Debug, Clone, PartialEq)]
struct Options {
    traced: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
}

#[derive(Debug, PartialEq)]
enum Cli {
    Bench(Options),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Cli, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, a, b] => Ok(Cli::Compare(PathBuf::from(a), PathBuf::from(b))),
            _ => Err("compare takes two directories".to_string()),
        };
    }
    let mut o = Options {
        traced: false,
        workload: None,
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "run" => o.traced = false,
            "trace" => o.traced = true,
            "--trace" => {
                o.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--workload" => {
                let v = value()?;
                o.workload = Some(Workload::from_name(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("bad seconds {v}"))?;
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    Ok(Cli::Bench(o))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Cli::Compare(parent, change)) => compare::run(&parent, &change),
        Ok(Cli::Bench(o)) => match o.workload {
            Some(w) => match bench(w, &o) {
                Ok(()) => 0,
                Err(msg) => {
                    eprintln!("leo_benchmark: {msg}");
                    1
                }
            },
            None => bench_all(&o),
        },
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

/// Every workload in turn, each in a child process of this binary.
fn bench_all(o: &Options) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("leo_benchmark: current_exe: {e}");
            return 1;
        }
    };
    let mut code = 0;
    for w in workloads::ALL {
        let status = std::process::Command::new(&exe)
            .arg(if o.traced { "trace" } else { "run" })
            .args(["--workload", w.name()])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            eprintln!("leo_benchmark: workload {} failed: {status:?}", w.name());
            code = 1;
        }
    }
    code
}

fn secs_since(t0_ns: u64) -> f64 {
    now_ns().saturating_sub(t0_ns) as f64 / 1e9
}

/// Peak resident set size of this process so far (`VmHWM`), MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Checks output digests: every repetition must match the digest
/// pinned for [`PINNED_SEED`], or for other seeds the first one seen.
struct DigestCheck {
    expected: Option<u64>,
}

impl DigestCheck {
    fn new(w: Workload, seed: u64) -> DigestCheck {
        DigestCheck {
            expected: (seed == PINNED_SEED).then(|| w.pinned_digest()),
        }
    }

    fn accept(&mut self, digest: u64) -> bool {
        let expected = *self.expected.get_or_insert(digest);
        if expected != digest {
            eprintln!("leo_benchmark: output digest {digest:#018x}, expected {expected:#018x}");
        }
        expected == digest
    }
}

/// Timed repetitions of one driver.
struct Reps<T> {
    walls: Vec<f64>,
    extras: Vec<T>,
    attempted: usize,
    failed: usize,
}

impl<T> Reps<T> {
    fn new() -> Reps<T> {
        Reps {
            walls: Vec::new(),
            extras: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Time one repetition `f(rep)`. It fails if it panics (caught) or
    /// its digest is wrong; its wall time counts unless it panicked.
    fn once(&mut self, check: &mut DigestCheck, f: impl FnOnce(u32) -> (Output, T)) {
        let rep = self.attempted as u32;
        self.attempted += 1;
        let t0 = now_ns();
        let out = catch_unwind(AssertUnwindSafe(|| f(rep)));
        let wall = secs_since(t0);
        match out {
            Ok((out, extra)) => {
                self.walls.push(wall);
                self.extras.push(extra);
                if !check.accept(out.digest()) {
                    self.failed += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }
}

/// Build the workload's contexts at least `builds` times and for at
/// least `seconds`; returns the last set and each build's seconds.
fn set_up(configs: &[StudyConfig], builds: usize, seconds: f64) -> (Vec<StudyContext>, Vec<f64>) {
    let mut ctxs = Vec::new();
    let mut secs = Vec::new();
    let start = now_ns();
    while secs.len() < builds.max(1) || secs_since(start) < seconds {
        drop(std::mem::take(&mut ctxs));
        let t0 = now_ns();
        ctxs = configs.iter().cloned().map(StudyContext::build).collect();
        secs.push(secs_since(t0));
    }
    (ctxs, secs)
}

fn bench(w: Workload, o: &Options) -> Result<(), String> {
    // Measure with telemetry off whatever LEO_LOG says; `trace` turns it
    // on for its traced repetitions only.
    telemetry::set_level(Level::Off);
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "leo_benchmark {} workload={} seed={} threads={threads}",
        if o.traced { "trace" } else { "run" },
        w.name(),
        o.seed
    );
    let configs = w.configs(o.seed, Size::Full);
    let mut check = DigestCheck::new(w, o.seed);
    let (correct, attempted, failed, metrics) = if o.traced {
        trace_workload(w, o, &configs, &mut check)?
    } else {
        run_workload(w, o, &configs, &mut check)
    };
    println!("{:<42} {:>14} {:>5}  unit", "metric", "value", "n");
    for m in &metrics {
        println!(
            "{:<42} {:>14.6} {:>5}  {:<6} {}",
            m.name, m.value, m.n, m.unit, m.note
        );
    }
    println!(
        "failed_frac {failed}/{attempted} digest={}",
        check
            .expected
            .map_or("none".to_string(), |d| format!("{d:#018x}"))
    );
    println!(
        "{}",
        metrics::result_json(correct, attempted, failed, &metrics)
    );
    Ok(())
}

/// The [`END_TO_END`] metrics, in order, from per-repetition wall
/// times, per-build set-up times and the peak RSS: medians, with the
/// quartiles beside them.
fn end_to_end(walls: &[f64], setups: &[f64], peak_rss_mib: Option<f64>) -> Vec<Metric> {
    let rss: Vec<f64> = peak_rss_mib.into_iter().collect();
    let values = [walls, setups, &rss];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, values)| {
            let (q1, q3) = stats::quartiles(values);
            Metric {
                name: def.name,
                value: stats::median(values),
                unit: def.unit,
                n: values.len(),
                note: format!(
                    "q1={q1:.6} q3={q3:.6} ({} is better, bound {})",
                    def.better.name(),
                    def.bound
                ),
            }
        })
        .collect()
}

fn run_workload(
    w: Workload,
    o: &Options,
    configs: &[StudyConfig],
    check: &mut DigestCheck,
) -> (bool, usize, usize, Vec<Metric>) {
    let start = now_ns();
    let (ctxs, mut setup) = set_up(configs, MIN_SETUPS, SETUP_SECONDS);
    let mut reps = Reps::new();
    let mut peak_rss = None;
    while reps.attempted < MIN_REPS || secs_since(start) < o.seconds {
        reps.once(check, |_| (w.run_driver(&ctxs, o.seed), ()));
        // A figure binary runs its study once per process, so the peak
        // that counts is the one after set-up and the first repetition;
        // later repetitions only add the allocator's fragmentation,
        // which varies with thread timing.
        if reps.attempted == 1 {
            peak_rss = peak_rss_mib();
        }
    }
    drop(ctxs);
    setup.extend(set_up(configs, MIN_SETUPS, SETUP_SECONDS).1);
    let metrics = end_to_end(&reps.walls, &setup, peak_rss);
    let correct = reps.failed == 0 && !reps.walls.is_empty();
    (correct, reps.attempted, reps.failed, metrics)
}

/// Median seconds of the three set-up components, over `SETUP_REPS`
/// set-ups (summed over the workload's configs).
fn time_setup_components(configs: &[StudyConfig]) -> (f64, f64, f64) {
    let (mut ground, mut flights, mut traffic) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        let (mut g, mut f, mut p) = (0.0, 0.0, 0.0);
        for cfg in configs {
            let t0 = now_ns();
            let seg = GroundSegment::build(cfg);
            g += secs_since(t0);
            let t0 = now_ns();
            std::hint::black_box(FlightSchedule::new(cfg.flight_density));
            f += secs_since(t0);
            let t0 = now_ns();
            std::hint::black_box(sample_city_pairs(
                &seg.cities,
                cfg.num_pairs,
                cfg.min_pair_distance_m,
                cfg.seed,
            ));
            p += secs_since(t0);
        }
        ground.push(g);
        flights.push(f);
        traffic.push(p);
    }
    (
        stats::median(&ground),
        stats::median(&flights),
        stats::median(&traffic),
    )
}

fn trace_workload(
    w: Workload,
    o: &Options,
    configs: &[StudyConfig],
    check: &mut DigestCheck,
) -> Result<(bool, usize, usize, Vec<Metric>), String> {
    let (ctxs, _) = set_up(configs, 1, 0.0);
    let (ground_s, flights_s, traffic_s) = time_setup_components(configs);

    // Untraced and traced repetitions alternate, so slow drift of the
    // machine's speed cancels out of the tracing overhead. Traced ones
    // run with telemetry at info so the program's own counters count.
    let log = RunLog::start()?;
    let (mut untraced, mut traced) = (Reps::new(), Reps::new());
    let start = now_ns();
    while traced.attempted < MIN_TRACE_REPS || secs_since(start) < o.seconds {
        telemetry::set_level(Level::Off);
        untraced.once(check, |_| (w.run_driver(&ctxs, o.seed), ()));
        telemetry::set_level(Level::Info);
        traced.once(check, |rep| replay::replay(w, &ctxs, o.seed, rep));
    }
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let manifest = telemetry::RunManifest::new(
        "leo_benchmark",
        telemetry::fnv1a_64(configs[0].to_kv_string().as_bytes()),
        o.seed,
        threads,
    );
    let ProgramCounts {
        counters,
        par_busy_ns,
    } = log.finish(&manifest)?;

    let busy_spans: f64 = traced
        .extras
        .iter()
        .map(|t| trace::self_times(&t.spans).fanout_busy_ns)
        .sum();
    if par_busy_ns > 0.0 {
        println!(
            "spans cover {:.1}% of the program's par_worker_busy_ns",
            100.0 * busy_spans / par_busy_ns
        );
    }
    let inputs = TraceInputs {
        counters,
        ground_s,
        flights_s,
        traffic_s,
        setups: SETUP_REPS,
        run_wall_s: stats::median(&untraced.walls),
        traced_wall_s: stats::median(&traced.walls),
    };
    let metrics = metrics::per_layer(&traced.extras, &inputs);
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    let correct = failed == 0 && !traced.extras.is_empty();
    Ok((correct, attempted, failed, metrics))
}

/// The program's own counters, as a finished run log's manifest gives
/// them (totals since the process started), and its summed
/// `par_worker_busy_ns` histogram.
#[derive(Debug, Default)]
struct ProgramCounts {
    counters: BTreeMap<String, f64>,
    par_busy_ns: f64,
}

/// A telemetry run log, kept only until its counters are read back.
struct RunLog {
    dir: PathBuf,
}

impl RunLog {
    /// Turn telemetry to info and open a run log in a directory beside
    /// this executable, which is in the build directory.
    fn start() -> Result<RunLog, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let dir = exe.with_file_name(format!("leo_benchmark_log.{}", std::process::id()));
        telemetry::set_level(Level::Info);
        telemetry::init_at(&dir, "leo_benchmark")
            .ok_or_else(|| format!("cannot open a run log in {}", dir.display()))?;
        Ok(RunLog { dir })
    }

    /// Close the log, read its counters, remove it, and turn telemetry
    /// off.
    fn finish(self, manifest: &telemetry::RunManifest) -> Result<ProgramCounts, String> {
        telemetry::set_level(Level::Info);
        let path = telemetry::finish_run(manifest);
        telemetry::set_level(Level::Off);
        let counts = match path {
            Some(path) => read_run_log(&path),
            None => Err("the run log was not open".to_string()),
        };
        let _ = std::fs::remove_dir_all(&self.dir);
        counts
    }
}

fn read_run_log(path: &Path) -> Result<ProgramCounts, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("run log {}: {e}", path.display()))?;
    let mut counts = ProgramCounts::default();
    let mut manifest = false;
    for line in text.lines() {
        let Ok(json) = Json::parse(line) else {
            continue;
        };
        match json.get("type").and_then(Json::as_str) {
            Some("manifest") => {
                manifest = true;
                if let Some(Json::Obj(kv)) = json.get("counters") {
                    for (k, v) in kv {
                        counts.counters.insert(k.clone(), v.as_num().unwrap_or(0.0));
                    }
                }
            }
            Some("hist")
                if json.get("name").and_then(Json::as_str) == Some("par_worker_busy_ns") =>
            {
                counts.par_busy_ns = json.get("sum").and_then(Json::as_num).unwrap_or(0.0);
            }
            _ => {}
        }
    }
    if manifest {
        Ok(counts)
    } else {
        Err(format!("run log {} has no manifest", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_flags_and_subcommands_parse() {
        let Ok(Cli::Bench(o)) = parse(&args(
            "--workload latency_day --seed 7 --seconds 10 --trace 1",
        )) else {
            panic!("driver form must parse");
        };
        assert_eq!(o.workload, Some(Workload::LatencyDay));
        assert_eq!((o.seed, o.seconds, o.traced), (7, 10.0, true));
        let Ok(Cli::Bench(o)) = parse(&args("run")) else {
            panic!("run must parse");
        };
        assert_eq!((o.workload, o.seed, o.traced), (None, PINNED_SEED, false));
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert_eq!(
            parse(&args("compare a b")),
            Ok(Cli::Compare(PathBuf::from("a"), PathBuf::from("b")))
        );
    }

    /// Program counters that fix how much work a driver does, whatever
    /// the thread timing.
    const WORK_COUNTERS: [&str; 9] = [
        "dijkstra_calls",
        "dijkstra_nodes_settled",
        "spt_repairs",
        "spt_full_fallbacks",
        "spt_early_exits",
        "delta_edges_applied",
        "maxmin_solves",
        "maxmin_rounds",
        "sweep_full_rebuilds",
    ];

    /// Run `f` with telemetry at info; returns what it returns and how
    /// far it moved each of [`WORK_COUNTERS`].
    fn counted<R>(f: impl FnOnce() -> R) -> (R, [f64; 9]) {
        let manifest = telemetry::RunManifest::new("leo_benchmark", 0, 7, 1);
        let totals = |log: RunLog| log.finish(&manifest).expect("run log").counters;
        let before = totals(RunLog::start().expect("run log"));
        let log = RunLog::start().expect("run log");
        let r = f();
        let after = totals(log);
        let moved = WORK_COUNTERS
            .map(|c| after.get(c).copied().unwrap_or(0.0) - before.get(c).copied().unwrap_or(0.0));
        (r, moved)
    }

    #[test]
    fn tiny_replays_reproduce_the_drivers_bit_for_bit() {
        for w in workloads::ALL {
            let ctxs: Vec<StudyContext> = w
                .configs(7, Size::Tiny)
                .into_iter()
                .map(StudyContext::build)
                .collect();
            let (driver, driver_work) = counted(|| w.run_driver(&ctxs, 7).digest());
            let ((out, t), replay_work) = counted(|| replay::replay(w, &ctxs, 7, 0));
            assert_eq!(out.digest(), driver, "{}", w.name());
            // Same outputs are not enough: a replay that no longer makes
            // the driver's calls would time stale work.
            assert_eq!(
                replay_work,
                driver_work,
                "{}: replay vs driver {WORK_COUNTERS:?}",
                w.name()
            );
            assert!(driver_work.iter().any(|&n| n > 0.0), "{}", w.name());
            // Wall-equivalent self times add up to the traced wall time.
            let root = &t.spans[0];
            let wall = (root.end_ns - root.start_ns) as f64;
            let sum: f64 = trace::self_times(&t.spans).wall_ns.iter().sum();
            assert!(
                (sum - wall).abs() <= 1e-6 * wall,
                "{}: {sum} vs {wall}",
                w.name()
            );
            let uses_pool = t.spans.iter().any(|s| s.layer == trace::Layer::Spt);
            if w == Workload::LatencyBurst {
                assert!(uses_pool, "latency_burst must run the SPT pool");
            }
        }
    }

    #[test]
    fn end_to_end_reports_every_listed_metric() {
        let names: Vec<&str> = end_to_end(&[1.0], &[0.1], Some(10.0))
            .iter()
            .map(|m| m.name)
            .collect();
        let listed: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, listed);
    }

    #[test]
    fn standalone_manifest_depends_on_exactly_the_crates_the_sources_use() {
        let sources = [
            include_str!("main.rs"),
            include_str!("compare.rs"),
            include_str!("metrics.rs"),
            include_str!("replay.rs"),
            include_str!("stats.rs"),
            include_str!("trace.rs"),
            include_str!("workloads.rs"),
        ];
        let used: std::collections::BTreeSet<String> = sources
            .iter()
            .flat_map(|src| src.match_indices("leo_").map(move |(i, _)| &src[i..]))
            .filter_map(|rest| {
                let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
                rest[end..]
                    .starts_with("::")
                    .then(|| rest[..end].replace('_', "-"))
            })
            .collect();
        let manifest = include_str!("Cargo.toml");
        let deps: std::collections::BTreeSet<String> = manifest
            .split_once("[dependencies]\n")
            .expect("Cargo.toml has [dependencies]")
            .1
            .lines()
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.split_once(" = "))
            .map(|(name, _)| name.trim().to_string())
            .collect();
        assert_eq!(used, deps);
    }

    fn is_metric_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_code_measures() {
        let doc = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json is JSON");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(v)) => v.clone(),
            _ => panic!("{key} is a list"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).expect(key).to_string();

        let paths: Vec<String> = list("paths")
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect();
        assert_eq!(paths, ["crates/bench/src/bin/leo_benchmark"]);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(DEFAULT_SECONDS)
        );

        let workloads = list("workloads");
        let names: Vec<String> = workloads.iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, workloads::ALL.map(|w| w.name().to_string()));
        for w in &workloads {
            assert!(text(w, "why").len() <= 200, "{:?}", text(w, "why"));
        }

        let e2e: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_num).expect("bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let code: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                (
                    m.name.into(),
                    m.unit.into(),
                    m.better.name().into(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(e2e, code);

        let per_layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect();
        let code: Vec<(String, String, String)> = metrics::PER_LAYER
            .iter()
            .map(|&(n, u, b)| (n.into(), u.into(), b.name().into()))
            .collect();
        assert_eq!(per_layer, code);

        for name in names
            .iter()
            .chain(e2e.iter().map(|m| &m.0))
            .chain(per_layer.iter().map(|m| &m.0))
        {
            assert!(is_metric_name(name), "bad name {name}");
        }
    }
}
