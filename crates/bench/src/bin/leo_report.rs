//! `leo-report` — run-analysis and A/B regression tool for telemetry
//! run logs (`RUN_<label>.jsonl`).
//!
//! Single-run mode renders the run's provenance, a per-phase wall-time
//! breakdown, the counter table, sketch-derived percentile summaries of
//! every streamed `series` metric, and a heartbeat summary:
//!
//! ```text
//! leo-report RUN_fig2_latency.jsonl
//! ```
//!
//! Two-run mode diffs run B against baseline run A and exits nonzero if
//! any *deterministic* quantity regressed beyond `--threshold-pct`
//! (default 0 — the workspace's sweeps are bit-reproducible, so two runs
//! of the same figure at the same scale must agree exactly):
//!
//! ```text
//! leo-report RUN_a.jsonl RUN_b.jsonl --threshold-pct 0
//! ```
//!
//! Counters whose name ends in `_ns` (time measurements, e.g.
//! `par_worker_busy_ns`), per-phase wall times, and total wall time are
//! inherently machine-noisy: they are always reported
//! informational-only and never fail the diff.
//!
//! `--assert-peak-rss-mb <N>` additionally fails (exit 1) if the run's
//! peak resident set — the max over heartbeat `peak_rss_kb` samples and
//! the manifest's `peak_rss_kb` — exceeds `N` MiB. CI uses this to pin
//! the streaming pipeline's O(1)-in-snapshots memory ceiling.
//!
//! `N` must be finite and positive and `P` finite and non-negative; a
//! bad value, an unknown flag or a third path exits 2 with the usage
//! line.

use leo_bench::print_table;
use leo_util::sketch::QuantileSketch;
use leo_util::telemetry::{validate_event_line, Json};

/// A named statistic read off a sketch (for the series diff table).
type SketchStat<'f> = (&'f str, &'f dyn Fn(&QuantileSketch) -> f64);

fn fail(msg: &str) -> ! {
    eprintln!("leo-report: {msg}");
    std::process::exit(2);
}

/// One fully-parsed run log.
struct Run {
    path: String,
    label: String,
    config_hash: String,
    level: String,
    seed: f64,
    threads: f64,
    wall_ns: f64,
    /// `(name, count, total_ns, max_ns)` per phase, manifest order.
    phases: Vec<(String, f64, f64, f64)>,
    /// `(name, value)` per counter, manifest order.
    counters: Vec<(String, f64)>,
    /// Non-schema manifest fields (cities, pairs, lint_clean, …).
    extras: Vec<(String, String)>,
    /// Per metric name: number of `series` events and the merged sketch.
    series: Vec<(String, u64, QuantileSketch)>,
    heartbeats: u64,
    last_rate_per_s: Option<f64>,
    /// Max over heartbeat samples and the manifest's `peak_rss_kb`.
    peak_rss_kb: u64,
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

fn parse_run(path: &str) -> Run {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        fail(&format!("{path}: empty run log"));
    }
    let mut run = Run {
        path: path.to_string(),
        label: String::new(),
        config_hash: String::new(),
        level: String::new(),
        seed: f64::NAN,
        threads: f64::NAN,
        wall_ns: f64::NAN,
        phases: Vec::new(),
        counters: Vec::new(),
        extras: Vec::new(),
        series: Vec::new(),
        heartbeats: 0,
        last_rate_per_s: None,
        peak_rss_kb: 0,
    };
    let mut saw_manifest = false;
    for (i, line) in lines.iter().enumerate() {
        let ty = validate_event_line(line)
            .unwrap_or_else(|e| fail(&format!("{path}:{}: {e} (run `validate_run`?)", i + 1)));
        // validate_event_line parsed it once already; re-parse for the
        // fields (report runs on whole files, not hot paths).
        let v = Json::parse(line).unwrap_or_else(|e| fail(&format!("{path}:{}: {e}", i + 1)));
        match ty {
            "series" => {
                let name = v.get("name").and_then(Json::as_str).unwrap_or_default();
                let sketch = QuantileSketch::from_json(&v)
                    .unwrap_or_else(|e| fail(&format!("{path}:{}: bad sketch: {e}", i + 1)));
                match run.series.iter_mut().find(|(n, _, _)| n == name) {
                    Some((_, snaps, merged)) => {
                        *snaps += 1;
                        merged.merge(&sketch);
                    }
                    None => run.series.push((name.to_string(), 1, sketch)),
                }
            }
            "heartbeat" => {
                run.heartbeats += 1;
                run.last_rate_per_s = Some(num(&v, "rate_per_s"));
                run.peak_rss_kb = run.peak_rss_kb.max(num(&v, "peak_rss_kb") as u64);
            }
            "manifest" => {
                saw_manifest = true;
                run.label = v
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                run.config_hash = v
                    .get("config_hash")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                run.level = v
                    .get("level")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string();
                run.seed = num(&v, "seed");
                run.threads = num(&v, "threads");
                run.wall_ns = num(&v, "wall_ns");
                if let Some(Json::Obj(fields)) = v.get("phases") {
                    for (name, p) in fields {
                        run.phases.push((
                            name.clone(),
                            num(p, "count"),
                            num(p, "total_ns"),
                            num(p, "max_ns"),
                        ));
                    }
                }
                if let Some(Json::Obj(fields)) = v.get("counters") {
                    for (name, c) in fields {
                        run.counters
                            .push((name.clone(), c.as_num().unwrap_or(f64::NAN)));
                    }
                }
                if let Some(Json::Obj(fields)) = v.get("top") {
                    let _ = fields; // forward-compat: ignore unknown objects
                }
                // Everything beyond the fixed schema is provenance extras
                // (emitted as strings by `RunManifest::with`).
                if let Json::Obj(fields) = &v {
                    const FIXED: &[&str] = &[
                        "type",
                        "label",
                        "config_hash",
                        "seed",
                        "threads",
                        "wall_ns",
                        "level",
                        "phases",
                        "counters",
                        "hists",
                    ];
                    for (k, val) in fields {
                        if !FIXED.contains(&k.as_str()) {
                            let s = match val {
                                Json::Str(s) => s.clone(),
                                Json::Num(n) => format!("{n}"),
                                other => format!("{other:?}"),
                            };
                            run.extras.push((k.clone(), s));
                        }
                    }
                }
            }
            _ => {}
        }
    }
    if !saw_manifest {
        fail(&format!(
            "{path}: no manifest event — truncated run log (validate with `validate_run`)"
        ));
    }
    if let Some((_, p)) = run.extras.iter().find(|(k, _)| k == "peak_rss_kb") {
        if let Ok(kb) = p.parse::<u64>() {
            run.peak_rss_kb = run.peak_rss_kb.max(kb);
        }
    }
    run
}

fn ms(ns: f64) -> String {
    format!("{:.1}", ns / 1e6)
}

fn report_single(run: &Run) {
    println!("run {} ({})", run.label, run.path);
    println!(
        "  config_hash {}  seed {}  threads {}  level {}  wall {:.2}s",
        run.config_hash,
        run.seed,
        run.threads,
        run.level,
        run.wall_ns / 1e9
    );
    for (k, v) in &run.extras {
        println!("  {k} = {v}");
    }
    if run.heartbeats > 0 {
        println!(
            "  heartbeats: {} (last rate {:.2}/s), peak RSS {:.1} MiB",
            run.heartbeats,
            run.last_rate_per_s.unwrap_or(f64::NAN),
            run.peak_rss_kb as f64 / 1024.0
        );
    } else if run.peak_rss_kb > 0 {
        println!("  peak RSS {:.1} MiB", run.peak_rss_kb as f64 / 1024.0);
    }

    if !run.phases.is_empty() {
        let mut phases = run.phases.clone();
        phases.sort_by(|a, b| b.2.total_cmp(&a.2));
        let rows: Vec<Vec<String>> = phases
            .iter()
            .map(|(name, count, total_ns, max_ns)| {
                vec![
                    name.clone(),
                    format!("{count}"),
                    ms(*total_ns),
                    ms(*max_ns),
                    format!("{:.1}%", 100.0 * total_ns / run.wall_ns.max(1.0)),
                ]
            })
            .collect();
        print_table(
            "phases",
            &["phase", "count", "total_ms", "max_ms", "% wall"],
            &rows,
        );
    }

    if !run.counters.is_empty() {
        let rows: Vec<Vec<String>> = run
            .counters
            .iter()
            .map(|(name, v)| vec![name.clone(), format!("{v}")])
            .collect();
        print_table("counters", &["counter", "value"], &rows);
    }

    if !run.series.is_empty() {
        let rows: Vec<Vec<String>> = run
            .series
            .iter()
            .map(|(name, snaps, s)| {
                vec![
                    name.clone(),
                    format!("{snaps}"),
                    format!("{}", s.count()),
                    format!("{:.3}", s.min()),
                    format!("{:.3}", s.percentile(50.0)),
                    format!("{:.3}", s.percentile(90.0)),
                    format!("{:.3}", s.percentile(99.0)),
                    format!("{:.3}", s.max()),
                    format!("{:.3}", s.mean()),
                ]
            })
            .collect();
        print_table(
            "series (sketch-derived, ±1.6% relative rank error)",
            &[
                "metric", "snaps", "count", "min", "p50", "p90", "p99", "max", "mean",
            ],
            &rows,
        );
    }
}

/// A diffable quantity: deterministic ones fail the diff on mismatch,
/// informational ones (time measurements) never do.
struct DiffRow {
    name: String,
    a: f64,
    b: f64,
    informational: bool,
}

fn find_series<'r>(run: &'r Run, n: &str) -> Option<&'r (String, u64, QuantileSketch)> {
    run.series.iter().find(|(sn, _, _)| sn == n)
}

/// How one quantity moved between runs. Relative percent is undefined
/// for a zero baseline (division by zero) and for a quantity present in
/// only one run — those cases are reported as an absolute delta / "n/a"
/// with a deterministic verdict instead of a NaN/inf percent.
#[derive(Clone, Copy)]
enum DeltaKind {
    /// Bit-equal (or absent from both runs).
    Exact,
    /// Both present, nonzero baseline: relative percent.
    RelPct(f64),
    /// Zero baseline, nonzero change: absolute delta.
    AbsFromZero(f64),
    /// Present in exactly one run.
    OneSided,
}

fn delta_kind(a: f64, b: f64) -> DeltaKind {
    if a == b || (a.is_nan() && b.is_nan()) {
        DeltaKind::Exact
    } else if a.is_nan() || b.is_nan() {
        DeltaKind::OneSided
    } else if a == 0.0 {
        DeltaKind::AbsFromZero(b)
    } else {
        DeltaKind::RelPct((b - a).abs() / a.abs() * 100.0)
    }
}

fn collect_diff_rows(a: &Run, b: &Run) -> Vec<DiffRow> {
    let mut rows = Vec::new();
    rows.push(DiffRow {
        name: "wall_ns".into(),
        a: a.wall_ns,
        b: b.wall_ns,
        informational: true,
    });
    // Counters: union of both runs' names, A's order first.
    let mut names: Vec<&String> = a.counters.iter().map(|(n, _)| n).collect();
    for (n, _) in &b.counters {
        if !names.contains(&n) {
            names.push(n);
        }
    }
    let lookup = |run: &Run, n: &str| {
        run.counters
            .iter()
            .find(|(cn, _)| cn == n)
            .map_or(f64::NAN, |(_, v)| *v)
    };
    for n in names {
        rows.push(DiffRow {
            name: format!("counter {n}"),
            a: lookup(a, n),
            b: lookup(b, n),
            informational: n.ends_with("_ns"),
        });
    }
    for (name, _, total_ns, _) in &a.phases {
        let other = b
            .phases
            .iter()
            .find(|(n, _, _, _)| n == name)
            .map_or(f64::NAN, |(_, _, t, _)| *t);
        rows.push(DiffRow {
            name: format!("phase {name} total_ns"),
            a: *total_ns,
            b: other,
            informational: true,
        });
    }
    // Series: every sketch-derived statistic is deterministic.
    let mut snames: Vec<&String> = a.series.iter().map(|(n, _, _)| n).collect();
    for (n, _, _) in &b.series {
        if !snames.contains(&n) {
            snames.push(n);
        }
    }
    for n in snames.into_iter().cloned().collect::<Vec<String>>() {
        let (sa, sb) = (find_series(a, &n), find_series(b, &n));
        let stat = |s: Option<&(String, u64, QuantileSketch)>,
                    f: &dyn Fn(&QuantileSketch) -> f64| {
            s.map_or(f64::NAN, |(_, _, sk)| f(sk))
        };
        let stats: [SketchStat; 7] = [
            ("count", &|s| s.count() as f64),
            ("low", &|s| s.low_count() as f64),
            ("sum", &|s| s.sum()),
            ("min", &|s| s.min()),
            ("max", &|s| s.max()),
            ("p50", &|s| s.percentile(50.0)),
            ("p99", &|s| s.percentile(99.0)),
        ];
        for (sname, f) in stats {
            rows.push(DiffRow {
                name: format!("series {n} {sname}"),
                a: stat(sa, f),
                b: stat(sb, f),
                informational: false,
            });
        }
    }
    rows
}

fn report_diff(a: &Run, b: &Run, threshold_pct: f64) -> usize {
    println!(
        "diff: A = {} ({}), B = {} ({}), threshold {threshold_pct}%",
        a.label, a.path, b.label, b.path
    );
    if a.config_hash != b.config_hash {
        println!(
            "  note: config hashes differ ({} vs {}) — comparing across configurations",
            a.config_hash, b.config_hash
        );
    }
    let rows = collect_diff_rows(a, b);
    let mut regressions = 0usize;
    let mut table = Vec::new();
    for r in &rows {
        let kind = delta_kind(r.a, r.b);
        let delta_str = match kind {
            DeltaKind::Exact => "0.000%".to_string(),
            DeltaKind::RelPct(p) => format!("{p:.3}%"),
            DeltaKind::AbsFromZero(d) => format!("{d:+} (abs, zero baseline)"),
            DeltaKind::OneSided => "n/a".to_string(),
        };
        let verdict = if r.informational {
            "info".to_string()
        } else {
            match kind {
                DeltaKind::Exact => continue, // exact matches stay out of the table
                // A deterministic quantity that appears from (or
                // vanishes to) nothing can't be waved through by any
                // relative threshold — always a regression, reported
                // with its absolute movement.
                DeltaKind::AbsFromZero(_) => {
                    regressions += 1;
                    "REGRESSION (zero baseline)".to_string()
                }
                DeltaKind::OneSided => {
                    regressions += 1;
                    "REGRESSION (one run only)".to_string()
                }
                DeltaKind::RelPct(p) if p > threshold_pct => {
                    regressions += 1;
                    "REGRESSION".to_string()
                }
                DeltaKind::RelPct(_) => "ok (within threshold)".to_string(),
            }
        };
        table.push(vec![
            r.name.clone(),
            format!("{}", r.a),
            format!("{}", r.b),
            delta_str,
            verdict,
        ]);
    }
    if table.is_empty() {
        println!(
            "  no differences: {} quantities compared, all exact",
            rows.len()
        );
    } else {
        print_table(
            "differences",
            &["quantity", "A", "B", "delta", "verdict"],
            &table,
        );
        let exact = rows.len() - table.len();
        println!("  ({exact} further quantities matched exactly)");
    }
    regressions
}

const USAGE: &str = "usage: leo-report [--threshold-pct P] [--assert-peak-rss-mb N] \
                     <RUN_a.jsonl> [RUN_b.jsonl]";

/// The value after `flag`: a finite number that `ok` accepts. A NaN
/// budget or threshold never compares past any value, so it would pass
/// every run.
fn number_arg(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    ok: fn(f64) -> bool,
) -> f64 {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|&x: &f64| x.is_finite() && ok(x))
        .unwrap_or_else(|| fail(&format!("{flag} needs a finite {what} number\n{USAGE}")))
}

fn main() {
    let mut threshold_pct = 0.0f64;
    let mut assert_peak_rss_mb: Option<f64> = None;
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold-pct" => {
                threshold_pct = number_arg(&mut args, &a, "non-negative", |x| x >= 0.0);
            }
            "--assert-peak-rss-mb" => {
                assert_peak_rss_mb = Some(number_arg(&mut args, &a, "positive", |x| x > 0.0));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other if other.starts_with("--") => fail(&format!("unknown flag {other}")),
            other => paths.push(other.to_string()),
        }
    }
    if paths.is_empty() || paths.len() > 2 {
        fail(USAGE);
    }

    let runs: Vec<Run> = paths.iter().map(|p| parse_run(p)).collect();
    let mut failures = 0usize;
    if runs.len() == 2 {
        failures += report_diff(&runs[0], &runs[1], threshold_pct);
    } else {
        report_single(&runs[0]);
    }
    if let Some(limit_mb) = assert_peak_rss_mb {
        let run = runs.last().expect("at least one run");
        let peak_mb = run.peak_rss_kb as f64 / 1024.0;
        if run.peak_rss_kb == 0 {
            eprintln!(
                "leo-report: --assert-peak-rss-mb: {} has no RSS samples \
                 (no heartbeats and no peak_rss_kb manifest field)",
                run.path
            );
            failures += 1;
        } else if peak_mb > limit_mb {
            eprintln!("leo-report: peak RSS {peak_mb:.1} MiB exceeds budget {limit_mb} MiB");
            failures += 1;
        } else {
            println!("peak RSS {peak_mb:.1} MiB within budget {limit_mb} MiB");
        }
    }
    if failures > 0 {
        eprintln!("leo-report: {failures} regression(s)");
        std::process::exit(1);
    }
}
