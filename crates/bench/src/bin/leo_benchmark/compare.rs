//! `compare PARENT_DIR CHANGE_DIR`: judge two sets of benchmark results
//! against the benchmark's own bounds.
//!
//! Each directory holds saved stdout of benchmark runs, one or more
//! results per file; only `run` results are read. Runs pair up in
//! file-name order (name them so the parent's and the change's i-th runs
//! were made back to back). A run without a metric's value (`null`, as
//! when every repetition failed) leaves its pair out. Per (metric,
//! workload):
//!
//! * **improved** — the change wins at least 9/10 of the pairs (ties
//!   count for neither) and the medians differ by more than the
//!   parent's IQR;
//! * otherwise **REGRESSION** — the median worsened by more than the
//!   metric's bound;
//! * otherwise **unresolved** — the spread (IQR over median) of either
//!   side is wider than the bound, unless every change run beats every
//!   parent run;
//! * otherwise **unchanged**.
//!
//! More failed repetitions in the change than in the parent is also a
//! regression. The exit code is 1 on any regression.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, quartiles, relative_iqr};
use leo_util::telemetry::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// The runs of one workload on one side: metric → one value per run
/// (NaN where the run has none), plus failed and attempted repetitions
/// summed over runs.
#[derive(Debug, Default)]
pub struct Runs {
    pub values: BTreeMap<String, Vec<f64>>,
    pub failed: u64,
    pub attempted: u64,
}

impl Runs {
    fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regression,
    Unresolved,
    Unchanged,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Unchanged => "unchanged",
        }
    }
}

/// The runs that have a value.
fn measured(values: &[f64]) -> Vec<f64> {
    values.iter().copied().filter(|v| v.is_finite()).collect()
}

/// The verdict on one (metric, workload) from the parent's and the
/// change's per-run values, paired by index; NaN marks a run without a
/// value.
pub fn verdict(metric: &EndToEnd, parent: &[f64], change: &[f64]) -> Verdict {
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // How much worse `b` is than `a`, as a signed amount.
    let worse = |a: f64, b: f64| sign * (b - a);
    let pairs: Vec<(f64, f64)> = parent
        .iter()
        .zip(change)
        .map(|(&p, &c)| (p, c))
        .filter(|(p, c)| p.is_finite() && c.is_finite())
        .collect();
    let wins = pairs.iter().filter(|&&(p, c)| worse(p, c) < 0.0).count();
    let (parent, change) = (measured(parent), measured(change));
    if parent.is_empty() || change.is_empty() {
        return Verdict::Unresolved;
    }
    let (mp, mc) = (median(&parent), median(&change));
    let (q1, q3) = quartiles(&parent);
    if !pairs.is_empty() && wins * 10 >= pairs.len() * 9 && worse(mp, mc) < -(q3 - q1) {
        return Verdict::Improved;
    }
    if worse(mp, mc) > metric.bound * mp.abs() {
        return Verdict::Regression;
    }
    let spread = relative_iqr(&parent).max(relative_iqr(&change));
    let all_better = parent
        .iter()
        .all(|&p| change.iter().all(|&c| worse(p, c) < 0.0));
    if spread > metric.bound && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

/// Read every `run` result in the files of `dir` (sorted by name), keyed
/// by workload. A result is the `leo_benchmark run workload=NAME …`
/// header line followed by the JSON result line.
pub fn read_dir(dir: &Path) -> Result<BTreeMap<String, Runs>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    let mut out: BTreeMap<String, Runs> = BTreeMap::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let mut workload: Option<String> = None;
        for line in text.lines() {
            if let Some(header) = line.strip_prefix("leo_benchmark ") {
                workload = header
                    .starts_with("run ")
                    .then(|| {
                        header
                            .split_whitespace()
                            .find_map(|w| w.strip_prefix("workload="))
                            .map(str::to_string)
                    })
                    .flatten();
            } else if line.starts_with('{') {
                let Some(w) = workload.take() else {
                    continue;
                };
                let json = Json::parse(line).map_err(|e| format!("{}: {e}", file.display()))?;
                let runs = out.entry(w).or_default();
                let num = |k: &str| json.get(k).and_then(Json::as_num).unwrap_or(0.0);
                runs.failed += num("failed") as u64;
                runs.attempted += num("attempted") as u64;
                let metrics = json.get("metrics");
                for metric in &END_TO_END {
                    let value = metrics
                        .and_then(|m| m.get(metric.name))
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_num)
                        .unwrap_or(f64::NAN);
                    runs.values
                        .entry(metric.name.to_string())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok(out)
}

/// Print one row per workload; return the process exit code.
pub fn run(parent_dir: &Path, change_dir: &Path) -> i32 {
    let (parent, change) = match (read_dir(parent_dir), read_dir(change_dir)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return 2;
        }
    };
    let mut regression = false;
    println!(
        "{:<20} {:<62} failed_frac (parent -> change)",
        "workload", "metric: verdict (parent median -> change median, n)"
    );
    for (workload, p) in &parent {
        let Some(c) = change.get(workload) else {
            println!("{workload:<20} missing from {}", change_dir.display());
            regression = true;
            continue;
        };
        let mut cells = Vec::new();
        for metric in &END_TO_END {
            let (Some(pv), Some(cv)) = (p.values.get(metric.name), c.values.get(metric.name))
            else {
                continue;
            };
            let v = verdict(metric, pv, cv);
            regression |= v == Verdict::Regression;
            let (pv, cv) = (measured(pv), measured(cv));
            cells.push(format!(
                "{}: {} ({:.4} -> {:.4}, n={}/{})",
                metric.name,
                v.name(),
                median(&pv),
                median(&cv),
                pv.len(),
                cv.len()
            ));
        }
        let failed_up = c.failed_frac() > p.failed_frac();
        regression |= failed_up;
        println!(
            "{workload:<20} {}  failed_frac {:.4} -> {:.4}{}",
            cells.join("; "),
            p.failed_frac(),
            c.failed_frac(),
            if failed_up { " REGRESSION" } else { "" }
        );
    }
    i32::from(regression)
}

#[cfg(test)]
mod tests {
    use super::*;

    const WALL: EndToEnd = EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn identical_runs_are_unchanged() {
        let v = [1.0, 1.01, 0.99, 1.02, 0.98];
        assert_eq!(verdict(&WALL, &v, &v), Verdict::Unchanged);
    }

    #[test]
    fn consistent_large_win_is_improved() {
        let p = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0];
        let c: Vec<f64> = p.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&WALL, &p, &c), Verdict::Improved);
    }

    #[test]
    fn ties_count_for_neither_side() {
        // 8 ties and 2 wins: 2/10 wins is no improvement, and the medians
        // are equal, so nothing moved.
        let p = [1.0; 10];
        let mut c = [1.0; 10];
        c[0] = 0.99;
        c[1] = 0.99;
        assert_eq!(verdict(&WALL, &p, &c), Verdict::Unchanged);
    }

    #[test]
    fn worse_median_beyond_bound_is_a_regression() {
        let p = [1.0, 1.01, 0.99, 1.0, 1.0];
        let c = [1.2, 1.21, 1.19, 1.2, 1.2];
        assert_eq!(verdict(&WALL, &p, &c), Verdict::Regression);
        // Within the bound it is not.
        let c = [1.05, 1.06, 1.04, 1.05, 1.05];
        assert_eq!(verdict(&WALL, &p, &c), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved() {
        let p = [0.7, 1.3, 1.0, 0.8, 1.2];
        let c = [1.05, 0.7, 1.3, 0.8, 1.2];
        assert_eq!(verdict(&WALL, &p, &c), Verdict::Unresolved);
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let rate = EndToEnd {
            name: "rate",
            unit: "1/s",
            better: Better::Higher,
            bound: 0.10,
        };
        let p = [1.0, 1.01, 0.99, 1.0, 1.0];
        let c = [0.8, 0.81, 0.79, 0.8, 0.8];
        assert_eq!(verdict(&rate, &p, &c), Verdict::Regression);
    }

    #[test]
    fn runs_without_a_value_drop_out_of_their_pair_only() {
        // Change run 0 has no value. Pairing by index, the change wins
        // the nine remaining pairs; shifted, its last run would face a
        // parent run it does not beat, and 8/9 wins is no improvement.
        let mut p = [1.0; 10];
        p[9] = 2.0;
        let mut c: Vec<f64> = p.iter().map(|x| x - 0.1).collect();
        c[0] = f64::NAN;
        assert_eq!(verdict(&WALL, &p, &c), Verdict::Improved);
        assert_eq!(verdict(&WALL, &p, &c[1..]), Verdict::Unchanged);
        assert_eq!(verdict(&WALL, &p, &[f64::NAN; 10]), Verdict::Unresolved);
    }

    #[test]
    fn reads_results_and_flags_failure_increase() {
        let dir = std::env::temp_dir().join(format!("leo_benchmark_cmp_{}", std::process::id()));
        let (pd, cd) = (dir.join("parent"), dir.join("change"));
        std::fs::create_dir_all(&pd).expect("mkdir");
        std::fs::create_dir_all(&cd).expect("mkdir");
        let result = |failed: u32| {
            format!(
                "leo_benchmark run workload=latency_day seed=42 threads=2\n\
                 {{\"correct\":true,\"attempted\":5,\"failed\":{failed},\"metrics\":\
                 {{\"wall_s\":{{\"value\":2.5,\"unit\":\"s\"}}}}}}\n"
            )
        };
        std::fs::write(pd.join("run1.txt"), result(0)).expect("write");
        std::fs::write(cd.join("run1.txt"), result(0)).expect("write");
        let runs = read_dir(&pd).expect("read");
        assert_eq!(runs["latency_day"].values["wall_s"], vec![2.5]);
        assert_eq!(runs["latency_day"].attempted, 5);
        assert_eq!(run(&pd, &cd), 0);
        std::fs::write(cd.join("run1.txt"), result(1)).expect("write");
        assert_eq!(run(&pd, &cd), 1);
        // A null value keeps its run's place; trace results are skipped.
        std::fs::write(
            pd.join("run2.txt"),
            "leo_benchmark trace workload=latency_day seed=42 threads=2\n\
             {\"correct\":true,\"attempted\":6,\"failed\":0,\"metrics\":{}}\n\
             leo_benchmark run workload=latency_day seed=42 threads=2\n\
             {\"correct\":false,\"attempted\":5,\"failed\":5,\"metrics\":\
             {\"wall_s\":{\"value\":null,\"unit\":\"s\"}}}\n",
        )
        .expect("write");
        std::fs::write(pd.join("run3.txt"), result(0)).expect("write");
        let runs = read_dir(&pd).expect("read");
        let wall = &runs["latency_day"].values["wall_s"];
        assert_eq!(wall.len(), 3);
        assert!(wall[1].is_nan());
        assert_eq!(wall[2], 2.5);
        assert_eq!(runs["latency_day"].attempted, 15);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
