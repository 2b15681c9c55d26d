//! `leo-lint` — workspace static analysis driver.
//!
//! ```text
//! leo-lint [--deny] [--jsonl] [--root DIR] [--rules] [--threads N]
//!          [--graph-out FILE] [PATH…]
//! ```
//!
//! Walks `--root` (default: the current directory) for `.rs` files,
//! applies every rule under the compiled-in policy
//! ([`LintConfig::default`]), prints `file:line` diagnostics (human
//! form, or one JSON object per line with `--jsonl`) plus a summary
//! that counts applied suppressions. `PATH…` arguments restrict
//! *reporting* to files under those workspace-relative prefixes; the
//! symbol graph is always built from the whole workspace so
//! reachability findings don't change with the filter. `--threads N`
//! pins the file-parse pool (0 = hardware default; output is bytewise
//! identical either way). `--graph-out FILE` persists the symbol/call
//! graph as JSONL.
//!
//! Exit codes: `0` clean (or findings without `--deny`), `1` findings
//! under `--deny` (the CI lane), `2` usage or IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use leo_lint::config::LintConfig;
use leo_lint::rules::{all_rules, workspace_rules};
use leo_lint::Linter;

struct Args {
    deny: bool,
    jsonl: bool,
    list_rules: bool,
    root: PathBuf,
    threads: usize,
    graph_out: Option<PathBuf>,
    filters: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        jsonl: false,
        list_rules: false,
        root: PathBuf::from("."),
        threads: 0,
        graph_out: None,
        filters: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--jsonl" => args.jsonl = true,
            "--rules" => args.list_rules = true,
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--threads" => {
                let n = it.next().ok_or("--threads needs a count")?;
                args.threads = n
                    .parse()
                    .map_err(|_| format!("--threads: `{n}` is not a count"))?;
            }
            "--graph-out" => {
                args.graph_out = Some(PathBuf::from(it.next().ok_or("--graph-out needs a file")?));
            }
            "--help" | "-h" => {
                println!(
                    "usage: leo-lint [--deny] [--jsonl] [--root DIR] [--rules] \
                     [--threads N] [--graph-out FILE] [PATH...]"
                );
                std::process::exit(0);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path => args.filters.push(path.to_string()),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("leo-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for rule in all_rules() {
            println!("{:<20} {}", rule.name(), rule.rationale());
        }
        for rule in workspace_rules() {
            println!("{:<20} [workspace] {}", rule.name(), rule.rationale());
        }
        println!(
            "{:<20} [audit] a `lint: allow` that suppresses nothing is itself an error",
            "stale-allow"
        );
        return ExitCode::SUCCESS;
    }
    let linter = Linter::new(LintConfig::default());
    let (report, graph) = match linter.run(&args.root, &args.filters, args.threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("leo-lint: walking {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.graph_out {
        if let Err(e) = std::fs::write(path, graph.to_jsonl()) {
            eprintln!("leo-lint: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if args.jsonl {
        for d in &report.diagnostics {
            println!("{}", d.jsonl());
        }
        println!("{}", report.summary_jsonl());
    } else {
        for d in &report.diagnostics {
            println!("{}", d.human());
        }
        println!("{}", report.summary_human());
    }

    if args.deny && !report.diagnostics.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
