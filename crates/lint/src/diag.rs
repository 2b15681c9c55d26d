//! Diagnostics: the unit of lint output, with human and JSONL
//! rendering (JSONL reuses the telemetry escaping helper so downstream
//! tooling can share a parser with `RUN_*.jsonl` files).

use leo_util::telemetry::json_string;

/// One finding at a `file:line` location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that produced the finding (kebab-case, e.g. `unseeded-rng`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human message.
    pub msg: String,
}

impl Diagnostic {
    /// `path:line: [rule] msg` — the greppable human form.
    pub fn human(&self) -> String {
        format!("{}:{}: [{}] {}", self.path, self.line, self.rule, self.msg)
    }

    /// One JSONL object (`type = "diagnostic"`).
    pub fn jsonl(&self) -> String {
        format!(
            "{{\"type\":\"diagnostic\",\"rule\":{},\"path\":{},\"line\":{},\"msg\":{}}}",
            json_string(self.rule),
            json_string(&self.path),
            self.line,
            json_string(&self.msg)
        )
    }
}

/// Outcome of a whole lint run: surviving diagnostics plus suppression
/// accounting (the tool *counts and prints* every suppression so the
/// escape hatch stays visible).
#[derive(Debug, Default)]
pub struct LintReport {
    /// Diagnostics that were not suppressed, in (path, line) order.
    pub diagnostics: Vec<Diagnostic>,
    /// `(rule, count)` of applied suppressions, sorted by rule.
    /// Suppressions that apply to nothing are not counted here — they
    /// surface as `stale-allow` diagnostics instead.
    pub suppressed: Vec<(String, usize)>,
    /// Files checked.
    pub files: usize,
}

impl LintReport {
    /// Total applied suppressions.
    pub fn suppressed_total(&self) -> usize {
        self.suppressed.iter().map(|(_, n)| n).sum()
    }

    /// Summary JSONL object (`type = "lint_summary"`), the last line of
    /// `--jsonl` output.
    pub fn summary_jsonl(&self) -> String {
        let sup: Vec<String> = self
            .suppressed
            .iter()
            .map(|(r, n)| format!("{}:{}", json_string(r), n))
            .collect();
        format!(
            "{{\"type\":\"lint_summary\",\"files\":{},\"diagnostics\":{},\"suppressed\":{},\"suppressions\":{{{}}}}}",
            self.files,
            self.diagnostics.len(),
            self.suppressed_total(),
            sup.join(",")
        )
    }

    /// Human summary lines (suppression counts, unused allows, totals).
    pub fn summary_human(&self) -> String {
        let mut out = String::new();
        if !self.suppressed.is_empty() {
            let parts: Vec<String> = self
                .suppressed
                .iter()
                .map(|(r, n)| format!("{r}×{n}"))
                .collect();
            out.push_str(&format!(
                "suppressions applied: {} ({})\n",
                self.suppressed_total(),
                parts.join(", ")
            ));
        }
        out.push_str(&format!(
            "checked {} files: {} diagnostic{}",
            self.files,
            self.diagnostics.len(),
            if self.diagnostics.len() == 1 { "" } else { "s" }
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_both_forms() {
        let d = Diagnostic {
            rule: "unseeded-rng",
            path: "crates/x/src/a.rs".into(),
            line: 7,
            msg: "`thread_rng` draws entropy-seeded randomness".into(),
        };
        assert_eq!(
            d.human(),
            "crates/x/src/a.rs:7: [unseeded-rng] `thread_rng` draws entropy-seeded randomness"
        );
        let j = d.jsonl();
        assert!(j.starts_with("{\"type\":\"diagnostic\""));
        assert!(j.contains("\"line\":7"));
        // The JSONL line parses back with the shared parser.
        let v = leo_util::telemetry::Json::parse(&j).unwrap();
        assert_eq!(v.get("rule").and_then(|r| r.as_str()), Some("unseeded-rng"));
    }

    #[test]
    fn summary_accounts_suppressions() {
        let mut rep = LintReport {
            files: 3,
            ..Default::default()
        };
        rep.suppressed.push(("hot-path-alloc".into(), 2));
        rep.suppressed.push(("panic-reachable".into(), 1));
        assert_eq!(rep.suppressed_total(), 3);
        let s = rep.summary_human();
        assert!(s.contains("hot-path-alloc×2"));
        assert!(s.contains("checked 3 files: 0 diagnostics"));
        let v = leo_util::telemetry::Json::parse(&rep.summary_jsonl()).unwrap();
        assert_eq!(v.get("suppressed").and_then(|n| n.as_num()), Some(3.0));
    }
}
