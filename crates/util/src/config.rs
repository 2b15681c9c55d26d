//! Hand-rolled sectioned `key = value` config text (replaces `serde`
//! derive for the one config the workspace serializes): the canonical
//! form of a `StudyConfig`, whose FNV-1a hash names a run in
//! manifests. Nothing reads the text back, so only the writer exists.
//!
//! Format, by example:
//!
//! ```text
//! [study]
//! constellation = starlink
//! snapshot_times_s = 0,21600,43200,64800
//! relay_grid_deg = none
//!
//! [network]
//! gt_link_gbps = 20
//! isl_gbps = 100
//! ```
//!
//! * Sections are `[name]` headers, separated by a blank line.
//! * Each field is `key = value`, values written with `Display` (so
//!   floats use shortest round-trip formatting). Lists are
//!   comma-separated. Optional values use the literal `none`.

use std::fmt::Display;

/// Builder for config text in the format above.
#[derive(Debug, Default)]
pub struct KvWriter {
    out: String,
}

impl KvWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a `[name]` section.
    pub fn section(&mut self, name: &str) -> &mut Self {
        if !self.out.is_empty() {
            self.out.push('\n');
        }
        self.out.push('[');
        self.out.push_str(name);
        self.out.push_str("]\n");
        self
    }

    /// Write `key = value`.
    pub fn field(&mut self, key: &str, value: impl Display) -> &mut Self {
        self.out.push_str(key);
        self.out.push_str(" = ");
        self.out.push_str(&value.to_string());
        self.out.push('\n');
        self
    }

    /// Write a comma-separated `f64` list.
    pub fn field_f64_list(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let joined = values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.field(key, joined)
    }

    /// Write an optional `f64` (`none` when absent).
    pub fn field_opt_f64(&mut self, key: &str, value: Option<f64>) -> &mut Self {
        match value {
            Some(v) => self.field(key, v),
            None => self.field(key, "none"),
        }
    }

    /// Finish and take the text.
    pub fn finish(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_emits_sections_lists_and_none() {
        let mut w = KvWriter::new();
        w.section("net")
            .field("cap", 20.5)
            .field("name", "starlink")
            .field_f64_list("times", &[0.0, 900.0])
            .field_opt_f64("grid", None)
            .field_opt_f64("step", Some(0.5));
        w.section("run").field("seed", 42);
        assert_eq!(
            w.finish(),
            "[net]\ncap = 20.5\nname = starlink\ntimes = 0,900\ngrid = none\nstep = 0.5\n\n[run]\nseed = 42\n"
        );
    }
}
