//! Shared helpers for the per-table / per-figure bench harnesses.
//!
//! Every table and figure of the paper's §9 evaluation has a bench target
//! in `benches/` (`harness = false`): running `cargo bench -p vusion-bench`
//! regenerates the paper's rows and series on the simulated machine.
//! `EXPERIMENTS.md` records the paper-vs-measured comparison.
//!
//! Each harness routes its table through [`Report`], which renders the
//! exact text the harness always printed *and* accumulates a structured
//! JSON sidecar written to `bench_logs/<slug>.json` at the repo root, so
//! CI and downstream tooling can diff runs without scraping stdout.

use std::fmt::Write as _;
use std::path::PathBuf;

use vusion_core::EngineKind;
use vusion_kernel::{FusionPolicy, System};
use vusion_obs::json::quote;
use vusion_workloads::images::ImageSpec;
use vusion_workloads::VmHandle;

/// Schema tag stamped into every table sidecar.
pub const TABLE_SCHEMA: &str = "vusion-bench-table/v1";

/// Directory (repo-root relative) receiving JSON sidecars.
pub fn bench_logs_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench_logs"))
}

/// Derives the sidecar file stem from a table/figure id:
/// `"Figure 3"` → `figure_3`, `"Section 9.1"` → `section_9_1`.
pub fn slugify(id: &str) -> String {
    let mut out = String::new();
    for c in id.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('_') {
            out.push('_');
        }
    }
    out.trim_matches('_').to_string()
}

/// Table/figure writer: renders the same text the ad-hoc `println!`
/// harnesses produced, while recording every row for the JSON sidecar.
///
/// Construction prints the `=== id: title ===` header. [`Report::row`]
/// renders the classic `label  k=v  k=v` line; [`Report::raw_row`] prints
/// a pre-formatted line (custom column widths) while still capturing the
/// structured cells; [`Report::text`] passes free-form lines through and
/// keeps them as notes. [`Report::finish`] writes the sidecar.
pub struct Report {
    id: String,
    title: String,
    rows: Vec<(String, Vec<(String, String)>)>,
    notes: Vec<String>,
}

impl Report {
    /// Starts a report and prints the figure/table header.
    pub fn new(id: &str, title: &str) -> Self {
        println!("\n=== {id}: {title} ===");
        Report {
            id: id.to_string(),
            title: title.to_string(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Prints a free-form line verbatim and records it as a note.
    pub fn text(&mut self, line: impl AsRef<str>) {
        let line = line.as_ref();
        println!("{line}");
        self.notes.push(line.to_string());
    }

    /// Prints one `label  k=v  k=v` row and records the cells.
    pub fn row(&mut self, label: &str, cells: &[(&str, String)]) {
        let rendered: Vec<String> = cells.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("{label:<14} {}", rendered.join("  "));
        self.record(label, cells);
    }

    /// Prints `line` verbatim (custom table formats) and records the
    /// structured cells under `label`.
    pub fn raw_row(&mut self, line: &str, label: &str, cells: &[(&str, String)]) {
        println!("{line}");
        self.record(label, cells);
    }

    /// Records a row in the sidecar without printing anything (series
    /// data too long for stdout).
    pub fn record(&mut self, label: &str, cells: &[(&str, String)]) {
        self.rows.push((
            label.to_string(),
            cells
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        ));
    }

    /// Renders the sidecar document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", quote(TABLE_SCHEMA));
        let _ = writeln!(out, "  \"id\": {},", quote(&self.id));
        let _ = writeln!(out, "  \"title\": {},", quote(&self.title));
        out.push_str("  \"rows\": [");
        for (i, (label, cells)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"label\": {}, \"cells\": {{", quote(label));
            for (j, (k, v)) in cells.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", quote(k), quote(v));
            }
            out.push_str("}}");
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"notes\": [");
        for (i, n) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&quote(n));
        }
        out.push_str("]\n}\n");
        out
    }

    /// Writes `bench_logs/<slug>.json`. Best-effort: a read-only checkout
    /// must not fail the bench, so IO errors only warn.
    pub fn finish(&self) {
        let dir = bench_logs_dir();
        let path = dir.join(format!("{}.json", slugify(&self.id)));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, self.to_json()))
        {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// Boots `n` VMs of the same family (distinct unique seeds) and returns
/// their handles. The standard multi-VM backdrop of the evaluation
/// ("four VMs ... one runs the benchmark while others provide load").
pub fn boot_fleet<P: FusionPolicy>(sys: &mut System<P>, n: usize, family: u64) -> Vec<VmHandle> {
    (0..n)
        .map(|i| ImageSpec::small(family, 100 + i as u64).boot(sys, &format!("vm{i}")))
        .collect()
}

/// Relative overhead in percent: `(t - base) / base * 100`.
pub fn overhead_pct(base_ns: u64, t_ns: u64) -> f64 {
    (t_ns as f64 - base_ns as f64) / base_ns as f64 * 100.0
}

/// Formats an engine label padded for tables.
pub fn engine_cell(kind: EngineKind) -> String {
    format!("{:<11}", kind.label())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_math() {
        assert_eq!(overhead_pct(100, 102), 2.0);
        assert_eq!(overhead_pct(200, 190), -5.0);
    }

    #[test]
    fn slugs() {
        assert_eq!(slugify("Figure 3"), "figure_3");
        assert_eq!(slugify("Section 9.1"), "section_9_1");
        assert_eq!(slugify("Ablation/RA"), "ablation_ra");
        assert_eq!(slugify("Table 10"), "table_10");
    }

    #[test]
    fn sidecar_json_shape() {
        let mut r = Report {
            id: "Table 0".into(),
            title: "t\"t".into(),
            rows: Vec::new(),
            notes: Vec::new(),
        };
        r.record("a", &[("k", "v".into()), ("n", "1".into())]);
        r.notes.push("done".into());
        let js = r.to_json();
        assert!(js.contains("\"schema\": \"vusion-bench-table/v1\""));
        assert!(js.contains("\"title\": \"t\\\"t\""));
        assert!(js.contains("{\"label\": \"a\", \"cells\": {\"k\": \"v\", \"n\": \"1\"}}"));
        assert!(js.contains("\"notes\": [\"done\"]"));
    }
}
