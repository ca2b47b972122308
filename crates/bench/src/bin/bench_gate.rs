//! CI bench-regression gate over `BENCH_micro.json`.
//!
//! Compares the fresh run's gated medians — the `scan_*` rows and the
//! access-path `tlb_*` and `boot_*` rows — against the carried
//! `"baseline"` object (the pre-optimization numbers pinned by the micro
//! harness) and fails — exit code 1 — if any shared bench regressed by
//! more than 25% *and* more than an absolute 50 µs. The dual threshold is
//! the usual defense against noise-dominated cases: a steady-state scan
//! visit completes in single-digit microseconds, where timer granularity
//! and host drift between the baseline's machine and the current runner
//! routinely swing 2–3×, while a real scan-path or access-path regression
//! (the thing the gate exists to catch) costs hundreds of microseconds
//! per pass. A per-bench diff is written to `BENCH_gate_diff.json` either
//! way, so CI can upload it as an artifact. `vlint_*` benches are held to an
//! absolute wall-time ceiling instead of the ratio gate (the linter's
//! cost tracks tree size, which every PR is allowed to grow).
//!
//! The parser is hand-rolled (the workspace carries no JSON dependency)
//! and matches the shape the harness emits: one result object per line,
//! `"name"` and `"median_ns"` fields, a top-level `"baseline"` key after
//! the `"results"` array. Benches present on only one side (new scaling
//! curves, retired cases) are reported as `"new"`/`"retired"` and never
//! gate.

use std::process::ExitCode;

/// Allowed median growth before the gate fails: 25%.
const MAX_RATIO: f64 = 1.25;

/// Noise floor: growth under 50 µs absolute never fails the gate, however
/// large the ratio. Microsecond-scale benches are timer-noise-dominated.
const MIN_DELTA_NS: u64 = 50_000;

/// Name prefixes of the rows the ratio gate applies to.
const GATED_PREFIXES: [&str; 3] = ["scan_", "tlb_", "boot_"];

fn gated(name: &str) -> bool {
    GATED_PREFIXES.iter().any(|p| name.starts_with(p))
}

/// Absolute wall-time ceiling for `vlint_*` benches: 10 s per pass. The
/// linter's cost grows with tree size by design, so a ratio-vs-baseline
/// gate would flag every PR that adds code; the ceiling instead catches
/// the accidental-quadratic case (a rule that rescans the file per
/// token, say) while leaving room for years of normal growth —
/// the full-workspace pass currently completes in well under a second.
const VLINT_MAX_NS: u64 = 10_000_000_000;

/// Extracts the balanced `[...]` starting at the first `"results":` at or
/// after `from`. Bench names never contain brackets, so bracket counting
/// is exact.
fn results_array(json: &str, from: usize) -> Option<&str> {
    let pos = from + json[from..].find("\"results\":")?;
    let open = pos + json[pos..].find('[')?;
    let mut depth = 0usize;
    for (i, c) in json[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&json[open..=open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Pulls `(name, median_ns)` out of every object in a results array.
fn parse_results(array: &str) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut rest = array;
    while let Some(start) = rest.find('{') {
        let Some(end) = rest[start..].find('}') else {
            break;
        };
        let obj = &rest[start..start + end];
        if let (Some(name), Some(median)) = (field_str(obj, "name"), field_u64(obj, "median_ns")) {
            out.push((name, median));
        }
        rest = &rest[start + end + 1..];
    }
    out
}

fn field_str(obj: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let pos = obj.find(&pat)? + pat.len();
    let rest = obj[pos..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

fn field_u64(obj: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let pos = obj.find(&pat)? + pat.len();
    let digits: String = obj[pos..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

struct Row {
    name: String,
    baseline: Option<u64>,
    current: Option<u64>,
}

impl Row {
    /// `ratio > MAX_RATIO` *and* growth past the noise floor, on a gated
    /// ([`GATED_PREFIXES`]) bench present on both sides. A zero baseline cannot
    /// regress (nothing to divide by). `vlint_*` benches are instead held
    /// to the absolute [`VLINT_MAX_NS`] ceiling — baseline or not.
    fn verdict(&self) -> (&'static str, Option<f64>) {
        if self.name.starts_with("vlint_") {
            let ratio = match (self.baseline, self.current) {
                (Some(b), Some(c)) if b > 0 => Some(c as f64 / b as f64),
                _ => None,
            };
            return match self.current {
                Some(c) if c > VLINT_MAX_NS => ("over_ceiling", ratio),
                _ => ("ok", ratio),
            };
        }
        match (self.baseline, self.current) {
            (Some(b), Some(c)) => {
                if b == 0 {
                    return ("ok", None);
                }
                let ratio = c as f64 / b as f64;
                if gated(&self.name) && ratio > MAX_RATIO && c.saturating_sub(b) > MIN_DELTA_NS {
                    ("regressed", Some(ratio))
                } else {
                    ("ok", Some(ratio))
                }
            }
            (None, Some(_)) => ("new", None),
            (Some(_), None) => ("retired", None),
            (None, None) => ("ok", None),
        }
    }
}

fn render_diff(rows: &[Row], failures: usize) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"vusion-bench-gate/v1\",\n");
    s.push_str(&format!("  \"max_ratio\": {MAX_RATIO},\n"));
    s.push_str(&format!("  \"min_delta_ns\": {MIN_DELTA_NS},\n"));
    s.push_str(&format!("  \"vlint_max_ns\": {VLINT_MAX_NS},\n"));
    s.push_str(&format!("  \"regressions\": {failures},\n"));
    s.push_str("  \"benches\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let (status, ratio) = row.verdict();
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let fmt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let ratio = ratio.map_or("null".to_string(), |r| format!("{r:.3}"));
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"baseline_median_ns\": {}, \"median_ns\": {}, \"ratio\": {}, \"status\": \"{}\"}}{}\n",
            row.name,
            fmt(row.baseline),
            fmt(row.current),
            ratio,
            status,
            comma
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

fn main() -> ExitCode {
    let repo_root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut args = std::env::args().skip(1);
    let input = args
        .next()
        .unwrap_or_else(|| format!("{repo_root}/BENCH_micro.json"));
    let output = args
        .next()
        .unwrap_or_else(|| format!("{repo_root}/BENCH_gate_diff.json"));
    let json = match std::fs::read_to_string(&input) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("bench_gate: cannot read {input}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(current) = results_array(&json, 0).map(parse_results) else {
        eprintln!("bench_gate: no results array in {input}");
        return ExitCode::FAILURE;
    };
    // The baseline key follows the top-level results/metrics; its own
    // results array (if any — first runs carry `"baseline": null`) is the
    // first one after the key.
    let baseline: Vec<(String, u64)> = json
        .find("\"baseline\":")
        .and_then(|pos| results_array(&json, pos))
        .map(parse_results)
        .unwrap_or_default();
    let mut rows: Vec<Row> = Vec::new();
    for (name, median) in &current {
        rows.push(Row {
            name: name.clone(),
            baseline: baseline.iter().find(|(n, _)| n == name).map(|&(_, m)| m),
            current: Some(*median),
        });
    }
    for (name, median) in &baseline {
        if !current.iter().any(|(n, _)| n == name) {
            rows.push(Row {
                name: name.clone(),
                baseline: Some(*median),
                current: None,
            });
        }
    }
    let mut failures = 0usize;
    for row in &rows {
        let (status, ratio) = row.verdict();
        if status == "regressed" {
            failures += 1;
            eprintln!(
                "bench_gate: {} regressed {:.2}x (baseline {} ns, now {} ns)",
                row.name,
                ratio.unwrap_or(0.0),
                row.baseline.unwrap_or(0),
                row.current.unwrap_or(0),
            );
        } else if status == "over_ceiling" {
            failures += 1;
            eprintln!(
                "bench_gate: {} over the absolute ceiling ({} ns > {} ns max)",
                row.name,
                row.current.unwrap_or(0),
                VLINT_MAX_NS,
            );
        }
    }
    let diff = render_diff(&rows, failures);
    if let Err(e) = std::fs::write(&output, &diff) {
        eprintln!("bench_gate: cannot write {output}: {e}");
        return ExitCode::FAILURE;
    }
    // The absolute `vlint_*` ceiling applies even without a baseline;
    // only the ratio gate needs one.
    if baseline.is_empty() && failures == 0 {
        println!("bench_gate: no baseline to compare against (first run) — pass");
        return ExitCode::SUCCESS;
    }
    let compared = rows
        .iter()
        .filter(|r| gated(&r.name) && r.baseline.is_some() && r.current.is_some())
        .count();
    println!("bench_gate: {compared} benches gated, {failures} regression(s); diff at {output}");
    if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(name: &str, baseline: Option<u64>, current: Option<u64>) -> Row {
        Row {
            name: name.to_string(),
            baseline,
            current,
        }
    }

    #[test]
    fn gated_rows_fail_only_past_both_thresholds() {
        for name in [
            "scan_full_pass_wpf_512",
            "tlb_hit_load_4k",
            "boot_small_image",
        ] {
            // +50% and +150 µs: regressed.
            assert_eq!(
                row(name, Some(300_000), Some(450_000)).verdict().0,
                "regressed",
                "{name}"
            );
            // +100% but only +10 µs: under the noise floor.
            assert_eq!(
                row(name, Some(10_000), Some(20_000)).verdict().0,
                "ok",
                "{name}"
            );
            // +20% and +200 µs: under the ratio.
            assert_eq!(
                row(name, Some(1_000_000), Some(1_200_000)).verdict().0,
                "ok",
                "{name}"
            );
        }
    }

    #[test]
    fn ungated_rows_never_regress() {
        let (status, ratio) = row("buddy_alloc_free_1k", Some(100_000), Some(900_000)).verdict();
        assert_eq!(status, "ok");
        assert_eq!(ratio, Some(9.0));
    }

    #[test]
    fn vlint_rows_face_only_the_ceiling() {
        let under = row("vlint_check_workspace", Some(1), Some(VLINT_MAX_NS));
        assert_eq!(under.verdict().0, "ok");
        let over = row("vlint_check_workspace", None, Some(VLINT_MAX_NS + 1));
        assert_eq!(over.verdict().0, "over_ceiling");
    }

    #[test]
    fn one_sided_and_zero_baseline_rows_pass() {
        assert_eq!(
            row("scan_x", Some(0), Some(1_000_000)).verdict(),
            ("ok", None)
        );
        assert_eq!(row("scan_x", None, Some(5)).verdict(), ("new", None));
        assert_eq!(row("scan_x", Some(5), None).verdict(), ("retired", None));
        assert_eq!(row("scan_x", None, None).verdict(), ("ok", None));
    }
}
