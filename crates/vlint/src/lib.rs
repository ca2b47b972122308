//! `vlint` — the workspace's static-contract checker.
//!
//! Most of the simulator's contracts are the compiler's or clippy's job
//! (DESIGN.md §11): the PTE raw-word conversions and
//! `MetricsRegistry::observe` are crate-private; frame bytes and their
//! write generations sit in a private store in `vusion-mem` whose only
//! mutable access bumps the generation; every snapshot `load` destructures
//! its type exhaustively, next to a save→load→save round-trip test per
//! type (DESIGN.md §9); `clippy.toml` bans host clocks, environment
//! reads, host threads and randomized-order hash collections. Journal
//! coverage is a test (`tests/journal_coverage.rs`) that drives every
//! journal event through its public entry point.
//!
//! `vlint` checks the conventions none of those can see. It walks the
//! workspace sources with its own lexer (no rustc, no network, no
//! dependencies) and runs per-file token passes:
//!
//! * **D-rules** — determinism: no platform-conditional compilation
//!   inside the simulation crates.
//! * **E-rules** — error policy: no panic-family macros in simulation
//!   code outside tests unless the function documents the contract with a
//!   `# Panics` doc section, and no silently-truncating casts on frame or
//!   generation arithmetic.
//! * **G-rules** — governor: the free-frame pressure signal is read only
//!   by the pressure governor (`crates/kernel/src/pressure.rs`); engines
//!   and the rest of the kernel consume its banded decisions so
//!   throttling stays centralized, hysteresis-damped, and snapshot-exact.
//!
//! Findings are deterministic: files are visited in sorted order and
//! findings sort by `(file, line, rule, message)`, so two runs over the
//! same tree emit byte-identical JSON. Individual lines opt out with
//! `// vlint: allow(RULE, reason)`; the rule must exist and the reason is
//! mandatory (rule `V001`).

pub mod catalog;
pub mod lexer;
mod rules;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lexer::{lex, Kind, Token};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the workspace root, `/`-separated.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Rule identifier (`D004`, `E001`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Families {
    /// Simulation-crate rules: determinism (D) and error policy (E).
    pub sim: bool,
    /// Governor pressure-signal rules.
    pub g: bool,
}

impl Families {
    /// Every family on — used by fixtures.
    pub const ALL: Families = Families { sim: true, g: true };
}

/// Crates whose behavior must be a pure function of the seed: the
/// determinism and error-policy rules apply to their `src/` trees.
const SIMULATION_SCOPE: &[&str] = &[
    "crates/mem/src/",
    "crates/mmu/src/",
    "crates/kernel/src/",
    "crates/core/src/",
    "crates/cache/src/",
    "crates/dram/src/",
    "crates/obs/src/",
    "crates/snapshot/src/",
    "crates/campaign/src/",
];

/// Maps a workspace-relative path to the rule families that police it.
pub fn families_for(rel: &str) -> Families {
    Families {
        sim: SIMULATION_SCOPE.iter().any(|p| rel.starts_with(p)),
        // The free-frame pressure signal is read in exactly one place —
        // the governor. Engines and the scan loop see only its banded
        // decisions; the allocator crates that implement `free_frames`
        // are naturally out of scope.
        g: (rel.starts_with("crates/core/src/") || rel.starts_with("crates/kernel/src/"))
            && rel != "crates/kernel/src/pressure.rs",
    }
}

/// A function item recovered from the token stream.
#[derive(Debug)]
pub(crate) struct FnInfo {
    /// Token range of the body, `tokens[body.0]` being the `{`.
    pub body: (usize, usize),
    /// Whether the doc comment above the item has a `# Panics` section.
    pub has_panics_doc: bool,
}

/// Everything the rules need to know about one file.
pub(crate) struct FileCtx<'a> {
    pub rel: &'a str,
    pub tokens: Vec<Token>,
    /// 1-based line -> inside a `#[cfg(test)]` / `#[test]` /
    /// `#[cfg(debug_assertions)]` item.
    pub test_lines: Vec<bool>,
    pub fns: Vec<FnInfo>,
}

impl FileCtx<'_> {
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_lines.get(line as usize).copied().unwrap_or(false)
    }

    /// The innermost function whose body contains token index `i`.
    pub fn enclosing_fn(&self, i: usize) -> Option<&FnInfo> {
        self.fns
            .iter()
            .filter(|f| f.body.0 <= i && i < f.body.1)
            .min_by_key(|f| f.body.1 - f.body.0)
    }
}

/// Finds the token index of the `}` matching the `{` at `open` (returns
/// the index one past it for use as an exclusive bound).
fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('{') {
            depth += 1;
        } else if tokens[i].is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Token index one past the `]` closing the attribute opened at `open`
/// (`tokens[open]` is the `[`).
fn attr_end(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < tokens.len() {
        if tokens[i].is_punct('[') {
            depth += 1;
        } else if tokens[i].is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    tokens.len()
}

/// Marks the line span of every item guarded by a test-only attribute
/// (`#[test]`, `#[cfg(test)]`, `#[cfg(debug_assertions)]`,
/// `#[should_panic]`, `#[bench]`).
fn mark_test_regions(tokens: &[Token], line_count: usize) -> Vec<bool> {
    let mut marked = vec![false; line_count + 2];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let end = attr_end(tokens, i + 1);
            let attr = &tokens[i + 1..end];
            let test_only = attr.iter().any(|t| {
                t.is_ident("test")
                    || t.is_ident("should_panic")
                    || t.is_ident("bench")
                    || t.is_ident("debug_assertions")
            }) && !attr.iter().any(|t| t.is_ident("not")); // `#[cfg(not(test))]` is live code
            if test_only {
                // The guarded item runs from the attribute to the end of
                // the next braced block (or to a `;` for bodiless items).
                let mut j = end;
                while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                    j += 1;
                }
                let close = if j < tokens.len() && tokens[j].is_punct('{') {
                    matching_brace(tokens, j)
                } else {
                    (j + 1).min(tokens.len())
                };
                let first = tokens[i].line as usize;
                let last = tokens
                    .get(close.saturating_sub(1))
                    .map_or(first, |t| t.line as usize);
                for m in marked
                    .iter_mut()
                    .take(last.min(line_count + 1) + 1)
                    .skip(first)
                {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = end;
            continue;
        }
        i += 1;
    }
    marked
}

/// Whether the doc block directly above `fn_line` (1-based) contains a
/// `# Panics` section. Attribute lines between docs and the item are
/// skipped.
fn has_panics_doc(lines: &[&str], fn_line: u32) -> bool {
    let mut l = fn_line as usize - 1; // index of the `fn` line
    while l > 0 {
        l -= 1;
        let t = lines[l].trim_start();
        if t.starts_with("///") || t.starts_with("//!") {
            if t.contains("# Panics") {
                return true;
            }
            continue;
        }
        if t.starts_with("#[") || t.starts_with("#![") || t.ends_with("]") && t.starts_with(")") {
            continue; // attribute (possibly the tail of a multi-line one)
        }
        if t.starts_with("//") {
            continue; // plain comment between docs and item
        }
        break;
    }
    false
}

/// Recovers function items (flat list, including nested ones).
fn collect_fns(tokens: &[Token], lines: &[&str]) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_ident("fn") && i + 1 < tokens.len() && tokens[i + 1].kind == Kind::Ident {
            let fn_line = tokens[i].line;
            // Signature runs to the body `{` or a `;` (trait method decl).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = matching_brace(tokens, j);
                fns.push(FnInfo {
                    body: (j, close),
                    has_panics_doc: has_panics_doc(lines, fn_line),
                });
                i += 2;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    fns
}

/// Map from line number to the rules allowed on that line.
type AllowMap = BTreeMap<u32, Vec<String>>;

/// Per-line `// vlint: allow(RULE, reason)` suppressions. The annotation
/// silences `RULE` on its own line and on the line directly below (so it
/// can sit above the offending statement). Returns `(line -> rules,
/// malformed)` where malformed entries are annotations without a reason
/// or naming a rule the catalog does not have.
fn parse_allows(lines: &[&str]) -> (AllowMap, Vec<(u32, String)>) {
    let mut allows: AllowMap = BTreeMap::new();
    let mut malformed = Vec::new();
    for (idx, raw) in lines.iter().enumerate() {
        let line = idx as u32 + 1;
        let Some(pos) = raw.find("// vlint: allow(") else {
            continue;
        };
        let rest = &raw[pos + "// vlint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            malformed.push((line, "unterminated vlint allow annotation".to_string()));
            continue;
        };
        let inner = &rest[..close];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        if rule.is_empty() || reason.is_empty() {
            malformed.push((
                line,
                format!(
                    "vlint allow for {} needs a reason: `// vlint: allow(RULE, why)`",
                    if rule.is_empty() {
                        "<missing rule>"
                    } else {
                        rule
                    }
                ),
            ));
            continue;
        }
        if catalog::find(rule).is_none() {
            malformed.push((
                line,
                format!("vlint allow names unknown rule `{rule}`; see `vlint rules`"),
            ));
            continue;
        }
        allows.entry(line).or_default().push(rule.to_string());
    }
    (allows, malformed)
}

/// Lints one file's source. `rel` is the workspace-relative path used in
/// findings; `fam` selects the rule families (callers normally derive it
/// with [`families_for`], fixtures force [`Families::ALL`]). A finding is
/// kept only if no allow covers its line; malformed allows come back as
/// V001 findings, which every file gets and nothing suppresses.
pub fn analyze_source(rel: &str, source: &str, fam: Families) -> Vec<Finding> {
    let lines: Vec<&str> = source.lines().collect();
    let (allows, malformed) = parse_allows(&lines);
    let tokens = lex(source);
    let ctx = FileCtx {
        rel,
        test_lines: mark_test_regions(&tokens, lines.len()),
        fns: collect_fns(&tokens, &lines),
        tokens,
    };
    let mut found = Vec::new();
    if fam.sim {
        rules::determinism(&ctx, &mut found);
        rules::error_policy(&ctx, &mut found);
    }
    if fam.g {
        rules::governor(&ctx, &mut found);
    }
    let allowed = |f: &Finding, l: u32| {
        allows
            .get(&l)
            .is_some_and(|rules| rules.iter().any(|r| r == f.rule))
    };
    found.retain(|f| !allowed(f, f.line) && !allowed(f, f.line.saturating_sub(1)));
    found.extend(malformed.into_iter().map(|(line, message)| Finding {
        file: rel.to_string(),
        line,
        rule: "V001",
        message,
    }));
    found.sort();
    found.dedup();
    found
}

/// Recursively collects the workspace's `.rs` files, sorted, as paths
/// relative to `root`. Skips build output, VCS metadata, logs, and this
/// crate itself (its rule tables spell out the very patterns it hunts).
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<String>> {
    const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "bench_logs", "related"];
    let mut out = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if SKIP_DIRS.contains(&name.as_ref()) {
                    continue;
                }
                if path
                    .strip_prefix(root)
                    .is_ok_and(|r| r.to_string_lossy().replace('\\', "/") == "crates/vlint")
                {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lints the whole workspace rooted at `root`. Returns findings with
/// per-line suppressions already applied.
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for rel in workspace_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        findings.extend(analyze_source(&rel, &source, families_for(&rel)));
    }
    Ok(findings)
}

/// Serializes findings as deterministic JSON: fixed field order, sorted
/// entries, `\n` line endings, no trailing whitespace. Byte-identical
/// across runs on the same tree.
pub fn to_json(findings: &[Finding]) -> String {
    fn esc(s: &str, out: &mut String) {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
    }
    let mut out = String::from("{\n  \"version\": 1,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"file\": \"");
        esc(&f.file, &mut out);
        let _ = write!(
            out,
            "\", \"line\": {}, \"rule\": \"{}\", \"message\": \"",
            f.line, f.rule
        );
        esc(&f.message, &mut out);
        out.push_str("\"}");
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_annotation_suppresses_same_and_next_line() {
        let src = "\
// vlint: allow(G001, test of suppression)
let a = m.free_frames();
let b = m.free_frames();
";
        let f = analyze_source("crates/mem/src/x.rs", src, Families::ALL);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "G001");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "let x = 1; // vlint: allow(G001)\n";
        let f = analyze_source("crates/mem/src/x.rs", src, Families::ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "V001");
    }

    #[test]
    fn allow_naming_a_retired_rule_is_rejected() {
        // W001 and J001 moved out of vlint: an allow naming either
        // suppresses nothing and is itself a finding.
        for rule in ["W001", "J001"] {
            let src = format!("// vlint: allow({rule}, checked elsewhere now)\nlet x = 1;\n");
            let f = analyze_source("crates/kernel/src/x.rs", &src, Families::ALL);
            assert_eq!(f.len(), 1, "{f:?}");
            assert_eq!((f[0].rule, f[0].line), ("V001", 1));
        }
    }

    #[test]
    fn json_report_is_golden() {
        let findings = vec![
            Finding {
                file: "a.rs".into(),
                line: 3,
                rule: "D004",
                message: "say \"no\"\nthen stop".into(),
            },
            Finding {
                file: "b.rs".into(),
                line: 9,
                rule: "G001",
                message: "plain".into(),
            },
        ];
        let golden = r#"{
  "version": 1,
  "findings": [
    {"file": "a.rs", "line": 3, "rule": "D004", "message": "say \"no\"\nthen stop"},
    {"file": "b.rs", "line": 9, "rule": "G001", "message": "plain"}
  ]
}
"#;
        assert_eq!(to_json(&findings), golden);
        assert_eq!(
            to_json(&[]),
            "{\n  \"version\": 1,\n  \"findings\": []\n}\n"
        );
    }

    #[test]
    fn test_regions_cover_cfg_test_mods() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn helper() { panic!(\"fine here\"); }
}
";
        let tokens = lex(src);
        let marked = mark_test_regions(&tokens, src.lines().count());
        assert!(!marked[1]);
        assert!(marked[2] && marked[3] && marked[4] && marked[5]);
    }
}
