//! `vlint` — the workspace's static-contract checker.
//!
//! The simulator's correctness claims rest on contracts a type system
//! alone cannot express: reproducibility of every figure from a seed
//! (determinism), coherence of the memoized page hashes (write-gen), the
//! PTE bit layout staying behind one typed API (the S⊕F trap bits), and a
//! uniform error policy in simulation code. `vlint` walks the workspace
//! sources with its own lexer (no rustc, no network, no dependencies) and
//! enforces those contracts as lint rules:
//!
//! * **D-rules** — determinism: no wall-clock time, no randomized-order
//!   hash collections, no environment reads, no platform-conditional
//!   compilation inside the simulation crates.
//! * **T-rules** — threading: host threads stay behind the campaign
//!   orchestrator's whole-run fan-out (`crates/campaign/src/lib.rs`);
//!   ad-hoc `std::thread` use would make artifacts depend on scheduling.
//! * **W-rules** — write-gen coherence: code in `vusion-mem` that can
//!   reach mutable frame contents must bump the frame's write generation
//!   (checked transitively across local calls).
//! * **P-rules** — PTE typing: page-table words are manipulated only
//!   through `vusion-mmu`'s `Pte`/`PteFlags` API; raw `u64` bit twiddling
//!   and the `bits`/`from_bits` escape hatches stay inside that crate.
//! * **E-rules** — error policy: no panic-family macros in simulation
//!   code outside tests unless the function documents the contract with a
//!   `# Panics` doc section, and no silently-truncating casts on frame or
//!   generation arithmetic.
//! * **G-rules** — governor: the free-frame pressure signal is read only
//!   by the pressure governor (`crates/kernel/src/pressure.rs`); engines
//!   and the rest of the kernel consume its banded decisions so
//!   throttling stays centralized, hysteresis-damped, and snapshot-exact.
//! * **O-rules** — observability: latency histograms are sampled only
//!   inside the side-channel surface recorder
//!   (`crates/obs/src/surface.rs`); everyone else goes through typed
//!   wrappers like `Obs::observe_fault_latency`, so every latency
//!   observation feeds one canonical, diffable artifact.
//! * **S-rules** — snapshot coverage: every field of every
//!   `impl Snapshot` type round-trips through `save`/`load` (S001), in
//!   the same order on both sides (S002); derived or host-only fields
//!   carry a reasoned allow on their declaration line.
//! * **J-rules** — journal coverage: every public `&mut self` method on
//!   `System`/`Machine` that reaches simulation state appends a journal
//!   event (or is reachable from one that does), so replay reconstructs
//!   every mutation from the event stream.
//!
//! The first seven families are per-file token passes. The S/J
//! families (and W's transitive check) run on a workspace level: a
//! lightweight item parser ([`parser`]) recovers structs, impl blocks,
//! and methods, and a cross-file symbol table and name-based call graph
//! (`workspace`) answers reachability questions over the whole tree.
//!
//! Findings are deterministic: files are visited in sorted order and
//! findings sort by `(file, line, rule, message)`, so two runs over the
//! same tree emit byte-identical JSON. Individual lines opt out with
//! `// vlint: allow(RULE, reason)`; a reason is mandatory (rule `V001`).

pub mod catalog;
pub mod lexer;
pub mod parser;
mod rules;
mod workspace;

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
    /// Rule identifier (`D001`, `W001`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// The `file:line:rule` key used for baseline matching.
    pub fn key(&self) -> String {
        format!("{}:{}:{}", self.file, self.line, self.rule)
    }
}

/// Which rule families apply to a file.
#[derive(Debug, Clone, Copy, Default)]
pub struct Families {
    /// Determinism rules.
    pub d: bool,
    /// Threading rules.
    pub t: bool,
    /// Write-gen coherence rules.
    pub w: bool,
    /// PTE-typing rules.
    pub p: bool,
    /// Error-policy rules.
    pub e: bool,
    /// Governor pressure-signal rules.
    pub g: bool,
    /// Observability (surface latency-sampling) rules.
    pub o: bool,
    /// Snapshot-coverage rules.
    pub s: bool,
    /// Journal-coverage rules.
    pub j: bool,
}

impl Families {
    /// Every family on — used by fixtures.
    pub const ALL: Families = Families {
        d: true,
        t: true,
        w: true,
        p: true,
        e: true,
        g: true,
        o: true,
        s: true,
        j: true,
    };
}

/// Whether `rule` belongs to a family enabled in `fam` (keyed by the
/// rule's leading letter; `V001` is always on).
fn family_enabled(fam: Families, rule: &str) -> bool {
    match rule.as_bytes().first() {
        Some(b'D') => fam.d,
        Some(b'T') => fam.t,
        Some(b'W') => fam.w,
        Some(b'P') => fam.p,
        Some(b'E') => fam.e,
        Some(b'G') => fam.g,
        Some(b'O') => fam.o,
        Some(b'S') => fam.s,
        Some(b'J') => fam.j,
        _ => true,
    }
}

/// Crates whose behavior must be a pure function of the seed: the D-rules
/// apply to their `src/` trees.
const DETERMINISM_SCOPE: &[&str] = &[
    "crates/mem/src/",
    "crates/mmu/src/",
    "crates/kernel/src/",
    "crates/core/src/",
    "crates/obs/src/",
    "crates/snapshot/src/",
    "crates/campaign/src/",
];

/// Simulation crates under the error-policy rules.
const ERROR_POLICY_SCOPE: &[&str] = &[
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
    let in_scope = |scope: &[&str]| scope.iter().any(|p| rel.starts_with(p));
    Families {
        d: in_scope(DETERMINISM_SCOPE),
        // Host threads ride the same scope as determinism: the crates
        // whose artifacts must not depend on scheduling.
        t: in_scope(DETERMINISM_SCOPE),
        w: rel.starts_with("crates/mem/src/"),
        // PTE words may only be touched inside the MMU crate; everyone
        // else — engines, kernel, tests, benches — goes through the API.
        p: !rel.starts_with("crates/mmu/src/"),
        e: in_scope(ERROR_POLICY_SCOPE),
        // The free-frame pressure signal is read in exactly one place —
        // the governor. Engines and the scan loop see only its banded
        // decisions; the allocator crates that implement `free_frames`
        // are naturally out of scope.
        g: (rel.starts_with("crates/core/src/") || rel.starts_with("crates/kernel/src/"))
            && rel != "crates/kernel/src/pressure.rs",
        // Latency histograms are sampled in exactly one module — the
        // surface recorder. The obs crate itself (recorder + registry)
        // is naturally out of scope.
        o: !rel.starts_with("crates/obs/src/"),
        // Snapshot round-trip coverage applies to every crate's library
        // sources: any `impl Snapshot` in the tree is replay-critical.
        s: rel.starts_with("crates/") && rel.contains("/src/"),
        // Journal coverage polices the kernel's public mutator surface
        // (`System`/`Machine` live there).
        j: rel.starts_with("crates/kernel/src/"),
    }
}

/// A function item recovered from the token stream.
#[derive(Debug)]
pub(crate) struct FnInfo {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body, `tokens[body.0]` being the `{`.
    pub body: (usize, usize),
    /// Whether the signature takes `&mut self`.
    pub takes_mut_self: bool,
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
    /// Item-level view: structs, impl blocks, methods.
    pub items: parser::Items,
    /// The rule families policing this file (workspace rules consult it
    /// to decide which files' items to analyze).
    pub fam: Families,
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
            let name = tokens[i + 1].text.clone();
            let fn_line = tokens[i].line;
            // Signature runs to the body `{` or a `;` (trait method decl).
            let mut j = i + 2;
            let mut takes_mut_self = false;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                if tokens[j].is_ident("self") {
                    // `&mut self` / `&'a mut self`.
                    let back: Vec<&Token> = tokens[..j].iter().rev().take(3).collect();
                    let has_mut = back.first().is_some_and(|t| t.is_ident("mut"));
                    let has_amp = back.iter().any(|t| t.is_punct('&'));
                    if has_mut && has_amp {
                        takes_mut_self = true;
                    }
                }
                j += 1;
            }
            if j < tokens.len() && tokens[j].is_punct('{') {
                let close = matching_brace(tokens, j);
                fns.push(FnInfo {
                    name,
                    line: fn_line,
                    body: (j, close),
                    takes_mut_self,
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
/// malformed)` where malformed entries are annotations without a reason.
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
        allows.entry(line).or_default().push(rule.to_string());
    }
    (allows, malformed)
}

/// Builds the per-file contexts for a batch of sources.
pub(crate) fn build_file_ctxs(files: &[(String, String, Families)]) -> Vec<FileCtx<'_>> {
    files
        .iter()
        .map(|(rel, source, fam)| {
            let lines: Vec<&str> = source.lines().collect();
            let tokens = lex(source);
            FileCtx {
                rel,
                test_lines: mark_test_regions(&tokens, lines.len()),
                fns: collect_fns(&tokens, &lines),
                items: parser::parse_items(&tokens),
                fam: *fam,
                tokens,
            }
        })
        .collect()
}

/// Lints a batch of files as one workspace: per-file token rules first,
/// then the cross-file rules (W/S/J/R) over the shared symbol table and
/// call graph. Each finding is kept only if its rule's family is enabled
/// for the file it is anchored in, and per-line allows apply as usual.
pub fn analyze_files(files: &[(String, String, Families)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut allows: BTreeMap<&str, AllowMap> = BTreeMap::new();
    for (rel, source, _) in files {
        let lines: Vec<&str> = source.lines().collect();
        let (map, malformed) = parse_allows(&lines);
        for (line, msg) in malformed {
            findings.push(Finding {
                file: rel.clone(),
                line,
                rule: "V001",
                message: msg,
            });
        }
        allows.insert(rel.as_str(), map);
    }

    let ctxs = build_file_ctxs(files);
    for ctx in &ctxs {
        rules::determinism(ctx, &mut findings);
        rules::threading(ctx, &mut findings);
        rules::pte_typing(ctx, &mut findings);
        rules::error_policy(ctx, &mut findings);
        rules::governor(ctx, &mut findings);
        rules::surface(ctx, &mut findings);
    }
    let ws = workspace::WorkspaceCtx::build(&ctxs);
    rules::write_gen(&ws, &mut findings);
    rules::snapshot_coverage(&ws, &mut findings);
    rules::journal_coverage(&ws, &mut findings);

    let fam_of: BTreeMap<&str, Families> = files
        .iter()
        .map(|(rel, _, fam)| (rel.as_str(), *fam))
        .collect();
    findings.retain(|f| {
        // V001 (malformed annotation) is always live and cannot be
        // self-suppressed.
        if f.rule == "V001" {
            return true;
        }
        let fam = fam_of.get(f.file.as_str()).copied().unwrap_or_default();
        if !family_enabled(fam, f.rule) {
            return false;
        }
        let allowed = |l: u32| {
            allows.get(f.file.as_str()).is_some_and(|m| {
                m.get(&l)
                    .is_some_and(|rules| rules.iter().any(|r| r == f.rule))
            })
        };
        !allowed(f.line) && !allowed(f.line.saturating_sub(1))
    });
    findings.sort();
    findings.dedup();
    findings
}

/// Lints one file's source as a single-file workspace. `rel` is the
/// workspace-relative path used in findings; `fam` selects the rule
/// families (callers normally derive it with [`families_for`], fixtures
/// force [`Families::ALL`]).
pub fn analyze_source(rel: &str, source: &str, fam: Families) -> Vec<Finding> {
    analyze_files(&[(rel.to_string(), source.to_string(), fam)])
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
/// per-line suppressions already applied (baseline filtering is the
/// caller's job).
pub fn scan_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut files = Vec::new();
    for rel in workspace_files(root)? {
        let source = std::fs::read_to_string(root.join(&rel))?;
        let fam = families_for(&rel);
        files.push((rel, source, fam));
    }
    Ok(analyze_files(&files))
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

/// Parses the `file:line:rule` keys out of a baseline JSON written by
/// [`to_json`]. Tolerant: anything that is not a finding object is
/// ignored, so a hand-edited baseline still loads.
pub fn baseline_keys(json: &str) -> Vec<String> {
    let mut keys = Vec::new();
    let mut rest = json;
    while let Some(start) = rest.find("{\"file\": \"") {
        rest = &rest[start + "{\"file\": \"".len()..];
        let Some(fe) = rest.find('"') else { break };
        let file = &rest[..fe];
        let Some(ls) = rest.find("\"line\": ") else {
            break;
        };
        let after = &rest[ls + "\"line\": ".len()..];
        let line: String = after.chars().take_while(|c| c.is_ascii_digit()).collect();
        let Some(rs) = rest.find("\"rule\": \"") else {
            break;
        };
        let after_r = &rest[rs + "\"rule\": \"".len()..];
        let Some(re) = after_r.find('"') else { break };
        keys.push(format!("{}:{}:{}", file, line, &after_r[..re]));
    }
    keys.sort();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_annotation_suppresses_same_and_next_line() {
        let src = "\
// vlint: allow(D002, test of suppression)
use std::collections::HashMap;
use std::collections::HashSet;
";
        let f = analyze_source("crates/mem/src/x.rs", src, Families::ALL);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "D002");
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "let x = 1; // vlint: allow(D002)\n";
        let f = analyze_source("crates/mem/src/x.rs", src, Families::ALL);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "V001");
    }

    #[test]
    fn json_roundtrips_baseline_keys() {
        let findings = vec![
            Finding {
                file: "a.rs".into(),
                line: 3,
                rule: "D001",
                message: "no \"clocks\"".into(),
            },
            Finding {
                file: "b.rs".into(),
                line: 9,
                rule: "P002",
                message: "escape hatch".into(),
            },
        ];
        let json = to_json(&findings);
        assert_eq!(baseline_keys(&json), vec!["a.rs:3:D001", "b.rs:9:P002"]);
        assert_eq!(baseline_keys(&to_json(&[])), Vec::<String>::new());
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
