//! The rule implementations. The D/T/P/E/G/O families are per-file
//! passes over a token stream; the W/J families run on the workspace
//! level, over the item parser's impl blocks and the cross-file
//! name-based call graph.
//!
//! Rules are deliberately token-level, not type-level: they trade a
//! little precision for zero dependencies and total determinism, and the
//! `// vlint: allow(RULE, reason)` escape hatch absorbs the (rare,
//! documented) false positives.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Kind, Token};
use crate::workspace::{self, WorkspaceCtx};
use crate::{FileCtx, Finding};

fn push(ctx: &FileCtx<'_>, out: &mut Vec<Finding>, line: u32, rule: &'static str, msg: String) {
    out.push(Finding {
        file: ctx.rel.to_string(),
        line,
        rule,
        message: msg,
    });
}

/// Whether `tokens[i..]` starts the path segment `a :: b` for any `b` in
/// `tails`. Returns the matched tail.
fn path_seg<'t>(tokens: &'t [Token], i: usize, head: &str, tails: &[&str]) -> Option<&'t Token> {
    if tokens.get(i)?.is_ident(head)
        && tokens.get(i + 1)?.is_punct(':')
        && tokens.get(i + 2)?.is_punct(':')
    {
        let t = tokens.get(i + 3)?;
        if tails.iter().any(|s| t.is_ident(s)) {
            return Some(t);
        }
    }
    None
}

// ---------------------------------------------------------------------
// D — determinism
// ---------------------------------------------------------------------

/// D001 wall-clock time, D003 environment reads, D004
/// platform-conditional compilation. (Randomized-order hash collections
/// are banned by clippy.toml's `disallowed-types`, for every target.)
pub(crate) fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        // D001 — wall-clock time. `Instant`/`SystemTime` count only in
        // clock-like positions — imported from a `time` path or used as
        // `Instant::now()` etc. The tracer's own `Phase::Instant` variant
        // and `InstantKind` are simulator vocabulary and stay legal.
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            let from_time_path = i >= 3
                && toks[i - 3].is_ident("time")
                && toks[i - 2].is_punct(':')
                && toks[i - 1].is_punct(':');
            let clock_call = toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                && toks.get(i + 3).is_some_and(|n| {
                    n.is_ident("now")
                        || n.is_ident("elapsed")
                        || n.is_ident("duration_since")
                        || n.is_ident("UNIX_EPOCH")
                });
            if from_time_path || clock_call {
                push(
                    ctx,
                    out,
                    t.line,
                    "D001",
                    format!(
                        "`{}` reads the host clock; simulation time comes from the machine's \
                         cycle counter",
                        t.text
                    ),
                );
            }
        }
        if path_seg(toks, i, "std", &["time"]).is_some() {
            push(
                ctx,
                out,
                t.line,
                "D001",
                "`std::time` is host wall-clock; simulation time comes from the machine's \
                 cycle counter"
                    .to_string(),
            );
        }
        // D003 — environment reads make behavior depend on the host.
        if let Some(m) = path_seg(toks, i, "env", &["var", "var_os", "vars", "vars_os"]) {
            push(
                ctx,
                out,
                t.line,
                "D003",
                format!(
                    "`env::{}` makes simulation behavior depend on the host environment; \
                     thread configuration through explicit config structs",
                    m.text
                ),
            );
        }
        // D004 — platform-conditional simulation behavior (attributes and
        // the `cfg!(...)` macro alike).
        let cfg_open = if t.is_ident("cfg") {
            if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
                i + 2
            } else {
                i + 1
            }
        } else {
            usize::MAX
        };
        if cfg_open != usize::MAX && toks.get(cfg_open).is_some_and(|n| n.is_punct('(')) {
            let mut j = cfg_open + 1;
            let mut depth = 1usize;
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                } else if depth > 0 {
                    const PLATFORM: &[&str] = &[
                        "target_os",
                        "target_arch",
                        "target_family",
                        "target_endian",
                        "target_pointer_width",
                        "unix",
                        "windows",
                    ];
                    if PLATFORM.iter().any(|p| toks[j].is_ident(p)) {
                        push(
                            ctx,
                            out,
                            toks[j].line,
                            "D004",
                            format!(
                                "platform-conditional `cfg({})` in a simulation crate: results \
                                 must not depend on the host platform",
                                toks[j].text
                            ),
                        );
                    }
                }
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// T — threading
// ---------------------------------------------------------------------

/// T001: host threads in a determinism crate. The one approved spawn is
/// the campaign orchestrator's whole-run fan-out
/// (`crates/campaign/src/lib.rs`, which carries the allow annotation):
/// each worker owns entire deterministic runs and reports merge in
/// enumeration order. Any other `std::thread` use would reintroduce
/// scheduling order as a hidden input.
pub(crate) fn threading(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != Kind::Ident {
            continue;
        }
        // `std::thread` by full path (imports and inline paths alike).
        if path_seg(toks, i, "std", &["thread"]).is_some() {
            push(
                ctx,
                out,
                t.line,
                "T001",
                "`std::thread` spawns host threads in a determinism crate; only the \
                 campaign orchestrator's whole-run fan-out (crates/campaign/src/lib.rs) may, \
                 so artifacts never depend on scheduling"
                    .to_string(),
            );
            continue;
        }
        // `thread::spawn` / `thread::scope` / `thread::Builder` after a
        // `use std::thread`. Skip when preceded by `::` — that is the
        // tail of a `std::thread::...` path already reported above.
        let path_tail = i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':');
        if !path_tail {
            if let Some(m) = path_seg(toks, i, "thread", &["spawn", "scope", "Builder"]) {
                push(
                    ctx,
                    out,
                    t.line,
                    "T001",
                    format!(
                        "`thread::{}` spawns host threads in a determinism crate; only \
                         the campaign orchestrator's whole-run fan-out \
                         (crates/campaign/src/lib.rs) may, so artifacts never depend \
                         on scheduling",
                        m.text
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// W — write-gen coherence
// ---------------------------------------------------------------------

/// W001: a `&mut self` function that reaches the frame-content store
/// (`self.data`) must bump a write generation — either directly (a
/// `.write_gen = ...` assignment in its body) or by calling, possibly
/// transitively, a function that does. The fixpoint runs over the
/// *workspace* call graph, so a bump delegated to another file (e.g.
/// `FrameInfo::bump` called from `PhysMemory`) satisfies the rule. The
/// rule only reports in files that participate in the write-gen protocol
/// at all (mention the `write_gen` identifier), so unrelated `data`
/// fields elsewhere do not trip it.
pub(crate) fn write_gen(ws: &WorkspaceCtx<'_, '_>, out: &mut Vec<Finding>) {
    // Fixpoint: a function "bumps" if it writes `.write_gen = ...` itself
    // or calls (by name, anywhere in the workspace) a bumper.
    let mut bumpers: BTreeSet<&str> = ws
        .nodes
        .iter()
        .filter(|n| n.writes_gen)
        .map(|n| n.name.as_str())
        .collect();
    loop {
        let before = bumpers.len();
        for n in &ws.nodes {
            if !bumpers.contains(n.name.as_str())
                && n.calls.iter().any(|c| bumpers.contains(c.as_str()))
            {
                bumpers.insert(n.name.as_str());
            }
        }
        if bumpers.len() == before {
            break;
        }
    }

    let in_protocol: Vec<bool> = ws
        .files
        .iter()
        .map(|f| f.tokens.iter().any(|t| t.is_ident("write_gen")))
        .collect();
    for n in &ws.nodes {
        if n.in_test || !in_protocol[n.file] {
            continue;
        }
        if n.takes_mut_self && n.touches_data && !bumpers.contains(n.name.as_str()) {
            out.push(Finding {
                file: ws.files[n.file].rel.to_string(),
                line: n.line,
                rule: "W001",
                message: format!(
                    "`{}` takes `&mut self` and reaches frame contents (`self.data`) but never \
                     bumps a write generation; stale memoized hashes would survive the mutation",
                    n.name
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------
// P — PTE typing
// ---------------------------------------------------------------------

const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

fn ident_has(t: &Token, needle: &str) -> bool {
    t.kind == Kind::Ident && t.text.to_ascii_lowercase().contains(needle)
}

/// P001 raw `u64` PTE manipulation outside `vusion-mmu`; P002 use of the
/// `bits`/`from_bits`/`to_bits` escape hatches outside `vusion-mmu`.
pub(crate) fn pte_typing(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        // P001a — a binding/param/field named like a PTE typed as a raw
        // word: `pte: u64` (but not the path `pte::...`).
        if ident_has(t, "pte")
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("u64"))
        {
            push(
                ctx,
                out,
                t.line,
                "P001",
                format!(
                    "`{}` is a raw `u64` page-table word; outside vusion-mmu use the typed \
                     `Pte`/`PteFlags` API",
                    t.text
                ),
            );
        }
        // P001b — the reserved-bit magic constant: `... << 51`.
        if t.is_punct('<')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('<'))
            && toks
                .get(i + 2)
                .is_some_and(|n| n.kind == Kind::Int && n.text == "51")
        {
            push(
                ctx,
                out,
                t.line,
                "P001",
                "shifting into bit 51 re-derives the reserved-bit trap by hand; use \
                 `PteFlags::RESERVED`"
                    .to_string(),
            );
        }
        // P001c — bit-operating a PTE-named value against an integer
        // literal: `pte & 0xfff`, `pte.0 | 4`, `raw_pte ^ 1`.
        if ident_has(t, "pte") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_punct('.'))
                && toks.get(j + 1).is_some_and(|n| n.kind == Kind::Int)
            {
                j += 2; // tuple-field access like `pte.0`
            }
            let op = toks
                .get(j)
                .filter(|n| n.is_punct('|') || n.is_punct('&') || n.is_punct('^'));
            let shift = toks
                .get(j)
                .filter(|n| n.is_punct('<') || n.is_punct('>'))
                .and_then(|n| toks.get(j + 1).filter(|m| m.text == n.text));
            let rhs = if op.is_some() {
                toks.get(j + 1)
            } else if shift.is_some() {
                toks.get(j + 2)
            } else {
                None
            };
            if rhs.is_some_and(|r| r.kind == Kind::Int) {
                push(
                    ctx,
                    out,
                    t.line,
                    "P001",
                    format!(
                        "raw bit arithmetic on `{}`; outside vusion-mmu PTE bits are only \
                         touched through `PteFlags` masks",
                        t.text
                    ),
                );
            }
        }
        // P002a — the escape-hatch constructors by path.
        if (t.is_ident("Pte") || t.is_ident("PteFlags"))
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| {
                n.is_ident("from_bits") || n.is_ident("to_bits") || n.is_ident("bits")
            })
        {
            push(
                ctx,
                out,
                t.line,
                "P002",
                format!(
                    "`{}::{}` is the raw-bits escape hatch; it is reserved for vusion-mmu's \
                     own encoding and snapshot wire formats",
                    t.text,
                    toks[i + 3].text
                ),
            );
        }
        // P002b — method-call form on something PTE-ish nearby:
        // `leaf.pte.to_bits()`, `flags.bits()`.
        if t.is_punct('.')
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_ident("to_bits") || n.is_ident("bits"))
            && toks.get(i + 2).is_some_and(|n| n.is_punct('('))
        {
            let lookback = toks[i.saturating_sub(8)..i].iter();
            if lookback
                .filter(|b| b.kind == Kind::Ident)
                .any(|b| ident_has(b, "pte") || ident_has(b, "flag"))
            {
                push(
                    ctx,
                    out,
                    t.line,
                    "P002",
                    format!(
                        "`.{}()` on a PTE value leaks the raw word outside vusion-mmu; use \
                         the typed accessors",
                        toks[i + 1].text
                    ),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// E — error policy
// ---------------------------------------------------------------------

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// E001 undocumented panics in simulation code; E002 silently-truncating
/// casts on frame/generation/cycle arithmetic.
pub(crate) fn error_policy(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        // E001 — panic-family macro invocation. Test code is exempt
        // (including `#[cfg(test)]` mods and `#[cfg(debug_assertions)]`
        // blocks); `debug_assert*` never matches; a function whose doc
        // comment carries a `# Panics` section has declared the contract.
        if t.kind == Kind::Ident
            && PANIC_MACROS.iter().any(|m| t.is_ident(m))
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && !ctx.in_test_code(t.line)
        {
            let documented = ctx.enclosing_fn(i).is_some_and(|f| f.has_panics_doc);
            if !documented {
                push(
                    ctx,
                    out,
                    t.line,
                    "E001",
                    format!(
                        "`{}!` in simulation code: either document the contract with a \
                         `# Panics` doc section, demote to `debug_assert!`, or return an error",
                        t.text
                    ),
                );
            }
        }
        // E002 — `frame as u32`-style truncation. Frame numbers,
        // generations, and cycle counts are u64 end to end; a narrowing
        // `as` silently wraps. (usize is excluded: index casts are fine.)
        if t.kind == Kind::Ident {
            let lower = t.text.to_ascii_lowercase();
            let suspicious =
                lower.contains("frame") || lower.contains("cycle") || lower.ends_with("gen");
            if suspicious && !ctx.in_test_code(t.line) {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|n| n.is_punct('.'))
                    && toks.get(j + 1).is_some_and(|n| n.kind == Kind::Int)
                {
                    j += 2; // `frame.0 as u32`
                }
                if toks.get(j).is_some_and(|n| n.is_ident("as"))
                    && toks
                        .get(j + 1)
                        .is_some_and(|n| NARROW_INTS.iter().any(|ty| n.is_ident(ty)))
                {
                    push(
                        ctx,
                        out,
                        t.line,
                        "E002",
                        format!(
                            "`{} as {}` silently truncates frame/generation/cycle arithmetic; \
                             use `u64` or a checked conversion",
                            t.text,
                            toks[j + 1].text
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// G — governor pressure signal
// ---------------------------------------------------------------------

/// G001: the free-frame count is the pressure governor's input signal,
/// and it is read in exactly one place — `crates/kernel/src/pressure.rs`
/// (exempted by the scope map). Engine or kernel code that polls
/// `free_frames` directly re-derives pressure without the governor's
/// hysteresis bands, so two call sites can disagree about the band mid-
/// wake and the decision stops being a snapshot-exact pure function of
/// the sampled sequence. Test code is exempt: assertions about free-frame
/// accounting are observations, not throttling decisions.
pub(crate) fn governor(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    for t in &ctx.tokens {
        if t.kind == Kind::Ident && t.is_ident("free_frames") && !ctx.in_test_code(t.line) {
            push(
                ctx,
                out,
                t.line,
                "G001",
                "`free_frames` is the governor's pressure signal; read band decisions \
                 from PressureGovernor (crates/kernel/src/pressure.rs) so throttling \
                 stays hysteresis-damped and snapshot-exact"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// O — observability (surface latency sampling)
// ---------------------------------------------------------------------

/// O001: latency histograms are fed in exactly one module — the
/// side-channel surface recorder (`crates/obs/src/surface.rs`, exempted
/// by the scope map). A raw `registry.observe(...)` call anywhere else
/// re-invents a latency channel the surface cannot see, so the diffable
/// artifact silently under-reports and two sampling sites can disagree
/// about bucketing. Simulation and harness code goes through typed
/// wrappers like `Obs::observe_fault_latency`. Test code is exempt:
/// asserting on a histogram is an observation, not a new channel.
pub(crate) fn surface(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == Kind::Ident
            && t.is_ident("observe")
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
            && !ctx.in_test_code(t.line)
        {
            push(
                ctx,
                out,
                t.line,
                "O001",
                "raw `observe(...)` samples a latency histogram outside the surface \
                 recorder (crates/obs/src/surface.rs); use a typed wrapper like \
                 `Obs::observe_fault_latency` so every sample feeds the canonical \
                 diffable surface"
                    .to_string(),
            );
        }
    }
}

// ---------------------------------------------------------------------
// J — journal coverage
// ---------------------------------------------------------------------

/// J001: every public `&mut self` method on `System`/`Machine` that
/// reaches simulation state must append a journal event — replay
/// reconstructs a run purely from the journal, so an unjournaled public
/// mutator is invisible to replay and the replayed machine forks at that
/// call. "Covered" = the method records itself (calls `record`), is named
/// like the replay dispatcher, or is name-reachable from a covering
/// function (internal steps of a journaled operation are replayed by
/// re-executing the operation). "Reaches simulation state" = the
/// name-closure of its body hits a `&mut self` function in a simulation
/// state crate, or a write-gen/frame-content mutation. Host-only knobs
/// carry `// vlint: allow(J001, host-only — why)`.
pub(crate) fn journal_coverage(ws: &WorkspaceCtx<'_, '_>, out: &mut Vec<Finding>) {
    const STATE_CRATES: &[&str] = &[
        "crates/mem/src/",
        "crates/mmu/src/",
        "crates/cache/src/",
        "crates/dram/src/",
        "crates/core/src/",
    ];

    // Covering functions and everything they reach.
    let mut covered: BTreeSet<String> = BTreeSet::new();
    let mut seeds: BTreeSet<String> = BTreeSet::new();
    for n in &ws.nodes {
        if n.in_test || !ws.files[n.file].fam.j {
            continue;
        }
        if n.calls.contains("record") || n.name.contains("replay") {
            covered.insert(n.name.clone());
            seeds.extend(n.calls.iter().cloned());
        }
    }
    let (reach_from_covered, _) = ws.closure(&seeds);
    covered.extend(reach_from_covered);

    // Simulation-state sinks. The path clause catches the real tree's
    // state crates; the writes_gen/touches_data clause is scope-agnostic
    // so single-file fixtures exercise the rule too.
    let sinks: BTreeMap<&str, &str> = ws
        .nodes
        .iter()
        .filter(|n| {
            !n.in_test
                && n.takes_mut_self
                && !workspace::is_opaque(&n.name)
                && (STATE_CRATES
                    .iter()
                    .any(|p| ws.files[n.file].rel.starts_with(p))
                    || n.writes_gen
                    || n.touches_data)
        })
        .map(|n| (n.name.as_str(), ws.files[n.file].rel))
        .collect();

    for f in ws.files.iter() {
        if !f.fam.j {
            continue;
        }
        for im in &f.items.impls {
            if im.trait_name.is_some() || !(im.type_name == "System" || im.type_name == "Machine") {
                continue;
            }
            for m in &im.methods {
                if !m.is_pub || !m.takes_mut_self || f.in_test_code(m.line) {
                    continue;
                }
                // The journaling machinery itself is exempt by name.
                if m.name == "record"
                    || m.name.contains("journal")
                    || m.name.contains("replay")
                    || m.name.contains("restore")
                {
                    continue;
                }
                if covered.contains(&m.name) {
                    continue;
                }
                let body = &f.tokens[m.body.0..m.body.1];
                let mseeds = workspace::call_names(body);
                let (reached, parent) = ws.closure(&mseeds);
                let direct_mutation =
                    workspace::writes_gen(body) || workspace::touches_self_data(body);
                let hit = reached.iter().find(|r| sinks.contains_key(r.as_str()));
                if let Some(sink) = hit {
                    out.push(Finding {
                        file: f.rel.to_string(),
                        line: m.line,
                        rule: "J001",
                        message: format!(
                            "public mutator `{}::{}` reaches simulation state (`{}` in {}) but \
                             appends no journal event; replay cannot reconstruct this call — \
                             journal it with `self.record(...)` or mark it \
                             `// vlint: allow(J001, host-only — why)`",
                            im.type_name,
                            m.name,
                            ws.chain(&parent, sink),
                            sinks[sink.as_str()]
                        ),
                    });
                } else if direct_mutation {
                    out.push(Finding {
                        file: f.rel.to_string(),
                        line: m.line,
                        rule: "J001",
                        message: format!(
                            "public mutator `{}::{}` mutates simulation state directly but \
                             appends no journal event; replay cannot reconstruct this call — \
                             journal it with `self.record(...)` or mark it \
                             `// vlint: allow(J001, host-only — why)`",
                            im.type_name, m.name
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{analyze_source, Families};

    fn rules(src: &str) -> Vec<(&'static str, u32)> {
        analyze_source("crates/mem/src/x.rs", src, Families::ALL)
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn d_rules_fire_on_the_catalog() {
        assert_eq!(
            rules("use std::time::Instant;"),
            vec![("D001", 1), ("D001", 1)]
        );
        assert_eq!(rules("let t = Instant::now();"), vec![("D001", 1)]);
        assert_eq!(rules("let v = env::var(\"SEED\");"), vec![("D003", 1)]);
        assert_eq!(
            rules("#[cfg(target_os = \"linux\")]\nfn f() {}"),
            vec![("D004", 1)]
        );
    }

    #[test]
    fn d_rules_ignore_lookalikes() {
        assert!(rules("let k = InstantKind::Virtual;").is_empty());
        assert!(rules("let p = Phase::Instant(kind);").is_empty());
        assert!(rules("// HashMap\nlet s = \"SystemTime\";").is_empty());
        assert!(rules("#[cfg(feature = \"slow-tests\")]\nfn f() {}").is_empty());
        assert!(rules("#[cfg(not(test))]\nfn f() {}").is_empty());
    }

    #[test]
    fn t_rule_fires_on_host_threads() {
        assert_eq!(rules("use std::thread;"), vec![("T001", 1)]);
        assert_eq!(rules("let h = thread::spawn(f);"), vec![("T001", 1)]);
        assert_eq!(rules("std::thread::scope(|s| {});"), vec![("T001", 1)]);
        assert!(rules("runner.set_threads(4);").is_empty());
        assert!(rules("let threads = cfg.threads.max(1);").is_empty());
    }

    #[test]
    fn w_rule_needs_a_transitive_bump() {
        let bad = "
struct M { data: Vec<u8>, write_gen: u64 }
impl M {
    fn poke(&mut self) { self.data[0] = 1; }
}";
        assert_eq!(rules(bad), vec![("W001", 4)]);
        let good_direct = "
struct M { data: Vec<u8>, write_gen: u64 }
impl M {
    fn poke(&mut self) { self.data[0] = 1; self.write_gen = self.write_gen + 1; }
}";
        assert!(rules(good_direct).is_empty());
        let good_transitive = "
struct M { data: Vec<u8>, write_gen: u64 }
impl M {
    fn mark(&mut self) { self.info.write_gen = 1; }
    fn relay(&mut self) { self.mark(); }
    fn poke(&mut self) { self.data[0] = 1; self.relay(); }
}";
        assert!(rules(good_transitive).is_empty());
    }

    #[test]
    fn w_rule_stays_quiet_without_write_gen_protocol() {
        // A file with an unrelated `data` field is not in the protocol.
        let src = "
struct Pool { data: Vec<u8> }
impl Pool {
    fn poke(&mut self) { self.data[0] = 1; }
}";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn p_rules_fire_outside_mmu() {
        assert_eq!(rules("fn f(pte: u64) {}"), vec![("P001", 1)]);
        assert_eq!(rules("let r = 1u64 << 51;"), vec![("P001", 1)]);
        assert_eq!(rules("let x = pte & 0xfff;"), vec![("P001", 1)]);
        assert_eq!(rules("let f = PteFlags::from_bits(7);"), vec![("P002", 1)]);
        assert_eq!(rules("let w = leaf.pte.to_bits();"), vec![("P002", 1)]);
    }

    #[test]
    fn p_rules_accept_typed_api_and_f64_bits() {
        assert!(rules("let f = pte.flags() & !PteFlags::HUGE;").is_empty());
        assert!(rules("let b = value.to_bits(); let v = f64::from_bits(b);").is_empty());
    }

    #[test]
    fn e001_respects_docs_and_tests() {
        assert_eq!(rules("fn f() { panic!(\"boom\"); }"), vec![("E001", 1)]);
        let documented = "
/// Does a thing.
///
/// # Panics
///
/// Panics when the thing is off.
fn f() { assert!(on, \"off\"); }";
        assert!(rules(documented).is_empty());
        let tested = "#[cfg(test)]\nmod tests {\n  fn f() { panic!(\"fine\"); }\n}";
        assert!(rules(tested).is_empty());
        assert!(rules("fn f() { debug_assert!(x > 0); }").is_empty());
    }

    #[test]
    fn o001_confines_latency_sampling() {
        assert_eq!(
            rules("self.metrics.observe(\"fault.latency_ns\", dt);"),
            vec![("O001", 1)]
        );
        assert_eq!(rules("r.observe(name, v);"), vec![("O001", 1)]);
        assert!(rules("obs.observe_fault_latency(dt as f64);").is_empty());
        assert!(rules("let h = machine.observed_hash(frame);").is_empty());
        let tested = "#[cfg(test)]\nmod tests {\n  fn f() { r.observe(\"h\", 1.0); }\n}";
        assert!(rules(tested).is_empty());
    }

    #[test]
    fn j001_needs_a_journal_event_on_public_mutators() {
        let bad = "
struct Machine { data: Vec<u8> }
impl Machine {
    pub fn hammer(&mut self, b: u8) { self.poke(b) }
    fn poke(&mut self, b: u8) { self.data[0] = b; }
}";
        assert_eq!(rules(bad), vec![("J001", 4)]);
        let good = "
struct Machine { data: Vec<u8> }
impl Machine {
    pub fn hammer(&mut self, b: u8) {
        self.record(b);
        self.poke(b)
    }
    pub fn record(&mut self, b: u8) { self.log.push(b) }
    fn poke(&mut self, b: u8) { self.data[0] = b; self.info.write_gen = 1; }
}";
        assert!(rules(good).is_empty());
    }

    #[test]
    fn e002_catches_narrowing_casts() {
        assert_eq!(rules("let x = frame as u32;"), vec![("E002", 1)]);
        assert_eq!(rules("let x = frame.0 as u16;"), vec![("E002", 1)]);
        assert_eq!(rules("let g = write_gen as u8;"), vec![("E002", 1)]);
        assert!(rules("let x = frame.0 as usize;").is_empty());
        assert!(rules("let x = frame as u64;").is_empty());
        assert!(rules("let x = engine as u32;").is_empty());
    }
}
