//! The rule implementations. The D/E/G families are per-file passes
//! over a token stream; the W/J families run on the workspace level, over
//! the item parser's impl blocks and the cross-file name-based call
//! graph.
//!
//! Rules are deliberately token-level, not type-level: they trade a
//! little precision for zero dependencies and total determinism, and the
//! `// vlint: allow(RULE, reason)` escape hatch absorbs the (rare,
//! documented) false positives.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::Kind;
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

// ---------------------------------------------------------------------
// D — determinism
// ---------------------------------------------------------------------

/// D004 platform-conditional compilation. (Host clocks, environment
/// reads, host threads and randomized-order hash collections are banned
/// by clippy.toml, for every target.)
pub(crate) fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    const PLATFORM: &[&str] = &[
        "target_os",
        "target_arch",
        "target_family",
        "target_endian",
        "target_pointer_width",
        "unix",
        "windows",
    ];
    let toks = &ctx.tokens;
    for i in 0..toks.len() {
        // Attributes and the `cfg!(...)` macro alike.
        if !toks[i].is_ident("cfg") {
            continue;
        }
        let open = if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            i + 2
        } else {
            i + 1
        };
        if !toks.get(open).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        let mut j = open + 1;
        let mut depth = 1usize;
        while j < toks.len() && depth > 0 {
            if toks[j].is_punct('(') {
                depth += 1;
            } else if toks[j].is_punct(')') {
                depth -= 1;
            } else if PLATFORM.iter().any(|p| toks[j].is_ident(p)) {
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
            j += 1;
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

const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

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
            rules("#[cfg(target_os = \"linux\")]\nfn f() {}"),
            vec![("D004", 1)]
        );
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
