//! The rule implementations: per-file passes over a token stream.
//!
//! Rules are deliberately token-level, not type-level: they trade a
//! little precision for zero dependencies and total determinism, and the
//! `// vlint: allow(RULE, reason)` escape hatch absorbs the (rare,
//! documented) false positives.

use crate::lexer::Kind;
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
    fn e002_catches_narrowing_casts() {
        assert_eq!(rules("let x = frame as u32;"), vec![("E002", 1)]);
        assert_eq!(rules("let x = frame.0 as u16;"), vec![("E002", 1)]);
        assert_eq!(rules("let g = write_gen as u8;"), vec![("E002", 1)]);
        assert!(rules("let x = frame.0 as usize;").is_empty());
        assert!(rules("let x = frame as u64;").is_empty());
        assert!(rules("let x = engine as u32;").is_empty());
    }
}
