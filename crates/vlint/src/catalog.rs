//! The rule catalog: one entry per rule with the one-line summary used
//! by `vlint rules`, the rationale and minimal bad/ok pair used by
//! `vlint explain RULE`, and nothing generated — the doc-sync test
//! (`tests/doc_sync.rs`) cross-checks these IDs against DESIGN.md §11 so
//! the catalog, the CLI, and the documentation cannot drift apart.

/// Documentation for one rule.
pub struct RuleDoc {
    pub id: &'static str,
    /// One line for the `rules` listing.
    pub summary: &'static str,
    /// A short paragraph for `explain`.
    pub rationale: &'static str,
    /// Minimal code that trips the rule.
    pub bad: &'static str,
    /// Minimal code that satisfies it.
    pub ok: &'static str,
}

/// Every rule, in catalog order.
pub const RULES: &[RuleDoc] = &[
    RuleDoc {
        id: "D004",
        summary: "no platform-conditional compilation (cfg(target_os/unix/windows/...))",
        rationale: "A cfg(target_os)/cfg(unix) branch means the simulation behaves differently \
                    per platform, so artifacts stop being comparable across machines. Platform \
                    adaptation belongs in the host-side harness, not simulation crates.",
        bad: "#[cfg(target_os = \"linux\")]\nfn flush() { /* ... */ }",
        ok: "fn flush() { /* same behavior everywhere */ }",
    },
    RuleDoc {
        id: "E001",
        summary: "no undocumented panic/assert in simulation code (doc `# Panics` or demote)",
        rationale: "A panic in simulation code is a modeling decision (a simulated bus fault, a \
                    broken invariant) and must be part of the documented contract. Undocumented \
                    panics are usually error paths that should return Result or demote to \
                    debug_assert!.",
        bad: "fn frame(&self, f: FrameId) { assert!(f.0 < self.n); }",
        ok: "/// # Panics\n/// Panics if `f` is out of range (the simulator's bus fault).\nfn frame(&self, f: FrameId) { assert!(f.0 < self.n); }",
    },
    RuleDoc {
        id: "E002",
        summary: "no truncating `as` casts on frame/generation/cycle arithmetic",
        rationale: "Frame numbers, write generations, and cycle counts are u64 end to end. A \
                    narrowing `as u32` wraps silently after 2^32 events — precisely the kind of \
                    long-campaign heisenbug DST exists to rule out.",
        bad: "let f = frame as u32;",
        ok: "let f: u64 = frame;",
    },
    RuleDoc {
        id: "G001",
        summary: "free_frames pressure reads stay in the governor (crates/kernel/src/pressure.rs)",
        rationale: "The free-frame count is the pressure governor's input signal. A direct \
                    free_frames poll elsewhere re-derives pressure without the governor's \
                    hysteresis bands, so two call sites can disagree about the band mid-wake \
                    and throttling stops being a pure function of the sampled sequence.",
        bad: "if m.mem().free_frames() < 128 { self.throttle(); }",
        ok: "if governor.decision().band >= PressureBand::High { self.throttle(); }",
    },
    RuleDoc {
        id: "V001",
        summary: "vlint allow annotations name a known rule and give a reason: // vlint: allow(RULE, why)",
        rationale: "A suppression without a reason is a contract violation with the evidence \
                    deleted. The reason is the reviewable artifact: it says why this site is an \
                    exception (a host-only knob, a provably unreachable arm) so the next reader \
                    can re-check the claim. An allow naming a rule the catalog does not have \
                    (a typo, or a retired rule such as W001 or J001) suppresses nothing and is \
                    flagged too.",
        bad: "// vlint: allow(E001)\nunreachable!(\"staged above\");",
        ok: "// vlint: allow(E001, insert always stages the node before returning)\nunreachable!(\"staged above\");",
    },
];

/// Looks up a rule by ID (case-insensitive).
pub fn find(id: &str) -> Option<&'static RuleDoc> {
    RULES.iter().find(|r| r.id.eq_ignore_ascii_case(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.id), "duplicate rule id {}", r.id);
            let b = r.id.as_bytes();
            assert_eq!(b.len(), 4, "{} is not LDDD", r.id);
            assert!(b[0].is_ascii_uppercase() && b[1..].iter().all(u8::is_ascii_digit));
            assert!(!r.summary.is_empty() && !r.rationale.is_empty());
            assert!(!r.bad.is_empty() && !r.ok.is_empty());
        }
    }

    #[test]
    fn find_is_case_insensitive() {
        assert_eq!(find("g001").map(|r| r.id), Some("G001"));
        assert!(find("Z999").is_none());
    }
}
