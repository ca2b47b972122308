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
        id: "D001",
        summary: "no host wall-clock (std::time, Instant, SystemTime) in simulation crates",
        rationale: "Simulation time comes from the machine's cycle counter; reading the host \
                    clock makes a run's artifacts depend on when and where it executed, so no \
                    figure could be reproduced from its seed.",
        bad: "let t0 = Instant::now();",
        ok: "let t0 = machine.now_ns();",
    },
    RuleDoc {
        id: "D002",
        summary: "no randomized-order collections (HashMap/HashSet); use BTreeMap/BTreeSet",
        rationale: "std's hash collections iterate in a per-process randomized order, so any \
                    artifact built by iterating one differs run to run. BTree collections (or a \
                    Vec) make iteration order a pure function of the keys.",
        bad: "let mut seen: HashMap<u64, u32> = HashMap::new();",
        ok: "let mut seen: BTreeMap<u64, u32> = BTreeMap::new();",
    },
    RuleDoc {
        id: "D003",
        summary: "no environment reads (env::var) in simulation crates",
        rationale: "An environment read is a hidden config input: two runs of the same seed can \
                    diverge because of the shell they started from. Configuration travels \
                    through explicit config structs that snapshots capture.",
        bad: "let threads = env::var(\"THREADS\").unwrap();",
        ok: "let threads = cfg.threads;",
    },
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
        id: "T001",
        summary: "host threads only in the campaign orchestrator's whole-run fan-out (crates/campaign/src/lib.rs)",
        rationale: "Ad-hoc std::thread use reintroduces scheduling order as a hidden input. The \
                    campaign orchestrator is the one approved spawn: each worker owns complete \
                    deterministic runs, pre-partitioned by enumeration index, and reports merge \
                    in enumeration order, so worker count changes wall-clock time only.",
        bad: "let h = std::thread::spawn(move || scan(frames));",
        ok: "for f in &frames { hashes.push(mem.hash_page(*f)); }",
    },
    RuleDoc {
        id: "W001",
        summary: "&mut self code reaching frame contents must bump a write generation",
        rationale: "Page hashes are memoized against a frame's write generation. A mutation \
                    path that touches frame contents (self.data) without bumping the generation \
                    leaves a stale hash in the memo: the scanner would keep trusting a hash of \
                    bytes that no longer exist. Checked transitively over the workspace call \
                    graph: calling a bumper (possibly through another file) satisfies the rule.",
        bad: "fn poke(&mut self) { self.data[0] = 1; }",
        ok: "fn poke(&mut self) { self.data[0] = 1; self.write_gen = self.write_gen + 1; }",
    },
    RuleDoc {
        id: "P001",
        summary: "no raw u64 PTE bit arithmetic outside vusion-mmu; use Pte/PteFlags",
        rationale: "The S+F trap encoding lives in one place. Raw `pte & 0xfff`-style \
                    arithmetic outside vusion-mmu re-derives bit positions by hand and silently \
                    diverges when the layout changes.",
        bad: "let present = pte & 0x1;",
        ok: "let present = pte.flags().contains(PteFlags::PRESENT);",
    },
    RuleDoc {
        id: "P002",
        summary: "bits/from_bits/to_bits escape hatches stay inside vusion-mmu",
        rationale: "The raw-bits constructors exist for vusion-mmu's own encoding and the \
                    snapshot wire format. Anywhere else they bypass the typed API and can \
                    fabricate PTE states the MMU never produces.",
        bad: "let pte = Pte::from_bits(raw);",
        ok: "let pte = Pte::new(frame, PteFlags::PRESENT);",
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
        id: "O001",
        summary: "latency sampling stays in the surface recorder (crates/obs/src/surface.rs)",
        rationale: "Latency histograms feed one canonical, diffable side-channel surface \
                    artifact. A raw observe(...) call elsewhere opens a parallel channel the \
                    surface cannot see, so the artifact under-reports and sampling sites can \
                    disagree about bucketing. Use typed wrappers like Obs::observe_fault_latency.",
        bad: "self.metrics.observe(\"fault.latency_ns\", dt);",
        ok: "obs.observe_fault_latency(dt as f64);",
    },
    RuleDoc {
        id: "S001",
        summary: "every field of a snapshotted struct must round-trip through save AND load",
        rationale: "Crash -> restore -> replay converges byte-identically only if every field \
                    of every `impl Snapshot` type survives the round trip. A field missing from \
                    save or load is a replay-divergence heisenbug: the state machine silently \
                    forks at the first restore. Derived or host-only fields carry a reasoned \
                    allow on their declaration line.",
        bad: "struct W { a: u64, cursor: u64 }\nimpl Snapshot for W {\n    fn save(&self, w: &mut Writer) { w.u64(self.a); }\n    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {\n        self.a = r.u64()?; Ok(())\n    }\n}",
        ok: "struct W { a: u64, cursor: u64 }\nimpl Snapshot for W {\n    fn save(&self, w: &mut Writer) { w.u64(self.a); w.u64(self.cursor); }\n    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {\n        self.a = r.u64()?; self.cursor = r.u64()?; Ok(())\n    }\n}",
    },
    RuleDoc {
        id: "S002",
        summary: "save and load must visit a snapshotted struct's fields in the same order",
        rationale: "The snapshot wire format is a positional byte stream: load must read \
                    fields in exactly the order save wrote them. A save/load order divergence \
                    deserializes one field's bytes into another — often silently, when the \
                    types happen to have the same width.",
        bad: "fn save(&self, w: &mut Writer) { w.u64(self.a); w.u64(self.b); }\nfn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {\n    self.b = r.u64()?; self.a = r.u64()?; Ok(())\n}",
        ok: "fn save(&self, w: &mut Writer) { w.u64(self.a); w.u64(self.b); }\nfn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {\n    self.a = r.u64()?; self.b = r.u64()?; Ok(())\n}",
    },
    RuleDoc {
        id: "J001",
        summary: "public &mut self System/Machine methods reaching simulation state are journaled",
        rationale: "Replay reconstructs a run purely from the journal. A public mutator that \
                    changes simulation state without appending an event is invisible to replay: \
                    the replayed machine diverges at that call and every downstream artifact \
                    diff is noise. Methods reachable from a journaled operation (or from the \
                    replay dispatcher) are covered as internal steps; host-only knobs carry \
                    `// vlint: allow(J001, host-only — why)`.",
        bad: "impl Machine {\n    pub fn hammer(&mut self, b: u8) { self.poke(b); }\n}",
        ok: "impl Machine {\n    pub fn hammer(&mut self, b: u8) {\n        self.record(|| JournalEvent::Hammer { b });\n        self.poke(b);\n    }\n}",
    },
    RuleDoc {
        id: "V001",
        summary: "vlint allow annotations need a reason: // vlint: allow(RULE, why)",
        rationale: "A suppression without a reason is a contract violation with the evidence \
                    deleted. The reason is the reviewable artifact: it says why this site is an \
                    exception (derived field, host-only knob, the one approved thread spawn) so \
                    the next reader can re-check the claim.",
        bad: "// vlint: allow(D002)\nuse std::collections::HashMap;",
        ok: "// vlint: allow(D002, host-side cache keyed by inode — never iterated)\nuse std::collections::HashMap;",
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
        assert_eq!(find("s001").map(|r| r.id), Some("S001"));
        assert!(find("Z999").is_none());
    }
}
