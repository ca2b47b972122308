//! The side-channel surface recorder: what an attacker could observe.
//!
//! VUsion's security claim (paper §4) is an *observability* claim — after
//! Share-XOR-Randomize, fault latencies, LLC sets, DRAM row buffers, and
//! TLB contents no longer distinguish fused from unfused pages. This
//! module records exactly those observables, per page class, as plain
//! integer counters keyed by the simulated clock's latencies, so the
//! resulting artifact is a canonical, diffable JSON document:
//! byte-identical across runs and snapshot restore+replay (asserted by
//! `tests/trace_determinism.rs`).
//!
//! The recorder lives inside [`crate::Obs`] behind its own enable flag:
//! when off (the default) every hook is a single branch, and no
//! `surface.*` key reaches any artifact (the bench harness asserts this).
//!
//! Recording is strictly read-only with respect to the simulation: hooks
//! consume already-computed outcomes (a cache hit, an evicted line, a
//! fault latency) and touch no clock, RNG, or memo that feeds behavior —
//! enabling the surface never changes what the machine does.

use std::collections::BTreeMap;

use crate::json::quote;

/// Number of log2 latency buckets: bucket `b` counts samples in
/// `[2^b, 2^(b+1))` ns (bucket 0 also takes 0 ns). 24 buckets cover
/// 1 ns .. ~16 ms, far beyond any modeled fault cost.
pub const LATENCY_BUCKETS: usize = 24;

/// The page-class taxonomy the surface attributes events to
/// (DESIGN.md §15). Ground truth comes from the simulator itself —
/// refcounts and PTE trap bits — not from the observable, so the
/// recorded profiles answer "what does probing a page of class X look
/// like", which is precisely the attacker's inference target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PageClass {
    /// Genuinely deduplicated: the frame is mapped by more than one PTE
    /// (refcount > 1), whatever the engine calls it.
    Fused,
    /// A private page: one mapping, no trap bits.
    Unshared,
    /// All-zero content with a single mapping: a demand-zero fill event,
    /// or a standing private page whose content is all zeroes (the pages
    /// KSM's zero-page special case and WPF's zero dedup act on).
    Zero,
    /// VUsion's fake-merged state: trapped PTE over a frame with
    /// refcount 1 — marked shared for Same Behavior, but not
    /// deduplicated. Indistinguishability from [`PageClass::Fused`] is
    /// the defense claim under test.
    Trapped,
}

impl PageClass {
    /// Every class, in dense-index order.
    pub const ALL: [PageClass; 4] = [
        PageClass::Fused,
        PageClass::Unshared,
        PageClass::Zero,
        PageClass::Trapped,
    ];

    /// Dense array index.
    pub fn index(self) -> usize {
        match self {
            PageClass::Fused => 0,
            PageClass::Unshared => 1,
            PageClass::Zero => 2,
            PageClass::Trapped => 3,
        }
    }

    /// Stable snake_case name used in JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            PageClass::Fused => "fused",
            PageClass::Unshared => "unshared",
            PageClass::Zero => "zero",
            PageClass::Trapped => "trapped",
        }
    }
}

/// The fault kinds the surface splits latency histograms by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultKind {
    /// Demand fault on an unmapped page (zero fill, file read-in, ...).
    Minor,
    /// Write to a write-protected page: the CoW break the paper's §2
    /// attack times.
    CowBreak,
    /// VUsion's trap-on-access (reserved-bit) fault.
    Trap,
}

impl FaultKind {
    /// Every kind, in dense-index order.
    pub const ALL: [FaultKind; 3] = [FaultKind::Minor, FaultKind::CowBreak, FaultKind::Trap];

    /// Dense array index.
    pub fn index(self) -> usize {
        match self {
            FaultKind::Minor => 0,
            FaultKind::CowBreak => 1,
            FaultKind::Trap => 2,
        }
    }

    /// Stable snake_case name used in JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Minor => "minor",
            FaultKind::CowBreak => "cow_break",
            FaultKind::Trap => "trap",
        }
    }
}

/// A page-population transition an engine commits (merge paths are the
/// one place classes change outside fault handling, so engines report
/// them here and the surface artifact can relate event rates to how the
/// populations came to be).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurfaceTransition {
    /// A page was deduplicated onto a shared frame.
    Merge,
    /// A page was marked shared without deduplication (VUsion's Same
    /// Behavior on unique pages).
    FakeMerge,
    /// A shared or fake-shared mapping was broken back to a private page.
    Unmerge,
}

impl SurfaceTransition {
    /// Dense array index.
    pub fn index(self) -> usize {
        match self {
            SurfaceTransition::Merge => 0,
            SurfaceTransition::FakeMerge => 1,
            SurfaceTransition::Unmerge => 2,
        }
    }

    /// Stable snake_case name used in JSON keys.
    pub fn name(self) -> &'static str {
        match self {
            SurfaceTransition::Merge => "merge",
            SurfaceTransition::FakeMerge => "fake_merge",
            SurfaceTransition::Unmerge => "unmerge",
        }
    }
}

/// DRAM row-buffer outcome, mirrored here so the recorder stays
/// dependency-free (the kernel converts from the dram crate's enum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramOutcome {
    /// Row already open.
    Hit,
    /// Bank had no open row.
    Empty,
    /// Another row was open (activation — the Rowhammer ingredient).
    Conflict,
}

impl DramOutcome {
    fn index(self) -> usize {
        match self {
            DramOutcome::Hit => 0,
            DramOutcome::Empty => 1,
            DramOutcome::Conflict => 2,
        }
    }
}

/// Snapshot-time context the kernel computes by walking live state —
/// standing populations and occupancies, as opposed to the recorder's
/// event counters.
#[derive(Debug, Clone, Default)]
pub struct SurfaceExtras {
    /// Mapped leaf entries per [`PageClass`] (dense index order).
    pub populations: [u64; 4],
    /// LLC sets currently holding lines of fused frames:
    /// `(set index, fused line count)`, sparse, sorted by set.
    pub llc_fused_occupancy: Vec<(u64, u64)>,
    /// Resident TLB entries machine-wide, split `[other, fused]`.
    pub tlb_occupancy: [u64; 2],
}

/// Log2 bucket of a latency sample.
pub fn latency_bucket(ns: u64) -> usize {
    if ns == 0 {
        return 0;
    }
    ((63 - ns.leading_zeros()) as usize).min(LATENCY_BUCKETS - 1)
}

/// Representative latency of a bucket (its lower edge). Monotone in the
/// bucket index, which is all consumers reconstructing sample vectors
/// (e.g. the CoW-timing attack's KS test) need.
pub fn bucket_floor_ns(bucket: usize) -> u64 {
    1u64 << bucket
}

/// The deterministic side-channel surface recorder. All fields are plain
/// integer counters or sorted maps; rendering is canonical JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SideChannelSurface {
    enabled: bool,
    /// `[class][kind][bucket]` fault-latency histogram.
    fault: [[[u64; LATENCY_BUCKETS]; 3]; 4],
    /// Exact (unbucketed) sum of all fault latencies, in simulated ns.
    /// Not part of the rendered artifact — the canonical surface stays
    /// bucketed — but probes that price individual accesses (the
    /// CoW-timing attack) need full resolution, not bucket floors.
    fault_ns: u64,
    /// LLC access outcomes, split `[other, fused]` by the accessed frame.
    llc_hits: [u64; 2],
    llc_misses: [u64; 2],
    /// Evictions, split by the *evicted* line's frame class.
    llc_evictions: [u64; 2],
    /// Per-set fill counts for lines of fused frames (sparse).
    llc_fused_fill_sets: BTreeMap<u64, u64>,
    /// Per-set eviction counts of fused-frame lines (sparse).
    llc_fused_evict_sets: BTreeMap<u64, u64>,
    /// Per-bank row-buffer outcomes: `bank -> [other, fused] -> [hit,
    /// empty, conflict]` (sparse over banks).
    dram: BTreeMap<u64, [[u64; 3]; 2]>,
    /// TLB fills, split `[other, fused]` by the filled frame.
    tlb_fills: [u64; 2],
    /// TLB capacity evictions, split by the evicted entry's frame.
    tlb_evictions: [u64; 2],
    /// Engine-reported class transitions (merge / fake-merge / unmerge).
    transitions: [u64; 3],
}

impl SideChannelSurface {
    /// A disabled recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether recording is on. Inlined so disabled-path hooks reduce to
    /// one load + branch.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on from a clean slate (counters reset, so the
    /// surface describes exactly the window since enabling).
    pub fn enable(&mut self) {
        *self = Self {
            enabled: true,
            ..Self::default()
        };
    }

    /// Zeroes every counter, keeping the enable flag.
    pub fn clear(&mut self) {
        let enabled = self.enabled;
        *self = Self {
            enabled,
            ..Self::default()
        };
    }

    // ------------------------------------------------------------------
    // Recording hooks (callers must check `enabled()` first; these are
    // unconditional so the branch stays at the instrumentation site).
    // ------------------------------------------------------------------

    /// Records one fault-handling latency sample.
    pub fn record_fault(&mut self, class: PageClass, kind: FaultKind, latency_ns: u64) {
        self.fault[class.index()][kind.index()][latency_bucket(latency_ns)] += 1;
        self.fault_ns += latency_ns;
    }

    /// Records an LLC access outcome. `fused` classifies the accessed
    /// frame; on a miss the line is filled, so fused misses also feed the
    /// per-set fill profile.
    pub fn record_llc_access(&mut self, fused: bool, hit: bool, set: u64) {
        if hit {
            self.llc_hits[fused as usize] += 1;
        } else {
            self.llc_misses[fused as usize] += 1;
            if fused {
                *self.llc_fused_fill_sets.entry(set).or_insert(0) += 1;
            }
        }
    }

    /// Records an LLC capacity eviction. `fused` classifies the *evicted*
    /// line's frame.
    pub fn record_llc_eviction(&mut self, fused: bool, set: u64) {
        self.llc_evictions[fused as usize] += 1;
        if fused {
            *self.llc_fused_evict_sets.entry(set).or_insert(0) += 1;
        }
    }

    /// Records a DRAM row-buffer outcome on `bank`.
    pub fn record_dram(&mut self, fused: bool, bank: u64, outcome: DramOutcome) {
        self.dram.entry(bank).or_insert([[0; 3]; 2])[fused as usize][outcome.index()] += 1;
    }

    /// Records a TLB fill of a leaf entry.
    pub fn record_tlb_fill(&mut self, fused: bool) {
        self.tlb_fills[fused as usize] += 1;
    }

    /// Records a TLB capacity eviction.
    pub fn record_tlb_eviction(&mut self, fused: bool) {
        self.tlb_evictions[fused as usize] += 1;
    }

    /// Records an engine-committed class transition.
    pub fn record_transition(&mut self, t: SurfaceTransition) {
        self.transitions[t.index()] += 1;
    }

    // ------------------------------------------------------------------
    // Read accessors
    // ------------------------------------------------------------------

    /// The latency histogram for one (class, kind) cell.
    pub fn fault_hist(&self, class: PageClass, kind: FaultKind) -> &[u64; LATENCY_BUCKETS] {
        &self.fault[class.index()][kind.index()]
    }

    /// Fault events recorded in one (class, kind) cell.
    pub fn fault_count(&self, class: PageClass, kind: FaultKind) -> u64 {
        self.fault_hist(class, kind).iter().sum()
    }

    /// Fault events of `kind` across all classes.
    pub fn fault_kind_total(&self, kind: FaultKind) -> u64 {
        PageClass::ALL
            .iter()
            .map(|&c| self.fault_count(c, kind))
            .sum()
    }

    /// All fault events recorded.
    pub fn fault_event_total(&self) -> u64 {
        FaultKind::ALL
            .iter()
            .map(|&k| self.fault_kind_total(k))
            .sum()
    }

    /// Exact sum of every recorded fault latency in simulated ns. Probes
    /// delta this around a single access to read that access's full-
    /// resolution handling cost (bucket floors would quantize away the
    /// fine structure the Figure 5/6 distributions depend on).
    pub fn fault_ns_total(&self) -> u64 {
        self.fault_ns
    }

    /// Bucketed totals over every class and kind — the raw material for
    /// reconstructing latency sample vectors.
    pub fn fault_bucket_totals(&self) -> [u64; LATENCY_BUCKETS] {
        let mut out = [0u64; LATENCY_BUCKETS];
        for class in &self.fault {
            for kind in class {
                for (b, &c) in kind.iter().enumerate() {
                    out[b] += c;
                }
            }
        }
        out
    }

    /// `(hits, misses, evictions)`, each split `[other, fused]`.
    pub fn llc_counts(&self) -> ([u64; 2], [u64; 2], [u64; 2]) {
        (self.llc_hits, self.llc_misses, self.llc_evictions)
    }

    /// Row-buffer outcomes summed over banks: `[other, fused]` ×
    /// `[hit, empty, conflict]`.
    pub fn dram_totals(&self) -> [[u64; 3]; 2] {
        let mut out = [[0u64; 3]; 2];
        for per_bank in self.dram.values() {
            for (f, row) in per_bank.iter().enumerate() {
                for (o, &c) in row.iter().enumerate() {
                    out[f][o] += c;
                }
            }
        }
        out
    }

    /// `(fills, evictions)`, each split `[other, fused]`.
    pub fn tlb_counts(&self) -> ([u64; 2], [u64; 2]) {
        (self.tlb_fills, self.tlb_evictions)
    }

    /// Transition counts `[merge, fake_merge, unmerge]`.
    pub fn transition_counts(&self) -> [u64; 3] {
        self.transitions
    }

    /// Total events across every channel (faults + LLC + DRAM + TLB) —
    /// the campaign's per-engine "channel observed" coverage metric.
    pub fn channel_event_totals(&self) -> [u64; 4] {
        let (h, m, e) = self.llc_counts();
        let d = self.dram_totals();
        let (tf, te) = self.tlb_counts();
        [
            self.fault_event_total(),
            h.iter().sum::<u64>() + m.iter().sum::<u64>() + e.iter().sum::<u64>(),
            d.iter().flatten().sum(),
            tf.iter().sum::<u64>() + te.iter().sum::<u64>(),
        ]
    }

    // ------------------------------------------------------------------
    // Canonical JSON
    // ------------------------------------------------------------------

    /// Renders the surface as canonical JSON (`vusion-surface/v1`): fixed
    /// key order, sparse bucket/set pairs sorted ascending — equal logical
    /// content is byte-identical. `extras` carries the snapshot-time
    /// populations and occupancies only the kernel can compute.
    pub fn to_json(&self, extras: &SurfaceExtras) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\"schema\":\"vusion-surface/v1\"");
        s.push_str(",\"populations\":{");
        for (i, class) in PageClass::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&quote(class.name()));
            s.push(':');
            s.push_str(&extras.populations[class.index()].to_string());
        }
        s.push('}');
        s.push_str(",\"fault_latency\":{");
        for (i, &class) in PageClass::ALL.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&quote(class.name()));
            s.push_str(":{");
            for (j, &kind) in FaultKind::ALL.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&quote(kind.name()));
                s.push_str(":{\"count\":");
                s.push_str(&self.fault_count(class, kind).to_string());
                s.push_str(",\"buckets\":");
                push_sparse(
                    &mut s,
                    self.fault_hist(class, kind)
                        .iter()
                        .enumerate()
                        .filter(|&(_, &c)| c > 0)
                        .map(|(b, &c)| (b as u64, c)),
                );
                s.push('}');
            }
            s.push('}');
        }
        s.push('}');
        s.push_str(",\"llc\":{");
        push_split(&mut s, "hits", self.llc_hits);
        s.push(',');
        push_split(&mut s, "misses", self.llc_misses);
        s.push(',');
        push_split(&mut s, "evictions", self.llc_evictions);
        s.push_str(",\"fused_fill_sets\":");
        push_sparse(
            &mut s,
            self.llc_fused_fill_sets.iter().map(|(&k, &v)| (k, v)),
        );
        s.push_str(",\"fused_evict_sets\":");
        push_sparse(
            &mut s,
            self.llc_fused_evict_sets.iter().map(|(&k, &v)| (k, v)),
        );
        s.push_str(",\"fused_occupancy\":");
        push_sparse(&mut s, extras.llc_fused_occupancy.iter().copied());
        s.push('}');
        s.push_str(",\"dram\":{\"banks\":[");
        for (i, (bank, rows)) in self.dram.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('[');
            s.push_str(&bank.to_string());
            s.push_str(",{\"other\":[");
            push_triple(&mut s, rows[0]);
            s.push_str("],\"fused\":[");
            push_triple(&mut s, rows[1]);
            s.push_str("]}]");
        }
        s.push_str("]}");
        s.push_str(",\"tlb\":{");
        push_split(&mut s, "fills", self.tlb_fills);
        s.push(',');
        push_split(&mut s, "evictions", self.tlb_evictions);
        s.push(',');
        push_split(&mut s, "occupancy", extras.tlb_occupancy);
        s.push('}');
        s.push_str(",\"transitions\":{\"merge\":");
        s.push_str(&self.transitions[0].to_string());
        s.push_str(",\"fake_merge\":");
        s.push_str(&self.transitions[1].to_string());
        s.push_str(",\"unmerge\":");
        s.push_str(&self.transitions[2].to_string());
        s.push_str("}}");
        s
    }
}

fn push_split(s: &mut String, key: &str, v: [u64; 2]) {
    s.push_str(&quote(key));
    s.push_str(":{\"fused\":");
    s.push_str(&v[1].to_string());
    s.push_str(",\"other\":");
    s.push_str(&v[0].to_string());
    s.push('}');
}

fn push_triple(s: &mut String, v: [u64; 3]) {
    s.push_str(&v[0].to_string());
    s.push(',');
    s.push_str(&v[1].to_string());
    s.push(',');
    s.push_str(&v[2].to_string());
}

fn push_sparse(s: &mut String, pairs: impl Iterator<Item = (u64, u64)>) {
    s.push('[');
    for (i, (k, v)) in pairs.enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push('[');
        s.push_str(&k.to_string());
        s.push(',');
        s.push_str(&v.to_string());
        s.push(']');
    }
    s.push(']');
}

impl crate::Obs {
    /// Routes one fault-handling latency sample into the metrics
    /// histogram (`fault.latency_ns`). Latency sampling is confined to
    /// this crate — `MetricsRegistry::observe` is crate-private — so every
    /// consumer (metrics, the surface recorder, the CoW-timing attack)
    /// reads the same measurement instead of re-deriving its own.
    pub fn observe_fault_latency(&mut self, latency_ns: f64) {
        self.metrics.observe("fault.latency_ns", latency_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_saturation() {
        assert_eq!(latency_bucket(0), 0);
        assert_eq!(latency_bucket(1), 0);
        assert_eq!(latency_bucket(2), 1);
        assert_eq!(latency_bucket(3), 1);
        assert_eq!(latency_bucket(4), 2);
        assert_eq!(latency_bucket(1023), 9);
        assert_eq!(latency_bucket(1024), 10);
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        for b in 0..LATENCY_BUCKETS {
            assert_eq!(latency_bucket(bucket_floor_ns(b)), b, "floor of {b}");
        }
    }

    #[test]
    fn record_and_count_faults() {
        let mut s = SideChannelSurface::new();
        s.enable();
        s.record_fault(PageClass::Fused, FaultKind::CowBreak, 2000);
        s.record_fault(PageClass::Fused, FaultKind::CowBreak, 2040);
        s.record_fault(PageClass::Unshared, FaultKind::Minor, 300);
        assert_eq!(s.fault_count(PageClass::Fused, FaultKind::CowBreak), 2);
        assert_eq!(s.fault_kind_total(FaultKind::CowBreak), 2);
        assert_eq!(s.fault_kind_total(FaultKind::Minor), 1);
        assert_eq!(s.fault_event_total(), 3);
        let totals = s.fault_bucket_totals();
        assert_eq!(totals.iter().sum::<u64>(), 3);
        assert_eq!(totals[latency_bucket(2000)], 2);
    }

    #[test]
    fn enable_resets_and_clear_keeps_flag() {
        let mut s = SideChannelSurface::new();
        assert!(!s.enabled());
        s.enable();
        s.record_tlb_fill(true);
        s.enable();
        assert_eq!(s.tlb_counts().0, [0, 0], "re-enable starts clean");
        s.record_tlb_fill(false);
        s.clear();
        assert!(s.enabled());
        assert_eq!(s.tlb_counts().0, [0, 0]);
    }

    #[test]
    fn json_is_canonical_and_stable() {
        let mut s = SideChannelSurface::new();
        s.enable();
        s.record_fault(PageClass::Trapped, FaultKind::Trap, 5000);
        s.record_llc_access(true, false, 17);
        s.record_llc_eviction(false, 3);
        s.record_dram(true, 2, DramOutcome::Conflict);
        s.record_tlb_fill(true);
        s.record_transition(SurfaceTransition::FakeMerge);
        let extras = SurfaceExtras {
            populations: [4, 10, 0, 6],
            llc_fused_occupancy: vec![(17, 1)],
            tlb_occupancy: [3, 1],
        };
        let a = s.to_json(&extras);
        let b = s.clone().to_json(&extras.clone());
        assert_eq!(a, b, "rendering must be pure");
        assert!(a.starts_with("{\"schema\":\"vusion-surface/v1\""));
        assert!(
            a.contains("\"populations\":{\"fused\":4,\"unshared\":10,\"zero\":0,\"trapped\":6}")
        );
        assert!(a.contains("\"trap\":{\"count\":1,\"buckets\":[[12,1]]}"));
        assert!(a.contains("\"fused_fill_sets\":[[17,1]]"));
        assert!(a.contains("\"fake_merge\":1"));
        // Balanced braces — cheap structural sanity for the hand renderer.
        assert_eq!(
            a.matches('{').count(),
            a.matches('}').count(),
            "unbalanced JSON: {a}"
        );
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn channel_totals_cover_all_four_channels() {
        let mut s = SideChannelSurface::new();
        s.enable();
        s.record_fault(PageClass::Fused, FaultKind::Trap, 10);
        s.record_llc_access(false, true, 0);
        s.record_dram(false, 0, DramOutcome::Hit);
        s.record_tlb_fill(false);
        s.record_tlb_eviction(true);
        assert_eq!(s.channel_event_totals(), [1, 1, 1, 2]);
    }
}
