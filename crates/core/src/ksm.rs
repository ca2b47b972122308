//! Linux Kernel Same-page Merging, as described in §2.1 of the paper.
//!
//! The scanner visits `N` pages of the registered (mergeable) VMAs every
//! `T` ms, round-robin. Each page is first checked against the **stable
//! tree** of already-fused, write-protected pages; then against the
//! **unstable tree** of unprotected candidates (which is dropped every full
//! scan round, since its keys can change under it); unmatched pages enter
//! the unstable tree. Merging points the scanned PTE at the existing copy
//! *in place* — one sharing party's physical frame backs the fused page,
//! which is the Flip Feng Shui weakness (§4.2) — and releases the duplicate
//! to the buddy allocator, whose LIFO reuse is the other half of that
//! attack. Unmerging is plain copy-on-write, observable through the timing
//! side channel of §4.1.
//!
//! Both trees are content indexes (`ContentIndex`): §2.1's red-black trees
//! ordered by page content become hash buckets over the indexed pages plus
//! a byte compare, which find exactly the same duplicate.
//!
//! Two experiment variants from the paper are supported:
//! `unmerge_on_read` (the copy-on-access modification of Figure 4) and
//! `zero_only` (zero-page-only fusion, also Figure 4).

use std::collections::{BTreeMap, BTreeSet};

use vusion_kernel::{
    FusionPolicy, Machine, PageFault, Pid, ScanGrant, SpanKind, SurfaceTransition, COSTS,
};
use vusion_mem::{CrashSite, FrameId, VirtAddr, PAGE_SIZE};
use vusion_mmu::{Pte, PteFlags};

use crate::content_index::{ContentIndex, NodeId};
use crate::mapping;
use crate::scan_cache::{self, CandidateCache, DirtyTracker};
use crate::{TagCounts, PAGES_PER_SCAN, SCAN_PERIOD_NS};

/// KSM tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KsmConfig {
    /// Pages scanned per wakeup (`N`, default [`PAGES_PER_SCAN`]). KSM
    /// wakes every [`SCAN_PERIOD_NS`].
    pub pages_per_scan: usize,
    /// Figure 4 variant: unmerge on *any* fault, not just writes
    /// (copy-on-access). Merged PTEs get the reserved-bit trap.
    pub unmerge_on_read: bool,
    /// Figure 4 variant: merge only zero pages.
    pub zero_only: bool,
}

impl Default for KsmConfig {
    fn default() -> Self {
        Self {
            pages_per_scan: PAGES_PER_SCAN,
            unmerge_on_read: false,
            zero_only: false,
        }
    }
}

/// KSM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KsmStats {
    /// Pages merged onto a stable page.
    pub merged: u64,
    /// Copy-on-write (or copy-on-access) unmerges.
    pub unmerged: u64,
    /// Stable-tree promotions from the unstable tree.
    pub promotions: u64,
    /// Full scan rounds completed.
    pub full_rounds: u64,
    /// Pages skipped because their checksum was still unstable.
    pub checksum_skips: u64,
}

/// The page an unstable node was filed for; the node holds its frame.
#[derive(Debug, Clone, Copy)]
struct UnstableEntry {
    pid: Pid,
    va: VirtAddr,
}

/// The KSM engine.
pub struct Ksm {
    cfg: KsmConfig,
    /// Stable tree: fused, write-protected pages. The frame's refcount
    /// already counts a node's mappings, so a node carries no value.
    stable: ContentIndex<()>,
    /// Unstable tree: unprotected candidates. Unlike §2.1's
    /// drop-every-round tree, it persists across rounds so clean pages can
    /// be skipped without losing late-arriving duplicates; entries whose
    /// content changed are evicted surgically at the top of each wakeup,
    /// and the whole tree is dropped when the candidate list is rebuilt.
    unstable: ContentIndex<UnstableEntry>,
    /// Dirty-driven pass list: pages whose mapping and content are
    /// unchanged since their last terminal decision are skipped.
    dirty: DirtyTracker,
    /// Per-page content checksum from the previous encounter. Entries are
    /// evicted when their page leaves the candidate list (unmapped VMA,
    /// exited process), so the map is bounded by the candidate set.
    checksums: BTreeMap<(usize, u64), u64>,
    /// Cached candidate list, rebuilt only when the VMA layout changes.
    candidates: CandidateCache,
    /// Global page cursor over the concatenated mergeable VMAs.
    cursor: u64,
    /// Mappings currently pointing at stable frames. Frames saved =
    /// `merged_live - stable pages` (the stable frame is one party's own).
    merged_live: u64,
    tags: TagCounts,
    stats: KsmStats,
}

impl Ksm {
    /// Creates a KSM engine.
    pub fn new(cfg: KsmConfig) -> Self {
        Self {
            cfg,
            stable: ContentIndex::default(),
            unstable: ContentIndex::default(),
            dirty: DirtyTracker::default(),
            checksums: BTreeMap::new(),
            candidates: CandidateCache::default(),
            cursor: 0,
            merged_live: 0,
            tags: TagCounts::default(),
            stats: KsmStats::default(),
        }
    }

    /// Default-configured engine.
    pub fn default_engine() -> Self {
        Self::new(KsmConfig::default())
    }

    /// Counters.
    pub fn stats(&self) -> KsmStats {
        self.stats
    }

    /// Table 3 accounting.
    pub fn tag_counts(&self) -> TagCounts {
        self.tags
    }

    /// Number of stable-tree pages.
    pub fn stable_pages(&self) -> usize {
        self.stable.len()
    }

    /// The PTE flags of a merged (stable) mapping.
    fn merged_flags(&self) -> PteFlags {
        let mut f = PteFlags::PRESENT | PteFlags::USER;
        if self.cfg.unmerge_on_read {
            // Copy-on-access variant: trap reads as well.
            f |= PteFlags::RESERVED | PteFlags::NO_CACHE;
        }
        f
    }

    /// Points `(pid, va)` at stable node `node`, releasing its old frame.
    fn merge_into_stable(
        &mut self,
        m: &mut Machine,
        pid: Pid,
        va: VirtAddr,
        old: FrameId,
        node: NodeId,
    ) {
        let stable_frame = self.stable.frame(node);
        debug_assert_ne!(stable_frame, old);
        m.trace_begin("ksm", SpanKind::Merge);
        if m.crash_now(CrashSite::MidMerge) {
            // The scanner daemon died mid-merge: leave the page alone for
            // a later round.
            m.note_scan_retry();
            m.trace_end(SpanKind::Merge);
            return;
        }
        let merged = mapping::merge_onto(m, pid, va, old, stable_frame, self.merged_flags());
        m.trace_end(SpanKind::Merge);
        if let Some(tag) = merged {
            self.tags.record(tag);
            self.merged_live += 1;
            self.stats.merged += 1;
        }
    }

    /// Resolves the 4 KiB frame backing `leaf` at `va` (huge-aware).
    fn leaf_4k_frame(leaf: &vusion_mmu::LeafInfo, va: VirtAddr) -> FrameId {
        if leaf.huge {
            FrameId(leaf.pte.frame().0 + (va.0 % vusion_mem::HUGE_PAGE_SIZE) / PAGE_SIZE)
        } else {
            leaf.pte.frame()
        }
    }

    /// Breaks the THP covering `va` if the mapping is huge. KSM splits a
    /// huge page only *when merging* a 4 KiB page inside it (§5.1) — the
    /// conditionality the translation attack observes.
    fn break_if_huge(m: &mut Machine, pid: Pid, va: VirtAddr, defer_alloc: bool) -> bool {
        if m.leaf(pid, va).map(|l| l.huge).unwrap_or(false) {
            if defer_alloc {
                // Rung 3 (the grant's `defer_alloc`): splitting a THP
                // consumes page-table frames under critical pressure.
                // Retry once it clears.
                m.note_scan_retry();
                return false;
            }
            m.trace_begin("ksm", SpanKind::ThpBreak);
            let broke = m.break_thp(pid, va).is_ok();
            if broke {
                m.scan_cost(COSTS.pte_update);
            }
            m.trace_end(SpanKind::ThpBreak);
            if !broke {
                // Could not split (PT allocation failed): skip this page
                // for now and retry in a later round.
                m.note_scan_retry();
                return false;
            }
            m.scan_counts_mut().huge_pages_broken += 1;
        }
        true
    }

    /// Scans one page (the §2.1 per-page algorithm). `defer_alloc` is the
    /// wake's rung-3 flag, which only THP breaks consult.
    fn scan_one(&mut self, m: &mut Machine, pid: Pid, va: VirtAddr, defer_alloc: bool) {
        m.scan_counts_mut().pages_scanned += 1;
        let Some(leaf) = m.leaf(pid, va) else {
            return; // Never faulted in.
        };
        if !leaf.pte.is_present() {
            return;
        }
        // For THPs, consider the 4 KiB sub-frame's content but defer the
        // split until a merge actually happens.
        let frame = Self::leaf_4k_frame(&leaf, va);
        // Dirty-driven pass list: same backing frame, same write
        // generation since the last terminal decision — re-running the
        // per-page algorithm is guaranteed to reproduce that decision.
        if self.dirty.is_clean(m.mem(), pid, va, frame) {
            m.scan_counts_mut().pages_skipped_clean += 1;
            return;
        }
        if m.observed_scan_flip() {
            // Injected bit flip: the page comparison is unreliable this
            // round, so skip and retry later.
            m.note_scan_retry();
            return;
        }
        if self.stable.contains_frame(frame) {
            // Already merged: terminal until the mapping or frame moves.
            self.dirty.mark_seen(m.mem(), pid, va, frame);
            return;
        }
        // Only merge frames we can account for. Not a terminal state — the
        // refcount can drop without the frame's write generation moving.
        if mapping::sole_owner(m, pid, va, frame).is_none() {
            return;
        }
        if self.cfg.zero_only && !m.mem().is_zero(frame) {
            // Terminal: zero-ness is a pure function of the content the
            // write generation guards.
            self.dirty.mark_seen(m.mem(), pid, va, frame);
            return;
        }
        // 1. Stable tree first: merging against an already write-protected
        // page needs no volatility check (the content comparison is
        // authoritative) — matching real KSM, which only gates the
        // *unstable* tree with the checksum test. The search byte-compares
        // the members of the page's hash bucket, so a hash collision never
        // matches.
        if let Some(node) = self.stable.find(m.mem(), frame) {
            if Self::break_if_huge(m, pid, va, defer_alloc) {
                self.merge_into_stable(m, pid, va, frame, node);
            }
            return;
        }
        // Volatility check: skip pages whose checksum changed since the
        // last encounter (KSM's cksum test) before touching the unstable
        // tree.
        let h = m.observed_hash(frame);
        let key = (pid.0, va.page());
        if self.checksums.insert(key, h) != Some(h) {
            self.stats.checksum_skips += 1;
            return;
        }
        // 2. Unstable tree, searched the same way.
        if let Some(node) = self.unstable.find(m.mem(), frame) {
            let entry_frame = self.unstable.frame(node);
            let entry = self.unstable.remove(node);
            self.dirty.forget(entry.pid, entry.va);
            // Validate: the candidate must still be mapped to the same
            // frame (its content equality was just checked by the search).
            let valid = m
                .leaf(entry.pid, entry.va)
                .map(|l| l.pte.is_present() && Self::leaf_4k_frame(&l, entry.va) == entry_frame)
                .unwrap_or(false)
                && entry_frame != frame
                && !self.stable.contains_frame(entry_frame);
            // Scan-order priority: real KSM rebuilds the unstable tree
            // every round, so the earlier-scanned duplicate always
            // inserts first and its frame wins the promotion. Our tree
            // persists across rounds (to support dirty skipping), so an
            // entry filed late in round R would otherwise beat an
            // earlier-order page arriving in round R+1 — reversing the
            // in-place-merge direction the §4.2 attack depends on.
            // Resolving the winner by candidate order reproduces the
            // rebuild semantics exactly.
            let (wpid, wva, wframe, lpid, lva, lframe) =
                if (pid.0, va.0) < (entry.pid.0, entry.va.0) {
                    (pid, va, frame, entry.pid, entry.va, entry_frame)
                } else {
                    (entry.pid, entry.va, entry_frame, pid, va, frame)
                };
            // A merge is about to happen: split any THPs involved. Either
            // split failing (an injected or genuine PT allocation failure)
            // downgrades the candidate to stale — both pages stay intact
            // and get rescanned later.
            let valid = valid
                && Self::break_if_huge(m, pid, va, defer_alloc)
                && Self::break_if_huge(m, entry.pid, entry.va, defer_alloc)
                && m.set_leaf(wpid, wva, Pte::new(wframe, self.merged_flags()))
                    .is_ok();
            if valid {
                // Promote the winner: its frame becomes the stable page
                // (merge *in place* — the FFS weakness).
                if mapping::evict_cached_copy(m, wpid, wva, wframe) {
                    let _ = m.put_frame(wframe);
                }
                let (snode, inserted) = self.stable.insert(m.mem(), wframe, ());
                debug_assert!(inserted, "stable tree had no match a moment ago");
                self.merged_live += 1; // The promoted party's own mapping.
                m.surface_transition(SurfaceTransition::Merge);
                self.stats.promotions += 1;
                m.scan_counts_mut().pages_merged += 1; // The promoted candidate's mapping.
                self.merge_into_stable(m, lpid, lva, lframe, snode);
            } else {
                // Stale candidate: replace it with the scanned page.
                self.insert_unstable(m, pid, va, frame);
            }
            return;
        }
        // 3. Neither tree: file as a candidate.
        self.insert_unstable(m, pid, va, frame);
    }

    /// Files `(pid, va)` as an unstable candidate and marks it seen: an
    /// in-tree candidate is a terminal state — it merges when a *later*
    /// scan of a duplicate finds it, so revisiting it while unchanged
    /// does nothing.
    fn insert_unstable(&mut self, m: &Machine, pid: Pid, va: VirtAddr, frame: FrameId) {
        self.unstable
            .insert(m.mem(), frame, UnstableEntry { pid, va });
        self.dirty.mark_seen(m.mem(), pid, va, frame);
    }

    /// Copy-on-write (or copy-on-access) unmerge.
    fn unmerge(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        let Some((stable_frame, node, writable)) = mapping::fused_page(m, fault, &self.stable)
        else {
            return false;
        };
        // The page is ours: from here on the work is an unmerge attempt
        // (span opened only now, so foreign CoW faults never pollute it).
        m.trace_begin("ksm", SpanKind::Unmerge);
        let copied = mapping::cow_copy(m, fault, stable_frame, writable);
        if copied {
            if m.put_frame(stable_frame).unwrap_or(false) {
                self.stable.remove(node);
            }
            self.merged_live -= 1;
            m.surface_transition(SurfaceTransition::Unmerge);
            self.stats.unmerged += 1;
        }
        m.trace_end(SpanKind::Unmerge);
        copied
    }
}

#[cfg(test)]
impl Ksm {
    /// Whether the next wake's stable-tree refresh returns at once (the
    /// unstable tree is stamped at the same epoch unless it was cleared).
    pub(crate) fn skips(&self, m: &Machine) -> (bool, bool) {
        (self.stable.fresh(m.mem()), false)
    }
}

impl vusion_snapshot::Snapshot for Ksm {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cfg.pages_per_scan);
        w.bool(self.cfg.unmerge_on_read);
        w.bool(self.cfg.zero_only);
        self.stable.save_with(w, |(), _| {});
        self.unstable.save_with(w, |e, w| {
            w.usize(e.pid.0);
            w.u64(e.va.0);
        });
        let mut sums: Vec<((usize, u64), u64)> =
            self.checksums.iter().map(|(&k, &v)| (k, v)).collect();
        sums.sort_unstable();
        w.usize(sums.len());
        for ((pid, page), sum) in sums {
            w.usize(pid);
            w.u64(page);
            w.u64(sum);
        }
        self.dirty.save(w);
        self.candidates.save(w);
        w.u64(self.cursor);
        w.u64(self.merged_live);
        self.tags.save(w);
        w.u64(self.stats.merged);
        w.u64(self.stats.unmerged);
        w.u64(self.stats.promotions);
        w.u64(self.stats.full_rounds);
        w.u64(self.stats.checksum_skips);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        let Self {
            cfg,
            stable,
            unstable,
            dirty,
            checksums,
            candidates,
            cursor,
            merged_live,
            tags,
            stats,
        } = self;
        *cfg = KsmConfig {
            pages_per_scan: r.usize()?,
            unmerge_on_read: r.bool()?,
            zero_only: r.bool()?,
        };
        *stable = ContentIndex::load_with(r, |_| Ok(()))?;
        *unstable = ContentIndex::load_with(r, |r| {
            Ok(UnstableEntry {
                pid: Pid(r.pid()?),
                va: VirtAddr(r.u64()?),
            })
        })?;
        let sums = r.usize()?;
        checksums.clear();
        for _ in 0..sums {
            let key = (r.usize()?, r.u64()?);
            checksums.insert(key, r.u64()?);
        }
        *dirty = DirtyTracker::load(r)?;
        *candidates = CandidateCache::load(r)?;
        *cursor = r.u64()?;
        *merged_live = r.u64()?;
        *tags = TagCounts::load(r)?;
        *stats = KsmStats {
            merged: r.u64()?,
            unmerged: r.u64()?,
            promotions: r.u64()?,
            full_rounds: r.u64()?,
            checksum_skips: r.u64()?,
        };
        Ok(())
    }
}

impl FusionPolicy for Ksm {
    fn name(&self) -> &'static str {
        "ksm"
    }

    fn scan(&mut self, m: &mut Machine, grant: ScanGrant) -> u64 {
        let (pages, rebuilt) = self.candidates.take(m, /* mergeable_only */ true);
        if rebuilt {
            // The candidate set changed (mmap / madvise / new process):
            // drop checksums of pages no longer scanned, so the map stays
            // bounded by the candidate list — and drop the unstable tree
            // and the dirty list, whose (pid, va) keys may now be stale.
            let live: BTreeSet<(usize, u64)> =
                pages.iter().map(|&(pid, va)| (pid.0, va.page())).collect();
            self.checksums.retain(|key, _| live.contains(key));
            self.unstable.clear();
            self.dirty.clear();
        }
        if pages.is_empty() {
            self.candidates.put_back(pages);
            return 0;
        }
        // Evict unstable candidates whose content changed since they were
        // filed: they no longer hold what they were filed as. (§2.1 drops
        // the whole tree every round, whose content order they break;
        // with the dirty-driven pass list the tree persists and changed
        // entries are evicted surgically, so clean candidates can still
        // be matched by late-arriving duplicates.) Both walks return at
        // once while the memory epoch holds their index's stamp.
        for entry in self.unstable.evict_stale(m.mem()) {
            self.dirty.forget(entry.pid, entry.va);
        }
        // Stable pages may have changed in place (Rowhammer — guests
        // cannot write them): move them to the buckets of their current
        // content before searching.
        self.stable.refresh(m.mem());
        // Pre-hash this wakeup's visit window, so the decide phase below
        // hits the hash memo-cache on every page.
        let limit = match grant.budget {
            Some(b) => b as usize,
            None => self.cfg.pages_per_scan,
        };
        let window = limit.min(pages.len());
        let mut visit_frames = Vec::with_capacity(window);
        for i in 0..window {
            let idx = ((self.cursor + i as u64) % pages.len() as u64) as usize;
            let (pid, va) = pages[idx];
            if let Some(leaf) = m.leaf(pid, va) {
                if leaf.pte.is_present() {
                    visit_frames.push(Self::leaf_4k_frame(&leaf, va));
                }
            }
        }
        scan_cache::prehash_frames(m, &visit_frames);
        // Decide/commit phase: every mutation, RNG draw, crash poll, and
        // trace event happens here in canonical order.
        let mut visited = 0;
        for _ in 0..limit {
            if m.crash_now(CrashSite::MidScan) {
                // The daemon dies between pages: work already done this
                // wakeup stays committed, nothing is left in flight.
                break;
            }
            visited += 1;
            let idx = (self.cursor % pages.len() as u64) as usize;
            let (pid, va) = pages[idx];
            self.scan_one(m, pid, va, grant.defer_alloc);
            self.cursor += 1;
            if self.cursor.is_multiple_of(pages.len() as u64) {
                self.stats.full_rounds += 1;
            }
        }
        self.candidates.put_back(pages);
        visited
    }

    fn handle_fault(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        match fault.reason {
            vusion_kernel::FaultReason::WriteProtected => self.unmerge(m, fault),
            vusion_kernel::FaultReason::Trapped if self.cfg.unmerge_on_read => {
                self.unmerge(m, fault)
            }
            _ => false,
        }
    }

    fn prepare_collapse(&mut self, m: &mut Machine, pid: Pid, huge_base: VirtAddr) -> bool {
        !mapping::range_holds(m, pid, huge_base, &self.stable)
    }

    fn pages_saved(&self) -> u64 {
        self.merged_live.saturating_sub(self.stable.len() as u64)
    }

    fn scan_period_ns(&self) -> u64 {
        SCAN_PERIOD_NS
    }

    fn pressure_shrink(&mut self, _m: &mut Machine) -> u64 {
        // Drop every transient structure the scan can rebuild: the
        // unstable tree (KSM proper drops it each round anyway) with its
        // frame map and hash buckets, the checksum memo, the dirty-driven
        // pass list, and the candidate cache.
        let unstable = self.unstable.len() as u64;
        self.unstable.clear();
        let sums = self.checksums.len() as u64;
        self.checksums = BTreeMap::new();
        unstable + sums + self.dirty.shed() + self.candidates.shed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{assert_restore_refuses, point_past_memory};
    use vusion_kernel::{MachineConfig, System};
    use vusion_mmu::{Protection, Vma};

    const BASE: u64 = 0x10000;

    fn system(cfg: KsmConfig) -> (System<Ksm>, Pid, Pid) {
        let mut m = Machine::new(MachineConfig::test_small());
        let a = m.spawn("attacker").expect("spawn");
        let v = m.spawn("victim").expect("spawn");
        for pid in [a, v] {
            m.mmap(pid, Vma::anon(VirtAddr(BASE), 64, Protection::rw()));
            m.madvise_mergeable(pid, VirtAddr(BASE), 64);
        }
        (System::new(m, Ksm::new(cfg)), a, v)
    }

    fn page(fill: u8) -> [u8; PAGE_SIZE as usize] {
        let mut p = [0u8; PAGE_SIZE as usize];
        for (i, b) in p.iter_mut().enumerate() {
            *b = fill ^ (i % 13) as u8;
        }
        p
    }

    /// Scans enough rounds for checksum stabilization + both trees.
    fn settle(s: &mut System<Ksm>) {
        s.force_scans(12);
    }

    #[test]
    fn snapshot_round_trips_every_field() {
        let (mut s, a, v) = system(KsmConfig::default());
        for (pid, pg, fill) in [(a, 0, 1), (v, 0, 1), (a, 1, 2), (v, 2, 3)] {
            s.write_page(pid, VirtAddr(BASE + pg * PAGE_SIZE), &page(fill));
        }
        settle(&mut s);
        let k = &mut s.policy;
        assert!(k.stable.len() > 0 && k.unstable.len() > 0);
        assert!(!k.checksums.is_empty() && k.dirty.len() > 0);
        k.cfg = KsmConfig {
            pages_per_scan: 51,
            unmerge_on_read: true,
            zero_only: false,
        };
        k.cursor = 31;
        k.merged_live = 32;
        k.tags = TagCounts {
            page_cache: 33,
            guest_buddy: 34,
            guest_kernel: 35,
            rest: 36,
        };
        k.stats = KsmStats {
            merged: 41,
            unmerged: 42,
            promotions: 43,
            full_rounds: 44,
            checksum_skips: 46,
        };
        let mut dst = Ksm::new(KsmConfig::default());
        let (x, y) = vusion_snapshot::resave(&s.policy, &mut dst).expect("resave");
        assert_eq!(x, y);
        for id in s.policy.stable.ids() {
            assert_eq!(dst.stable.node_of(s.policy.stable.frame(id)), Some(id));
        }
        for id in s.policy.unstable.ids() {
            assert_eq!(dst.unstable.node_of(s.policy.unstable.frame(id)), Some(id));
        }
    }

    #[test]
    fn restore_rejects_ids_past_the_machine() {
        let (mut s, a, v) = system(KsmConfig::default());
        s.write_page(a, VirtAddr(BASE), &page(1));
        s.write_page(v, VirtAddr(BASE), &page(1));
        settle(&mut s);
        assert_restore_refuses(
            &mut s,
            |s| point_past_memory(&mut s.policy.stable, &s.machine),
            |s| {
                let (mut pages, _) = s.policy.candidates.take(&s.machine, true);
                pages[0].0 = Pid(s.machine.process_count());
                s.policy.candidates.put_back(pages);
            },
        );
    }

    #[test]
    fn identical_pages_across_processes_merge() {
        let (mut s, a, v) = system(KsmConfig::default());
        s.write_page(a, VirtAddr(BASE), &page(1));
        s.write_page(v, VirtAddr(BASE), &page(1));
        let fa = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let fv = s.machine.leaf(v, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_ne!(fa, fv);
        settle(&mut s);
        let fa2 = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let fv2 = s.machine.leaf(v, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_eq!(fa2, fv2, "pages must share a frame after fusion");
        assert_eq!(s.policy.pages_saved(), 1);
        assert_eq!(s.policy.stable_pages(), 1);
        // Reads still work and return the shared content.
        assert_eq!(s.read(a, VirtAddr(BASE + 1)), page(1)[1]);
    }

    #[test]
    fn ksm_merges_in_place_one_sharers_frame_survives() {
        // The Flip Feng Shui precondition: the stable page is backed by one
        // of the sharing parties' own frames.
        let (mut s, a, v) = system(KsmConfig::default());
        s.write_page(a, VirtAddr(BASE), &page(2));
        s.write_page(v, VirtAddr(BASE), &page(2));
        let fa = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let fv = s.machine.leaf(v, VirtAddr(BASE)).expect("leaf").pte.frame();
        settle(&mut s);
        let shared = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert!(
            shared == fa || shared == fv,
            "KSM must reuse a sharer's frame"
        );
    }

    #[test]
    fn write_triggers_cow_unmerge() {
        let (mut s, a, v) = system(KsmConfig::default());
        s.write_page(a, VirtAddr(BASE), &page(3));
        s.write_page(v, VirtAddr(BASE), &page(3));
        settle(&mut s);
        assert_eq!(s.policy.pages_saved(), 1);
        // Victim writes: must get a private copy; attacker's view unchanged.
        s.write(v, VirtAddr(BASE), 0xFF);
        let fa = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let fv = s.machine.leaf(v, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_ne!(fa, fv, "CoW must unshare");
        assert_eq!(s.read(v, VirtAddr(BASE)), 0xFF);
        assert_eq!(
            s.read(a, VirtAddr(BASE)),
            page(3)[0],
            "attacker's data intact"
        );
        assert_eq!(s.policy.stats().unmerged, 1);
        assert_eq!(s.policy.pages_saved(), 0);
    }

    #[test]
    fn reads_do_not_unmerge_by_default() {
        let (mut s, a, v) = system(KsmConfig::default());
        s.write_page(a, VirtAddr(BASE), &page(4));
        s.write_page(v, VirtAddr(BASE), &page(4));
        settle(&mut s);
        let before = s.policy.pages_saved();
        s.read(a, VirtAddr(BASE));
        s.read(v, VirtAddr(BASE + 100));
        assert_eq!(s.policy.pages_saved(), before, "reads keep pages fused");
    }

    #[test]
    fn coa_variant_unmerges_on_read() {
        let (mut s, a, v) = system(KsmConfig {
            unmerge_on_read: true,
            ..Default::default()
        });
        s.write_page(a, VirtAddr(BASE), &page(5));
        s.write_page(v, VirtAddr(BASE), &page(5));
        settle(&mut s);
        assert_eq!(s.policy.pages_saved(), 1);
        assert_eq!(
            s.read(a, VirtAddr(BASE)),
            page(5)[0],
            "content preserved through CoA"
        );
        assert_eq!(s.policy.stats().unmerged, 1, "a read unmerges in CoA mode");
    }

    #[test]
    fn zero_only_variant_skips_nonzero() {
        let (mut s, a, v) = system(KsmConfig {
            zero_only: true,
            ..Default::default()
        });
        s.write_page(a, VirtAddr(BASE), &page(6));
        s.write_page(v, VirtAddr(BASE), &page(6));
        // And a zero page each.
        s.write_page(a, VirtAddr(BASE + PAGE_SIZE), &[0; PAGE_SIZE as usize]);
        s.write_page(v, VirtAddr(BASE + PAGE_SIZE), &[0; PAGE_SIZE as usize]);
        settle(&mut s);
        assert_eq!(s.policy.pages_saved(), 1, "only the zero pages merge");
    }

    #[test]
    fn volatile_pages_are_not_merged() {
        let (mut s, a, v) = system(KsmConfig::default());
        s.write_page(v, VirtAddr(BASE), &page(7));
        // The attacker's page changes between every scan.
        for round in 0..10u8 {
            s.write_page(a, VirtAddr(BASE), &page(round.wrapping_mul(31)));
            s.force_scans(1);
        }
        assert_eq!(
            s.policy.stats().merged,
            0,
            "volatile content must not merge"
        );
        assert!(s.policy.stats().checksum_skips > 0);
    }

    #[test]
    fn three_way_merge_counts_two_saved() {
        let mut m = Machine::new(MachineConfig::test_small());
        let pids: Vec<Pid> = (0..3)
            .map(|i| m.spawn(&format!("p{i}")).expect("spawn"))
            .collect();
        for &pid in &pids {
            m.mmap(pid, Vma::anon(VirtAddr(BASE), 8, Protection::rw()));
            m.madvise_mergeable(pid, VirtAddr(BASE), 8);
        }
        let mut s = System::new(m, Ksm::default_engine());
        for &pid in &pids {
            s.write_page(pid, VirtAddr(BASE), &page(8));
        }
        settle(&mut s);
        assert_eq!(s.policy.pages_saved(), 2);
        let frames: Vec<FrameId> = pids
            .iter()
            .map(|&p| s.machine.leaf(p, VirtAddr(BASE)).expect("leaf").pte.frame())
            .collect();
        assert!(
            frames.windows(2).all(|w| w[0] == w[1]),
            "all three share one frame"
        );
    }

    #[test]
    fn unregistered_memory_is_never_scanned() {
        let mut m = Machine::new(MachineConfig::test_small());
        let a = m.spawn("a").expect("spawn");
        let b = m.spawn("b").expect("spawn");
        for pid in [a, b] {
            m.mmap(pid, Vma::anon(VirtAddr(BASE), 8, Protection::rw()));
            // No madvise!
        }
        let mut s = System::new(m, Ksm::default_engine());
        s.write_page(a, VirtAddr(BASE), &page(9));
        s.write_page(b, VirtAddr(BASE), &page(9));
        settle(&mut s);
        assert_eq!(s.policy.pages_saved(), 0, "KSM is opt-in");
    }

    #[test]
    fn memory_consumption_drops_after_fusion() {
        let (mut s, a, v) = system(KsmConfig::default());
        for i in 0..16u64 {
            s.write_page(a, VirtAddr(BASE + i * PAGE_SIZE), &page(10));
            s.write_page(v, VirtAddr(BASE + i * PAGE_SIZE), &page(10));
        }
        let before = s.machine.allocated_frames();
        s.force_scans(30);
        let after = s.machine.allocated_frames();
        // 32 identical pages collapse to 1 frame: 31 frames come back.
        assert_eq!(before - after, 31, "saved frames must be released");
        assert_eq!(s.policy.pages_saved(), 31);
    }

    #[test]
    fn merged_pages_keep_content_across_rounds() {
        let (mut s, a, v) = system(KsmConfig::default());
        s.write_page(a, VirtAddr(BASE), &page(11));
        s.write_page(v, VirtAddr(BASE), &page(11));
        settle(&mut s);
        s.force_scans(20); // More rounds must not corrupt anything.
        assert_eq!(s.read_page(a, VirtAddr(BASE)), page(11));
        assert_eq!(s.read_page(v, VirtAddr(BASE)), page(11));
    }
}
