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
//! Two experiment variants from the paper are supported:
//! `unmerge_on_read` (the copy-on-access modification of Figure 4) and
//! `zero_only` (zero-page-only fusion, also Figure 4).

use std::collections::{BTreeMap, BTreeSet};

use vusion_kernel::{
    FusionPolicy, Machine, PageFault, Pid, ScanReport, SpanKind, SurfaceTransition,
};
use vusion_mem::{CrashSite, FrameId, VirtAddr, PAGE_SIZE};
use vusion_mmu::{GuestTag, Pte, PteFlags, VmaBacking};

use crate::rbtree::{ContentRbTree, NodeId};
use crate::scan_cache::{self, CandidateCache, DirtyTracker, HashIndex};
use crate::TagCounts;

/// KSM tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KsmConfig {
    /// Pages scanned per wakeup (`N`, default 100).
    pub pages_per_scan: usize,
    /// Wakeup period in ns (`T`, default 20 ms ⇒ 5000 pages/s).
    pub scan_period_ns: u64,
    /// Figure 4 variant: unmerge on *any* fault, not just writes
    /// (copy-on-access). Merged PTEs get the reserved-bit trap.
    pub unmerge_on_read: bool,
    /// Figure 4 variant: merge only zero pages.
    pub zero_only: bool,
}

impl Default for KsmConfig {
    fn default() -> Self {
        Self {
            pages_per_scan: 100,
            scan_period_ns: 20_000_000,
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
    /// Transparent huge pages broken for scanning.
    pub huge_broken: u64,
    /// Pages skipped because their checksum was still unstable.
    pub checksum_skips: u64,
}

#[derive(Debug, Clone, Copy)]
struct UnstableEntry {
    pid: Pid,
    va: VirtAddr,
    frame: FrameId,
}

/// The KSM engine.
pub struct Ksm {
    cfg: KsmConfig,
    /// Stable tree: fused, write-protected pages. Value = mapping count.
    stable: ContentRbTree<u32>,
    /// Reverse map: stable frame → tree node.
    // vlint: allow(S001, derived reverse map — rebuilt from the stable tree in load)
    stable_index: BTreeMap<FrameId, NodeId>,
    /// Content-hash pre-filter over the stable tree's pages.
    stable_hashes: HashIndex,
    /// Unstable tree: unprotected candidates. Unlike §2.1's
    /// drop-every-round tree, it persists across rounds so clean pages can
    /// be skipped without losing late-arriving duplicates; entries whose
    /// content changed are evicted surgically at the top of each wakeup,
    /// and the whole tree is dropped when the candidate list is rebuilt.
    unstable: ContentRbTree<UnstableEntry>,
    /// Reverse map: unstable frame → tree node (for surgical eviction).
    // vlint: allow(S001, derived reverse map — rebuilt from the unstable tree in load)
    unstable_index: BTreeMap<FrameId, NodeId>,
    /// Content-hash pre-filter over the unstable tree's pages.
    unstable_hashes: HashIndex,
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
    /// Per-wake page budget granted by the pressure governor. Never
    /// serialized: the governor re-grants before every wakeup.
    // vlint: allow(S001, host-only wake-scoped grant — the governor re-issues it before every wakeup)
    budget: Option<u64>,
    /// Reclaim-ladder rung 3: while set, THP breaks (which consume
    /// page-table frames) are deferred until pressure clears.
    defer_zero: bool,
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
            stable: ContentRbTree::new(),
            stable_index: BTreeMap::new(),
            stable_hashes: HashIndex::default(),
            unstable: ContentRbTree::new(),
            unstable_index: BTreeMap::new(),
            unstable_hashes: HashIndex::default(),
            dirty: DirtyTracker::default(),
            checksums: BTreeMap::new(),
            candidates: CandidateCache::default(),
            cursor: 0,
            budget: None,
            defer_zero: false,
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

    /// Snapshot of the mergeable page list: `(pid, page base)` pairs.
    fn mergeable_pages(m: &Machine) -> Vec<(Pid, VirtAddr)> {
        let mut out = Vec::new();
        for pidx in 0..m.process_count() {
            let pid = Pid(pidx);
            for vma in m.process(pid).space.mergeable_vmas() {
                for va in vma.page_addrs() {
                    out.push((pid, va));
                }
            }
        }
        out
    }

    /// Guest tag and (for file pages) the page-cache key of a mapping.
    fn vma_info(m: &Machine, pid: Pid, va: VirtAddr) -> (GuestTag, Option<(u64, u64)>) {
        match m.process(pid).space.find_vma(va) {
            Some(vma) => {
                let key = match vma.backing {
                    VmaBacking::File {
                        file_id,
                        offset_pages,
                    } => Some((file_id, offset_pages + (va.0 - vma.start.0) / PAGE_SIZE)),
                    VmaBacking::Anon => None,
                };
                (vma.tag, key)
            }
            None => (GuestTag::Other, None),
        }
    }

    /// Releases a page-cache reference if `frame` is the cached copy of the
    /// file page mapped at `(pid, va)` — the guest page being deduplicated
    /// out of its cache.
    fn drop_cache_ref(m: &mut Machine, pid: Pid, va: VirtAddr, frame: FrameId) {
        let (_, key) = Self::vma_info(m, pid, va);
        if let Some((file_id, page)) = key {
            let p = m.process_mut(pid);
            if p.page_cache.get(&(file_id, page)) == Some(&frame) {
                p.page_cache_evict(file_id, page);
                let _ = m.put_frame(frame);
            }
        }
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
        report: &mut ScanReport,
    ) {
        let stable_frame = self.stable.frame(node);
        debug_assert_ne!(stable_frame, old);
        m.trace_begin("ksm", SpanKind::Merge);
        m.mem_mut().info_mut(stable_frame).get();
        *self.stable.value_mut(node) += 1;
        if m.crash_now(CrashSite::MidMerge)
            || m.set_leaf(pid, va, Pte::new(stable_frame, self.merged_flags()))
                .is_err()
        {
            // The mapping vanished under us — or the scanner daemon died
            // mid-merge: undo the stable reference and leave the page
            // alone for a later round.
            m.mem_mut().info_mut(stable_frame).put();
            *self.stable.value_mut(node) -= 1;
            m.note_scan_retry();
            m.trace_end(SpanKind::Merge);
            return;
        }
        // Release the duplicate: cache reference first, then the mapping's.
        let (tag, _) = Self::vma_info(m, pid, va);
        Self::drop_cache_ref(m, pid, va, old);
        let _ = m.put_frame(old);
        let costs = m.costs();
        m.scan_cost(costs.pte_update + costs.buddy_interaction);
        m.trace_end(SpanKind::Merge);
        m.surface_transition(SurfaceTransition::Merge);
        self.tags.record(tag);
        self.merged_live += 1;
        self.stats.merged += 1;
        report.pages_merged += 1;
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
    fn break_if_huge(
        &mut self,
        m: &mut Machine,
        pid: Pid,
        va: VirtAddr,
        report: &mut ScanReport,
    ) -> bool {
        if m.leaf(pid, va).map(|l| l.huge).unwrap_or(false) {
            if self.defer_zero {
                // Rung 3 active: splitting a THP consumes page-table
                // frames under critical pressure. Retry once it clears.
                m.note_scan_retry();
                return false;
            }
            m.trace_begin("ksm", SpanKind::ThpBreak);
            let broke = m.break_thp(pid, va).is_ok();
            if broke {
                let costs = m.costs();
                m.scan_cost(costs.pte_update);
            }
            m.trace_end(SpanKind::ThpBreak);
            if !broke {
                // Could not split (PT allocation failed): skip this page
                // for now and retry in a later round.
                m.note_scan_retry();
                return false;
            }
            self.stats.huge_broken += 1;
            report.huge_pages_broken += 1;
        }
        true
    }

    /// Scans one page (the §2.1 per-page algorithm).
    fn scan_one(&mut self, m: &mut Machine, pid: Pid, va: VirtAddr, report: &mut ScanReport) {
        report.pages_scanned += 1;
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
            report.pages_skipped_clean += 1;
            return;
        }
        if m.observed_scan_flip() {
            // Injected bit flip: the page comparison is unreliable this
            // round, so skip and retry later.
            m.note_scan_retry();
            return;
        }
        if self.stable_index.contains_key(&frame) {
            // Already merged: terminal until the mapping or frame moves.
            self.dirty.mark_seen(m.mem(), pid, va, frame);
            return;
        }
        // Only merge frames we can account for: sole mapping, possibly plus
        // the page-cache reference. Not a terminal state — the refcount can
        // drop without the frame's write generation moving.
        let refs = m.mem().info(frame).refcount;
        let (_, cache_key) = Self::vma_info(m, pid, va);
        let max_refs = if cache_key.is_some() { 2 } else { 1 };
        if refs > max_refs {
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
        // *unstable* tree with the checksum test. The hash index skips
        // the descent when no stable page can possibly match; a hit (or a
        // hash collision) is confirmed by the authoritative search.
        let mem = m.mem();
        let stable_node = if self.stable_hashes.may_contain(mem, frame) {
            self.stable.find(frame, |a, b| mem.compare_pages(a, b))
        } else {
            None
        };
        if let Some(node) = stable_node {
            if self.break_if_huge(m, pid, va, report) {
                self.merge_into_stable(m, pid, va, frame, node, report);
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
        // 2. Unstable tree, behind the same hash pre-filter.
        let mem = m.mem();
        let unstable_node = if self.unstable_hashes.may_contain(mem, frame) {
            self.unstable.find(frame, |a, b| mem.compare_pages(a, b))
        } else {
            None
        };
        if let Some(node) = unstable_node {
            let entry = *self.unstable.value(node);
            // Validate: the candidate must still be mapped to the same
            // frame (its content equality was just checked by the search).
            let valid = m
                .leaf(entry.pid, entry.va)
                .map(|l| l.pte.is_present() && Self::leaf_4k_frame(&l, entry.va) == entry.frame)
                .unwrap_or(false)
                && entry.frame != frame
                && !self.stable_index.contains_key(&entry.frame);
            self.unstable.remove(node);
            self.unstable_index.remove(&entry.frame);
            self.unstable_hashes.remove(entry.frame);
            self.dirty.forget(entry.pid, entry.va);
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
                    (pid, va, frame, entry.pid, entry.va, entry.frame)
                } else {
                    (entry.pid, entry.va, entry.frame, pid, va, frame)
                };
            // A merge is about to happen: split any THPs involved. Either
            // split failing (an injected or genuine PT allocation failure)
            // downgrades the candidate to stale — both pages stay intact
            // and get rescanned later.
            let valid = valid
                && self.break_if_huge(m, pid, va, report)
                && self.break_if_huge(m, entry.pid, entry.va, report)
                && m.set_leaf(wpid, wva, Pte::new(wframe, self.merged_flags()))
                    .is_ok();
            if valid {
                // Promote the winner: its frame becomes the stable page
                // (merge *in place* — the FFS weakness).
                Self::drop_cache_ref(m, wpid, wva, wframe);
                let mem = m.mem();
                let (snode, inserted) = self
                    .stable
                    .insert(wframe, 1, |a, b| mem.compare_pages(a, b));
                debug_assert!(inserted, "stable tree had no match a moment ago");
                self.stable_index.insert(wframe, snode);
                self.stable_hashes.insert(m.mem(), wframe);
                self.merged_live += 1; // The promoted party's own mapping.
                m.surface_transition(SurfaceTransition::Merge);
                self.stats.promotions += 1;
                report.pages_merged += 1; // The promoted candidate's mapping.
                self.merge_into_stable(m, lpid, lva, lframe, snode, report);
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
        let mem = m.mem();
        let (node, inserted) =
            self.unstable
                .insert(frame, UnstableEntry { pid, va, frame }, |a, b| {
                    mem.compare_pages(a, b)
                });
        if inserted {
            self.unstable_index.insert(frame, node);
            self.unstable_hashes.insert(mem, frame);
        }
        self.dirty.mark_seen(mem, pid, va, frame);
    }

    /// Copy-on-write (or copy-on-access) unmerge.
    fn unmerge(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        let Some(leaf) = m.leaf(fault.pid, fault.va) else {
            return false;
        };
        let stable_frame = leaf.pte.frame();
        let Some(&node) = self.stable_index.get(&stable_frame) else {
            return false;
        };
        let Some(vma) = m.process(fault.pid).space.find_vma(fault.va).copied() else {
            return false;
        };
        // The page is ours: from here on the work is an unmerge attempt
        // (span opened only now, so foreign CoW faults never pollute it).
        m.trace_begin("ksm", SpanKind::Unmerge);
        let handled = self.unmerge_owned(m, fault, stable_frame, node, vma);
        m.trace_end(SpanKind::Unmerge);
        handled
    }

    /// The unmerge proper, once ownership is established.
    fn unmerge_owned(
        &mut self,
        m: &mut Machine,
        fault: &PageFault,
        stable_frame: FrameId,
        node: NodeId,
        vma: vusion_mmu::Vma,
    ) -> bool {
        // Copy into a fresh frame from the system allocator (Linux uses the
        // buddy allocator here — its LIFO reuse is attacker-predictable).
        let Ok(new) = m.alloc_frame(vusion_mem::PageType::Anon) else {
            return false; // OOM: stay merged; the access retries later.
        };
        if m.crash_now(CrashSite::MidUnmerge) {
            // Died after allocating the private copy: recovery frees it;
            // the page is still merged and the access simply retries.
            let _ = m.put_frame(new);
            return false;
        }
        m.mem_mut().copy_page(stable_frame, new);
        let costs = m.costs();
        m.charge(costs.copy_page + costs.pte_update + costs.buddy_interaction);
        let mut flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::ACCESSED;
        if vma.prot.write {
            flags |= PteFlags::WRITABLE;
        }
        if fault.kind == vusion_kernel::AccessKind::Write {
            flags |= PteFlags::DIRTY;
        }
        if m.set_leaf(fault.pid, fault.va.page_base(), Pte::new(new, flags))
            .is_err()
        {
            let _ = m.put_frame(new);
            return false;
        }
        *self.stable.value_mut(node) -= 1;
        if m.put_frame(stable_frame).unwrap_or(false) {
            self.stable.remove(node);
            self.stable_index.remove(&stable_frame);
            self.stable_hashes.remove(stable_frame);
        }
        self.merged_live -= 1;
        m.surface_transition(SurfaceTransition::Unmerge);
        self.stats.unmerged += 1;
        true
    }
}

impl vusion_snapshot::Snapshot for Ksm {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cfg.pages_per_scan);
        w.u64(self.cfg.scan_period_ns);
        w.bool(self.cfg.unmerge_on_read);
        w.bool(self.cfg.zero_only);
        self.stable.save_with(w, |v, w| w.u32(*v));
        self.stable_hashes.save(w);
        self.unstable.save_with(w, |e, w| {
            w.usize(e.pid.0);
            w.u64(e.va.0);
            w.u64(e.frame.0);
        });
        self.unstable_hashes.save(w);
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
        w.u64(self.stats.huge_broken);
        w.u64(self.stats.checksum_skips);
        w.bool(self.defer_zero);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        self.cfg.pages_per_scan = r.usize()?;
        self.cfg.scan_period_ns = r.u64()?;
        self.cfg.unmerge_on_read = r.bool()?;
        self.cfg.zero_only = r.bool()?;
        // The trees restore slot-exactly, so rebuilding the reverse map
        // from live node ids reproduces the pre-snapshot NodeIds.
        self.stable = ContentRbTree::load_with(r, |r| r.u32())?;
        self.stable_index = self
            .stable
            .ids()
            .into_iter()
            .map(|id| (self.stable.frame(id), id))
            .collect();
        self.stable_hashes = HashIndex::load(r)?;
        self.unstable = ContentRbTree::load_with(r, |r| {
            Ok(UnstableEntry {
                pid: Pid(r.usize()?),
                va: VirtAddr(r.u64()?),
                frame: FrameId(r.u64()?),
            })
        })?;
        self.unstable_index = self
            .unstable
            .ids()
            .into_iter()
            .map(|id| (self.unstable.frame(id), id))
            .collect();
        self.unstable_hashes = HashIndex::load(r)?;
        let sums = r.usize()?;
        self.checksums = BTreeMap::new();
        for _ in 0..sums {
            let key = (r.usize()?, r.u64()?);
            self.checksums.insert(key, r.u64()?);
        }
        self.dirty = DirtyTracker::load(r)?;
        self.candidates = CandidateCache::load(r)?;
        self.cursor = r.u64()?;
        self.merged_live = r.u64()?;
        self.tags = TagCounts::load(r)?;
        self.stats = KsmStats {
            merged: r.u64()?,
            unmerged: r.u64()?,
            promotions: r.u64()?,
            full_rounds: r.u64()?,
            huge_broken: r.u64()?,
            checksum_skips: r.u64()?,
        };
        self.defer_zero = r.bool()?;
        Ok(())
    }
}

impl vusion_snapshot::EngineState for Ksm {
    fn engine_tag(&self) -> &'static str {
        "ksm"
    }
}

impl FusionPolicy for Ksm {
    fn name(&self) -> &'static str {
        "ksm"
    }

    fn scan(&mut self, m: &mut Machine) -> ScanReport {
        let mut report = ScanReport::default();
        let (pages, rebuilt) = self.candidates.take(m, Self::mergeable_pages);
        if rebuilt {
            // The candidate set changed (mmap / madvise / new process):
            // drop checksums of pages no longer scanned, so the map stays
            // bounded by the candidate list — and drop the unstable tree
            // and the dirty list, whose (pid, va) keys may now be stale.
            let live: BTreeSet<(usize, u64)> =
                pages.iter().map(|&(pid, va)| (pid.0, va.page())).collect();
            self.checksums.retain(|key, _| live.contains(key));
            self.unstable.clear();
            self.unstable_index.clear();
            self.unstable_hashes.clear();
            self.dirty.clear();
        }
        if pages.is_empty() {
            self.candidates.put_back(pages);
            return report;
        }
        // Evict unstable candidates whose content changed since they were
        // filed: their position in the content-ordered tree is no longer
        // valid. (§2.1 drops the whole tree every round for this reason;
        // with the dirty-driven pass list the tree persists and changed
        // entries are evicted surgically, so clean candidates can still
        // be matched by late-arriving duplicates.)
        for frame in self.unstable_hashes.stale_frames(m.mem()) {
            if let Some(node) = self.unstable_index.remove(&frame) {
                let entry = *self.unstable.value(node);
                self.unstable.remove(node);
                self.unstable_hashes.remove(frame);
                self.dirty.forget(entry.pid, entry.va);
            }
        }
        // Stable pages may have changed in place (Rowhammer — guests
        // cannot write them): re-sync that pre-filter before trusting it.
        self.stable_hashes.refresh(m.mem());
        // Pre-hash this wakeup's visit window, so the decide phase below
        // hits the hash memo-cache on every page.
        let limit = match self.budget {
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
        for _ in 0..limit {
            if m.crash_now(CrashSite::MidScan) {
                // The daemon dies between pages: work already done this
                // wakeup stays committed, nothing is left in flight.
                break;
            }
            report.budget_used += 1;
            let idx = (self.cursor % pages.len() as u64) as usize;
            let (pid, va) = pages[idx];
            self.scan_one(m, pid, va, &mut report);
            self.cursor += 1;
            if self.cursor.is_multiple_of(pages.len() as u64) {
                self.stats.full_rounds += 1;
            }
        }
        self.candidates.put_back(pages);
        report
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
        // Linux khugepaged skips ranges containing KSM pages.
        for i in 0..vusion_mem::HUGE_PAGE_FRAMES {
            let va = VirtAddr(huge_base.0 + i * PAGE_SIZE);
            if let Some(leaf) = m.leaf(pid, va) {
                if self.stable_index.contains_key(&leaf.pte.frame()) {
                    return false;
                }
            }
        }
        true
    }

    fn pages_saved(&self) -> u64 {
        self.merged_live.saturating_sub(self.stable.len() as u64)
    }

    fn scan_period_ns(&self) -> u64 {
        self.cfg.scan_period_ns
    }

    fn set_scan_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    fn pressure_shrink(&mut self, _m: &mut Machine) -> u64 {
        // Drop every transient structure the scan can rebuild: the
        // unstable tree (KSM proper drops it each round anyway), its
        // hash filter and reverse index, the checksum memo, the
        // dirty-driven pass list, and the candidate cache.
        let unstable = self.unstable.len() as u64;
        self.unstable.clear();
        self.unstable_index.clear();
        self.unstable_hashes.clear();
        let sums = self.checksums.len() as u64;
        self.checksums = BTreeMap::new();
        unstable + sums + self.dirty.shed() + self.candidates.shed()
    }

    fn set_zero_unmerge_deferral(&mut self, on: bool) {
        self.defer_zero = on;
    }

    fn save_state(&self, w: &mut vusion_snapshot::Writer) {
        vusion_snapshot::Snapshot::save(self, w)
    }

    fn restore_state(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        vusion_snapshot::Snapshot::load(self, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
