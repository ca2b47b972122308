//! The VUsion secure page-fusion engine (§6–§8 of the paper).
//!
//! **Same Behavior (SB).** Every page the scanner considers for fusion —
//! merged or not — gets *all* access removed: the PTE keeps `PRESENT` but
//! gains the reserved-bit trap and `PCD` (share xor fetch, §7.1). Pages
//! with no duplicate are **fake merged**: copied to a fresh random frame
//! and trapped exactly like real merges. The next access to either kind
//! takes the *identical* copy-on-access path: allocate a random frame,
//! copy, remap, push one entry on the deferred-free queue (a real free for
//! fake-merged pages, a dummy for merged ones — §7.1 decision ii). There
//! is no unstable tree (decision i): trapped pages cannot change, so a
//! single content tree suffices. Each full scan round the backing frame of
//! every tree page is re-randomized (decision iii) so even a page-coloring
//! attack on the fault handler learns nothing across scans.
//!
//! **Randomized Allocation (RA).** All backing frames come from a
//! [`RandomPool`]; released frames return to random pool slots. A
//! templated vulnerable frame is reused with probability `1/pool` (§7.1:
//! 2⁻¹⁵ at the paper's 128 MiB pool size).
//!
//! **Working-set estimation (§7.2).** Only pages whose ACCESSED bit stayed
//! clear since the previous scan round are considered, so the page-fault
//! tax falls almost entirely on idle pages.
//!
//! **THP (§8).** Huge pages are broken before fusing. With
//! `thp_enhancements`, only *idle* huge pages are broken, and
//! [`FusionPolicy::prepare_collapse`] lets the (secured) `khugepaged`
//! fake-unmerge sub-pages before re-collapsing hot ranges.

use std::collections::BTreeMap;

use vusion_kernel::{
    FusionPolicy, Machine, PageFault, Pid, ScanReport, SpanKind, SurfaceTransition,
};
use vusion_mem::{
    CrashSite, DeferredFreeQueue, FrameId, MmError, PageType, RandomPool, VirtAddr,
    HUGE_PAGE_FRAMES, PAGE_SIZE,
};
use vusion_mmu::{GuestTag, Pte, PteFlags, VmaBacking};

use crate::rbtree::{ContentRbTree, NodeId};
use crate::scan_cache::{self, CandidateCache, HashIndex};
use crate::TagCounts;

/// VUsion tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct VUsionConfig {
    /// Pages scanned per wakeup (default 100, matching KSM).
    pub pages_per_scan: usize,
    /// Wakeup period in ns (default 20 ms, matching KSM).
    pub scan_period_ns: u64,
    /// Random-pool size in frames. The paper reserves 128 MiB = 2¹⁵
    /// frames; scaled experiments use smaller pools (entropy =
    /// log2(pool_frames) bits).
    pub pool_frames: usize,
    /// §8 THP enhancements: break only idle huge pages and cooperate with
    /// the secured khugepaged ("VUsion THP" in the evaluation).
    pub thp_enhancements: bool,
    /// Deferred-free operations processed per scanner wakeup.
    pub deferred_drain_per_wake: usize,
    /// Maximum RA trace length retained for the §9.1 uniformity test.
    pub ra_trace_cap: usize,
    /// ABLATION (insecure): skip the Caching-Disabled bit on trapped PTEs.
    /// Re-opens the prefetch side channel of Gruss et al. (§7.1).
    pub ablate_pcd: bool,
    /// ABLATION (insecure): free dead frames synchronously in the fault
    /// handler instead of deferring. Re-opens the merged-vs-fake-merged
    /// timing asymmetry of §7.1 decision (ii).
    pub ablate_deferred_free: bool,
    /// ABLATION (insecure): keep tree pages on the same backing frame
    /// across scan rounds. Re-opens the cross-scan page-coloring channel of
    /// §7.1 decision (iii).
    pub ablate_rerandomize: bool,
}

impl Default for VUsionConfig {
    fn default() -> Self {
        Self {
            pages_per_scan: 100,
            scan_period_ns: 20_000_000,
            pool_frames: 4096,
            thp_enhancements: false,
            deferred_drain_per_wake: 512,
            ra_trace_cap: 1 << 16,
            ablate_pcd: false,
            ablate_deferred_free: false,
            ablate_rerandomize: false,
        }
    }
}

impl VUsionConfig {
    /// Paper-scale pool: 128 MiB ⇒ 15 bits of entropy.
    pub fn paper_pool(mut self) -> Self {
        self.pool_frames = vusion_mem::random_pool::DEFAULT_POOL_FRAMES;
        self
    }

    /// Enables the §8 THP enhancements.
    pub fn with_thp(mut self) -> Self {
        self.thp_enhancements = true;
        self
    }
}

/// VUsion counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VUsionStats {
    /// Real merges.
    pub merged: u64,
    /// Fake merges.
    pub fake_merged: u64,
    /// Copy-on-access unmerges (reads and writes alike).
    pub coa_unmerges: u64,
    /// Pages skipped because they were in the working set.
    pub skipped_active: u64,
    /// Huge pages broken.
    pub huge_broken: u64,
    /// Huge pages left intact because they were active (THP mode).
    pub huge_conserved: u64,
    /// Backing frames re-randomized at round boundaries.
    pub rerandomized: u64,
    /// Sub-pages fake-unmerged on behalf of khugepaged.
    pub collapse_unmerges: u64,
    /// Full scan rounds completed.
    pub full_rounds: u64,
}

/// The VUsion engine.
pub struct VUsion {
    cfg: VUsionConfig,
    /// The single content tree (no unstable tree — §7.1 decision i).
    /// Value: the mappings sharing the node's frame.
    tree: ContentRbTree<Vec<(Pid, VirtAddr)>>,
    /// Reverse map: tree frame → node.
    // vlint: allow(S001, derived reverse map — rebuilt from the content tree in load)
    tree_index: BTreeMap<FrameId, NodeId>,
    /// Content-hash filter over the tree pages (wall-clock only).
    tree_hashes: HashIndex,
    /// Cached mergeable-page list, invalidated by the layout epoch.
    candidates: CandidateCache,
    /// Reverse map: trapped page → node.
    page_state: BTreeMap<(usize, u64), NodeId>,
    pool: RandomPool,
    deferred: DeferredFreeQueue,
    cursor: u64,
    saved: u64,
    /// Per-wake page budget granted by the pressure governor. Never
    /// serialized: the governor re-grants before every wakeup.
    // vlint: allow(S001, host-only wake-scoped grant — the governor re-issues it before every wakeup)
    budget: Option<u64>,
    /// Reclaim-ladder rung 3: while set, frame-allocating scan work (fake
    /// merges, rerandomization rounds) is deferred until pressure clears.
    defer_zero: bool,
    /// Frames handed out by RA, for the §9.1 uniformity test.
    ra_trace: Vec<u64>,
    tags: TagCounts,
    stats: VUsionStats,
}

impl VUsion {
    /// Creates the engine, drawing the random pool from the machine's
    /// buddy allocator.
    pub fn new(m: &mut Machine, cfg: VUsionConfig) -> Self {
        let seed = m.config().seed ^ u64::from_le_bytes(*b"vusionra");
        let pool = RandomPool::new(cfg.pool_frames, m.buddy_mut(), seed);
        Self {
            cfg,
            tree: ContentRbTree::new(),
            tree_index: BTreeMap::new(),
            tree_hashes: HashIndex::default(),
            candidates: CandidateCache::default(),
            page_state: BTreeMap::new(),
            pool,
            deferred: DeferredFreeQueue::new(),
            cursor: 0,
            saved: 0,
            budget: None,
            defer_zero: false,
            ra_trace: Vec::new(),
            tags: TagCounts::default(),
            stats: VUsionStats::default(),
        }
    }

    /// Counters.
    pub fn stats(&self) -> VUsionStats {
        self.stats
    }

    /// Table 3 accounting.
    pub fn tag_counts(&self) -> TagCounts {
        self.tags
    }

    /// Frames chosen by Randomized Allocation so far (§9.1 RA test).
    pub fn ra_trace(&self) -> &[u64] {
        &self.ra_trace
    }

    /// Pool residency (test helper).
    pub fn pool_resident(&self) -> usize {
        self.pool.resident()
    }

    /// Whether a page is currently under fusion management (trapped).
    pub fn is_managed(&self, pid: Pid, va: VirtAddr) -> bool {
        self.page_state.contains_key(&(pid.0, va.page()))
    }

    fn trace_alloc(&mut self, frame: FrameId) {
        if self.ra_trace.len() < self.cfg.ra_trace_cap {
            self.ra_trace.push(frame.0);
        }
    }

    /// Draws a random backing frame (RA). On exhaustion the deferred-free
    /// queue is force-drained back into the pool (the emergency version of
    /// decision ii's background half) before [`MmError::PoolExhausted`] is
    /// reported.
    fn ra_alloc(&mut self, m: &mut Machine, page_type: PageType) -> Result<FrameId, MmError> {
        let f = match self.pool.alloc_random(m.buddy_mut()) {
            Ok(f) => f,
            Err(_) => {
                let mut dead = Vec::new();
                self.deferred.drain(usize::MAX, |f| dead.push(f));
                let drained = !dead.is_empty();
                for d in dead {
                    self.ra_release(m, d);
                }
                if drained {
                    m.note_deferred_drain();
                }
                match self.pool.alloc_random(m.buddy_mut()) {
                    Ok(f) => f,
                    Err(e) => {
                        m.note_oom();
                        return Err(e);
                    }
                }
            }
        };
        m.mem_mut().info_mut(f).on_alloc(page_type);
        self.trace_alloc(f);
        Ok(f)
    }

    /// Returns a dead (refcount 0, still `Allocated`) frame to the pool.
    fn ra_release(&mut self, m: &mut Machine, frame: FrameId) {
        m.mem_mut().info_mut(frame).on_free();
        m.mem_mut().zero_page(frame);
        let _ = self.pool.free_random(frame, m.buddy_mut());
    }

    /// The uniform trapped-PTE flags of (fake-)merged pages: present but
    /// reserved-trapped and uncacheable. No permission bits matter.
    fn trapped_flags(&self) -> PteFlags {
        let mut f = PteFlags::PRESENT | PteFlags::USER | PteFlags::RESERVED;
        if !self.cfg.ablate_pcd {
            f |= PteFlags::NO_CACHE;
        }
        f
    }

    /// Guest tag and page-cache key of a mapping.
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

    /// Drops the page-cache reference if `frame` is the cached copy of the
    /// file page at `(pid, va)`.
    fn drop_cache_ref(m: &mut Machine, pid: Pid, va: VirtAddr, frame: FrameId) {
        let (_, key) = Self::vma_info(m, pid, va);
        if let Some((file_id, page)) = key {
            let p = m.process_mut(pid);
            if p.page_cache.get(&(file_id, page)) == Some(&frame) {
                p.page_cache_evict(file_id, page);
                m.mem_mut().info_mut(frame).put();
            }
        }
    }

    /// Releases a candidate's old frame to the pool (refcount must reach 0).
    fn release_candidate(&mut self, m: &mut Machine, pid: Pid, va: VirtAddr, frame: FrameId) {
        Self::drop_cache_ref(m, pid, va, frame);
        if m.mem_mut().info_mut(frame).put() {
            self.ra_release(m, frame);
        }
    }

    /// One page through the S⊕F pipeline.
    fn scan_one(&mut self, m: &mut Machine, pid: Pid, va: VirtAddr, report: &mut ScanReport) {
        report.pages_scanned += 1;
        if self.page_state.contains_key(&(pid.0, va.page())) {
            return; // Already under management.
        }
        let Some(mut leaf) = m.leaf(pid, va) else {
            return;
        };
        if m.observed_scan_flip() {
            // Injected bit flip: the page comparison is unreliable this
            // round, so skip and retry later.
            m.note_scan_retry();
            return;
        }
        if leaf.huge {
            // Act once per THP per round (at its head): the scanner visits
            // all 512 candidate VAs, but the idle test must not be repeated
            // — the first test-and-clear would make the second visit
            // mistake a hot huge page for an idle one.
            if va.page_base() != va.huge_base() {
                return;
            }
            if self.cfg.thp_enhancements {
                // Break only *idle* huge pages (§8.1): an active THP stays.
                let was_accessed = {
                    let (mem, _buddy, procs) = m.mm_parts();
                    let was = procs[pid.0]
                        .space
                        .tables_mut()
                        .test_and_clear_accessed(mem, va.huge_base())
                        .unwrap_or(true);
                    // Linux's idle tracking flushes the TLB after clearing
                    // the bit, or cached translations would hide accesses.
                    procs[pid.0].tlb.invalidate(va.huge_base());
                    was
                };
                if was_accessed {
                    self.stats.huge_conserved += 1;
                    report.pages_skipped_active += 1;
                    return;
                }
            }
            if m.break_thp(pid, va).is_err() {
                // Could not split (PT allocation failed): retry later.
                m.note_scan_retry();
                return;
            }
            self.stats.huge_broken += 1;
            report.huge_pages_broken += 1;
            let Some(l) = m.leaf(pid, va) else {
                return;
            };
            leaf = l;
        }
        if !leaf.pte.is_present() || leaf.pte.is_trapped() {
            return;
        }
        // Working-set estimation (§7.2): consider only idle pages.
        let was_accessed = {
            let (mem, _buddy, procs) = m.mm_parts();
            let was = procs[pid.0]
                .space
                .tables_mut()
                .test_and_clear_accessed(mem, va.page_base())
                .unwrap_or(true);
            // TLB shootdown, as Linux's idle page tracking performs.
            procs[pid.0].tlb.invalidate(va.page_base());
            was
        };
        if was_accessed {
            self.stats.skipped_active += 1;
            report.pages_skipped_active += 1;
            return;
        }
        let frame = leaf.pte.frame();
        if self.tree_index.contains_key(&frame) {
            return; // This frame already backs a tree page elsewhere.
        }
        // Accounting guard, as in KSM: sole mapping (+ cache ref for file).
        let (tag, cache_key) = Self::vma_info(m, pid, va);
        let max_refs = if cache_key.is_some() { 2 } else { 1 };
        if m.mem().info(frame).refcount > max_refs {
            return;
        }
        // Single content tree: match ⇒ real merge, no match ⇒ fake merge.
        // The hash filter only skips the descent when no tree page can be
        // content-equal; a positive is confirmed by the authoritative find.
        let mem = m.mem();
        let found = if self.tree_hashes.may_contain(mem, frame) {
            self.tree.find(frame, |a, b| mem.compare_pages(a, b))
        } else {
            None
        };
        match found {
            Some(node) => {
                m.trace_begin("vusion", SpanKind::Merge);
                let shared = self.tree.frame(node);
                m.mem_mut().info_mut(shared).get();
                if m.crash_now(CrashSite::MidMerge)
                    || m.set_leaf(pid, va, Pte::new(shared, self.trapped_flags()))
                        .is_err()
                {
                    // The mapping vanished under us — or the scanner died
                    // mid-merge: undo and retry later.
                    m.mem_mut().info_mut(shared).put();
                    m.note_scan_retry();
                    m.trace_end(SpanKind::Merge);
                    return;
                }
                self.tree.value_mut(node).push((pid, va));
                self.page_state.insert((pid.0, va.page()), node);
                self.release_candidate(m, pid, va, frame);
                let costs = m.costs();
                m.scan_cost(costs.pte_update + costs.buddy_interaction);
                m.trace_end(SpanKind::Merge);
                m.surface_transition(SurfaceTransition::Merge);
                self.tags.record(tag);
                self.saved += 1;
                self.stats.merged += 1;
                report.pages_merged += 1;
            }
            None => {
                if self.defer_zero {
                    // Rung 3 active: a fake merge would draw a pool frame
                    // under critical pressure. Leave the page unmanaged —
                    // it is revisited once the band drops.
                    return;
                }
                m.trace_begin("vusion", SpanKind::FakeMerge);
                // Fake merge: fresh random backing frame, same trap.
                let Ok(new) = self.ra_alloc(m, PageType::Fused) else {
                    // Pool exhausted even after the emergency drain: the
                    // page stays unmanaged and is retried next round.
                    m.note_scan_retry();
                    m.trace_end(SpanKind::FakeMerge);
                    return;
                };
                m.mem_mut().copy_page(frame, new);
                if m.crash_now(CrashSite::MidMerge)
                    || m.set_leaf(pid, va, Pte::new(new, self.trapped_flags()))
                        .is_err()
                {
                    if m.mem_mut().info_mut(new).put() {
                        self.ra_release(m, new);
                    }
                    m.note_scan_retry();
                    m.trace_end(SpanKind::FakeMerge);
                    return;
                }
                let mem = m.mem();
                let (node, inserted) = self
                    .tree
                    .insert(new, vec![(pid, va)], |a, b| mem.compare_pages(a, b));
                debug_assert!(inserted, "tree had no match a moment ago");
                self.tree_index.insert(new, node);
                self.tree_hashes.insert(m.mem(), new);
                self.page_state.insert((pid.0, va.page()), node);
                self.release_candidate(m, pid, va, frame);
                let costs = m.costs();
                m.scan_cost(costs.copy_page + costs.pte_update + costs.buddy_interaction);
                m.trace_end(SpanKind::FakeMerge);
                m.surface_transition(SurfaceTransition::FakeMerge);
                self.stats.fake_merged += 1;
                report.pages_fake_merged += 1;
            }
        }
    }

    /// Removes one mapping from a node; shared bookkeeping of the CoA path
    /// and khugepaged-driven unmerges. Returns the node's frame and whether
    /// it died (last mapping gone).
    fn detach_mapping(
        &mut self,
        m: &mut Machine,
        pid: Pid,
        va: VirtAddr,
        node: NodeId,
    ) -> (FrameId, bool) {
        let shared = self.tree.frame(node);
        let mappings = self.tree.value_mut(node);
        let before = mappings.len();
        mappings.retain(|&(p, v)| !(p == pid && v.page() == va.page()));
        debug_assert_eq!(mappings.len() + 1, before, "mapping must be tracked");
        if before > 1 {
            self.saved -= 1;
        }
        let died = m.mem_mut().info_mut(shared).put();
        if self.cfg.ablate_deferred_free {
            // ABLATION: the insecure variant frees synchronously; the
            // caller charges the allocator interaction only on the dying
            // (fake-merged) path — exactly the channel decision (ii)
            // closes.
            if died {
                self.tree.remove(node);
                self.tree_index.remove(&shared);
                self.tree_hashes.remove(shared);
                self.ra_release(m, shared);
            }
        } else if died {
            // Last user: the frame itself dies — but through the deferred
            // queue, so the fault path cost is identical (decision ii).
            self.tree.remove(node);
            self.tree_index.remove(&shared);
            self.tree_hashes.remove(shared);
            self.deferred.push_free(shared);
        } else {
            self.deferred.push_dummy();
        }
        (shared, died)
    }

    /// Copy-on-access: the single code path every trapped page takes.
    ///
    /// Failure (pool exhaustion, a vanished VMA) leaves the page merged
    /// and unhandled; the faulting access retries, indistinguishably from
    /// a slow success — the Same Behavior principle extended to errors.
    fn copy_on_access(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        let Some(&node) = self.page_state.get(&(fault.pid.0, fault.va.page())) else {
            return false;
        };
        // The page is ours: from here on the work is a CoA attempt (span
        // opened only now, so foreign trapped faults never pollute it).
        m.trace_begin("vusion", SpanKind::CoaCopy);
        let handled = self.copy_on_access_owned(m, fault, node);
        m.trace_end(SpanKind::CoaCopy);
        handled
    }

    /// The CoA copy proper, once ownership is established.
    fn copy_on_access_owned(&mut self, m: &mut Machine, fault: &PageFault, node: NodeId) -> bool {
        let shared = self.tree.frame(node);
        let Some(vma) = m.process(fault.pid).space.find_vma(fault.va).copied() else {
            return false;
        };
        // RA on unmerge too (§7.1): the private copy is a random frame.
        let Ok(new) = self.ra_alloc(m, PageType::Anon) else {
            return false;
        };
        if m.crash_now(CrashSite::MidUnmerge) {
            // Died after drawing the private copy: recovery returns it to
            // the pool; the page stays merged and the access retries.
            if m.mem_mut().info_mut(new).put() {
                self.ra_release(m, new);
            }
            return false;
        }
        m.mem_mut().copy_page(shared, new);
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
            if m.mem_mut().info_mut(new).put() {
                self.ra_release(m, new);
            }
            return false;
        }
        self.page_state.remove(&(fault.pid.0, fault.va.page()));
        let (_, died) = self.detach_mapping(m, fault.pid, fault.va, node);
        let costs = m.costs();
        if self.cfg.ablate_deferred_free {
            // ABLATION: asymmetric cost — dying (fake-merged) pages pay the
            // allocator; surviving shared pages do not.
            m.charge(
                costs.copy_page + costs.pte_update + if died { costs.buddy_interaction } else { 0 },
            );
        } else {
            // Identical charge on both the merged and fake-merged paths.
            m.charge(costs.copy_page + costs.pte_update + costs.deferred_queue_push);
        }
        m.surface_transition(SurfaceTransition::Unmerge);
        self.stats.coa_unmerges += 1;
        true
    }

    /// Scanner-side unmerge (no fault, no charge) for khugepaged (§8.2).
    /// Returns `false` (changing nothing) if no private copy could be made.
    fn unmerge_quiet(&mut self, m: &mut Machine, pid: Pid, va: VirtAddr, node: NodeId) -> bool {
        let shared = self.tree.frame(node);
        let Ok(new) = self.ra_alloc(m, PageType::Anon) else {
            return false;
        };
        m.mem_mut().copy_page(shared, new);
        let writable = m
            .process(pid)
            .space
            .find_vma(va)
            .map(|v| v.prot.write)
            .unwrap_or(false);
        let mut flags = PteFlags::PRESENT | PteFlags::USER;
        if writable {
            flags |= PteFlags::WRITABLE;
        }
        if m.set_leaf(pid, va.page_base(), Pte::new(new, flags))
            .is_err()
        {
            if m.mem_mut().info_mut(new).put() {
                self.ra_release(m, new);
            }
            return false;
        }
        self.page_state.remove(&(pid.0, va.page()));
        let _ = self.detach_mapping(m, pid, va, node);
        m.surface_transition(SurfaceTransition::Unmerge);
        self.stats.collapse_unmerges += 1;
        true
    }

    /// Decision iii: re-randomize the backing frame of every tree page so
    /// a cross-scan page-coloring attack on the fault handler sees a fresh
    /// color each round.
    fn rerandomize_round(&mut self, m: &mut Machine) {
        m.trace_begin("vusion", SpanKind::Rerandomize);
        for node in self.tree.ids() {
            if m.crash_now(CrashSite::MidRerandomization) {
                // Died between nodes: pages re-randomized so far keep
                // their new frames, the rest keep their old ones — every
                // intermediate state is a valid tree.
                m.note_scan_retry();
                continue;
            }
            let old = self.tree.frame(node);
            let mappings = self.tree.value(node).clone();
            let Ok(new) = self.ra_alloc(m, PageType::Fused) else {
                // Pool exhausted: keep the old backing frame this round
                // (weaker randomization, never a crash) and retry later.
                m.note_scan_retry();
                continue;
            };
            m.mem_mut().copy_page(old, new);
            // Transfer one reference per mapping.
            for _ in 1..mappings.len() {
                m.mem_mut().info_mut(new).get();
            }
            let mut moved: Vec<(Pid, VirtAddr)> = Vec::new();
            let mut all_moved = true;
            for &(pid, va) in &mappings {
                let repointed = match m.leaf(pid, va) {
                    Some(leaf) => m.set_leaf(pid, va, leaf.pte.with_frame(new)).is_ok(),
                    None => false,
                };
                if repointed {
                    moved.push((pid, va));
                } else {
                    all_moved = false;
                    break;
                }
            }
            if !all_moved {
                // A mapping vanished mid-transfer: point everything back at
                // the old frame and give the new one back.
                for &(pid, va) in &moved {
                    if let Some(leaf) = m.leaf(pid, va) {
                        let _ = m.set_leaf(pid, va, leaf.pte.with_frame(old));
                    }
                }
                for _ in 1..mappings.len() {
                    let _ = m.mem_mut().info_mut(new).put();
                }
                if m.mem_mut().info_mut(new).put() {
                    self.ra_release(m, new);
                }
                m.note_scan_retry();
                continue;
            }
            for _ in 0..mappings.len() {
                m.mem_mut().info_mut(old).put();
            }
            self.tree.set_frame(node, new);
            self.tree_index.remove(&old);
            self.tree_index.insert(new, node);
            // `copy_page` seeded the new frame's hash cache from the old
            // frame's, so this re-index is a cache hit, not a re-hash.
            self.tree_hashes.replace_frame(m.mem(), old, new);
            self.ra_release(m, old);
            let costs = m.costs();
            m.scan_cost(costs.copy_page + costs.pte_update);
            self.stats.rerandomized += 1;
        }
        m.trace_end(SpanKind::Rerandomize);
    }

    /// Snapshot of the mergeable page list.
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
}

impl vusion_snapshot::Snapshot for VUsion {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cfg.pages_per_scan);
        w.u64(self.cfg.scan_period_ns);
        w.usize(self.cfg.pool_frames);
        w.bool(self.cfg.thp_enhancements);
        w.usize(self.cfg.deferred_drain_per_wake);
        w.usize(self.cfg.ra_trace_cap);
        w.bool(self.cfg.ablate_pcd);
        w.bool(self.cfg.ablate_deferred_free);
        w.bool(self.cfg.ablate_rerandomize);
        self.tree.save_with(w, |mappings, w| {
            w.usize(mappings.len());
            for &(pid, va) in mappings {
                w.usize(pid.0);
                w.u64(va.0);
            }
        });
        self.tree_hashes.save(w);
        self.candidates.save(w);
        let mut pages: Vec<((usize, u64), usize)> =
            self.page_state.iter().map(|(&k, &v)| (k, v.0)).collect();
        pages.sort_unstable();
        w.usize(pages.len());
        for ((pid, page), node) in pages {
            w.usize(pid);
            w.u64(page);
            w.usize(node);
        }
        self.pool.save(w);
        self.deferred.save(w);
        w.u64(self.cursor);
        w.u64(self.saved);
        w.u64s(&self.ra_trace);
        self.tags.save(w);
        w.u64(self.stats.merged);
        w.u64(self.stats.fake_merged);
        w.u64(self.stats.coa_unmerges);
        w.u64(self.stats.skipped_active);
        w.u64(self.stats.huge_broken);
        w.u64(self.stats.huge_conserved);
        w.u64(self.stats.rerandomized);
        w.u64(self.stats.collapse_unmerges);
        w.u64(self.stats.full_rounds);
        w.bool(self.defer_zero);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        self.cfg.pages_per_scan = r.usize()?;
        self.cfg.scan_period_ns = r.u64()?;
        self.cfg.pool_frames = r.usize()?;
        self.cfg.thp_enhancements = r.bool()?;
        self.cfg.deferred_drain_per_wake = r.usize()?;
        self.cfg.ra_trace_cap = r.usize()?;
        self.cfg.ablate_pcd = r.bool()?;
        self.cfg.ablate_deferred_free = r.bool()?;
        self.cfg.ablate_rerandomize = r.bool()?;
        self.tree = ContentRbTree::load_with(r, |r| {
            let count = r.usize()?;
            let mut mappings = Vec::with_capacity(count);
            for _ in 0..count {
                mappings.push((Pid(r.usize()?), VirtAddr(r.u64()?)));
            }
            Ok(mappings)
        })?;
        // Slot-exact tree restore keeps NodeIds valid, so both reverse
        // maps can be rebuilt (tree_index) or reloaded (page_state).
        self.tree_index = self
            .tree
            .ids()
            .into_iter()
            .map(|id| (self.tree.frame(id), id))
            .collect();
        self.tree_hashes = HashIndex::load(r)?;
        self.candidates = CandidateCache::load(r)?;
        let pages = r.usize()?;
        self.page_state = BTreeMap::new();
        for _ in 0..pages {
            let key = (r.usize()?, r.u64()?);
            self.page_state.insert(key, NodeId(r.usize()?));
        }
        self.pool.load(r)?;
        self.deferred.load(r)?;
        self.cursor = r.u64()?;
        self.saved = r.u64()?;
        self.ra_trace = r.u64s()?;
        self.tags = TagCounts::load(r)?;
        self.stats = VUsionStats {
            merged: r.u64()?,
            fake_merged: r.u64()?,
            coa_unmerges: r.u64()?,
            skipped_active: r.u64()?,
            huge_broken: r.u64()?,
            huge_conserved: r.u64()?,
            rerandomized: r.u64()?,
            collapse_unmerges: r.u64()?,
            full_rounds: r.u64()?,
        };
        self.defer_zero = r.bool()?;
        Ok(())
    }
}

impl vusion_snapshot::EngineState for VUsion {
    fn engine_tag(&self) -> &'static str {
        "vusion"
    }
}

impl FusionPolicy for VUsion {
    fn name(&self) -> &'static str {
        "vusion"
    }

    fn scan(&mut self, m: &mut Machine) -> ScanReport {
        let mut report = ScanReport::default();
        // Background half of deferred free (decision ii).
        let drain = self.cfg.deferred_drain_per_wake;
        let mut dead = Vec::new();
        self.deferred.drain(drain, |f| dead.push(f));
        if !dead.is_empty() {
            m.trace_begin("vusion", SpanKind::DeferredDrain);
            let costs = m.costs();
            for f in dead {
                self.ra_release(m, f);
                m.scan_cost(costs.buddy_interaction);
            }
            m.trace_end(SpanKind::DeferredDrain);
        }
        // Re-sync hash-filter entries whose frames changed between scans
        // (Rowhammer flips — trapped tree pages see no guest writes).
        self.tree_hashes.refresh(m.mem());
        let (pages, _) = self.candidates.take(m, Self::mergeable_pages);
        if pages.is_empty() {
            self.candidates.put_back(pages);
            return report;
        }
        // Pre-hash this wakeup's visit window, so the decide phase below
        // hits the hash memo-cache on every page. Huge and trapped
        // mappings are left out — they are broken or skipped before any
        // hash is taken.
        // Steady-state fast-out: when every candidate is already under
        // management (fake- or real-merged, trapped), the window below
        // would collect nothing — skip its per-page lookups.
        let limit = match self.budget {
            Some(b) => b as usize,
            None => self.cfg.pages_per_scan,
        };
        let all_managed = self.page_state.len() >= pages.len();
        let window = if all_managed {
            0
        } else {
            limit.min(pages.len())
        };
        let mut visit_frames = Vec::with_capacity(window);
        for i in 0..window {
            let idx = ((self.cursor + i as u64) % pages.len() as u64) as usize;
            let (pid, va) = pages[idx];
            if self.page_state.contains_key(&(pid.0, va.page())) {
                continue; // Already under management.
            }
            if let Some(leaf) = m.leaf(pid, va) {
                if !leaf.huge && leaf.pte.is_present() && !leaf.pte.is_trapped() {
                    visit_frames.push(leaf.pte.frame());
                }
            }
        }
        scan_cache::prehash_frames(m, &visit_frames);
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
                // Rung 3 defers the round's rerandomization too: it draws
                // one pool frame per tree page.
                if !self.cfg.ablate_rerandomize && !self.defer_zero {
                    self.rerandomize_round(m);
                }
                self.stats.full_rounds += 1;
            }
        }
        self.candidates.put_back(pages);
        report
    }

    fn handle_fault(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        match fault.reason {
            vusion_kernel::FaultReason::Trapped => self.copy_on_access(m, fault),
            _ => false,
        }
    }

    fn prepare_collapse(&mut self, m: &mut Machine, pid: Pid, huge_base: VirtAddr) -> bool {
        if !self.cfg.thp_enhancements {
            // The plain §7 implementation must not let khugepaged collapse
            // managed pages; without the §8 machinery, veto anything
            // containing them.
            for i in 0..HUGE_PAGE_FRAMES {
                let va = VirtAddr(huge_base.0 + i * PAGE_SIZE);
                if self.page_state.contains_key(&(pid.0, va.page())) {
                    return false;
                }
            }
            return true;
        }
        // §8.2: fake-unmerge every managed sub-page, then allow. If any
        // sub-page cannot be privatized (pool exhausted), veto the collapse
        // — khugepaged retries the range later.
        for i in 0..HUGE_PAGE_FRAMES {
            let va = VirtAddr(huge_base.0 + i * PAGE_SIZE);
            if let Some(&node) = self.page_state.get(&(pid.0, va.page())) {
                if !self.unmerge_quiet(m, pid, va, node) {
                    return false;
                }
            }
        }
        true
    }

    fn pages_saved(&self) -> u64 {
        self.saved
    }

    fn scan_period_ns(&self) -> u64 {
        self.cfg.scan_period_ns
    }

    fn set_scan_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    fn pressure_drain(&mut self, m: &mut Machine) -> u64 {
        let mut dead = Vec::new();
        let n = self.deferred.drain(usize::MAX, |f| dead.push(f));
        for f in dead {
            self.ra_release(m, f);
        }
        if n > 0 {
            m.note_deferred_drain();
        }
        n as u64
    }

    fn pressure_shrink(&mut self, _m: &mut Machine) -> u64 {
        self.candidates.shed()
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

    fn system(cfg: VUsionConfig) -> (System<VUsion>, Pid, Pid) {
        let mut m = Machine::new(MachineConfig::test_small());
        let a = m.spawn("attacker").expect("spawn");
        let v = m.spawn("victim").expect("spawn");
        for pid in [a, v] {
            m.mmap(pid, Vma::anon(VirtAddr(BASE), 64, Protection::rw()));
            m.madvise_mergeable(pid, VirtAddr(BASE), 64);
        }
        let policy = VUsion::new(&mut m, cfg);
        (System::new(m, policy), a, v)
    }

    fn small_cfg() -> VUsionConfig {
        VUsionConfig {
            pool_frames: 256,
            ..Default::default()
        }
    }

    fn page(fill: u8) -> [u8; PAGE_SIZE as usize] {
        let mut p = [0u8; PAGE_SIZE as usize];
        for (i, b) in p.iter_mut().enumerate() {
            *b = fill ^ (i % 17) as u8;
        }
        p
    }

    /// Scans enough rounds for idle detection + fusion.
    fn settle(s: &mut System<VUsion>) {
        s.force_scans(12);
    }

    #[test]
    fn duplicates_really_merge() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(1));
        s.write_page(v, VirtAddr(BASE), &page(1));
        settle(&mut s);
        assert_eq!(s.policy.pages_saved(), 1);
        let fa = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let fv = s.machine.leaf(v, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_eq!(fa, fv, "duplicates share one frame");
    }

    #[test]
    fn merged_frame_is_nobodys_original() {
        // RA: unlike KSM, the shared frame must be a fresh random frame,
        // not either party's.
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(2));
        s.write_page(v, VirtAddr(BASE), &page(2));
        let fa = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let fv = s.machine.leaf(v, VirtAddr(BASE)).expect("leaf").pte.frame();
        settle(&mut s);
        let shared = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_ne!(shared, fa, "attacker's frame must not back the fused page");
        assert_ne!(shared, fv, "victim's frame must not back the fused page");
    }

    #[test]
    fn all_considered_pages_are_trapped_identically() {
        // SB: merged and fake-merged pages have byte-identical PTE flags.
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(3)); // Will merge (dup below).
        s.write_page(v, VirtAddr(BASE), &page(3));
        s.write_page(a, VirtAddr(BASE + PAGE_SIZE), &page(99)); // Unique: fake merge.
        settle(&mut s);
        let merged = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte;
        let fake = s
            .machine
            .leaf(a, VirtAddr(BASE + PAGE_SIZE))
            .expect("leaf")
            .pte;
        assert_eq!(merged.flags(), fake.flags(), "SB: identical PTE flags");
        assert!(merged.is_trapped() && merged.has(PteFlags::NO_CACHE));
        assert!(s.policy.stats().fake_merged >= 1);
        assert!(s.policy.stats().merged >= 1);
    }

    #[test]
    fn read_takes_copy_on_access_and_preserves_content() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(4));
        s.write_page(v, VirtAddr(BASE), &page(4));
        settle(&mut s);
        assert!(s.policy.is_managed(a, VirtAddr(BASE)));
        // A *read* unmerges (S⊕F), content intact.
        assert_eq!(s.read(a, VirtAddr(BASE + 7)), page(4)[7]);
        assert!(!s.policy.is_managed(a, VirtAddr(BASE)));
        assert_eq!(s.policy.stats().coa_unmerges, 1);
        // Victim's copy still trapped and intact.
        assert_eq!(s.read_page(v, VirtAddr(BASE)), page(4));
    }

    #[test]
    fn write_after_fusion_preserves_isolation() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(5));
        s.write_page(v, VirtAddr(BASE), &page(5));
        settle(&mut s);
        s.write(v, VirtAddr(BASE), 0xEE);
        assert_eq!(s.read(v, VirtAddr(BASE)), 0xEE);
        assert_eq!(s.read(a, VirtAddr(BASE)), page(5)[0], "attacker unaffected");
    }

    #[test]
    fn active_pages_are_not_considered() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(6));
        s.write_page(v, VirtAddr(BASE), &page(6));
        // Keep both pages hot: touch them between scans.
        for _ in 0..10 {
            s.read(a, VirtAddr(BASE));
            s.read(v, VirtAddr(BASE));
            s.force_scans(1);
        }
        assert_eq!(
            s.policy.stats().merged,
            0,
            "working-set pages stay untouched"
        );
        assert!(s.policy.stats().skipped_active > 0);
        assert!(!s
            .machine
            .leaf(a, VirtAddr(BASE))
            .expect("leaf")
            .pte
            .is_trapped());
    }

    #[test]
    fn unique_pages_get_fake_merged_and_new_random_frame() {
        let (mut s, a, _v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(7));
        let before = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        settle(&mut s);
        let after = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_ne!(before, after, "fake merge re-backs the page");
        assert!(s
            .machine
            .leaf(a, VirtAddr(BASE))
            .expect("leaf")
            .pte
            .is_trapped());
        // And the content survives the round trip.
        assert_eq!(s.read_page(a, VirtAddr(BASE)), page(7));
    }

    #[test]
    fn backing_frames_rerandomize_each_round() {
        let (mut s, a, _v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(8));
        settle(&mut s);
        let f1 = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        // Drive full rounds without touching the page.
        let rounds_before = s.policy.stats().full_rounds;
        s.force_scans(30);
        assert!(s.policy.stats().full_rounds > rounds_before);
        let f2 = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_ne!(f1, f2, "decision iii: new backing frame each round");
        assert!(s.policy.stats().rerandomized > 0);
        assert_eq!(s.read_page(a, VirtAddr(BASE)), page(8), "content preserved");
    }

    #[test]
    fn deferred_queue_carries_frees_and_dummies() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(9));
        s.write_page(v, VirtAddr(BASE), &page(9));
        s.write_page(a, VirtAddr(BASE + PAGE_SIZE), &page(42));
        settle(&mut s);
        // CoA on a merged page (dummy) and on a fake-merged page (free).
        s.read(a, VirtAddr(BASE));
        s.read(a, VirtAddr(BASE + PAGE_SIZE));
        s.force_scans(2); // Drains the queue.
        assert!(
            s.policy.deferred.processed_dummies() >= 1,
            "merged CoA queues a dummy"
        );
        assert!(
            s.policy.deferred.processed_frees() >= 1,
            "fake-merged CoA queues a free"
        );
    }

    #[test]
    fn frames_are_conserved_through_full_lifecycle() {
        let (mut s, a, v) = system(small_cfg());
        for i in 0..8u64 {
            s.write_page(a, VirtAddr(BASE + i * PAGE_SIZE), &page(10));
            s.write_page(v, VirtAddr(BASE + i * PAGE_SIZE), &page(10));
        }
        settle(&mut s);
        assert_eq!(s.policy.pages_saved(), 15, "16 duplicates → 1 frame");
        // Unmerge everything by touching it.
        for i in 0..8u64 {
            s.read(a, VirtAddr(BASE + i * PAGE_SIZE));
            s.read(v, VirtAddr(BASE + i * PAGE_SIZE));
        }
        assert_eq!(s.policy.pages_saved(), 0);
        // Contents intact everywhere.
        for i in 0..8u64 {
            assert_eq!(s.read_page(a, VirtAddr(BASE + i * PAGE_SIZE)), page(10));
            assert_eq!(s.read_page(v, VirtAddr(BASE + i * PAGE_SIZE)), page(10));
        }
    }

    #[test]
    fn ra_trace_collects_allocations() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(11));
        s.write_page(v, VirtAddr(BASE), &page(11));
        settle(&mut s);
        s.read(a, VirtAddr(BASE));
        assert!(!s.policy.ra_trace().is_empty());
    }

    #[test]
    fn prepare_collapse_fake_unmerges_in_thp_mode() {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("p").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(BASE), 64, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(BASE), 64);
        let policy = VUsion::new(
            &mut m,
            VUsionConfig {
                pool_frames: 128,
                thp_enhancements: true,
                ..Default::default()
            },
        );
        let mut s = System::new(m, policy);
        s.write_page(pid, VirtAddr(BASE), &page(12));
        s.force_scans(12);
        assert!(s.policy.is_managed(pid, VirtAddr(BASE)));
        let ok = s.policy.prepare_collapse(&mut s.machine, pid, VirtAddr(0));
        assert!(ok);
        // Nothing in that range; now the range that actually has the page.
        let hb = VirtAddr(BASE).huge_base();
        assert!(s.policy.prepare_collapse(&mut s.machine, pid, hb));
        assert!(
            !s.policy.is_managed(pid, VirtAddr(BASE)),
            "sub-page fake-unmerged"
        );
        assert!(s.policy.stats().collapse_unmerges >= 1);
    }

    #[test]
    fn plain_mode_vetoes_collapse_of_managed_ranges() {
        let (mut s, a, _v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(13));
        settle(&mut s);
        assert!(s.policy.is_managed(a, VirtAddr(BASE)));
        let hb = VirtAddr(BASE).huge_base();
        assert!(!s.policy.prepare_collapse(&mut s.machine, a, hb));
        assert!(s.policy.is_managed(a, VirtAddr(BASE)), "page stays managed");
    }
}
