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
//! single content tree suffices; like KSM's trees it is a content index
//! (`ContentIndex`), found by hash bucket plus a byte compare. Each full
//! scan round the backing frame of every tree page is re-randomized
//! (decision iii) so even a page-coloring attack on the fault handler
//! learns nothing across scans.
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
    FusionPolicy, Machine, PageFault, Pid, ScanGrant, SpanKind, SurfaceTransition, COSTS,
};
use vusion_mem::{
    CrashSite, DeferredFreeQueue, FrameId, MmError, PageType, RandomPool, VirtAddr,
    HUGE_PAGE_FRAMES, PAGE_SIZE,
};
use vusion_mmu::{Pte, PteFlags};

use crate::content_index::{ContentIndex, NodeId};
use crate::mapping;
use crate::scan_cache::{self, CandidateCache};
use crate::{TagCounts, PAGES_PER_SCAN, SCAN_PERIOD_NS};

/// VUsion tuning knobs. VUsion scans [`PAGES_PER_SCAN`] pages every
/// [`SCAN_PERIOD_NS`], matching KSM.
#[derive(Debug, Clone, Copy)]
pub struct VUsionConfig {
    /// Random-pool size in frames. The paper reserves 128 MiB = 2¹⁵
    /// frames; scaled experiments use smaller pools (entropy =
    /// log2(pool_frames) bits).
    pub pool_frames: usize,
    /// §8 THP enhancements: break only idle huge pages and cooperate with
    /// the secured khugepaged ("VUsion THP" in the evaluation).
    pub thp_enhancements: bool,
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
            pool_frames: 4096,
            thp_enhancements: false,
            ablate_pcd: false,
            ablate_deferred_free: false,
            ablate_rerandomize: false,
        }
    }
}

impl VUsionConfig {
    /// Enables the §8 THP enhancements.
    pub fn with_thp(mut self) -> Self {
        self.thp_enhancements = true;
        self
    }
}

/// Deferred-free operations processed per scanner wakeup.
const DEFERRED_DRAIN_PER_WAKE: usize = 512;

/// Maximum RA trace length retained for the §9.1 uniformity test.
const RA_TRACE_CAP: usize = 1 << 16;

/// VUsion counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VUsionStats {
    /// Copy-on-access unmerges (reads and writes alike).
    pub coa_unmerges: u64,
    /// Pages skipped because they were in the working set.
    pub skipped_active: u64,
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
    tree: ContentIndex<Vec<(Pid, VirtAddr)>>,
    /// Cached mergeable-page list, invalidated by the layout epoch.
    candidates: CandidateCache,
    /// Reverse map: trapped page → node.
    page_state: BTreeMap<(usize, u64), NodeId>,
    pool: RandomPool,
    deferred: DeferredFreeQueue,
    cursor: u64,
    saved: u64,
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
            tree: ContentIndex::default(),
            candidates: CandidateCache::default(),
            page_state: BTreeMap::new(),
            pool,
            deferred: DeferredFreeQueue::new(),
            cursor: 0,
            saved: 0,
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

    /// Whether a page is currently under fusion management (trapped).
    pub fn is_managed(&self, pid: Pid, va: VirtAddr) -> bool {
        self.page_state.contains_key(&(pid.0, va.page()))
    }

    fn trace_alloc(&mut self, frame: FrameId) {
        if self.ra_trace.len() < RA_TRACE_CAP {
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

    /// Releases a candidate's old frame to the pool (refcount must reach 0):
    /// the page-cache reference first, if the frame is the cached copy.
    fn release_candidate(&mut self, m: &mut Machine, pid: Pid, va: VirtAddr, frame: FrameId) {
        if mapping::evict_cached_copy(m, pid, va, frame) {
            m.mem_mut().info_mut(frame).put();
        }
        if m.mem_mut().info_mut(frame).put() {
            self.ra_release(m, frame);
        }
    }

    /// One page through the S⊕F pipeline. `defer_alloc` is the wake's
    /// rung-3 flag.
    fn scan_one(&mut self, m: &mut Machine, pid: Pid, va: VirtAddr, defer_alloc: bool) {
        m.scan_counts_mut().pages_scanned += 1;
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
                    m.scan_counts_mut().pages_skipped_active += 1;
                    return;
                }
            }
            if m.break_thp(pid, va).is_err() {
                // Could not split (PT allocation failed): retry later.
                m.note_scan_retry();
                return;
            }
            m.scan_counts_mut().huge_pages_broken += 1;
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
            m.scan_counts_mut().pages_skipped_active += 1;
            return;
        }
        let frame = leaf.pte.frame();
        if self.tree.contains_frame(frame) {
            return; // This frame already backs a tree page elsewhere.
        }
        // Accounting guard, as in KSM: sole mapping (+ cache ref for file).
        let (tag, cache_key) = mapping::vma_info(m, pid, va);
        let max_refs = if cache_key.is_some() { 2 } else { 1 };
        if m.mem().info(frame).refcount > max_refs {
            return;
        }
        if defer_alloc {
            // Rung 3: a fake merge would draw a pool frame under critical
            // pressure, so the whole merge decision waits for the band to
            // drop. It waits *before* the tree lookup: every check above
            // ignores content, so a page that matches a tree page and one
            // that does not both stay unmanaged (Same Behavior, §7.1).
            return;
        }
        // Single content tree: match ⇒ real merge, no match ⇒ fake merge.
        // The search byte-compares the page's hash bucket, so a hash
        // collision never matches.
        match self.tree.find(m.mem(), frame) {
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
                m.scan_cost(COSTS.pte_update + COSTS.buddy_interaction);
                m.trace_end(SpanKind::Merge);
                m.surface_transition(SurfaceTransition::Merge);
                self.tags.record(tag);
                self.saved += 1;
                m.scan_counts_mut().pages_merged += 1;
            }
            None => {
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
                let (node, inserted) = self.tree.insert(m.mem(), new, vec![(pid, va)]);
                debug_assert!(inserted, "tree had no match a moment ago");
                self.page_state.insert((pid.0, va.page()), node);
                self.release_candidate(m, pid, va, frame);
                m.scan_cost(COSTS.copy_page + COSTS.pte_update + COSTS.buddy_interaction);
                m.trace_end(SpanKind::FakeMerge);
                m.surface_transition(SurfaceTransition::FakeMerge);
                m.scan_counts_mut().pages_fake_merged += 1;
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
        if died {
            self.tree.remove(node);
        }
        if self.cfg.ablate_deferred_free {
            // ABLATION: the insecure variant frees synchronously; the
            // caller charges the allocator interaction only on the dying
            // (fake-merged) path — exactly the channel decision (ii)
            // closes.
            if died {
                self.ra_release(m, shared);
            }
        } else if died {
            // Last user: the frame itself dies — but through the deferred
            // queue, so the fault path cost is identical (decision ii).
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
        if self.cfg.ablate_deferred_free {
            // ABLATION: asymmetric cost — dying (fake-merged) pages pay the
            // allocator; surviving shared pages do not.
            m.charge(
                COSTS.copy_page + COSTS.pte_update + if died { COSTS.buddy_interaction } else { 0 },
            );
        } else {
            // Identical charge on both the merged and fake-merged paths.
            m.charge(COSTS.copy_page + COSTS.pte_update + COSTS.deferred_queue_push);
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
            // `copy_page` seeded the new frame's hash cache from the old
            // frame's, so this re-index is a cache hit, not a re-hash.
            self.tree.set_frame(m.mem(), node, new);
            self.ra_release(m, old);
            m.scan_cost(COSTS.copy_page + COSTS.pte_update);
            self.stats.rerandomized += 1;
        }
        m.trace_end(SpanKind::Rerandomize);
    }
}

impl vusion_snapshot::Snapshot for VUsion {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cfg.pool_frames);
        w.bool(self.cfg.thp_enhancements);
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
        w.u64(self.stats.coa_unmerges);
        w.u64(self.stats.skipped_active);
        w.u64(self.stats.huge_conserved);
        w.u64(self.stats.rerandomized);
        w.u64(self.stats.collapse_unmerges);
        w.u64(self.stats.full_rounds);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        let Self {
            cfg,
            tree,
            candidates,
            page_state,
            pool,
            deferred,
            cursor,
            saved,
            ra_trace,
            tags,
            stats,
        } = self;
        *cfg = VUsionConfig {
            pool_frames: r.usize()?,
            thp_enhancements: r.bool()?,
            ablate_pcd: r.bool()?,
            ablate_deferred_free: r.bool()?,
            ablate_rerandomize: r.bool()?,
        };
        *tree = ContentIndex::load_with(r, |r| {
            // A mapping is a pid and an address: 16 bytes.
            let count = r.len_prefix(16)?;
            let mut mappings = Vec::with_capacity(count);
            for _ in 0..count {
                mappings.push((Pid(r.pid()?), VirtAddr(r.u64()?)));
            }
            Ok(mappings)
        })?;
        *candidates = CandidateCache::load(r)?;
        // Slot-exact index restore keeps NodeIds valid, so the trapped-page
        // map reloads verbatim; each entry must name a live node, or the
        // page's next copy-on-access would dereference a freed slot.
        let pages = r.usize()?;
        page_state.clear();
        for _ in 0..pages {
            let key = (r.pid()?, r.u64()?);
            let node = NodeId(r.usize()?);
            if !tree.contains_node(node) {
                return Err(vusion_snapshot::SnapshotError::Corrupt(
                    "trapped page names a dead tree node",
                ));
            }
            page_state.insert(key, node);
        }
        pool.load(r)?;
        deferred.load(r)?;
        *cursor = r.u64()?;
        *saved = r.u64()?;
        *ra_trace = r.u64s()?;
        *tags = TagCounts::load(r)?;
        *stats = VUsionStats {
            coa_unmerges: r.u64()?,
            skipped_active: r.u64()?,
            huge_conserved: r.u64()?,
            rerandomized: r.u64()?,
            collapse_unmerges: r.u64()?,
            full_rounds: r.u64()?,
        };
        Ok(())
    }
}

impl FusionPolicy for VUsion {
    fn name(&self) -> &'static str {
        "vusion"
    }

    fn scan(&mut self, m: &mut Machine, grant: ScanGrant) -> u64 {
        // Background half of deferred free (decision ii).
        let mut dead = Vec::new();
        self.deferred
            .drain(DEFERRED_DRAIN_PER_WAKE, |f| dead.push(f));
        if !dead.is_empty() {
            m.trace_begin("vusion", SpanKind::DeferredDrain);
            for f in dead {
                self.ra_release(m, f);
                m.scan_cost(COSTS.buddy_interaction);
            }
            m.trace_end(SpanKind::DeferredDrain);
        }
        // Move tree pages that changed between scans to the buckets of
        // their current content (Rowhammer flips — trapped tree pages see
        // no guest writes).
        self.tree.refresh(m.mem());
        let (pages, _) = self.candidates.take(m, /* mergeable_only */ true);
        if pages.is_empty() {
            self.candidates.put_back(pages);
            return 0;
        }
        // Pre-hash this wakeup's visit window, so the decide phase below
        // hits the hash memo-cache on every page. Huge and trapped
        // mappings are left out — they are broken or skipped before any
        // hash is taken.
        // Steady-state fast-out: when every candidate is already under
        // management (fake- or real-merged, trapped), the window below
        // would collect nothing — skip its per-page lookups.
        let limit = match grant.budget {
            Some(b) => b as usize,
            None => PAGES_PER_SCAN,
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
                // Rerandomization keeps running under rung 3, so fused
                // frames keep moving (RA) at every band. It costs no
                // memory: each old frame is released right after its
                // replacement is drawn, so with a full pool a round
                // returns every frame it takes, and with a depleted pool
                // it only refills toward `pool_frames`.
                if !self.cfg.ablate_rerandomize {
                    self.rerandomize_round(m);
                }
                self.stats.full_rounds += 1;
            }
        }
        self.candidates.put_back(pages);
        visited
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
        SCAN_PERIOD_NS
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{assert_restore_refuses, point_past_memory};
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
    fn snapshot_round_trips_every_field() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(3));
        s.write_page(v, VirtAddr(BASE), &page(3));
        s.write_page(a, VirtAddr(BASE + PAGE_SIZE), &page(99));
        settle(&mut s);
        let u = &mut s.policy;
        assert!(u.tree.len() > 0 && !u.page_state.is_empty() && !u.ra_trace.is_empty());
        u.cfg = VUsionConfig {
            pool_frames: 53,
            thp_enhancements: true,
            ablate_pcd: false,
            ablate_deferred_free: true,
            ablate_rerandomize: false,
        };
        u.deferred.push_free(FrameId(7));
        u.deferred.push_dummy();
        u.cursor = 31;
        u.saved = 32;
        u.tags = TagCounts {
            page_cache: 33,
            guest_buddy: 34,
            guest_kernel: 35,
            rest: 36,
        };
        u.stats = VUsionStats {
            coa_unmerges: 43,
            skipped_active: 44,
            huge_conserved: 46,
            rerandomized: 47,
            collapse_unmerges: 48,
            full_rounds: 49,
        };
        let mut m = Machine::new(MachineConfig::test_small());
        let mut dst = VUsion::new(&mut m, VUsionConfig::default());
        let (x, y) = vusion_snapshot::resave(&s.policy, &mut dst).expect("resave");
        assert_eq!(x, y);
        for id in s.policy.tree.ids() {
            assert_eq!(dst.tree.node_of(s.policy.tree.frame(id)), Some(id));
        }
    }

    #[test]
    fn restore_rejects_ids_past_the_machine() {
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(1));
        s.write_page(v, VirtAddr(BASE), &page(1));
        settle(&mut s);
        assert_restore_refuses(
            &mut s,
            |s| point_past_memory(&mut s.policy.tree, &s.machine),
            |s| {
                let (mut pages, _) = s.policy.candidates.take(&s.machine, true);
                pages[0].0 = Pid(s.machine.process_count());
                s.policy.candidates.put_back(pages);
            },
        );
    }

    #[test]
    fn load_rejects_trapped_pages_on_dead_nodes() {
        use vusion_snapshot::{Reader, Snapshot, SnapshotError, Writer};
        let (mut s, a, v) = system(small_cfg());
        s.write_page(a, VirtAddr(BASE), &page(3));
        s.write_page(v, VirtAddr(BASE), &page(3));
        s.write_page(a, VirtAddr(BASE + PAGE_SIZE), &page(99));
        settle(&mut s);
        // Copy-on-access of the fake-merged page frees its node's slot.
        let unique = (a.0, VirtAddr(BASE + PAGE_SIZE).page());
        let freed = s.policy.page_state[&unique];
        s.read(a, VirtAddr(BASE + PAGE_SIZE));
        assert!(!s.policy.tree.contains_node(freed));
        let mut m = Machine::new(MachineConfig::test_small());
        let mut dst = VUsion::new(&mut m, VUsionConfig::default());
        let load = |src: &VUsion, dst: &mut VUsion| {
            let mut w = Writer::new();
            src.save(&mut w);
            dst.load(&mut Reader::new(&w.into_bytes()))
        };
        load(&s.policy, &mut dst).expect("a real image loads");
        for dead in [freed, NodeId(999)] {
            s.policy.page_state.insert(unique, dead);
            assert!(
                matches!(load(&s.policy, &mut dst), Err(SnapshotError::Corrupt(_))),
                "a trapped page on {dead:?} must be rejected"
            );
        }
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
        let counts = s.machine.stats().scan;
        assert!(counts.pages_fake_merged >= 1);
        assert!(counts.pages_merged >= 1);
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
            s.machine.stats().scan.pages_merged,
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
