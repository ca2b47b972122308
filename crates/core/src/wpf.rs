//! Windows Page Fusion, as reverse-engineered in §2.2 of the paper.
//!
//! WPF has no opt-in: every 15 minutes it scans *all* anonymous memory,
//! computes a hash of every candidate page, sorts the candidates by hash,
//! and merges duplicates. Unlike KSM it backs fused pages with **new**
//! physical pages obtained from `MiAllocatePagesForMdl`, a linear
//! allocator that reserves mostly-contiguous frames from the end of
//! physical memory (holes where frames are in use).
//!
//! Two properties matter for the paper's §5.2 attack:
//!
//! * the *order* in which backing frames are assigned follows the sorted
//!   hash order, so an attacker who controls page contents controls the
//!   physical adjacency of fused pages (enabling double-sided Rowhammer
//!   without huge pages), and
//! * frames released by copy-on-write unmerges go back to the linear
//!   allocator, which re-reserves from the end of memory on the next pass —
//!   near-perfect reuse (Figure 3), hence reuse-based Flip Feng Shui.

use std::collections::BTreeMap;

use vusion_kernel::{
    FusionPolicy, Machine, PageFault, Pid, ScanReport, SpanKind, SurfaceTransition,
};
use vusion_mem::{
    CrashSite, FrameAllocator, FrameId, LinearAllocator, MmError, PageType, VirtAddr, PAGE_SIZE,
};
use vusion_mmu::{GuestTag, Pte, PteFlags, VmaBacking};

use crate::avl::ContentAvlTree;
use crate::scan_cache::{self, CandidateCache, DirtyTracker, HashIndex};
use crate::TagCounts;

/// WPF tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct WpfConfig {
    /// Full-pass period in ns. Windows uses 15 minutes; scaled experiments
    /// configure seconds.
    pub pass_period_ns: u64,
}

impl Default for WpfConfig {
    fn default() -> Self {
        Self {
            pass_period_ns: 900_000_000_000,
        }
    }
}

/// WPF counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WpfStats {
    /// Pages merged onto AVL-tree pages.
    pub merged: u64,
    /// Copy-on-write unmerges.
    pub unmerged: u64,
    /// New backing frames reserved by the linear allocator.
    pub tree_pages_allocated: u64,
    /// Full passes completed.
    pub passes: u64,
}

/// A suspended fusion pass. WPF's pass is staged (hash everything, then
/// sort/group/merge); when a governor budget runs out mid-hashing the
/// cursor and the rows hashed so far park here and the next wakeup
/// resumes where it stopped. The merge stages run only once every
/// candidate has been hashed, so a suspended pass mutates nothing.
struct PassState {
    /// Index of the next candidate to hash.
    cursor: u64,
    /// Candidate count the pass started with. A mismatch on resume means
    /// the candidate set moved under the suspended pass; the pass
    /// restarts from scratch rather than mixing stale and fresh rows.
    total: u64,
    /// `(hash, pid, va, frame)` rows accumulated so far, in visit order.
    hashed: Vec<(u64, u64, u64, u64)>,
}

/// The WPF engine.
pub struct Wpf {
    cfg: WpfConfig,
    /// The stable AVL tree: fused content → mapping count.
    avl: ContentAvlTree<u32>,
    /// Frames owned by the AVL tree.
    avl_index: BTreeMap<FrameId, ()>,
    /// Content-hash pre-filter over the AVL tree's pages.
    avl_hashes: HashIndex,
    /// Cached page enumeration (every VMA page of every process), rebuilt
    /// only when the layout epoch moves.
    candidates: CandidateCache,
    /// The `MiAllocatePagesForMdl` stand-in.
    linear: LinearAllocator,
    /// Mappings currently pointing at tree frames. Frames saved =
    /// `merged_live - live tree pages`.
    merged_live: u64,
    tags: TagCounts,
    stats: WpfStats,
    /// Backing frames assigned last pass, in assignment order (for the
    /// Figure 3 reuse experiment).
    last_pass_frames: Vec<FrameId>,
    /// Dirty-driven pass list: candidates recorded at the end of a
    /// *completed* pass. When every current candidate is clean and no
    /// tree page changed, the whole pass is a provable no-op.
    dirty: DirtyTracker,
    /// Suspended pass, if the previous wakeup's budget ran out mid-stage.
    pass: Option<PassState>,
    /// Per-wake page budget granted by the pressure governor. Never
    /// serialized: the governor re-grants before every wakeup.
    // vlint: allow(S001, host-only wake-scoped grant — the governor re-issues it before every wakeup)
    budget: Option<u64>,
    /// Reclaim-ladder rung 3: while set, no new tree pages are reserved
    /// from the linear allocator; merges onto existing tree pages (which
    /// free memory) still proceed.
    defer_zero: bool,
}

impl Wpf {
    /// Creates the engine. The machine must have a reserved top region
    /// ([`vusion_kernel::MachineConfig::with_reserved_top`]) for the linear
    /// allocator, or [`MmError::MissingReservedRegion`] is reported.
    pub fn new(m: &Machine, cfg: WpfConfig) -> Result<Self, MmError> {
        let Some((base, frames)) = m.reserved_region() else {
            return Err(MmError::MissingReservedRegion);
        };
        Ok(Self {
            cfg,
            avl: ContentAvlTree::new(),
            avl_index: BTreeMap::new(),
            avl_hashes: HashIndex::default(),
            candidates: CandidateCache::default(),
            linear: LinearAllocator::new(base, frames),
            merged_live: 0,
            tags: TagCounts::default(),
            stats: WpfStats::default(),
            last_pass_frames: Vec::new(),
            dirty: DirtyTracker::default(),
            pass: None,
            budget: None,
            defer_zero: false,
        })
    }

    /// Counters.
    pub fn stats(&self) -> WpfStats {
        self.stats
    }

    /// Table 3 accounting.
    pub fn tag_counts(&self) -> TagCounts {
        self.tags
    }

    /// Backing frames assigned during the most recent pass, in assignment
    /// order (descending physical addresses — Figure 3's tell-tale).
    pub fn last_pass_frames(&self) -> &[FrameId] {
        &self.last_pass_frames
    }

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

    /// Repoints `(pid, va)` at tree frame `tree_frame`, releasing its old
    /// frame to the system. Returns `false` (and changes nothing) if the
    /// mapping vanished under the scan.
    fn merge_onto(
        &mut self,
        m: &mut Machine,
        pid: Pid,
        va: VirtAddr,
        old: FrameId,
        tree_frame: FrameId,
    ) -> bool {
        m.mem_mut().info_mut(tree_frame).get();
        if m.set_leaf(
            pid,
            va,
            Pte::new(tree_frame, PteFlags::PRESENT | PteFlags::USER),
        )
        .is_err()
        {
            m.mem_mut().info_mut(tree_frame).put();
            m.note_scan_retry();
            return false;
        }
        let (tag, _) = Self::vma_info(m, pid, va);
        Self::drop_cache_ref(m, pid, va, old);
        let _ = m.put_frame(old);
        let costs = m.costs();
        m.scan_cost(costs.pte_update + costs.buddy_interaction);
        m.surface_transition(SurfaceTransition::Merge);
        self.tags.record(tag);
        self.merged_live += 1;
        self.stats.merged += 1;
        true
    }

    /// Every VMA page of every process — WPF has no opt-in.
    fn all_pages(m: &Machine) -> Vec<(Pid, VirtAddr)> {
        let mut out = Vec::new();
        for pidx in 0..m.process_count() {
            let pid = Pid(pidx);
            for vma in m.process(pid).space.vmas() {
                for va in vma.page_addrs() {
                    out.push((pid, va));
                }
            }
        }
        out
    }

    /// One full fusion pass (§2.2).
    fn full_pass(&mut self, m: &mut Machine) -> ScanReport {
        let mut report = ScanReport::default();
        self.last_pass_frames.clear();
        // Tree pages can change in place between passes (Rowhammer on a
        // fused page — the §5.2 attack). Note whether any did *before*
        // re-syncing the hash pre-filter: a changed tree page can turn a
        // previously singleton candidate into a merge, so it disqualifies
        // the all-clean fast path below.
        let tree_dirty = !self.avl_hashes.stale_frames(m.mem()).is_empty();
        self.avl_hashes.refresh(m.mem());
        // 1. Enumerate candidate pages of every process (no opt-in),
        // read-only. The page enumeration is cached against the layout
        // epoch; the per-page leaf checks still run every pass.
        let (pages, rebuilt) = self.candidates.take(m, Self::all_pages);
        if rebuilt {
            // (pid, va) keys may be stale after a layout change.
            self.dirty.clear();
        }
        let mut cands: Vec<(Pid, VirtAddr, FrameId)> = Vec::new();
        let mut all_clean = true;
        for &(pid, va) in &pages {
            let Some(leaf) = m.leaf(pid, va) else {
                continue;
            };
            if leaf.huge || !leaf.pte.is_present() || leaf.pte.is_trapped() {
                continue;
            }
            let frame = leaf.pte.frame();
            if self.avl_index.contains_key(&frame) {
                continue; // Already fused.
            }
            let (_, cache_key) = Self::vma_info(m, pid, va);
            let max_refs = if cache_key.is_some() { 2 } else { 1 };
            if m.mem().info(frame).refcount > max_refs {
                continue;
            }
            all_clean = all_clean && self.dirty.is_clean(m.mem(), pid, va, frame);
            cands.push((pid, va, frame));
        }
        self.candidates.put_back(pages);
        if all_clean && !tree_dirty && !cands.is_empty() && self.pass.is_none() {
            // Dirty-driven fast path: every candidate is byte-for-byte the
            // page the previous completed pass declined to merge, and no
            // tree page changed — re-running the sort/group/merge stages
            // would provably reproduce "no merges". A suspended pass
            // disqualifies it: those rows were hashed under older contents.
            report.pages_skipped_clean = cands.len() as u64;
            let _ = m.crash_now(CrashSite::MidScan);
            self.stats.passes += 1;
            return report;
        }
        // Resume the suspended pass, or start a fresh one. A layout-epoch
        // rebuild or a candidate-count drift invalidates the parked rows.
        let mut pass = match self.pass.take() {
            Some(p) if !rebuilt && p.total == cands.len() as u64 => p,
            _ => PassState {
                cursor: 0,
                total: cands.len() as u64,
                hashed: Vec::new(),
            },
        };
        let start = pass.cursor as usize;
        let limit = match self.budget {
            Some(b) => b as usize,
            None => usize::MAX,
        };
        let end = start.saturating_add(limit).min(cands.len());
        // Pre-hash this wakeup's window; the stage below then hits the
        // memo cache on every page.
        let frames: Vec<FrameId> = cands[start..end].iter().map(|&(_, _, f)| f).collect();
        scan_cache::prehash_frames(m, &frames);
        for &(pid, va, frame) in &cands[start..end] {
            report.pages_scanned += 1;
            report.budget_used += 1;
            pass.hashed
                .push((m.mem().hash_page(frame), pid.0 as u64, va.0, frame.0));
            pass.cursor += 1;
        }
        if m.crash_now(CrashSite::MidScan) {
            // The pass dies after the read-only hashing stage: nothing has
            // been mutated yet, nothing is marked seen, and the suspended
            // state is dropped — the next pass redoes the whole decision.
            return report;
        }
        if (pass.cursor as usize) < cands.len() {
            // Budget exhausted mid-stage: park the cursor and yield. The
            // sort/group/merge stages run only on a fully hashed set.
            self.pass = Some(pass);
            return report;
        }
        let mut candidates: Vec<(u64, usize, u64, FrameId)> = pass
            .hashed
            .iter()
            .map(|&(h, p, v, f)| (h, p as usize, v, FrameId(f)))
            .collect(); // (hash, pid, va, frame)
                        // 2. Sort by hash (the order that drives backing-frame adjacency).
        candidates.sort();
        // 3. Walk hash groups, verify content equality, plan merges.
        struct Group {
            members: Vec<(Pid, VirtAddr, FrameId)>,
            existing: Option<FrameId>,
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut i = 0;
        while i < candidates.len() {
            let mut j = i + 1;
            while j < candidates.len() && candidates[j].0 == candidates[i].0 {
                j += 1;
            }
            // Within one hash bucket, split by actual content (collisions).
            let mut bucket: Vec<(Pid, VirtAddr, FrameId)> = candidates[i..j]
                .iter()
                .map(|&(_, p, v, f)| (Pid(p), VirtAddr(v), f))
                .collect();
            while let Some(first) = bucket.first().copied() {
                let mem = m.mem();
                let (same, rest): (Vec<_>, Vec<_>) = bucket
                    .into_iter()
                    .partition(|&(_, _, f)| mem.pages_equal(f, first.2));
                bucket = rest;
                let existing = {
                    let mem = m.mem();
                    if self.avl_hashes.may_contain(mem, first.2) {
                        self.avl
                            .find(first.2, |a, b| mem.compare_pages(a, b))
                            .map(|id| self.avl.frame(id))
                    } else {
                        None
                    }
                };
                if existing.is_some() || same.len() >= 2 {
                    groups.push(Group {
                        members: same,
                        existing,
                    });
                }
            }
            i = j;
        }
        // 4. Batch-reserve new backing frames (the MiAllocatePagesForMdl
        // call with the exact count WPF knows it needs). Under reclaim
        // rung 3 the reservation is deferred entirely: new tree pages
        // would consume frames mid-crisis, so only merges onto existing
        // tree pages (which free memory) proceed this pass.
        let new_groups = if self.defer_zero {
            0
        } else {
            groups.iter().filter(|g| g.existing.is_none()).count()
        };
        let batch = {
            let mem = m.mem();
            self.linear.reserve_batch(new_groups, |f| {
                mem.info(f).state == vusion_mem::FrameState::Allocated
            })
        };
        let mut batch_iter = batch.into_iter();
        // 5. Merge, assigning new frames in hash order. A pass that could
        // not finish its merge plan (crash, linear-region exhaustion) must
        // not mark anything seen: the skipped work has to be retried.
        let mut complete = true;
        for group in groups {
            if m.crash_now(CrashSite::MidMerge) {
                // Died between groups: merges committed so far stand;
                // frames reserved for the remaining groups are returned
                // below.
                complete = false;
                break;
            }
            m.trace_begin("wpf", SpanKind::Merge);
            let is_new = group.existing.is_none();
            let tree_frame = match group.existing {
                Some(f) => f,
                None => {
                    let Some(f) = batch_iter.next() else {
                        m.trace_end(SpanKind::Merge);
                        complete = false;
                        continue; // Linear region exhausted.
                    };
                    let src = group.members[0].2;
                    m.mem_mut().info_mut(f).on_alloc(PageType::Fused);
                    m.mem_mut().copy_page(src, f);
                    let costs = m.costs();
                    m.scan_cost(costs.copy_page);
                    // The first merge consumes the allocation's reference.
                    let mem = m.mem();
                    let (id, inserted) = self.avl.insert(f, 0, |a, b| mem.compare_pages(a, b));
                    debug_assert!(inserted);
                    let _ = id;
                    self.avl_index.insert(f, ());
                    self.avl_hashes.insert(m.mem(), f);
                    self.last_pass_frames.push(f);
                    self.stats.tree_pages_allocated += 1;
                    f
                }
            };
            let mut consumed_initial_ref = !is_new;
            for &(pid, va, old) in group.members.iter() {
                // Re-validate the mapping (it may have CoW'd since hashing).
                let still = m
                    .leaf(pid, va)
                    .map(|l| l.pte.is_present() && l.pte.frame() == old)
                    .unwrap_or(false);
                if !still {
                    continue;
                }
                if !consumed_initial_ref {
                    // The new tree frame's initial reference stands in for
                    // the first successfully merged mapping.
                    if m.set_leaf(
                        pid,
                        va,
                        Pte::new(tree_frame, PteFlags::PRESENT | PteFlags::USER),
                    )
                    .is_err()
                    {
                        m.note_scan_retry();
                        continue;
                    }
                    consumed_initial_ref = true;
                    let (tag, _) = Self::vma_info(m, pid, va);
                    Self::drop_cache_ref(m, pid, va, old);
                    let _ = m.put_frame(old);
                    let costs = m.costs();
                    m.scan_cost(costs.pte_update + costs.buddy_interaction);
                    m.surface_transition(SurfaceTransition::Merge);
                    self.tags.record(tag);
                    self.merged_live += 1;
                    self.stats.merged += 1;
                    report.pages_merged += 1;
                } else {
                    if !self.merge_onto(m, pid, va, old, tree_frame) {
                        continue;
                    }
                    report.pages_merged += 1;
                }
                if let Some(id) = {
                    let mem = m.mem();
                    self.avl.find(tree_frame, |a, b| mem.compare_pages(a, b))
                } {
                    *self.avl.value_mut(id) += 1;
                }
            }
            if is_new && !consumed_initial_ref {
                // Nothing merged onto the freshly reserved frame (every
                // member CoW'd away or its PTE write failed): roll back the
                // reservation so the frame is not leaked.
                self.avl_index.remove(&tree_frame);
                self.avl_hashes.remove(tree_frame);
                let removed = {
                    let mem = m.mem();
                    self.avl.remove(tree_frame, |a, b| mem.compare_pages(a, b))
                };
                debug_assert!(removed.is_some());
                self.last_pass_frames.pop();
                self.stats.tree_pages_allocated -= 1;
                m.mem_mut().info_mut(tree_frame).on_free();
                m.mem_mut().zero_page(tree_frame);
                let _ = self.linear.free(tree_frame);
            }
            m.trace_end(SpanKind::Merge);
        }
        // Batch frames never consumed (a mid-pass crash) were reserved but
        // never mapped: hand them straight back to the linear allocator.
        for f in batch_iter {
            let _ = self.linear.free(f);
        }
        if complete {
            // Record the pass's terminal decisions: every candidate whose
            // mapping survived unmerged was declined (singleton or failed
            // validation with a vanished mapping — the `still` check below
            // excludes the latter). It stays skippable until its frame or
            // mapping moves, or a dirty page / changed tree page appears.
            for &(pid, va, frame) in &cands {
                let still = m
                    .leaf(pid, va)
                    .map(|l| !l.huge && l.pte.is_present() && l.pte.frame() == frame)
                    .unwrap_or(false);
                if still && !self.avl_index.contains_key(&frame) {
                    self.dirty.mark_seen(m.mem(), pid, va, frame);
                }
            }
        }
        self.stats.passes += 1;
        report
    }

    /// Copy-on-write unmerge; dead tree frames return to the linear
    /// allocator (the predictable-reuse weakness).
    fn unmerge(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        let Some(leaf) = m.leaf(fault.pid, fault.va) else {
            return false;
        };
        let tree_frame = leaf.pte.frame();
        if !self.avl_index.contains_key(&tree_frame) {
            return false;
        }
        let Some(vma) = m.process(fault.pid).space.find_vma(fault.va).copied() else {
            return false;
        };
        // The page is ours: from here on the work is an unmerge attempt
        // (span opened only now, so foreign CoW faults never pollute it).
        m.trace_begin("wpf", SpanKind::Unmerge);
        let handled = self.unmerge_owned(m, fault, tree_frame, vma);
        m.trace_end(SpanKind::Unmerge);
        handled
    }

    /// The unmerge proper, once ownership is established.
    fn unmerge_owned(
        &mut self,
        m: &mut Machine,
        fault: &PageFault,
        tree_frame: FrameId,
        vma: vusion_mmu::Vma,
    ) -> bool {
        let Ok(new) = m.alloc_frame(PageType::Anon) else {
            return false; // OOM: stay merged; the access retries later.
        };
        if m.crash_now(CrashSite::MidUnmerge) {
            // Died after allocating the private copy: recovery frees it;
            // the page is still merged and the access simply retries.
            let _ = m.put_frame(new);
            return false;
        }
        m.mem_mut().copy_page(tree_frame, new);
        let costs = m.costs();
        m.charge(costs.copy_page + costs.pte_update + costs.buddy_interaction);
        let mut flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::ACCESSED | PteFlags::DIRTY;
        if vma.prot.write {
            flags |= PteFlags::WRITABLE;
        }
        if m.set_leaf(fault.pid, fault.va.page_base(), Pte::new(new, flags))
            .is_err()
        {
            let _ = m.put_frame(new);
            return false;
        }
        if m.mem_mut().info_mut(tree_frame).put() {
            // Last sharer gone: the frame goes back to the linear
            // allocator and will be re-reserved, from the end of memory,
            // on the next pass (Figure 3).
            self.avl_index.remove(&tree_frame);
            self.avl_hashes.remove(tree_frame);
            let removed = {
                let mem = m.mem();
                self.avl.remove(tree_frame, |a, b| mem.compare_pages(a, b))
            };
            if removed.is_none() {
                // The frame's content changed in place (a Rowhammer flip on
                // a fused page — the §5.2 attack does exactly this), so the
                // content-keyed search can no longer locate the node.
                // Rebuild the tree from the index so no stale node keeps
                // pointing at the freed frame.
                let frames: Vec<FrameId> = self.avl_index.keys().copied().collect();
                self.avl.clear();
                self.avl_hashes.clear();
                for f in frames {
                    let mem = m.mem();
                    self.avl.insert(f, 0, |a, b| mem.compare_pages(a, b));
                    self.avl_hashes.insert(mem, f);
                }
            }
            m.mem_mut().info_mut(tree_frame).on_free();
            m.mem_mut().zero_page(tree_frame);
            let _ = self.linear.free(tree_frame);
        }
        self.merged_live -= 1;
        m.surface_transition(SurfaceTransition::Unmerge);
        self.stats.unmerged += 1;
        true
    }
}

impl vusion_snapshot::Snapshot for Wpf {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.cfg.pass_period_ns);
        self.avl.save_with(w, |v, w| w.u32(*v));
        let mut owned: Vec<u64> = self.avl_index.keys().map(|f| f.0).collect();
        owned.sort_unstable();
        w.u64s(&owned);
        self.avl_hashes.save(w);
        self.candidates.save(w);
        self.dirty.save(w);
        self.linear.save(w);
        w.u64(self.merged_live);
        self.tags.save(w);
        w.u64(self.stats.merged);
        w.u64(self.stats.unmerged);
        w.u64(self.stats.tree_pages_allocated);
        w.u64(self.stats.passes);
        let last: Vec<u64> = self.last_pass_frames.iter().map(|f| f.0).collect();
        w.u64s(&last);
        w.bool(self.defer_zero);
        match &self.pass {
            Some(p) => {
                w.bool(true);
                w.u64(p.cursor);
                w.u64(p.total);
                let mut flat = Vec::with_capacity(p.hashed.len() * 4);
                for &(h, pid, va, f) in &p.hashed {
                    flat.extend_from_slice(&[h, pid, va, f]);
                }
                w.u64s(&flat);
            }
            None => w.bool(false),
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        self.cfg.pass_period_ns = r.u64()?;
        self.avl = ContentAvlTree::load_with(r, |r| r.u32())?;
        self.avl_index = r.u64s()?.into_iter().map(|f| (FrameId(f), ())).collect();
        self.avl_hashes = HashIndex::load(r)?;
        self.candidates = CandidateCache::load(r)?;
        self.dirty = DirtyTracker::load(r)?;
        self.linear.load(r)?;
        self.merged_live = r.u64()?;
        self.tags = TagCounts::load(r)?;
        self.stats = WpfStats {
            merged: r.u64()?,
            unmerged: r.u64()?,
            tree_pages_allocated: r.u64()?,
            passes: r.u64()?,
        };
        self.last_pass_frames = r.u64s()?.into_iter().map(FrameId).collect();
        self.defer_zero = r.bool()?;
        self.pass = if r.bool()? {
            let cursor = r.u64()?;
            let total = r.u64()?;
            let flat = r.u64s()?;
            if flat.len() % 4 != 0 {
                return Err(vusion_snapshot::SnapshotError::Corrupt(
                    "wpf pass rows not a multiple of 4",
                ));
            }
            let hashed = flat
                .chunks_exact(4)
                .map(|c| (c[0], c[1], c[2], c[3]))
                .collect();
            Some(PassState {
                cursor,
                total,
                hashed,
            })
        } else {
            None
        };
        Ok(())
    }
}

impl vusion_snapshot::EngineState for Wpf {
    fn engine_tag(&self) -> &'static str {
        "wpf"
    }
}

impl FusionPolicy for Wpf {
    fn name(&self) -> &'static str {
        "wpf"
    }

    fn scan(&mut self, m: &mut Machine) -> ScanReport {
        self.full_pass(m)
    }

    fn handle_fault(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        match fault.reason {
            vusion_kernel::FaultReason::WriteProtected => self.unmerge(m, fault),
            _ => false,
        }
    }

    fn prepare_collapse(&mut self, m: &mut Machine, pid: Pid, huge_base: VirtAddr) -> bool {
        for i in 0..vusion_mem::HUGE_PAGE_FRAMES {
            let va = VirtAddr(huge_base.0 + i * PAGE_SIZE);
            if let Some(leaf) = m.leaf(pid, va) {
                if self.avl_index.contains_key(&leaf.pte.frame()) {
                    return false;
                }
            }
        }
        true
    }

    fn pages_saved(&self) -> u64 {
        // Every mapping onto a tree frame frees one duplicate; every live
        // tree frame cost one new allocation.
        self.merged_live.saturating_sub(self.avl_index.len() as u64)
    }

    fn scan_period_ns(&self) -> u64 {
        self.cfg.pass_period_ns
    }

    fn set_scan_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    fn pressure_shrink(&mut self, _m: &mut Machine) -> u64 {
        // Drop rebuildable transients: the candidate enumeration, the
        // dirty-driven pass list, and any suspended pass's hashed rows
        // (the next wakeup simply restarts the pass).
        let parked = self.pass.take().map(|p| p.hashed.len() as u64).unwrap_or(0);
        self.candidates.shed() + self.dirty.shed() + parked
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

    fn system() -> (System<Wpf>, Pid, Pid) {
        let mut m = Machine::new(MachineConfig::test_small().with_reserved_top(512));
        let a = m.spawn("a").expect("spawn");
        let b = m.spawn("b").expect("spawn");
        for pid in [a, b] {
            // No madvise: WPF scans everything.
            m.mmap(pid, Vma::anon(VirtAddr(BASE), 64, Protection::rw()));
        }
        let policy = Wpf::new(&m, WpfConfig::default()).expect("wpf");
        (System::new(m, policy), a, b)
    }

    fn page(fill: u8) -> [u8; PAGE_SIZE as usize] {
        let mut p = [0u8; PAGE_SIZE as usize];
        for (i, b) in p.iter_mut().enumerate() {
            *b = fill ^ (i % 19) as u8;
        }
        p
    }

    #[test]
    fn duplicates_merge_onto_new_frame() {
        let (mut s, a, b) = system();
        s.write_page(a, VirtAddr(BASE), &page(1));
        s.write_page(b, VirtAddr(BASE), &page(1));
        let fa = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let fb = s.machine.leaf(b, VirtAddr(BASE)).expect("leaf").pte.frame();
        s.force_scans(1);
        let shared = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        assert_eq!(
            shared,
            s.machine.leaf(b, VirtAddr(BASE)).expect("leaf").pte.frame()
        );
        // Unlike KSM: a *new* frame, from the reserved end-of-memory region.
        assert_ne!(shared, fa);
        assert_ne!(shared, fb);
        let (res_base, _) = s.machine.reserved_region().expect("reserved");
        assert!(
            shared.0 >= res_base.0,
            "backing frame comes from the linear region"
        );
        assert_eq!(s.policy.pages_saved(), 1);
    }

    #[test]
    fn no_opt_in_required() {
        let (mut s, a, b) = system();
        s.write_page(a, VirtAddr(BASE + PAGE_SIZE), &page(2));
        s.write_page(b, VirtAddr(BASE + PAGE_SIZE), &page(2));
        s.force_scans(1);
        assert!(
            s.policy.stats().merged >= 2,
            "WPF scans all memory without madvise"
        );
    }

    #[test]
    fn backing_frames_descend_from_end_of_memory() {
        let (mut s, a, b) = system();
        // Three distinct duplicate pairs → three new tree frames.
        for (i, fill) in [(0u64, 3u8), (1, 4), (2, 5)] {
            s.write_page(a, VirtAddr(BASE + i * PAGE_SIZE), &page(fill));
            s.write_page(b, VirtAddr(BASE + i * PAGE_SIZE), &page(fill));
        }
        s.force_scans(1);
        let frames = s.policy.last_pass_frames().to_vec();
        assert_eq!(frames.len(), 3);
        assert!(
            frames.windows(2).all(|w| w[0].0 > w[1].0),
            "descending from the end: {frames:?}"
        );
    }

    #[test]
    fn hash_order_controls_adjacency() {
        // §5.2: the attacker orders fused pages in physical memory by
        // choosing contents. Verify assignment follows sorted hash order.
        let (mut s, a, b) = system();
        let mut fills: Vec<u8> = vec![7, 8, 9, 10];
        for (i, &fill) in fills.iter().enumerate() {
            s.write_page(a, VirtAddr(BASE + i as u64 * PAGE_SIZE), &page(fill));
            s.write_page(b, VirtAddr(BASE + i as u64 * PAGE_SIZE), &page(fill));
        }
        s.force_scans(1);
        let frames = s.policy.last_pass_frames().to_vec();
        assert_eq!(frames.len(), 4);
        // Recompute the expected hash order.
        fills.sort_by_key(|&f| vusion_mem::content_hash(&page(f)));
        // The k-th assigned (and thus k-th-highest) frame corresponds to
        // the k-th smallest hash; verify via content.
        for (k, &fill) in fills.iter().enumerate() {
            assert_eq!(
                s.machine.mem().page(frames[k]),
                &page(fill),
                "frame assignment must follow hash order"
            );
        }
    }

    #[test]
    fn cow_unmerge_returns_frame_to_linear_region() {
        let (mut s, a, b) = system();
        s.write_page(a, VirtAddr(BASE), &page(6));
        s.write_page(b, VirtAddr(BASE), &page(6));
        s.force_scans(1);
        let shared = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        // Both writers CoW away; the tree frame dies.
        s.write(a, VirtAddr(BASE), 1);
        s.write(b, VirtAddr(BASE), 2);
        assert_eq!(s.policy.pages_saved(), 0);
        assert_eq!(
            s.machine.mem().info(shared).state,
            vusion_mem::FrameState::Free
        );
        // Next pass with the same duplicate content reuses the same frame
        // (near-perfect reuse, Figure 3).
        s.write_page(a, VirtAddr(BASE + 8 * PAGE_SIZE), &page(60));
        s.write_page(b, VirtAddr(BASE + 8 * PAGE_SIZE), &page(60));
        s.force_scans(1);
        let reused = s
            .machine
            .leaf(a, VirtAddr(BASE + 8 * PAGE_SIZE))
            .expect("leaf")
            .pte
            .frame();
        assert_eq!(
            reused, shared,
            "linear allocator reuses the freed frame deterministically"
        );
    }

    #[test]
    fn content_preserved_through_merge_and_unmerge() {
        let (mut s, a, b) = system();
        s.write_page(a, VirtAddr(BASE), &page(11));
        s.write_page(b, VirtAddr(BASE), &page(11));
        s.force_scans(1);
        assert_eq!(s.read_page(a, VirtAddr(BASE)), page(11));
        s.write(b, VirtAddr(BASE), 0xAB);
        assert_eq!(s.read(b, VirtAddr(BASE)), 0xAB);
        assert_eq!(s.read_page(a, VirtAddr(BASE))[1..], page(11)[1..]);
        assert_eq!(s.read(a, VirtAddr(BASE)), page(11)[0]);
    }

    #[test]
    fn second_pass_merges_onto_existing_tree_page() {
        let (mut s, a, b) = system();
        s.write_page(a, VirtAddr(BASE), &page(12));
        s.write_page(b, VirtAddr(BASE), &page(12));
        s.force_scans(1);
        let allocated_first = s.policy.stats().tree_pages_allocated;
        // A third copy appears later.
        s.write_page(a, VirtAddr(BASE + 4 * PAGE_SIZE), &page(12));
        s.force_scans(1);
        assert_eq!(
            s.policy.stats().tree_pages_allocated,
            allocated_first,
            "no new tree page needed"
        );
        let f1 = s.machine.leaf(a, VirtAddr(BASE)).expect("leaf").pte.frame();
        let f2 = s
            .machine
            .leaf(a, VirtAddr(BASE + 4 * PAGE_SIZE))
            .expect("leaf")
            .pte
            .frame();
        assert_eq!(f1, f2);
        assert_eq!(s.policy.pages_saved(), 2);
    }

    #[test]
    fn singleton_pages_are_not_merged() {
        let (mut s, a, _b) = system();
        s.write_page(a, VirtAddr(BASE), &page(13));
        s.force_scans(1);
        assert_eq!(s.policy.stats().merged, 0);
        assert!(!s
            .machine
            .leaf(a, VirtAddr(BASE))
            .expect("leaf")
            .pte
            .is_trapped());
    }
}
