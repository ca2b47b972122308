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
//!
//! Windows keeps the fused pages in AVL trees that "have the same
//! functionality as KSM's stable tree" (§2.2). Here they live in one
//! content index, like KSM's stable tree: hash buckets plus a byte compare
//! find the same duplicate a content-ordered descent would, and no charge,
//! counter or output depends on how it is found.

use vusion_kernel::{
    FusionPolicy, Machine, PageFault, Pid, ScanGrant, SpanKind, SurfaceTransition, COSTS,
};
use vusion_mem::{
    CrashSite, FrameAllocator, FrameId, LinearAllocator, MmError, PageType, VirtAddr, PAGE_SIZE,
};
use vusion_mmu::{Pte, PteFlags};

use crate::content_index::{ContentIndex, NodeId};
use crate::mapping;
use crate::scan_cache::{self, CandidateCache, DirtyTracker};
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
    /// The fused pages, found by content (a content index; see the module
    /// docs). A node carries no value: the frame's refcount already counts
    /// its mappings.
    tree: ContentIndex<()>,
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
            tree: ContentIndex::default(),
            candidates: CandidateCache::default(),
            linear: LinearAllocator::new(base, frames),
            merged_live: 0,
            tags: TagCounts::default(),
            stats: WpfStats::default(),
            last_pass_frames: Vec::new(),
            dirty: DirtyTracker::default(),
            pass: None,
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

    /// Repoints `(pid, va)` at tree frame `tree_frame`, taking a
    /// reference to it and releasing its old frame to the system. Changes
    /// nothing but the retry count if the PTE write fails.
    fn merge_onto(
        &mut self,
        m: &mut Machine,
        pid: Pid,
        va: VirtAddr,
        old: FrameId,
        tree_frame: FrameId,
    ) {
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
            return;
        }
        let (tag, _) = mapping::vma_info(m, pid, va);
        if mapping::evict_cached_copy(m, pid, va, old) {
            let _ = m.put_frame(old);
        }
        let _ = m.put_frame(old);
        m.scan_cost(COSTS.pte_update + COSTS.buddy_interaction);
        m.surface_transition(SurfaceTransition::Merge);
        self.tags.record(tag);
        self.merged_live += 1;
        m.scan_counts_mut().pages_merged += 1;
    }

    /// One full fusion pass (§2.2), or the slice of one that `grant`
    /// allows. Returns the pages it hashed.
    fn full_pass(&mut self, m: &mut Machine, grant: ScanGrant) -> u64 {
        self.last_pass_frames.clear();
        // Tree pages can change in place between passes (Rowhammer on a
        // fused page — the §5.2 attack). Move them to the buckets of their
        // current content and note whether any did: a changed tree page can turn a previously
        // singleton candidate into a merge, so it disqualifies the
        // all-clean fast path below.
        let tree_dirty = self.tree.refresh(m.mem()) > 0;
        // 1. Enumerate candidate pages of every process (no opt-in),
        // read-only. The page enumeration is cached against the layout
        // epoch; the per-page leaf checks still run every pass.
        let (pages, rebuilt) = self.candidates.take(m, /* mergeable_only */ false);
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
            if self.tree.contains_frame(frame) {
                continue; // Already fused.
            }
            let (_, cache_key) = mapping::vma_info(m, pid, va);
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
            m.scan_counts_mut().pages_skipped_clean += cands.len() as u64;
            let _ = m.crash_now(CrashSite::MidScan);
            self.stats.passes += 1;
            return 0;
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
        let limit = match grant.budget {
            Some(b) => b as usize,
            None => usize::MAX,
        };
        let end = start.saturating_add(limit).min(cands.len());
        // Pre-hash this wakeup's window; the stage below then hits the
        // memo cache on every page.
        let frames: Vec<FrameId> = cands[start..end].iter().map(|&(_, _, f)| f).collect();
        scan_cache::prehash_frames(m, &frames);
        let visited = frames.len() as u64;
        m.scan_counts_mut().pages_scanned += visited;
        for &(pid, va, frame) in &cands[start..end] {
            pass.hashed
                .push((m.mem().hash_page(frame), pid.0 as u64, va.0, frame.0));
            pass.cursor += 1;
        }
        if m.crash_now(CrashSite::MidScan) {
            // The pass dies after the read-only hashing stage: nothing has
            // been mutated yet, nothing is marked seen, and the suspended
            // state is dropped — the next pass redoes the whole decision.
            return visited;
        }
        if (pass.cursor as usize) < cands.len() {
            // Budget exhausted mid-stage: park the cursor and yield. The
            // sort/group/merge stages run only on a fully hashed set.
            self.pass = Some(pass);
            return visited;
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
                let existing = self
                    .tree
                    .find(m.mem(), first.2)
                    .map(|id| self.tree.frame(id));
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
        // rung 3 (the grant's `defer_alloc`) the reservation is deferred
        // entirely: new tree pages would consume frames mid-crisis, so
        // only merges onto existing tree pages (which free memory)
        // proceed this pass.
        let new_groups = if grant.defer_alloc {
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
            // `new_node` is the node of a freshly reserved tree page.
            let (tree_frame, new_node) = match group.existing {
                Some(f) => (f, None),
                None => {
                    let Some(f) = batch_iter.next() else {
                        m.trace_end(SpanKind::Merge);
                        complete = false;
                        continue; // Linear region exhausted.
                    };
                    let src = group.members[0].2;
                    // The allocation's reference is dropped after the
                    // group's merges, each of which takes its own.
                    m.mem_mut().info_mut(f).on_alloc(PageType::Fused);
                    m.mem_mut().copy_page(src, f);
                    m.scan_cost(COSTS.copy_page);
                    let (node, inserted) = self.tree.insert(m.mem(), f, ());
                    debug_assert!(inserted, "tree had no match a moment ago");
                    self.last_pass_frames.push(f);
                    self.stats.tree_pages_allocated += 1;
                    (f, Some(node))
                }
            };
            for &(pid, va, old) in group.members.iter() {
                // Re-validate the mapping (it may have CoW'd since hashing).
                let still = m
                    .leaf(pid, va)
                    .map(|l| l.pte.is_present() && l.pte.frame() == old)
                    .unwrap_or(false);
                if still {
                    self.merge_onto(m, pid, va, old, tree_frame);
                }
            }
            if let Some(node) = new_node {
                if m.mem_mut().info_mut(tree_frame).put() {
                    // The allocation's reference was the frame's last:
                    // nothing merged onto the freshly reserved frame (every
                    // member CoW'd away or its PTE write failed). Roll back
                    // the reservation so the frame is not leaked.
                    self.tree.remove(node);
                    self.last_pass_frames.pop();
                    self.stats.tree_pages_allocated -= 1;
                    m.mem_mut().info_mut(tree_frame).on_free();
                    m.mem_mut().zero_page(tree_frame);
                    let _ = self.linear.free(tree_frame);
                }
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
                if still && !self.tree.contains_frame(frame) {
                    self.dirty.mark_seen(m.mem(), pid, va, frame);
                }
            }
        }
        self.stats.passes += 1;
        visited
    }

    /// Copy-on-write unmerge; dead tree frames return to the linear
    /// allocator (the predictable-reuse weakness).
    fn unmerge(&mut self, m: &mut Machine, fault: &PageFault) -> bool {
        let Some(leaf) = m.leaf(fault.pid, fault.va) else {
            return false;
        };
        let tree_frame = leaf.pte.frame();
        let Some(node) = self.tree.node_of(tree_frame) else {
            return false;
        };
        let Some(vma) = m.process(fault.pid).space.find_vma(fault.va).copied() else {
            return false;
        };
        // The page is ours: from here on the work is an unmerge attempt
        // (span opened only now, so foreign CoW faults never pollute it).
        m.trace_begin("wpf", SpanKind::Unmerge);
        let handled = self.unmerge_owned(m, fault, tree_frame, node, vma);
        m.trace_end(SpanKind::Unmerge);
        handled
    }

    /// The unmerge proper, once ownership is established.
    fn unmerge_owned(
        &mut self,
        m: &mut Machine,
        fault: &PageFault,
        tree_frame: FrameId,
        node: NodeId,
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
        m.charge(COSTS.copy_page + COSTS.pte_update + COSTS.buddy_interaction);
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
            // on the next pass (Figure 3). Removal goes by node, not by
            // content, so it also works after a Rowhammer flip changed the
            // page in place (the §5.2 attack does exactly this).
            self.tree.remove(node);
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
        self.tree.save_with(w, |(), _| {});
        self.candidates.save(w);
        self.dirty.save(w);
        self.linear.save(w);
        w.u64(self.merged_live);
        self.tags.save(w);
        w.u64(self.stats.unmerged);
        w.u64(self.stats.tree_pages_allocated);
        w.u64(self.stats.passes);
        let last: Vec<u64> = self.last_pass_frames.iter().map(|f| f.0).collect();
        w.u64s(&last);
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
        let Self {
            cfg,
            tree,
            candidates,
            linear,
            merged_live,
            tags,
            stats,
            last_pass_frames,
            dirty,
            pass,
        } = self;
        *cfg = WpfConfig {
            pass_period_ns: r.u64()?,
        };
        *tree = ContentIndex::load_with(r, |_| Ok(()))?;
        *candidates = CandidateCache::load(r)?;
        *dirty = DirtyTracker::load(r)?;
        linear.load(r)?;
        *merged_live = r.u64()?;
        *tags = TagCounts::load(r)?;
        *stats = WpfStats {
            unmerged: r.u64()?,
            tree_pages_allocated: r.u64()?,
            passes: r.u64()?,
        };
        let last = r.len_prefix(8)?;
        *last_pass_frames = Vec::with_capacity(last);
        for _ in 0..last {
            last_pass_frames.push(FrameId(r.frame()?));
        }
        *pass = if r.bool()? {
            let cursor = r.u64()?;
            let total = r.u64()?;
            // The rows travel flat: four words each, pid and frame checked.
            let words = r.len_prefix(8)?;
            if words % 4 != 0 {
                return Err(vusion_snapshot::SnapshotError::Corrupt(
                    "wpf pass rows not a multiple of 4",
                ));
            }
            let mut hashed = Vec::with_capacity(words / 4);
            for _ in 0..words / 4 {
                hashed.push((r.u64()?, r.pid()? as u64, r.u64()?, r.frame()?));
            }
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

impl FusionPolicy for Wpf {
    fn name(&self) -> &'static str {
        "wpf"
    }

    fn scan(&mut self, m: &mut Machine, grant: ScanGrant) -> u64 {
        self.full_pass(m, grant)
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
                if self.tree.contains_frame(leaf.pte.frame()) {
                    return false;
                }
            }
        }
        true
    }

    fn pages_saved(&self) -> u64 {
        // Every mapping onto a tree frame frees one duplicate; every live
        // tree frame cost one new allocation.
        self.merged_live.saturating_sub(self.tree.len() as u64)
    }

    fn scan_period_ns(&self) -> u64 {
        self.cfg.pass_period_ns
    }

    fn pressure_shrink(&mut self, _m: &mut Machine) -> u64 {
        // Drop rebuildable transients: the candidate enumeration, the
        // dirty-driven pass list, and any suspended pass's hashed rows
        // (the next wakeup simply restarts the pass).
        let parked = self.pass.take().map(|p| p.hashed.len() as u64).unwrap_or(0);
        self.candidates.shed() + self.dirty.shed() + parked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{assert_restore_refuses, point_past_memory};
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
    fn snapshot_round_trips_every_field() {
        let (mut s, a, b) = system();
        for (pid, pg, fill) in [(a, 0, 1), (b, 0, 1), (a, 1, 2), (b, 2, 3)] {
            s.write_page(pid, VirtAddr(BASE + pg * PAGE_SIZE), &page(fill));
        }
        s.force_scans(1);
        let w = &mut s.policy;
        assert!(w.tree.len() > 0 && !w.last_pass_frames.is_empty() && w.dirty.len() > 0);
        w.cfg = WpfConfig { pass_period_ns: 51 };
        w.merged_live = 32;
        w.tags = TagCounts {
            page_cache: 33,
            guest_buddy: 34,
            guest_kernel: 35,
            rest: 36,
        };
        w.stats = WpfStats {
            unmerged: 42,
            tree_pages_allocated: 43,
            passes: 44,
        };
        w.pass = Some(PassState {
            cursor: 61,
            total: 62,
            hashed: vec![(1, 2, 3, 4), (5, 6, 7, 8)],
        });
        let mut dst = Wpf::new(&s.machine, WpfConfig::default()).expect("wpf");
        let (x, y) = vusion_snapshot::resave(&s.policy, &mut dst).expect("resave");
        assert_eq!(x, y);
    }

    #[test]
    fn restore_rejects_ids_past_the_machine() {
        let (mut s, a, b) = system();
        s.write_page(a, VirtAddr(BASE), &page(1));
        s.write_page(b, VirtAddr(BASE), &page(1));
        s.force_scans(1);
        assert_restore_refuses(
            &mut s,
            |s| point_past_memory(&mut s.policy.tree, &s.machine),
            |s| {
                let (mut pages, _) = s.policy.candidates.take(&s.machine, false);
                pages[0].0 = Pid(s.machine.process_count());
                s.policy.candidates.put_back(pages);
            },
        );
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
            s.machine.stats().scan.pages_merged >= 2,
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

    /// A governor-suspended pass resumes after every member of a new
    /// group CoW'd away from the frame it was hashed from: the freshly
    /// reserved tree frame, which nothing merged onto, is rolled back.
    #[test]
    fn resumed_pass_rolls_back_an_unused_tree_frame() {
        let mut m = Machine::new(MachineConfig::test_small().with_reserved_top(512));
        let a = m.spawn("a").expect("spawn");
        let b = m.spawn("b").expect("spawn");
        for pid in [a, b] {
            // Each process maps the page through its own page-cache copy.
            m.mmap(pid, Vma::file(VirtAddr(BASE), 1, Protection::rw(), 7, 0));
        }
        m.mmap(
            b,
            Vma::anon(VirtAddr(BASE + PAGE_SIZE), 1, Protection::rw()),
        );
        let policy = Wpf::new(&m, WpfConfig::default()).expect("wpf");
        let mut s = System::new(m, policy);
        for pid in [a, b] {
            s.read(pid, VirtAddr(BASE));
        }
        s.write(b, VirtAddr(BASE + PAGE_SIZE), 1);
        let grant = ScanGrant {
            budget: Some(2),
            defer_alloc: false,
        };
        s.policy.scan(&mut s.machine, grant);
        assert!(
            s.policy.pass.is_some(),
            "the two file pages hashed, then parked"
        );
        for pid in [a, b] {
            s.write(pid, VirtAddr(BASE), 1);
        }
        s.policy.scan(&mut s.machine, grant);
        assert!(s.policy.pass.is_none(), "the pass completed");
        assert_eq!(s.policy.stats().tree_pages_allocated, 0);
        assert_eq!(s.policy.tree.len(), 0);
        assert_eq!(s.machine.audit_frames(), Vec::<String>::new());
    }

    #[test]
    fn singleton_pages_are_not_merged() {
        let (mut s, a, _b) = system();
        s.write_page(a, VirtAddr(BASE), &page(13));
        s.force_scans(1);
        assert_eq!(s.machine.stats().scan.pages_merged, 0);
        assert!(!s
            .machine
            .leaf(a, VirtAddr(BASE))
            .expect("leaf")
            .pte
            .is_trapped());
    }
}
