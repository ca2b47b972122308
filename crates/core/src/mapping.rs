//! Mapping plumbing shared by the three engines: the VMA facts a merge
//! decision reads, the candidate enumeration, the page-cache half of
//! releasing a merged-away frame, and the per-page steps KSM and WPF take
//! alike (the sole-owner guard, the merge onto a shared frame, the
//! copy-on-write unmerge and the khugepaged veto). One copy of each step
//! keeps every fused page on one merge path and one unmerge path.

use vusion_kernel::{AccessKind, Machine, PageFault, Pid, SurfaceTransition, COSTS};
use vusion_mem::{CrashSite, FrameId, PageType, VirtAddr, HUGE_PAGE_FRAMES, PAGE_SIZE};
use vusion_mmu::{GuestTag, Pte, PteFlags, VmaBacking};

use crate::content_index::{ContentIndex, NodeId};

/// Guest tag and, for file pages, the page-cache key `(file_id, page)` of
/// the mapping at `(pid, va)`. An address outside every VMA reads as
/// [`GuestTag::Other`] with no key.
pub(crate) fn vma_info(m: &Machine, pid: Pid, va: VirtAddr) -> (GuestTag, Option<(u64, u64)>) {
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

/// Every page of every process's VMAs as `(pid, page base)`, in pid then
/// address order. With `mergeable_only`, only VMAs registered through
/// `madvise` (KSM's and VUsion's opt-in); WPF scans everything.
pub(crate) fn candidate_pages(m: &Machine, mergeable_only: bool) -> Vec<(Pid, VirtAddr)> {
    let mut out = Vec::new();
    for pidx in 0..m.process_count() {
        let pid = Pid(pidx);
        for vma in m.process(pid).space.vmas() {
            if vma.mergeable || !mergeable_only {
                out.extend(vma.page_addrs().map(|va| (pid, va)));
            }
        }
    }
    out
}

/// Evicts `frame` from the page cache if it is the cached copy of the file
/// page mapped at `(pid, va)`: the guest page is being deduplicated out of
/// its cache. Returns whether it was; the caller then drops the cache's
/// frame reference the way its allocator requires.
pub(crate) fn evict_cached_copy(m: &mut Machine, pid: Pid, va: VirtAddr, frame: FrameId) -> bool {
    let Some((file_id, page)) = vma_info(m, pid, va).1 else {
        return false;
    };
    let p = m.process_mut(pid);
    if p.page_cache.get(&(file_id, page)) != Some(&frame) {
        return false;
    }
    p.page_cache_evict(file_id, page);
    true
}

/// The guest tag of `(pid, va)` if the mapping owns `frame` alone: a
/// refcount of at most 1, or 2 for a file page whose page-cache copy holds
/// the other. Engines merge only frames they can account for.
pub(crate) fn sole_owner(m: &Machine, pid: Pid, va: VirtAddr, frame: FrameId) -> Option<GuestTag> {
    let (tag, cache_key) = vma_info(m, pid, va);
    let max_refs = if cache_key.is_some() { 2 } else { 1 };
    (m.mem().info(frame).refcount <= max_refs).then_some(tag)
}

/// Points `(pid, va)` at the shared frame `target` with `flags`, taking a
/// reference on it, and releases the mapping's old frame `old` to the
/// system, page-cache reference first. Returns the mapping's guest tag,
/// or `None`, changing nothing but the retry count, if the PTE write
/// fails.
pub(crate) fn merge_onto(
    m: &mut Machine,
    pid: Pid,
    va: VirtAddr,
    old: FrameId,
    target: FrameId,
    flags: PteFlags,
) -> Option<GuestTag> {
    m.mem_mut().info_mut(target).get();
    if m.set_leaf(pid, va, Pte::new(target, flags)).is_err() {
        m.mem_mut().info_mut(target).put();
        m.note_scan_retry();
        return None;
    }
    let (tag, _) = vma_info(m, pid, va);
    if evict_cached_copy(m, pid, va, old) {
        let _ = m.put_frame(old);
    }
    let _ = m.put_frame(old);
    m.scan_cost(COSTS.pte_update + COSTS.buddy_interaction);
    m.surface_transition(SurfaceTransition::Merge);
    m.scan_counts_mut().pages_merged += 1;
    Some(tag)
}

/// The fused page a fault hit: its shared frame, the frame's node in `ix`
/// and whether the faulting VMA is writable. `None` if the page is not
/// mapped onto a frame of `ix`, or lies outside every VMA.
pub(crate) fn fused_page<V>(
    m: &Machine,
    fault: &PageFault,
    ix: &ContentIndex<V>,
) -> Option<(FrameId, NodeId, bool)> {
    let shared = m.leaf(fault.pid, fault.va)?.pte.frame();
    let node = ix.node_of(shared)?;
    let writable = m.process(fault.pid).space.find_vma(fault.va)?.prot.write;
    Some((shared, node, writable))
}

/// Copy-on-write: copies the shared frame into a fresh frame from the
/// system allocator (Linux uses the buddy allocator here; its LIFO reuse is
/// attacker-predictable) and maps it privately at the faulting page. The
/// caller still holds, and then drops, the mapping's reference on
/// `shared`. Returns `false`, leaving the page merged for the access to
/// retry, on OOM, on a crash after the allocation or on a failed PTE write.
pub(crate) fn cow_copy(
    m: &mut Machine,
    fault: &PageFault,
    shared: FrameId,
    writable: bool,
) -> bool {
    let Ok(new) = m.alloc_frame(PageType::Anon) else {
        return false;
    };
    if m.crash_now(CrashSite::MidUnmerge) {
        // Died after allocating the private copy: recovery frees it.
        let _ = m.put_frame(new);
        return false;
    }
    m.mem_mut().copy_page(shared, new);
    m.charge(COSTS.copy_page + COSTS.pte_update + COSTS.buddy_interaction);
    let mut flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::ACCESSED;
    if writable {
        flags |= PteFlags::WRITABLE;
    }
    if fault.kind == AccessKind::Write {
        flags |= PteFlags::DIRTY;
    }
    if m.set_leaf(fault.pid, fault.va.page_base(), Pte::new(new, flags))
        .is_err()
    {
        let _ = m.put_frame(new);
        return false;
    }
    true
}

/// Whether any page of the huge range at `huge_base` maps a frame of
/// `ix`. Linux's khugepaged skips ranges that hold fused pages.
pub(crate) fn range_holds<V>(
    m: &Machine,
    pid: Pid,
    huge_base: VirtAddr,
    ix: &ContentIndex<V>,
) -> bool {
    (0..HUGE_PAGE_FRAMES).any(|i| {
        m.leaf(pid, VirtAddr(huge_base.0 + i * PAGE_SIZE))
            .is_some_and(|leaf| ix.contains_frame(leaf.pte.frame()))
    })
}
