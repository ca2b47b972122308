//! Mapping plumbing shared by the three engines: the VMA facts a merge
//! decision reads, the candidate enumeration, and the page-cache half of
//! releasing a merged-away frame.

use vusion_kernel::{Machine, Pid};
use vusion_mem::{FrameId, VirtAddr, PAGE_SIZE};
use vusion_mmu::{GuestTag, VmaBacking};

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
