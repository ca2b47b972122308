//! The `khugepaged` daemon: background collapse of 4 KiB pages into THPs.
//!
//! §8.2 of the paper: khugepaged "transparently collapses consecutive
//! physical pages into huge pages"; VUsion must prevent it from collapsing
//! (fake-)merged pages, or the translation attack returns. The protocol is:
//! if at least `MIN_ACTIVE` of the 512 sub-pages are active, the policy
//! is asked to (fake-)unmerge the rest before the collapse copies
//! everything into a fresh, physically contiguous 2 MiB block.

use vusion_mem::{FrameId, PageType, VirtAddr, HUGE_PAGE_FRAMES, HUGE_PAGE_SIZE, PAGE_SIZE};
use vusion_mmu::{PteFlags, VmaBacking};

use crate::machine::{Machine, Pid};
use crate::policy::FusionPolicy;

/// Daemon counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KhugepagedStats {
    /// Ranges collapsed into huge pages.
    pub collapsed: u64,
    /// Ranges vetoed by the fusion policy.
    pub blocked_by_policy: u64,
    /// Ranges skipped (not fully mapped, shared, already huge, too cold).
    pub skipped: u64,
}

/// Wakeup period (simulated ns). Linux defaults to 10 s; experiments use
/// 1 s to fit their time scale.
pub(crate) const PERIOD_NS: u64 = 1_000_000_000;

/// Huge-range candidates examined per wakeup.
const RANGES_PER_SCAN: usize = 16;

/// Minimum number of *accessed* sub-pages for a range to be considered hot
/// enough to collapse: the `n` of §8.1, at 1, which collapses aggressively
/// for performance (larger values would preserve fusion).
const MIN_ACTIVE: usize = 1;

/// The collapse daemon.
#[derive(Default)]
pub struct Khugepaged {
    cursor: usize,
    stats: KhugepagedStats,
}

impl Khugepaged {
    /// Creates the daemon.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counters.
    pub fn stats(&self) -> KhugepagedStats {
        self.stats
    }

    /// Serializes the daemon (scan cursor, counters).
    pub fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.cursor);
        w.u64(self.stats.collapsed);
        w.u64(self.stats.blocked_by_policy);
        w.u64(self.stats.skipped);
    }

    /// Restores a daemon saved by [`Self::save`].
    pub fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        Ok(Self {
            cursor: r.usize()?,
            stats: KhugepagedStats {
                collapsed: r.u64()?,
                blocked_by_policy: r.u64()?,
                skipped: r.u64()?,
            },
        })
    }

    /// Enumerates all 2 MiB-aligned candidate ranges in anonymous writable
    /// VMAs across all processes.
    fn candidates(m: &Machine) -> Vec<(Pid, VirtAddr)> {
        let mut out = Vec::new();
        for pidx in 0..m.process_count() {
            let pid = Pid(pidx);
            for vma in m.process(pid).space.vmas() {
                if vma.backing != VmaBacking::Anon || !vma.prot.write {
                    continue;
                }
                let mut base = vma.start.huge_base();
                if base.0 < vma.start.0 {
                    base = VirtAddr(base.0 + HUGE_PAGE_SIZE);
                }
                while base.0 + HUGE_PAGE_SIZE <= vma.end().0 {
                    out.push((pid, base));
                    base = VirtAddr(base.0 + HUGE_PAGE_SIZE);
                }
            }
        }
        out
    }

    /// One daemon wakeup. Runs off the workload clock.
    pub fn scan<P: FusionPolicy + ?Sized>(&mut self, m: &mut Machine, policy: &mut P) {
        let candidates = Self::candidates(m);
        if candidates.is_empty() {
            return;
        }
        for _ in 0..RANGES_PER_SCAN.min(candidates.len()) {
            let (pid, base) = candidates[self.cursor % candidates.len()];
            self.cursor = (self.cursor + 1) % candidates.len();
            self.try_collapse(m, policy, pid, base);
        }
    }

    fn try_collapse<P: FusionPolicy + ?Sized>(
        &mut self,
        m: &mut Machine,
        policy: &mut P,
        pid: Pid,
        base: VirtAddr,
    ) -> bool {
        // Phase 1: inspect the range.
        let mut active = 0usize;
        for i in 0..HUGE_PAGE_FRAMES {
            let va = VirtAddr(base.0 + i * PAGE_SIZE);
            let Some(leaf) = m.leaf(pid, va) else {
                self.stats.skipped += 1; // Hole: not fully mapped.
                return false;
            };
            if leaf.huge {
                self.stats.skipped += 1; // Already a THP.
                return false;
            }
            if leaf.pte.has(PteFlags::ACCESSED) {
                active += 1;
            }
        }
        if active < MIN_ACTIVE {
            self.stats.skipped += 1; // Too cold to be worth a THP.
            return false;
        }
        // Phase 2: reserve the destination block *before* disturbing any
        // mappings — like Linux, which allocates the huge page first. The
        // policy's prepare_collapse irreversibly (fake-)unmerges sub-pages,
        // so failing the allocation afterwards would thrash fusion savings
        // on every wakeup under fragmentation.
        let Some(huge) = m.alloc_huge(PageType::Anon) else {
            self.stats.skipped += 1; // Fragmentation.
            return false;
        };
        // Phase 2b: let the fusion policy release (or veto) its pages.
        if !policy.prepare_collapse(m, pid, base) {
            let _ = m.free_huge(huge);
            self.stats.blocked_by_policy += 1;
            return false;
        }
        // Phase 3: re-validate — every sub-page must now be a private,
        // untrapped 4 KiB mapping.
        let mut frames = Vec::with_capacity(HUGE_PAGE_FRAMES as usize);
        for i in 0..HUGE_PAGE_FRAMES {
            let va = VirtAddr(base.0 + i * PAGE_SIZE);
            let Some(leaf) = m.leaf(pid, va) else {
                let _ = m.free_huge(huge);
                self.stats.skipped += 1;
                return false;
            };
            if leaf.huge || leaf.pte.is_trapped() || !leaf.pte.is_present() {
                let _ = m.free_huge(huge);
                self.stats.skipped += 1;
                return false;
            }
            let frame = leaf.pte.frame();
            if m.mem().info(frame).refcount != 1 {
                let _ = m.free_huge(huge);
                self.stats.skipped += 1; // Still shared: unsafe to move.
                return false;
            }
            frames.push(frame);
        }
        // Phase 4: copy into the reserved contiguous block and switch the
        // mapping (this is why §8.2's pre-unmerge makes the copy safe).
        for (i, &src) in frames.iter().enumerate() {
            m.mem_mut().copy_page(src, FrameId(huge.0 + i as u64));
        }
        let writable = m
            .process(pid)
            .space
            .find_vma(base)
            .map(|v| v.prot.write)
            .unwrap_or(false);
        let mut flags = PteFlags::PRESENT | PteFlags::USER | PteFlags::ACCESSED;
        if writable {
            flags |= PteFlags::WRITABLE;
        }
        let collapsed = {
            let (mem, buddy, procs) = m.mm_parts();
            let proc = &mut procs[pid.0];
            // Swap the PT for a huge entry in one shot (frees the PT frame).
            let r = proc
                .space
                .tables_mut()
                .collapse_huge(mem, buddy, base, huge, flags);
            proc.tlb.flush();
            r
        };
        if collapsed.is_err() {
            // The tables rejected the swap (a sub-page changed under us):
            // nothing was modified, so just release the reserved block.
            let _ = m.free_huge(huge);
            self.stats.skipped += 1;
            return false;
        }
        for f in frames {
            let _ = m.put_frame(f);
        }
        self.stats.collapsed += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::policy::NoFusion;
    use vusion_mmu::{Protection, Vma};

    fn setup() -> (Machine, Pid) {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("t").expect("spawn");
        m.mmap(
            pid,
            Vma::anon(VirtAddr(HUGE_PAGE_SIZE), 1024, Protection::rw()),
        );
        (m, pid)
    }

    fn fault_in_range(m: &mut Machine, pid: Pid, base: VirtAddr, pages: u64) {
        for i in 0..pages {
            let va = VirtAddr(base.0 + i * PAGE_SIZE);
            if m.leaf(pid, va).is_none() {
                let f = m.read(pid, va).expect_err("fault");
                assert!(m.default_fault(&f));
            } else {
                m.read(pid, va).expect("mapped");
            }
        }
    }

    #[test]
    fn collapses_fully_mapped_active_range() {
        let (mut m, pid) = setup();
        let base = VirtAddr(HUGE_PAGE_SIZE);
        fault_in_range(&mut m, pid, base, 512);
        assert_eq!(m.count_huge_mappings(pid), 0);
        let mut k = Khugepaged::new();
        let mut p = NoFusion;
        k.scan(&mut m, &mut p);
        assert_eq!(k.stats().collapsed, 1);
        assert_eq!(m.count_huge_mappings(pid), 1);
        // Content still readable and translation now huge.
        m.read(pid, VirtAddr(base.0 + 12345)).expect("mapped");
        assert!(m.leaf(pid, base).expect("leaf").huge);
    }

    #[test]
    fn skips_partially_mapped_range() {
        let (mut m, pid) = setup();
        let base = VirtAddr(HUGE_PAGE_SIZE);
        fault_in_range(&mut m, pid, base, 100); // Hole after page 100.
        let mut k = Khugepaged::new();
        let mut p = NoFusion;
        k.scan(&mut m, &mut p);
        assert_eq!(k.stats().collapsed, 0);
        assert!(k.stats().skipped > 0);
    }

    #[test]
    fn min_active_gates_cold_ranges() {
        let (mut m, pid) = setup();
        let base = VirtAddr(HUGE_PAGE_SIZE);
        fault_in_range(&mut m, pid, base, 512);
        // Clear all accessed bits: the range is now idle.
        let (mem, _buddy, procs) = m.mm_parts();
        for i in 0..512u64 {
            procs[pid.0]
                .space
                .tables_mut()
                .test_and_clear_accessed(mem, VirtAddr(base.0 + i * PAGE_SIZE));
        }
        let mut k = Khugepaged::new();
        let mut p = NoFusion;
        k.scan(&mut m, &mut p);
        assert_eq!(k.stats().collapsed, 0, "idle range must not collapse");
        // Touch one page: now 1 >= MIN_ACTIVE.
        m.read(pid, base).expect("mapped");
        k.scan(&mut m, &mut p);
        assert_eq!(k.stats().collapsed, 1);
    }

    #[test]
    fn policy_veto_blocks_collapse() {
        struct Veto;
        impl vusion_snapshot::Snapshot for Veto {
            fn save(&self, _w: &mut vusion_snapshot::Writer) {}
            fn load(
                &mut self,
                _r: &mut vusion_snapshot::Reader<'_>,
            ) -> Result<(), vusion_snapshot::SnapshotError> {
                Ok(())
            }
        }
        impl FusionPolicy for Veto {
            fn name(&self) -> &'static str {
                "veto"
            }
            fn scan(&mut self, _m: &mut Machine, _grant: crate::policy::ScanGrant) -> u64 {
                0
            }
            fn handle_fault(&mut self, _m: &mut Machine, _f: &crate::machine::PageFault) -> bool {
                false
            }
            fn prepare_collapse(&mut self, _m: &mut Machine, _pid: Pid, _b: VirtAddr) -> bool {
                false
            }
        }
        let (mut m, pid) = setup();
        fault_in_range(&mut m, pid, VirtAddr(HUGE_PAGE_SIZE), 512);
        let mut k = Khugepaged::new();
        let mut p = Veto;
        k.scan(&mut m, &mut p);
        assert_eq!(k.stats().collapsed, 0);
        assert!(k.stats().blocked_by_policy > 0);
    }

    #[test]
    fn shared_subpage_aborts_collapse() {
        let (mut m, pid) = setup();
        let base = VirtAddr(HUGE_PAGE_SIZE);
        fault_in_range(&mut m, pid, base, 512);
        // Simulate a shared page (e.g. fused elsewhere): bump a refcount.
        let f = m.leaf(pid, base).expect("leaf").pte.frame();
        m.mem_mut().info_mut(f).get();
        let mut k = Khugepaged::new();
        let mut p = NoFusion;
        k.scan(&mut m, &mut p);
        assert_eq!(k.stats().collapsed, 0);
        m.mem_mut().info_mut(f).put();
    }

    #[test]
    fn collapse_frees_the_512_small_frames() {
        let (mut m, pid) = setup();
        let base = VirtAddr(HUGE_PAGE_SIZE);
        fault_in_range(&mut m, pid, base, 512);
        let before = m.allocated_frames();
        let mut k = Khugepaged::new();
        let mut p = NoFusion;
        k.scan(&mut m, &mut p);
        assert_eq!(k.stats().collapsed, 1);
        // 512 small frames freed, 512-frame block allocated, one PT freed.
        let after = m.allocated_frames();
        assert_eq!(after, before - 1, "net change is the freed PT frame");
    }
}
