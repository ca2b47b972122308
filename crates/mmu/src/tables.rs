//! Four-level page tables stored in simulated physical frames.
//!
//! Table entries are little-endian u64s written into [`PhysMemory`], so a
//! page walk is a sequence of real physical reads. [`Walk::steps`] exposes
//! every address a walk touched; the kernel routes them through the LLC,
//! which is precisely what the AnC translation attack (§5.1) measures: a
//! 2 MiB mapping touches three table levels, a 4 KiB mapping four.
//!
//! All mutating operations are fallible: table allocation propagates
//! [`MmError::OutOfFrames`] from the frame allocator, and structurally
//! invalid requests (remapping a mapped page, unmapping an unmapped one,
//! huge operations at unaligned or wrongly-populated slots) surface as
//! [`MmError::BadPageTable`] instead of aborting the simulation.

use vusion_mem::{FrameAllocator, FrameId, MmError, PageType, PhysAddr, PhysMemory, VirtAddr};

use crate::pte::{Pte, PteFlags};

/// Information about the leaf entry that maps an address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeafInfo {
    /// The leaf entry.
    pub pte: Pte,
    /// Physical address of the entry itself (inside a table frame).
    pub entry_addr: PhysAddr,
    /// Whether the mapping is a 2 MiB huge page.
    pub huge: bool,
}

/// Result of a page walk. Plain data held inline, so a walk allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Entry addresses read, PML4 first; the first `depth` are valid.
    steps: [PhysAddr; 4],
    depth: usize,
    /// The leaf mapping, if the walk reached one. `None` means the walk hit
    /// a non-present intermediate entry or an empty leaf.
    pub leaf: Option<LeafInfo>,
}

impl Walk {
    /// Physical addresses of every table entry read, in order (PML4 first).
    pub fn steps(&self) -> &[PhysAddr] {
        &self.steps[..self.depth]
    }
}

/// A 4-level page-table tree rooted at a PML4 frame.
pub struct PageTables {
    root: FrameId,
}

/// Flags given to intermediate (non-leaf) table entries.
const TABLE_FLAGS: PteFlags = PteFlags::from_bits(
    PteFlags::PRESENT.bits() | PteFlags::WRITABLE.bits() | PteFlags::USER.bits(),
);

impl PageTables {
    /// Allocates an empty PML4, or reports [`MmError::OutOfFrames`].
    pub fn new(mem: &mut PhysMemory, alloc: &mut dyn FrameAllocator) -> Result<Self, MmError> {
        let root = Self::alloc_table(mem, alloc)?;
        Ok(Self { root })
    }

    /// The PML4 frame.
    pub fn root(&self) -> FrameId {
        self.root
    }

    /// Rebuilds the handle around an existing root frame (snapshot
    /// restore: the table frames themselves live in [`PhysMemory`] and
    /// travel with its contents, so only the root needs recording).
    pub(crate) fn from_root(root: FrameId) -> Self {
        Self { root }
    }

    fn alloc_table(
        mem: &mut PhysMemory,
        alloc: &mut dyn FrameAllocator,
    ) -> Result<FrameId, MmError> {
        let f = alloc.alloc()?;
        mem.info_mut(f).on_alloc(PageType::PageTable);
        mem.zero_page(f);
        Ok(f)
    }

    fn entry_addr(table: FrameId, idx: usize) -> PhysAddr {
        table.base() + (idx as u64) * 8
    }

    fn read_entry(mem: &PhysMemory, table: FrameId, idx: usize) -> Pte {
        Pte(mem.read_u64(Self::entry_addr(table, idx)))
    }

    fn write_entry(mem: &mut PhysMemory, table: FrameId, idx: usize, pte: Pte) {
        mem.write_u64(Self::entry_addr(table, idx), pte.0);
    }

    /// Walks the tables for `va`, recording each entry address touched.
    pub fn walk(&self, mem: &PhysMemory, va: VirtAddr) -> Walk {
        let idx = va.pt_indices();
        let mut walk = Walk {
            steps: [PhysAddr(0); 4],
            depth: 0,
            leaf: None,
        };
        let mut table = self.root;
        for (level, &ix) in idx.iter().enumerate() {
            let entry_addr = Self::entry_addr(table, ix);
            walk.steps[level] = entry_addr;
            walk.depth = level + 1;
            let pte = Self::read_entry(mem, table, ix);
            let huge = level == 2 && pte.has(PteFlags::HUGE);
            if level == 3 || huge {
                // A PT leaf, or a PD leaf mapping a 2 MiB page (a 3-level
                // walk). An empty PT leaf maps nothing.
                walk.leaf = (huge || !pte.is_empty()).then_some(LeafInfo {
                    pte,
                    entry_addr,
                    huge,
                });
                break;
            }
            if !pte.is_present() {
                break;
            }
            table = pte.frame();
        }
        walk
    }

    /// Ensures intermediate tables down to the PT exist and returns the PT
    /// frame. Splits nothing: a huge mapping in the way is
    /// [`MmError::BadPageTable`].
    fn ensure_pt(
        &mut self,
        mem: &mut PhysMemory,
        alloc: &mut dyn FrameAllocator,
        va: VirtAddr,
    ) -> Result<FrameId, MmError> {
        let idx = va.pt_indices();
        let mut table = self.root;
        for (level, &ix) in idx.iter().enumerate().take(3) {
            let pte = Self::read_entry(mem, table, ix);
            if level == 2 && pte.has(PteFlags::HUGE) {
                // A 4 KiB mapping was requested under an existing huge
                // mapping; the caller must break_huge first.
                return Err(MmError::BadPageTable(va));
            }
            table = if pte.is_present() {
                pte.frame()
            } else {
                let t = Self::alloc_table(mem, alloc)?;
                Self::write_entry(mem, table, idx[level], Pte::new(t, TABLE_FLAGS));
                t
            };
        }
        Ok(table)
    }

    /// Maps `va` (4 KiB) to `frame` with the given flags.
    ///
    /// # Errors
    ///
    /// [`MmError::BadPageTable`] if the page is already mapped (unmap first)
    /// or a huge mapping covers the address; [`MmError::OutOfFrames`] if an
    /// intermediate table cannot be allocated.
    pub fn map_page(
        &mut self,
        mem: &mut PhysMemory,
        alloc: &mut dyn FrameAllocator,
        va: VirtAddr,
        frame: FrameId,
        flags: PteFlags,
    ) -> Result<(), MmError> {
        let pt = self.ensure_pt(mem, alloc, va)?;
        let idx = va.pt_indices()[3];
        let old = Self::read_entry(mem, pt, idx);
        if !old.is_empty() {
            return Err(MmError::BadPageTable(va));
        }
        Self::write_entry(mem, pt, idx, Pte::new(frame, flags));
        Ok(())
    }

    /// Maps a 2 MiB huge page at `va` (must be 2 MiB aligned) to the 512
    /// frames starting at `frame` (must be huge-aligned).
    ///
    /// # Errors
    ///
    /// [`MmError::BadPageTable`] on misalignment or if anything is already
    /// mapped there; [`MmError::OutOfFrames`] if an intermediate table
    /// cannot be allocated.
    pub fn map_huge(
        &mut self,
        mem: &mut PhysMemory,
        alloc: &mut dyn FrameAllocator,
        va: VirtAddr,
        frame: FrameId,
        flags: PteFlags,
    ) -> Result<(), MmError> {
        if !va.is_huge_aligned() || !frame.is_huge_aligned() {
            return Err(MmError::BadPageTable(va));
        }
        let idx = va.pt_indices();
        let mut table = self.root;
        for &ix in idx.iter().take(2) {
            let pte = Self::read_entry(mem, table, ix);
            table = if pte.is_present() {
                pte.frame()
            } else {
                let t = Self::alloc_table(mem, alloc)?;
                Self::write_entry(mem, table, ix, Pte::new(t, TABLE_FLAGS));
                t
            };
        }
        let old = Self::read_entry(mem, table, idx[2]);
        if !old.is_empty() {
            return Err(MmError::BadPageTable(va));
        }
        Self::write_entry(mem, table, idx[2], Pte::new(frame, flags | PteFlags::HUGE));
        Ok(())
    }

    /// Reads the leaf mapping for `va` without recording steps.
    pub fn leaf(&self, mem: &PhysMemory, va: VirtAddr) -> Option<LeafInfo> {
        self.walk(mem, va).leaf
    }

    /// Overwrites the leaf entry that maps `va` (4 KiB or huge).
    ///
    /// # Errors
    ///
    /// [`MmError::BadPageTable`] if `va` has no leaf entry.
    pub fn set_leaf(
        &mut self,
        mem: &mut PhysMemory,
        va: VirtAddr,
        pte: Pte,
    ) -> Result<(), MmError> {
        let leaf = self.leaf(mem, va).ok_or(MmError::BadPageTable(va))?;
        mem.write_u64(leaf.entry_addr, pte.0);
        Ok(())
    }

    /// Overwrites the leaf entry `leaf` describes, which a walk of these
    /// tables returned with no table write since, with `pte`. Saves the
    /// second walk [`Self::set_leaf`] would take.
    #[inline]
    pub fn set_at(&mut self, mem: &mut PhysMemory, leaf: &LeafInfo, pte: Pte) {
        mem.write_u64(leaf.entry_addr, pte.0);
    }

    /// ORs `flags` into the leaf entry `leaf` describes, which a walk of
    /// these tables returned with no table write since, and returns the
    /// entry written. Saves the second walk [`Self::set_leaf`] would take.
    pub fn or_flags_at(&mut self, mem: &mut PhysMemory, leaf: &LeafInfo, flags: PteFlags) -> Pte {
        let pte = leaf.pte.set(flags);
        mem.write_u64(leaf.entry_addr, pte.0);
        pte
    }

    /// ORs `flags` into the leaf entry that maps `va`, found by one walk,
    /// and returns the entry written; `None`, writing nothing, if `va`
    /// has no leaf entry.
    pub fn or_leaf_flags(
        &mut self,
        mem: &mut PhysMemory,
        va: VirtAddr,
        flags: PteFlags,
    ) -> Option<Pte> {
        let leaf = self.leaf(mem, va)?;
        Some(self.or_flags_at(mem, &leaf, flags))
    }

    /// Removes the leaf mapping for `va` and returns the old entry.
    ///
    /// # Errors
    ///
    /// [`MmError::BadPageTable`] if `va` is not mapped.
    pub fn unmap(&mut self, mem: &mut PhysMemory, va: VirtAddr) -> Result<Pte, MmError> {
        let leaf = self.leaf(mem, va).ok_or(MmError::BadPageTable(va))?;
        mem.write_u64(leaf.entry_addr, Pte::EMPTY.0);
        Ok(leaf.pte)
    }

    /// Replaces a huge mapping with a PT of 512 4-KiB entries pointing at
    /// the same 512 frames with the same permission flags (KSM-style huge
    /// page break, §5.1 / §8.1). Returns the new PT frame.
    ///
    /// # Errors
    ///
    /// [`MmError::BadPageTable`] if `va` is not covered by a huge mapping;
    /// [`MmError::OutOfFrames`] if the PT cannot be allocated.
    pub fn break_huge(
        &mut self,
        mem: &mut PhysMemory,
        alloc: &mut dyn FrameAllocator,
        va: VirtAddr,
    ) -> Result<FrameId, MmError> {
        let base = va.huge_base();
        let leaf = self.leaf(mem, base).ok_or(MmError::BadPageTable(base))?;
        if !leaf.huge {
            return Err(MmError::BadPageTable(base));
        }
        let flags = leaf.pte.flags() & !PteFlags::HUGE;
        let first = leaf.pte.frame();
        let pt = Self::alloc_table(mem, alloc)?;
        for i in 0..512u64 {
            Self::write_entry(mem, pt, i as usize, Pte::new(FrameId(first.0 + i), flags));
        }
        mem.write_u64(leaf.entry_addr, Pte::new(pt, TABLE_FLAGS).0);
        Ok(pt)
    }

    /// Replaces 512 4-KiB mappings (which must cover the whole huge range
    /// starting at `va`, all pointing into the huge-aligned block starting
    /// at `frame`) with one huge mapping, freeing the PT frame.
    ///
    /// # Errors
    ///
    /// [`MmError::BadPageTable`] on misalignment, when the PD slot does not
    /// hold a PT, or when the PT frame is multiply referenced; free errors
    /// from the allocator propagate.
    pub fn collapse_huge(
        &mut self,
        mem: &mut PhysMemory,
        alloc: &mut dyn FrameAllocator,
        va: VirtAddr,
        frame: FrameId,
        flags: PteFlags,
    ) -> Result<(), MmError> {
        if !va.is_huge_aligned() || !frame.is_huge_aligned() {
            return Err(MmError::BadPageTable(va));
        }
        let idx = va.pt_indices();
        let mut table = self.root;
        for &ix in idx.iter().take(2) {
            let pte = Self::read_entry(mem, table, ix);
            if !pte.is_present() {
                return Err(MmError::BadPageTable(va));
            }
            table = pte.frame();
        }
        let pd_entry = Self::read_entry(mem, table, idx[2]);
        if !pd_entry.is_present() || pd_entry.has(PteFlags::HUGE) {
            return Err(MmError::BadPageTable(va));
        }
        let pt = pd_entry.frame();
        // Validate the PT's refcount before touching the PD entry, so a
        // rejected collapse leaves the tables unchanged.
        let mut info = mem.info_mut(pt);
        if !info.put() {
            return Err(MmError::BadPageTable(va));
        }
        info.on_free();
        drop(info);
        Self::write_entry(mem, table, idx[2], Pte::new(frame, flags | PteFlags::HUGE));
        // Release the now-unused PT frame. Zero it first: every free path
        // must scrub, or stale PTE bytes would leak into later demand-zero
        // pages (the buddy's LIFO reuse hands this frame out next).
        mem.zero_page(pt);
        alloc.free(pt)?;
        Ok(())
    }

    /// Whether the PD slot covering `va` is completely empty (no PT, no
    /// huge mapping) — i.e. a 2 MiB demand mapping could be installed.
    pub fn huge_slot_free(&self, mem: &PhysMemory, va: VirtAddr) -> bool {
        let idx = va.pt_indices();
        let mut table = self.root;
        for &ix in idx.iter().take(2) {
            let pte = Self::read_entry(mem, table, ix);
            if !pte.is_present() {
                return true;
            }
            table = pte.frame();
        }
        Self::read_entry(mem, table, idx[2]).is_empty()
    }

    /// Tests and clears the ACCESSED bit of the leaf mapping `va` — the
    /// idle-page-tracking primitive (§7.2). Returns `None` if unmapped.
    pub fn test_and_clear_accessed(&mut self, mem: &mut PhysMemory, va: VirtAddr) -> Option<bool> {
        let leaf = self.leaf(mem, va)?;
        let was = leaf.pte.has(PteFlags::ACCESSED);
        if was {
            mem.write_u64(leaf.entry_addr, leaf.pte.clear(PteFlags::ACCESSED).0);
        }
        Some(was)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_mem::BuddyAllocator;

    fn setup() -> (PhysMemory, BuddyAllocator, PageTables) {
        let mut mem = PhysMemory::new(4096);
        let mut alloc = BuddyAllocator::new(FrameId(0), 4096);
        let pt = PageTables::new(&mut mem, &mut alloc).expect("PML4");
        (mem, alloc, pt)
    }

    fn user_frame(mem: &mut PhysMemory, alloc: &mut BuddyAllocator) -> FrameId {
        let f = alloc.alloc().expect("frame");
        mem.info_mut(f).on_alloc(PageType::Anon);
        f
    }

    #[test]
    fn map_and_walk_4k() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = user_frame(&mut mem, &mut alloc);
        let va = VirtAddr(0x7000_0000_0000);
        pt.map_page(
            &mut mem,
            &mut alloc,
            va,
            f,
            PteFlags::PRESENT | PteFlags::USER,
        )
        .expect("map");
        let w = pt.walk(&mem, va);
        assert_eq!(w.steps().len(), 4, "4 KiB mapping walks four levels");
        let leaf = w.leaf.expect("mapped");
        assert_eq!(leaf.pte.frame(), f);
        assert!(!leaf.huge);
    }

    #[test]
    fn unmapped_walk_has_no_leaf() {
        let (mem, _alloc, pt) = setup();
        let w = pt.walk(&mem, VirtAddr(0x1234_5000));
        assert!(w.leaf.is_none());
        assert_eq!(w.steps().len(), 1, "stops at the first non-present level");
    }

    #[test]
    fn huge_mapping_walks_three_levels() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = alloc.alloc_order(9).expect("huge block");
        mem.info_mut(f).on_alloc(PageType::Anon);
        let va = VirtAddr(0x4000_0000);
        pt.map_huge(
            &mut mem,
            &mut alloc,
            va,
            f,
            PteFlags::PRESENT | PteFlags::WRITABLE,
        )
        .expect("map_huge");
        let w = pt.walk(&mem, va + 5 * 4096 + 3);
        assert_eq!(w.steps().len(), 3, "2 MiB mapping walks three levels");
        let leaf = w.leaf.expect("mapped");
        assert!(leaf.huge);
        assert_eq!(leaf.pte.frame(), f);
    }

    #[test]
    fn break_huge_preserves_translation() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = alloc.alloc_order(9).expect("huge block");
        mem.info_mut(f).on_alloc(PageType::Anon);
        let va = VirtAddr(0x4000_0000);
        pt.map_huge(
            &mut mem,
            &mut alloc,
            va,
            f,
            PteFlags::PRESENT | PteFlags::WRITABLE,
        )
        .expect("map_huge");
        pt.break_huge(&mut mem, &mut alloc, va + 17 * 4096)
            .expect("break_huge");
        // Every sub-page now maps 4 KiB to the corresponding frame.
        for i in [0u64, 17, 511] {
            let w = pt.walk(&mem, va + i * 4096);
            assert_eq!(w.steps().len(), 4, "now a 4-level walk");
            let leaf = w.leaf.expect("still mapped");
            assert!(!leaf.huge);
            assert_eq!(leaf.pte.frame(), FrameId(f.0 + i));
            assert!(leaf.pte.has(PteFlags::WRITABLE));
        }
    }

    #[test]
    fn collapse_huge_restores_three_level_walk() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = alloc.alloc_order(9).expect("huge block");
        mem.info_mut(f).on_alloc(PageType::Anon);
        let va = VirtAddr(0x4000_0000);
        pt.map_huge(
            &mut mem,
            &mut alloc,
            va,
            f,
            PteFlags::PRESENT | PteFlags::WRITABLE,
        )
        .expect("map_huge");
        pt.break_huge(&mut mem, &mut alloc, va).expect("break_huge");
        let table_frames_before = alloc.free_frames();
        pt.collapse_huge(
            &mut mem,
            &mut alloc,
            va,
            f,
            PteFlags::PRESENT | PteFlags::WRITABLE,
        )
        .expect("collapse_huge");
        assert_eq!(
            alloc.free_frames(),
            table_frames_before + 1,
            "PT frame freed"
        );
        let w = pt.walk(&mem, va + 4096);
        assert_eq!(w.steps().len(), 3);
        assert!(w.leaf.expect("mapped").huge);
    }

    #[test]
    fn set_leaf_changes_mapping() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = user_frame(&mut mem, &mut alloc);
        let g = user_frame(&mut mem, &mut alloc);
        let va = VirtAddr(0x1000);
        pt.map_page(&mut mem, &mut alloc, va, f, PteFlags::PRESENT)
            .expect("map");
        let leaf = pt.leaf(&mem, va).expect("mapped");
        pt.set_leaf(
            &mut mem,
            va,
            leaf.pte
                .with_frame(g)
                .set(PteFlags::RESERVED | PteFlags::NO_CACHE),
        )
        .expect("set_leaf");
        let new = pt.leaf(&mem, va).expect("mapped");
        assert_eq!(new.pte.frame(), g);
        assert!(new.pte.is_trapped());
        assert!(new.pte.has(PteFlags::NO_CACHE));
    }

    #[test]
    fn set_leaf_on_unmapped_is_reported() {
        let (mut mem, _alloc, mut pt) = setup();
        let va = VirtAddr(0x5000);
        assert_eq!(
            pt.set_leaf(&mut mem, va, Pte::EMPTY),
            Err(MmError::BadPageTable(va))
        );
    }

    #[test]
    fn unmap_clears_leaf() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = user_frame(&mut mem, &mut alloc);
        let va = VirtAddr(0x2000);
        pt.map_page(&mut mem, &mut alloc, va, f, PteFlags::PRESENT)
            .expect("map");
        let old = pt.unmap(&mut mem, va).expect("unmap");
        assert_eq!(old.frame(), f);
        assert!(pt.leaf(&mem, va).is_none());
        assert_eq!(
            pt.unmap(&mut mem, va),
            Err(MmError::BadPageTable(va)),
            "second unmap is a typed error"
        );
    }

    #[test]
    fn accessed_bit_test_and_clear() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = user_frame(&mut mem, &mut alloc);
        let va = VirtAddr(0x3000);
        pt.map_page(
            &mut mem,
            &mut alloc,
            va,
            f,
            PteFlags::PRESENT | PteFlags::ACCESSED,
        )
        .expect("map");
        assert_eq!(pt.test_and_clear_accessed(&mut mem, va), Some(true));
        assert_eq!(pt.test_and_clear_accessed(&mut mem, va), Some(false));
        assert_eq!(
            pt.test_and_clear_accessed(&mut mem, VirtAddr(0x9999_0000)),
            None
        );
    }

    #[test]
    fn distinct_addresses_share_tables() {
        let (mut mem, mut alloc, mut pt) = setup();
        let free_before = alloc.free_frames();
        let f1 = user_frame(&mut mem, &mut alloc);
        let f2 = user_frame(&mut mem, &mut alloc);
        pt.map_page(
            &mut mem,
            &mut alloc,
            VirtAddr(0x1000),
            f1,
            PteFlags::PRESENT,
        )
        .expect("map");
        let tables_after_first = free_before - alloc.free_frames();
        pt.map_page(
            &mut mem,
            &mut alloc,
            VirtAddr(0x2000),
            f2,
            PteFlags::PRESENT,
        )
        .expect("map");
        let tables_after_second = free_before - alloc.free_frames();
        // The second mapping reuses the same PDPT/PD/PT: no new table frames.
        assert_eq!(tables_after_second, tables_after_first);
    }

    #[test]
    fn double_map_is_reported() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = user_frame(&mut mem, &mut alloc);
        let va = VirtAddr(0x1000);
        pt.map_page(&mut mem, &mut alloc, va, f, PteFlags::PRESENT)
            .expect("map");
        assert_eq!(
            pt.map_page(&mut mem, &mut alloc, va, f, PteFlags::PRESENT),
            Err(MmError::BadPageTable(va)),
            "remapping must be a typed error"
        );
        // The original mapping is untouched.
        assert_eq!(pt.leaf(&mem, va).expect("mapped").pte.frame(), f);
    }

    #[test]
    fn huge_map_requires_alignment() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = alloc.alloc_order(9).expect("block");
        mem.info_mut(f).on_alloc(PageType::Anon);
        let va = VirtAddr(0x1000);
        assert_eq!(
            pt.map_huge(&mut mem, &mut alloc, va, f, PteFlags::PRESENT),
            Err(MmError::BadPageTable(va))
        );
    }

    #[test]
    fn map_under_huge_is_reported() {
        let (mut mem, mut alloc, mut pt) = setup();
        let f = alloc.alloc_order(9).expect("block");
        mem.info_mut(f).on_alloc(PageType::Anon);
        let va = VirtAddr(0x4000_0000);
        pt.map_huge(&mut mem, &mut alloc, va, f, PteFlags::PRESENT)
            .expect("map_huge");
        let inner = va + 3 * 4096;
        let g = user_frame(&mut mem, &mut alloc);
        assert_eq!(
            pt.map_page(&mut mem, &mut alloc, inner, g, PteFlags::PRESENT),
            Err(MmError::BadPageTable(inner)),
            "4 KiB map under a huge mapping must be a typed error"
        );
    }

    #[test]
    fn out_of_frames_surfaces_from_table_allocation() {
        let mut mem = PhysMemory::new(2);
        let mut alloc = BuddyAllocator::new(FrameId(0), 2);
        let mut pt = PageTables::new(&mut mem, &mut alloc).expect("PML4");
        let f = alloc.alloc().expect("frame");
        mem.info_mut(f).on_alloc(PageType::Anon);
        // No frames left for the PDPT/PD/PT chain.
        assert_eq!(
            pt.map_page(&mut mem, &mut alloc, VirtAddr(0x1000), f, PteFlags::PRESENT),
            Err(MmError::OutOfFrames)
        );
    }
}
