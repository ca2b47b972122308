//! A per-process address space: VMA list plus page tables.

use vusion_mem::{FrameAllocator, MmError, PhysMemory, VirtAddr};

use crate::tables::PageTables;
use crate::vma::Vma;

/// One process's (or one VM's) virtual address space.
pub struct AddressSpace {
    tables: PageTables,
    vmas: Vec<Vma>,
    layout_gen: u64,
}

impl AddressSpace {
    /// Creates an empty address space (allocates the PML4), or reports
    /// [`MmError::OutOfFrames`].
    pub fn new(mem: &mut PhysMemory, alloc: &mut dyn FrameAllocator) -> Result<Self, MmError> {
        Ok(Self {
            tables: PageTables::new(mem, alloc)?,
            vmas: Vec::new(),
            layout_gen: 0,
        })
    }

    /// Layout generation: bumped whenever the VMA list or its mergeable
    /// marking changes. Scanners key their cached candidate lists on this
    /// so they only re-enumerate after an `mmap`/`madvise`, not on every
    /// scan.
    pub fn layout_generation(&self) -> u64 {
        self.layout_gen
    }

    /// The page tables.
    pub fn tables(&self) -> &PageTables {
        &self.tables
    }

    /// The page tables, mutably.
    pub fn tables_mut(&mut self) -> &mut PageTables {
        &mut self.tables
    }

    /// Adds a VMA (an `mmap` call).
    ///
    /// # Panics
    ///
    /// Panics if the area overlaps an existing VMA.
    pub fn add_vma(&mut self, vma: Vma) {
        assert!(
            !self.vmas.iter().any(|v| v.overlaps(&vma)),
            "VMA overlap at {:?}",
            vma.start
        );
        self.vmas.push(vma);
        self.vmas.sort_by_key(|v| v.start.0);
        self.layout_gen += 1;
    }

    /// The VMA containing `va`, if any.
    pub fn find_vma(&self, va: VirtAddr) -> Option<&Vma> {
        self.vmas.iter().find(|v| v.contains(va))
    }

    /// All VMAs, sorted by start address.
    pub fn vmas(&self) -> &[Vma] {
        &self.vmas
    }

    /// Marks every VMA intersecting `[start, start + pages)` as mergeable —
    /// the `madvise(MADV_MERGEABLE)` registration KSM requires (§2.1).
    /// Returns how many VMAs were registered.
    pub fn madvise_mergeable(&mut self, start: VirtAddr, pages: u64) -> usize {
        let probe = Vma::anon(
            start.page_base(),
            pages.max(1),
            crate::vma::Protection::ro(),
        );
        let mut n = 0;
        for v in &mut self.vmas {
            if v.overlaps(&probe) && !v.mergeable {
                v.mergeable = true;
                n += 1;
            }
        }
        if n > 0 {
            self.layout_gen += 1;
        }
        n
    }

    /// All mergeable VMAs (the fusion scanner's candidate list).
    pub fn mergeable_vmas(&self) -> impl Iterator<Item = &Vma> {
        self.vmas.iter().filter(|v| v.mergeable)
    }

    /// Serializes the space: root table frame, VMA list, layout
    /// generation. The table frames themselves are physical memory and
    /// travel with the [`PhysMemory`] snapshot.
    pub fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.tables.root().0);
        w.usize(self.vmas.len());
        for v in &self.vmas {
            v.save(w);
        }
        w.u64(self.layout_gen);
    }

    /// Rebuilds a space previously written by [`Self::save`]. No frames
    /// are allocated: the recorded root must already be live in the
    /// restored physical memory.
    pub fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        let root = vusion_mem::FrameId(r.u64()?);
        // An anonymous VMA, the shortest, takes 23 bytes.
        let n = r.len_prefix(23)?;
        let mut vmas = Vec::with_capacity(n);
        for _ in 0..n {
            vmas.push(Vma::load(r)?);
        }
        Ok(Self {
            tables: PageTables::from_root(root),
            vmas,
            layout_gen: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vma::Protection;
    use vusion_mem::{BuddyAllocator, FrameId};

    fn setup() -> (PhysMemory, BuddyAllocator, AddressSpace) {
        let mut mem = PhysMemory::new(1024);
        let mut alloc = BuddyAllocator::new(FrameId(0), 1024);
        let sp = AddressSpace::new(&mut mem, &mut alloc).expect("address space");
        (mem, alloc, sp)
    }

    #[test]
    fn vma_lookup() {
        let (_m, _a, mut sp) = setup();
        sp.add_vma(Vma::anon(VirtAddr(0x1000), 4, Protection::rw()));
        sp.add_vma(Vma::anon(VirtAddr(0x10000), 4, Protection::ro()));
        assert!(sp.find_vma(VirtAddr(0x2000)).is_some());
        assert!(sp.find_vma(VirtAddr(0x9000)).is_none());
        assert_eq!(sp.vmas().len(), 2);
    }

    #[test]
    fn vmas_stay_sorted() {
        let (_m, _a, mut sp) = setup();
        sp.add_vma(Vma::anon(VirtAddr(0x10000), 1, Protection::rw()));
        sp.add_vma(Vma::anon(VirtAddr(0x1000), 1, Protection::rw()));
        assert_eq!(sp.vmas()[0].start, VirtAddr(0x1000));
    }

    #[test]
    fn madvise_marks_overlapping_vmas() {
        let (_m, _a, mut sp) = setup();
        sp.add_vma(Vma::anon(VirtAddr(0x1000), 4, Protection::rw()));
        sp.add_vma(Vma::anon(VirtAddr(0x10000), 4, Protection::rw()));
        let n = sp.madvise_mergeable(VirtAddr(0x2000), 2);
        assert_eq!(n, 1);
        assert_eq!(sp.mergeable_vmas().count(), 1);
        assert!(sp.find_vma(VirtAddr(0x1000)).expect("vma").mergeable);
        assert!(!sp.find_vma(VirtAddr(0x10000)).expect("vma").mergeable);
    }

    #[test]
    fn layout_generation_tracks_mutations() {
        let (_m, _a, mut sp) = setup();
        let g0 = sp.layout_generation();
        sp.add_vma(Vma::anon(VirtAddr(0x1000), 4, Protection::rw()));
        let g1 = sp.layout_generation();
        assert!(g1 > g0);
        assert_eq!(sp.madvise_mergeable(VirtAddr(0x1000), 4), 1);
        let g2 = sp.layout_generation();
        assert!(g2 > g1);
        // A no-op madvise leaves the candidate set unchanged.
        assert_eq!(sp.madvise_mergeable(VirtAddr(0x1000), 4), 0);
        assert_eq!(sp.layout_generation(), g2);
    }

    #[test]
    fn madvise_is_idempotent() {
        let (_m, _a, mut sp) = setup();
        sp.add_vma(Vma::anon(VirtAddr(0x1000), 4, Protection::rw()));
        assert_eq!(sp.madvise_mergeable(VirtAddr(0x1000), 4), 1);
        assert_eq!(sp.madvise_mergeable(VirtAddr(0x1000), 4), 0);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_vma_panics() {
        let (_m, _a, mut sp) = setup();
        sp.add_vma(Vma::anon(VirtAddr(0x1000), 4, Protection::rw()));
        sp.add_vma(Vma::anon(VirtAddr(0x3000), 4, Protection::rw()));
    }
}
