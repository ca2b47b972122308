//! Virtual memory areas.
//!
//! §2.1: "VMAs are contiguous areas of virtual memory and the (virtual)
//! memory pages that belong to the same VMA share certain properties such
//! as permissions. [...] user processes that want page fusion should inform
//! KSM via an madvise system call" — registration happens at VMA
//! granularity, and the KSM scanner iterates registered VMAs round-robin.

use vusion_mem::{VirtAddr, PAGE_SIZE};

/// Access permissions of a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Protection {
    /// Readable.
    pub read: bool,
    /// Writable.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl Protection {
    /// Read+write, the common anonymous-memory protection.
    pub fn rw() -> Self {
        Self {
            read: true,
            write: true,
            exec: false,
        }
    }

    /// Read-only.
    pub fn ro() -> Self {
        Self {
            read: true,
            write: false,
            exec: false,
        }
    }

    /// Read+execute (library text).
    pub fn rx() -> Self {
        Self {
            read: true,
            write: false,
            exec: true,
        }
    }
}

/// What backs a VMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmaBacking {
    /// Anonymous memory (demand-zero).
    Anon,
    /// File-backed memory served through the page cache; the id names the
    /// simulated file.
    File {
        /// Simulated file identifier.
        file_id: u64,
        /// Page offset of the mapping within the file.
        offset_pages: u64,
    },
}

/// What a region means *inside the guest*, for the paper's Table 3
/// accounting ("page cache", "buddy", "kernel", "rest"). A KVM host sees
/// all guest memory as anonymous; the guest-side classification determines
/// where fusion opportunities come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GuestTag {
    /// Unclassified ("rest" in Table 3).
    #[default]
    Other,
    /// Guest page-cache contents (the largest fusion contributor).
    PageCache,
    /// Pages sitting free in the guest's buddy allocator (stale, often
    /// duplicate content).
    GuestBuddy,
    /// Guest kernel memory.
    GuestKernel,
}

/// One past the last address of `pages` pages from `start`, or `None`
/// when that overflows the address space.
pub fn range_end(start: VirtAddr, pages: u64) -> Option<VirtAddr> {
    pages
        .checked_mul(PAGE_SIZE)
        .and_then(|len| start.0.checked_add(len))
        .map(VirtAddr)
}

/// A contiguous virtual memory area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vma {
    /// First address (page aligned).
    pub start: VirtAddr,
    /// Length in 4 KiB pages.
    pub pages: u64,
    /// Access permissions.
    pub prot: Protection,
    /// Whether the owner registered this area for fusion
    /// (`madvise(MADV_MERGEABLE)`).
    pub mergeable: bool,
    /// Backing store.
    pub backing: VmaBacking,
    /// Guest-side classification (Table 3).
    pub tag: GuestTag,
    /// Whether transparent huge pages may back this area
    /// (`madvise(MADV_NOHUGEPAGE)` clears it).
    pub thp_eligible: bool,
}

impl Vma {
    /// Creates an anonymous, non-mergeable VMA.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not page aligned or `pages == 0`.
    pub fn anon(start: VirtAddr, pages: u64, prot: Protection) -> Self {
        assert_eq!(start.page_offset(), 0, "VMA start must be page aligned");
        assert!(pages > 0, "empty VMA");
        Self {
            start,
            pages,
            prot,
            mergeable: false,
            backing: VmaBacking::Anon,
            tag: GuestTag::default(),
            thp_eligible: true,
        }
    }

    /// Creates a file-backed VMA.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not page aligned or `pages == 0`.
    pub fn file(
        start: VirtAddr,
        pages: u64,
        prot: Protection,
        file_id: u64,
        offset_pages: u64,
    ) -> Self {
        assert_eq!(start.page_offset(), 0, "VMA start must be page aligned");
        assert!(pages > 0, "empty VMA");
        Self {
            start,
            pages,
            prot,
            mergeable: false,
            backing: VmaBacking::File {
                file_id,
                offset_pages,
            },
            tag: GuestTag::default(),
            thp_eligible: true,
        }
    }

    /// Disables THP backing for this area (`MADV_NOHUGEPAGE`).
    pub fn no_thp(mut self) -> Self {
        self.thp_eligible = false;
        self
    }

    /// Sets the guest-side classification (builder style).
    pub fn with_tag(mut self, tag: GuestTag) -> Self {
        self.tag = tag;
        self
    }

    /// One-past-the-end address.
    pub fn end(&self) -> VirtAddr {
        VirtAddr(self.start.0 + self.pages * PAGE_SIZE)
    }

    /// Whether `va` falls inside this area.
    pub fn contains(&self, va: VirtAddr) -> bool {
        va.0 >= self.start.0 && va.0 < self.end().0
    }

    /// Whether this area overlaps another.
    pub fn overlaps(&self, other: &Vma) -> bool {
        self.start.0 < other.end().0 && other.start.0 < self.end().0
    }

    /// Iterator over the page base addresses of the area.
    pub fn page_addrs(&self) -> impl Iterator<Item = VirtAddr> + '_ {
        (0..self.pages).map(move |i| VirtAddr(self.start.0 + i * PAGE_SIZE))
    }

    /// Serializes the area into a snapshot payload.
    pub fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.start.0);
        w.u64(self.pages);
        w.bool(self.prot.read);
        w.bool(self.prot.write);
        w.bool(self.prot.exec);
        w.bool(self.mergeable);
        match self.backing {
            VmaBacking::Anon => w.u8(0),
            VmaBacking::File {
                file_id,
                offset_pages,
            } => {
                w.u8(1);
                w.u64(file_id);
                w.u64(offset_pages);
            }
        }
        w.u8(match self.tag {
            GuestTag::Other => 0,
            GuestTag::PageCache => 1,
            GuestTag::GuestBuddy => 2,
            GuestTag::GuestKernel => 3,
        });
        w.bool(self.thp_eligible);
    }

    /// Reads an area previously written by [`Self::save`]. An unaligned
    /// or empty area, or one past the end of the address space, is
    /// [`vusion_snapshot::SnapshotError::Corrupt`].
    pub fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let start = VirtAddr(r.u64()?);
        let pages = r.u64()?;
        let prot = Protection {
            read: r.bool()?,
            write: r.bool()?,
            exec: r.bool()?,
        };
        let mergeable = r.bool()?;
        let backing = match r.u8()? {
            0 => VmaBacking::Anon,
            1 => VmaBacking::File {
                file_id: r.u64()?,
                offset_pages: r.u64()?,
            },
            _ => return Err(SnapshotError::Corrupt("vma backing")),
        };
        let tag = match r.u8()? {
            0 => GuestTag::Other,
            1 => GuestTag::PageCache,
            2 => GuestTag::GuestBuddy,
            3 => GuestTag::GuestKernel,
            _ => return Err(SnapshotError::Corrupt("guest tag")),
        };
        let thp_eligible = r.bool()?;
        if start.page_offset() != 0 || pages == 0 || range_end(start, pages).is_none() {
            return Err(SnapshotError::Corrupt("vma geometry"));
        }
        Ok(Self {
            start,
            pages,
            prot,
            mergeable,
            backing,
            tag,
            thp_eligible,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_end() {
        let v = Vma::anon(VirtAddr(0x1000), 2, Protection::rw());
        assert!(v.contains(VirtAddr(0x1000)));
        assert!(v.contains(VirtAddr(0x2fff)));
        assert!(!v.contains(VirtAddr(0x3000)));
        assert_eq!(v.end(), VirtAddr(0x3000));
    }

    #[test]
    fn overlap_detection() {
        let a = Vma::anon(VirtAddr(0x1000), 2, Protection::rw());
        let b = Vma::anon(VirtAddr(0x2000), 2, Protection::rw());
        let c = Vma::anon(VirtAddr(0x3000), 1, Protection::rw());
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn page_addrs_enumerates_pages() {
        let v = Vma::anon(VirtAddr(0x4000), 3, Protection::ro());
        let pages: Vec<_> = v.page_addrs().collect();
        assert_eq!(
            pages,
            vec![VirtAddr(0x4000), VirtAddr(0x5000), VirtAddr(0x6000)]
        );
    }

    #[test]
    fn file_backing_carries_offset() {
        let v = Vma::file(VirtAddr(0x8000), 4, Protection::rx(), 7, 16);
        assert_eq!(
            v.backing,
            VmaBacking::File {
                file_id: 7,
                offset_pages: 16
            }
        );
    }

    #[test]
    #[should_panic(expected = "page aligned")]
    fn unaligned_start_panics() {
        let _ = Vma::anon(VirtAddr(0x1001), 1, Protection::rw());
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn zero_pages_panics() {
        let _ = Vma::anon(VirtAddr(0x1000), 0, Protection::rw());
    }
}
