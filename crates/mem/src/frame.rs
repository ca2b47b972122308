//! Per-frame metadata: allocation state, reference counts, page types.
//!
//! The paper's Table 3 breaks down which kinds of pages contribute to page
//! fusion (page cache, buddy-free pages, kernel pages, rest); [`PageType`]
//! carries that classification. Reference counting mirrors Linux's
//! `struct page` refcount and drives unmerge semantics: a stable-tree page is
//! only released once its last sharer performs copy-on-write (§2.1).
//!
//! A frame's write generation is not metadata anyone may set: it lives with
//! the frame's bytes inside [`crate::PhysMemory`], which bumps it on every
//! content write (read it with [`crate::PhysMemory::write_gen`]).

/// Classification of what a frame currently backs, used for the Table 3
/// accounting and for the WPF linear allocator's "steal" heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PageType {
    /// Frame is on a free list (the "buddy" row of Table 3: free pages are
    /// full of stale, often duplicate, data).
    #[default]
    Free,
    /// Anonymous user memory.
    Anon,
    /// File-backed page-cache memory (the largest fusion contributor).
    PageCache,
    /// Kernel data (page tables, slab, ...). Never fused.
    Kernel,
    /// A page-table frame. Never fused.
    PageTable,
    /// A page the fusion engine allocated for fused content: a page of
    /// WPF's or VUsion's tree. (KSM merges in place, so its stable pages
    /// keep their type.)
    Fused,
}

impl PageType {
    /// Every page type, in a fixed order usable as a dense array index via
    /// [`PageType::index`].
    pub const ALL: [PageType; 6] = [
        PageType::Free,
        PageType::Anon,
        PageType::PageCache,
        PageType::Kernel,
        PageType::PageTable,
        PageType::Fused,
    ];

    /// Inverse of [`PageType::index`], for snapshot decoding.
    pub fn from_index(i: usize) -> Option<Self> {
        Self::ALL.get(i).copied()
    }

    /// Position of this type in [`PageType::ALL`].
    pub fn index(self) -> usize {
        match self {
            PageType::Free => 0,
            PageType::Anon => 1,
            PageType::PageCache => 2,
            PageType::Kernel => 3,
            PageType::PageTable => 4,
            PageType::Fused => 5,
        }
    }

    /// Whether a fusion scanner may consider this frame's content.
    pub fn fusable(self) -> bool {
        matches!(self, PageType::Anon | PageType::PageCache)
    }
}

/// Allocation state of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameState {
    /// Owned by an allocator free list.
    Free,
    /// Handed out to a user.
    Allocated,
}

/// Metadata for one physical frame (the simulation's `struct page`).
#[derive(Debug, Clone)]
pub struct FrameInfo {
    /// Allocation state.
    pub state: FrameState,
    /// What the frame backs.
    pub page_type: PageType,
    /// Number of mappings referencing this frame (CoW sharers).
    pub refcount: u32,
    /// Generation counter bumped on every allocation; lets attack code
    /// detect frame reuse across fusion passes.
    pub generation: u64,
}

impl Default for FrameInfo {
    fn default() -> Self {
        Self {
            state: FrameState::Free,
            page_type: PageType::Free,
            refcount: 0,
            generation: 0,
        }
    }
}

impl FrameInfo {
    /// Marks the frame allocated for the given use and takes the first
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the frame is already allocated.
    pub fn on_alloc(&mut self, page_type: PageType) {
        assert_eq!(
            self.state,
            FrameState::Free,
            "allocating an allocated frame"
        );
        self.state = FrameState::Allocated;
        self.page_type = page_type;
        self.refcount = 1;
        self.generation += 1;
    }

    /// Marks the frame free again.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not allocated or still referenced.
    pub fn on_free(&mut self) {
        assert_eq!(self.state, FrameState::Allocated, "freeing a free frame");
        assert_eq!(self.refcount, 0, "freeing a referenced frame");
        self.state = FrameState::Free;
        self.page_type = PageType::Free;
    }

    /// Takes an additional reference (a new PTE now points here).
    ///
    /// # Panics
    ///
    /// Panics if the frame is free.
    pub fn get(&mut self) {
        assert_eq!(
            self.state,
            FrameState::Allocated,
            "referencing a free frame"
        );
        self.refcount += 1;
    }

    /// Drops one reference; returns `true` when the count reaches zero and
    /// the frame should be released.
    ///
    /// # Panics
    ///
    /// Panics if there is no reference to drop.
    pub fn put(&mut self) -> bool {
        assert!(self.refcount > 0, "refcount underflow");
        self.refcount -= 1;
        self.refcount == 0
    }
}

impl vusion_snapshot::Snapshot for FrameInfo {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u8(match self.state {
            FrameState::Free => 0,
            FrameState::Allocated => 1,
        });
        w.u8(self.page_type.index() as u8);
        w.u32(self.refcount);
        w.u64(self.generation);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let Self {
            state,
            page_type,
            refcount,
            generation,
        } = self;
        *state = match r.u8()? {
            0 => FrameState::Free,
            1 => FrameState::Allocated,
            _ => return Err(SnapshotError::Corrupt("frame state")),
        };
        *page_type =
            PageType::from_index(r.u8()? as usize).ok_or(SnapshotError::Corrupt("page type"))?;
        *refcount = r.u32()?;
        *generation = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_field() {
        let src = FrameInfo {
            state: FrameState::Allocated,
            page_type: PageType::PageCache,
            refcount: 3,
            generation: 5,
        };
        let (a, b) = vusion_snapshot::resave(&src, &mut FrameInfo::default()).expect("resave");
        assert_eq!(a, b);
    }

    #[test]
    fn alloc_free_cycle() {
        let mut f = FrameInfo::default();
        f.on_alloc(PageType::Anon);
        assert_eq!(f.state, FrameState::Allocated);
        assert_eq!(f.refcount, 1);
        assert!(f.put());
        f.on_free();
        assert_eq!(f.state, FrameState::Free);
        assert_eq!(f.page_type, PageType::Free);
    }

    #[test]
    fn generation_bumps_on_each_alloc() {
        let mut f = FrameInfo::default();
        f.on_alloc(PageType::Anon);
        assert!(f.put());
        f.on_free();
        f.on_alloc(PageType::PageCache);
        assert_eq!(f.generation, 2);
    }

    #[test]
    fn refcount_sharing() {
        let mut f = FrameInfo::default();
        f.on_alloc(PageType::Fused);
        f.get();
        f.get();
        assert_eq!(f.refcount, 3);
        assert!(!f.put());
        assert!(!f.put());
        assert!(f.put());
    }

    #[test]
    fn page_type_index_matches_all_order() {
        for (i, t) in PageType::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn fusable_types() {
        assert!(PageType::Anon.fusable());
        assert!(PageType::PageCache.fusable());
        assert!(!PageType::Kernel.fusable());
        assert!(!PageType::PageTable.fusable());
        assert!(!PageType::Free.fusable());
    }

    #[test]
    #[should_panic(expected = "allocating an allocated frame")]
    fn double_alloc_panics() {
        let mut f = FrameInfo::default();
        f.on_alloc(PageType::Anon);
        f.on_alloc(PageType::Anon);
    }

    #[test]
    #[should_panic(expected = "freeing a referenced frame")]
    fn free_with_refs_panics() {
        let mut f = FrameInfo::default();
        f.on_alloc(PageType::Anon);
        f.on_free();
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn put_without_ref_panics() {
        let mut f = FrameInfo::default();
        f.on_alloc(PageType::Anon);
        f.put();
        f.put();
    }
}
