//! Fixture: V001 true positives — allow annotations without a reason or
//! naming a rule the catalog does not have.

pub fn headroom(alloc: &BuddyAllocator) -> usize {
    alloc.free_frames() // vlint: allow(G001)
}

pub fn spare(alloc: &BuddyAllocator) -> usize {
    // vlint: allow(Z999, a rule that does not exist)
    alloc.free_frames()
}
