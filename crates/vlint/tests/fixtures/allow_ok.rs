//! Fixture: V001 true negative — a reasoned allow suppresses its rule on
//! the annotated line and the line below.

pub fn headroom(alloc: &BuddyAllocator) -> usize {
    // vlint: allow(G001, host-side report — never feeds a throttling decision)
    alloc.free_frames()
}

pub fn spare(alloc: &BuddyAllocator) -> usize {
    alloc.free_frames() // vlint: allow(G001, same-line form of the annotation)
}
