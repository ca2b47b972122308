//! A translation lookaside buffer.
//!
//! The TLB matters to the reproduction in two ways: performance (huge pages
//! exist to reduce TLB misses — the entire motivation of §8) and security
//! (a TLB hit skips the page-table walk, so the AnC attack needs the walk
//! entries evicted; the paper's §5.3 also mentions TLB-based side channels).

use vusion_mem::{FrameId, VirtAddr, HUGE_PAGE_SIZE, PAGE_SIZE};

use crate::pte::Pte;

/// A cached translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// The leaf PTE at fill time.
    pub pte: Pte,
    /// Whether it is a 2 MiB translation.
    pub huge: bool,
}

/// Key of an unused index slot. No page number reaches it: a 4 KiB page
/// number has at most 52 significant bits.
const FREE: u64 = u64::MAX;

/// Link of a FIFO end: no older or younger entry.
const NIL: usize = usize::MAX;

/// One slot of a [`Class`] index: a resident translation plus its links
/// in the fill-order list.
#[derive(Clone, Copy)]
struct Slot {
    /// Page number (4 KiB or 2 MiB units), or [`FREE`].
    key: u64,
    /// The cached leaf PTE.
    pte: Pte,
    /// Slot of the entry filled just before this one, or [`NIL`].
    older: usize,
    /// Slot of the entry filled just after this one, or [`NIL`].
    newer: usize,
}

const FREE_SLOT: Slot = Slot {
    key: FREE,
    pte: Pte(0),
    older: NIL,
    newer: NIL,
};

/// Fibonacci hashing multiplier (2^64 / golden ratio, odd).
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The translations of one page size: fully associative, FIFO
/// replacement. An open-addressed index (linear probing, backward-shift
/// deletion) finds an entry by page number; a doubly linked list
/// threaded through the same slots keeps fill order, so lookup, fill,
/// eviction and invalidation are all O(1). Only the fill order is
/// simulated state; where an entry sits in the index is not.
struct Class {
    cap: usize,
    /// Empty until the first fill, then a power of two at least twice
    /// `len`: the index grows with residency, never with `cap`.
    slots: Vec<Slot>,
    len: usize,
    oldest: usize,
    youngest: usize,
}

impl Class {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            slots: Vec::new(),
            len: 0,
            oldest: NIL,
            youngest: NIL,
        }
    }

    /// The slot where a probe for `key` starts. Needs a non-empty index.
    fn home(&self, key: u64) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (key.wrapping_mul(HASH_MUL) >> (64 - bits)) as usize
    }

    fn find(&self, key: u64) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            match self.slots[i].key {
                k if k == key => return Some(i),
                FREE => return None,
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn get(&self, key: u64) -> Option<Pte> {
        self.find(key).map(|i| self.slots[i].pte)
    }

    /// Fills `key`. A resident key takes the new PTE and keeps its FIFO
    /// position; a new key at capacity first evicts the oldest entry,
    /// which is returned.
    fn fill(&mut self, key: u64, pte: Pte) -> Option<Pte> {
        if let Some(i) = self.find(key) {
            self.slots[i].pte = pte;
            return None;
        }
        let evicted = if self.len == self.cap {
            let pte = self.slots[self.oldest].pte;
            self.remove(self.oldest);
            Some(pte)
        } else {
            None
        };
        self.push(key, pte);
        evicted
    }

    /// Appends an absent `key` as the youngest entry, growing the index
    /// first if it would become more than half full.
    fn push(&mut self, key: u64, pte: Pte) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i].key != FREE {
            i = (i + 1) & mask;
        }
        self.slots[i] = Slot {
            key,
            pte,
            older: self.youngest,
            newer: NIL,
        };
        self.relink(i);
        self.len += 1;
    }

    /// Doubles the index and re-inserts every entry in fill order.
    fn grow(&mut self) {
        let size = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![FREE_SLOT; size]);
        let mut i = self.oldest;
        self.len = 0;
        self.oldest = NIL;
        self.youngest = NIL;
        while i != NIL {
            let s = old[i];
            self.push(s.key, s.pte);
            i = s.newer;
        }
    }

    /// Points the neighbours of the entry in slot `i` (or the list ends)
    /// at `i`.
    fn relink(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.oldest = i,
            o => self.slots[o].newer = i,
        }
        match newer {
            NIL => self.youngest = i,
            n => self.slots[n].older = i,
        }
    }

    /// Drops the entry in slot `i` from the list and the index. Entries
    /// after it in its probe run shift back into the hole when the hole
    /// lies between their home slot and where they sit.
    fn remove(&mut self, i: usize) {
        let Slot { older, newer, .. } = self.slots[i];
        match older {
            NIL => self.oldest = newer,
            o => self.slots[o].newer = newer,
        }
        match newer {
            NIL => self.youngest = older,
            n => self.slots[n].older = older,
        }
        let mask = self.slots.len() - 1;
        let mut hole = i;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let key = self.slots[j].key;
            if key == FREE {
                break;
            }
            let home = self.home(key);
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = self.slots[j];
                self.relink(hole);
                hole = j;
            }
        }
        self.slots[hole] = FREE_SLOT;
        self.len -= 1;
    }

    fn invalidate(&mut self, key: u64) {
        if let Some(i) = self.find(key) {
            self.remove(i);
        }
    }

    fn clear(&mut self) {
        self.slots.fill(FREE_SLOT);
        self.len = 0;
        self.oldest = NIL;
        self.youngest = NIL;
    }

    /// Resident `(key, pte)` pairs, oldest fill first.
    fn fifo(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let mut i = self.oldest;
        std::iter::from_fn(move || {
            if i == NIL {
                return None;
            }
            let s = self.slots[i];
            i = s.newer;
            Some((s.key, s.pte))
        })
    }

    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.len);
        for (key, pte) in self.fifo() {
            w.u64(key);
            w.u64(pte.0);
        }
    }

    /// Reads a class written by [`Self::save`], rejecting a count over
    /// `cap`, a repeated key and the [`FREE`] key. The index grows per
    /// entry read, so a crafted count allocates nothing up front.
    fn load(
        cap: usize,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        if cap == 0 {
            return Err(SnapshotError::Corrupt("TLB capacity is zero"));
        }
        let n = r.usize()?;
        if n > cap {
            return Err(SnapshotError::Corrupt("more TLB entries than capacity"));
        }
        let mut class = Self::new(cap);
        for _ in 0..n {
            let key = r.u64()?;
            let pte = Pte(r.u64()?);
            if key == FREE || class.find(key).is_some() {
                return Err(SnapshotError::Corrupt("repeated or impossible TLB key"));
            }
            class.push(key, pte);
        }
        Ok(class)
    }
}

/// Fully associative TLB with FIFO replacement and separate 4 KiB / 2 MiB
/// arrays (like real x86 STLBs, modeled simply).
pub struct Tlb {
    small: Class,
    huge: Class,
    hits: u64,
    misses: u64,
    invalidations: u64,
    flushes: u64,
}

impl Tlb {
    /// Creates a TLB with the given entry counts.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(cap_4k: usize, cap_2m: usize) -> Self {
        assert!(cap_4k > 0 && cap_2m > 0, "TLB capacities must be positive");
        Self {
            small: Class::new(cap_4k),
            huge: Class::new(cap_2m),
            hits: 0,
            misses: 0,
            invalidations: 0,
            flushes: 0,
        }
    }

    /// A typical size: 1536 4 KiB entries, 32 2 MiB entries.
    pub fn skylake() -> Self {
        Self::new(1536, 32)
    }

    /// Looks up `va`; counts a hit or miss.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<TlbEntry> {
        let entry = if let Some(pte) = self.huge.get(va.0 / HUGE_PAGE_SIZE) {
            Some(TlbEntry { pte, huge: true })
        } else {
            self.small
                .get(va.page())
                .map(|pte| TlbEntry { pte, huge: false })
        };
        if entry.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        entry
    }

    /// Inserts a translation after a successful walk. Refilling a
    /// resident page keeps its FIFO position; filling a new page into a
    /// full array evicts and returns the oldest entry.
    pub fn fill(&mut self, va: VirtAddr, entry: TlbEntry) -> Option<TlbEntry> {
        let huge = entry.huge;
        let evicted = if huge {
            self.huge.fill(va.0 / HUGE_PAGE_SIZE, entry.pte)
        } else {
            self.small.fill(va.page(), entry.pte)
        };
        evicted.map(|pte| TlbEntry { pte, huge })
    }

    /// Iterates every resident entry, 4 KiB then 2 MiB, in no particular
    /// order within each. Read-only — snapshot-time occupancy counts use
    /// this.
    pub fn entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        let small = self
            .small
            .fifo()
            .map(|(_, pte)| TlbEntry { pte, huge: false });
        let huge = self
            .huge
            .fifo()
            .map(|(_, pte)| TlbEntry { pte, huge: true });
        small.chain(huge)
    }

    /// Invalidates any translation covering `va` (`invlpg`).
    pub fn invalidate(&mut self, va: VirtAddr) {
        self.invalidations += 1;
        self.small.invalidate(va.page());
        self.huge.invalidate(va.0 / HUGE_PAGE_SIZE);
    }

    /// Flushes everything (CR3 reload).
    pub fn flush(&mut self) {
        self.flushes += 1;
        self.small.clear();
        self.huge.clear();
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// `(invalidations, full flushes)` — the shootdown traffic the
    /// observability layer reports (`invlpg` per PTE rewrite, CR3 reloads
    /// on THP breaks and process switches).
    pub fn event_counts(&self) -> (u64, u64) {
        (self.invalidations, self.flushes)
    }

    /// The frame a cached translation resolves `va` to (test helper).
    pub fn translate_frame(&mut self, va: VirtAddr) -> Option<FrameId> {
        let e = self.lookup(va)?;
        if e.huge {
            let offset_pages = (va.0 % HUGE_PAGE_SIZE) / PAGE_SIZE;
            Some(FrameId(e.pte.frame().0 + offset_pages))
        } else {
            Some(e.pte.frame())
        }
    }
}

impl vusion_snapshot::Snapshot for Tlb {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.small.cap);
        w.usize(self.huge.cap);
        // Entries travel in FIFO order, which round-trips both content
        // and eviction order; the index layout is rebuilt on load.
        self.small.save(w);
        self.huge.save(w);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.invalidations);
        w.u64(self.flushes);
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        let Self {
            small,
            huge,
            hits,
            misses,
            invalidations,
            flushes,
        } = self;
        let cap_4k = r.usize()?;
        let cap_2m = r.usize()?;
        *small = Class::load(cap_4k, r)?;
        *huge = Class::load(cap_2m, r)?;
        *hits = r.u64()?;
        *misses = r.u64()?;
        *invalidations = r.u64()?;
        *flushes = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pte::PteFlags;

    fn entry(frame: u64, huge: bool) -> TlbEntry {
        TlbEntry {
            pte: Pte::new(FrameId(frame), PteFlags::PRESENT),
            huge,
        }
    }

    #[test]
    fn snapshot_round_trips_every_field() {
        let mut src = Tlb::new(4, 3);
        src.fill(VirtAddr(0x1000), entry(1, false));
        src.fill(VirtAddr(0x5000), entry(2, false));
        src.fill(VirtAddr(HUGE_PAGE_SIZE * 3), entry(1024, true));
        src.hits = 11;
        src.misses = 12;
        src.invalidations = 13;
        src.flushes = 14;
        let (a, b) = vusion_snapshot::resave(&src, &mut Tlb::new(1, 1)).expect("resave");
        assert_eq!(a, b);
    }

    /// A crafted stream: the given capacities, then 4 KiB records for
    /// `keys` (FIFO order), no 2 MiB records and zeroed counters.
    fn stream(cap_4k: usize, cap_2m: usize, keys: &[u64]) -> Vec<u8> {
        let mut w = vusion_snapshot::Writer::new();
        w.usize(cap_4k);
        w.usize(cap_2m);
        w.usize(keys.len());
        for &k in keys {
            w.u64(k);
            w.u64(entry(1, false).pte.0);
        }
        w.usize(0);
        for _ in 0..4 {
            w.u64(0);
        }
        w.into_bytes()
    }

    fn load(bytes: &[u8]) -> Result<Tlb, vusion_snapshot::SnapshotError> {
        use vusion_snapshot::Snapshot;
        let mut t = Tlb::new(1, 1);
        t.load(&mut vusion_snapshot::Reader::new(bytes))?;
        Ok(t)
    }

    #[test]
    fn load_accepts_a_possible_stream() {
        let t = load(&stream(2, 1, &[5, 6])).expect("load");
        assert_eq!(t.entries().count(), 2);
    }

    #[test]
    fn load_rejects_impossible_streams() {
        use vusion_snapshot::SnapshotError::Corrupt;
        for (what, bytes) in [
            ("zero 4 KiB capacity", stream(0, 1, &[])),
            ("zero 2 MiB capacity", stream(2, 0, &[])),
            ("three records at capacity 2", stream(2, 1, &[5, 5, 6])),
            ("a repeated key", stream(3, 1, &[5, 5, 6])),
            ("the free-slot key", stream(2, 1, &[FREE])),
        ] {
            assert!(matches!(load(&bytes), Err(Corrupt(_))), "accepted {what}");
        }
    }

    #[test]
    fn load_allocates_nothing_for_a_crafted_capacity() {
        // A capacity no host could back, with one record: the index
        // grows per record read, so this loads without a huge allocation.
        let t = load(&stream(usize::MAX >> 8, 1, &[5])).expect("load");
        assert_eq!(t.entries().count(), 1);
    }

    #[test]
    fn fill_then_hit() {
        let mut t = Tlb::new(4, 4);
        assert!(t.lookup(VirtAddr(0x1000)).is_none());
        t.fill(VirtAddr(0x1000), entry(7, false));
        assert_eq!(
            t.lookup(VirtAddr(0x1234)).expect("hit").pte.frame(),
            FrameId(7)
        );
        assert_eq!(t.stats(), (1, 1));
    }

    #[test]
    fn huge_entry_covers_2m() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(HUGE_PAGE_SIZE), entry(512, true));
        assert!(t
            .lookup(VirtAddr(HUGE_PAGE_SIZE + 123 * PAGE_SIZE))
            .is_some());
        assert_eq!(
            t.translate_frame(VirtAddr(HUGE_PAGE_SIZE + 123 * PAGE_SIZE)),
            Some(FrameId(512 + 123))
        );
    }

    #[test]
    fn fifo_eviction() {
        let mut t = Tlb::new(2, 2);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.fill(VirtAddr(0x2000), entry(2, false));
        t.fill(VirtAddr(0x3000), entry(3, false));
        assert!(t.lookup(VirtAddr(0x1000)).is_none(), "oldest evicted");
        assert!(t.lookup(VirtAddr(0x2000)).is_some());
        assert!(t.lookup(VirtAddr(0x3000)).is_some());
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.invalidate(VirtAddr(0x1000));
        assert!(t.lookup(VirtAddr(0x1000)).is_none());
    }

    #[test]
    fn flush_clears_all() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.fill(VirtAddr(HUGE_PAGE_SIZE * 4), entry(1024, true));
        t.flush();
        assert!(t.lookup(VirtAddr(0x1000)).is_none());
        assert!(t.lookup(VirtAddr(HUGE_PAGE_SIZE * 4)).is_none());
    }

    #[test]
    fn event_counts_track_shootdowns_and_flushes() {
        let mut t = Tlb::new(4, 4);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.invalidate(VirtAddr(0x1000));
        t.invalidate(VirtAddr(0x2000)); // Counts even when nothing is cached.
        t.flush();
        assert_eq!(t.event_counts(), (2, 1));
    }

    #[test]
    fn refill_does_not_duplicate_fifo() {
        let mut t = Tlb::new(2, 2);
        t.fill(VirtAddr(0x1000), entry(1, false));
        t.fill(VirtAddr(0x1000), entry(9, false));
        t.fill(VirtAddr(0x2000), entry(2, false));
        // Capacity 2: both entries must still be present.
        assert_eq!(
            t.lookup(VirtAddr(0x1000)).expect("hit").pte.frame(),
            FrameId(9)
        );
        assert!(t.lookup(VirtAddr(0x2000)).is_some());
    }
}
