//! A translation lookaside buffer.
//!
//! The TLB matters to the reproduction in two ways: performance (huge pages
//! exist to reduce TLB misses — the entire motivation of §8) and security
//! (a TLB hit skips the page-table walk, so the AnC attack needs the walk
//! entries evicted; the paper's §5.3 also mentions TLB-based side channels).

use std::collections::BTreeMap;

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

/// Fully associative TLB with FIFO replacement and separate 4 KiB / 2 MiB
/// arrays (like real x86 STLBs, modeled simply).
pub struct Tlb {
    cap_4k: usize,
    cap_2m: usize,
    map_4k: BTreeMap<u64, TlbEntry>,
    fifo_4k: Vec<u64>,
    map_2m: BTreeMap<u64, TlbEntry>,
    fifo_2m: Vec<u64>,
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
            cap_4k,
            cap_2m,
            map_4k: BTreeMap::new(),
            fifo_4k: Vec::new(),
            map_2m: BTreeMap::new(),
            fifo_2m: Vec::new(),
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
        if let Some(e) = self.map_2m.get(&(va.0 / HUGE_PAGE_SIZE)) {
            self.hits += 1;
            return Some(*e);
        }
        if let Some(e) = self.map_4k.get(&va.page()) {
            self.hits += 1;
            return Some(*e);
        }
        self.misses += 1;
        None
    }

    /// Inserts a translation after a successful walk.
    pub fn fill(&mut self, va: VirtAddr, entry: TlbEntry) -> Option<TlbEntry> {
        if entry.huge {
            let key = va.0 / HUGE_PAGE_SIZE;
            if self.map_2m.insert(key, entry).is_none() {
                self.fifo_2m.push(key);
                if self.fifo_2m.len() > self.cap_2m {
                    let evict = self.fifo_2m.remove(0);
                    return self.map_2m.remove(&evict);
                }
            }
        } else {
            let key = va.page();
            if self.map_4k.insert(key, entry).is_none() {
                self.fifo_4k.push(key);
                if self.fifo_4k.len() > self.cap_4k {
                    let evict = self.fifo_4k.remove(0);
                    return self.map_4k.remove(&evict);
                }
            }
        }
        None
    }

    /// Iterates every resident entry (4 KiB then 2 MiB, each in key
    /// order). Read-only — snapshot-time occupancy walks use this.
    pub fn entries(&self) -> impl Iterator<Item = &TlbEntry> {
        self.map_4k.values().chain(self.map_2m.values())
    }

    /// Invalidates any translation covering `va` (`invlpg`).
    pub fn invalidate(&mut self, va: VirtAddr) {
        self.invalidations += 1;
        if self.map_4k.remove(&va.page()).is_some() {
            self.fifo_4k.retain(|&k| k != va.page());
        }
        let hk = va.0 / HUGE_PAGE_SIZE;
        if self.map_2m.remove(&hk).is_some() {
            self.fifo_2m.retain(|&k| k != hk);
        }
    }

    /// Flushes everything (CR3 reload).
    pub fn flush(&mut self) {
        self.flushes += 1;
        self.map_4k.clear();
        self.fifo_4k.clear();
        self.map_2m.clear();
        self.fifo_2m.clear();
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
        w.usize(self.cap_4k);
        w.usize(self.cap_2m);
        // Entries travel in FIFO order; the maps contain exactly the FIFO
        // keys, so this round-trips both content and eviction order.
        w.usize(self.fifo_4k.len());
        for &k in &self.fifo_4k {
            w.u64(k);
            let e = self.map_4k.get(&k).copied().unwrap_or(TlbEntry {
                pte: Pte(0),
                huge: false,
            });
            w.u64(e.pte.0);
        }
        w.usize(self.fifo_2m.len());
        for &k in &self.fifo_2m {
            w.u64(k);
            let e = self.map_2m.get(&k).copied().unwrap_or(TlbEntry {
                pte: Pte(0),
                huge: true,
            });
            w.u64(e.pte.0);
        }
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
            cap_4k,
            cap_2m,
            map_4k,
            fifo_4k,
            map_2m,
            fifo_2m,
            hits,
            misses,
            invalidations,
            flushes,
        } = self;
        *cap_4k = r.usize()?;
        *cap_2m = r.usize()?;
        for (map, fifo, huge) in [(map_4k, fifo_4k, false), (map_2m, fifo_2m, true)] {
            map.clear();
            fifo.clear();
            let n = r.usize()?;
            for _ in 0..n {
                let k = r.u64()?;
                let pte = Pte(r.u64()?);
                fifo.push(k);
                map.insert(k, TlbEntry { pte, huge });
            }
        }
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
