//! Scan-path caching shared by the fusion engines: an incremental
//! candidate list, the dirty-driven pass list, and the pre-hash that warms
//! the hash memo before each pass's decide phase. (The hash buckets of a
//! content tree live with it, in `ContentIndex`.)
//!
//! The candidate cache is a pure wall-clock optimization: it reproduces
//! exactly the list a fresh enumeration would build, because rebuilds are
//! deterministic and every layout mutation bumps the machine's epoch. It
//! changes no simulated-cycle charge or merge decision.

use std::collections::BTreeMap;

use vusion_kernel::{Machine, Pid};
use vusion_mem::{FrameId, PhysMemory, VirtAddr};

use crate::mapping;

/// Cached [`mapping::candidate_pages`] enumeration, invalidated by the
/// machine's layout epoch (process count + per-space VMA layout
/// generations).
///
/// Used in a take / put-back pattern so the scan loop can hold the list
/// while mutating the engine and the machine.
#[derive(Default)]
pub(crate) struct CandidateCache {
    pages: Vec<(Pid, VirtAddr)>,
    epoch: Option<(usize, u64)>,
}

impl CandidateCache {
    /// Returns `(pages, rebuilt)`: the candidate list (rebuilt by
    /// [`mapping::candidate_pages`] only if the layout epoch moved) and
    /// whether a rebuild happened. Hand the vector back with
    /// [`CandidateCache::put_back`] after the scan loop.
    pub(crate) fn take(
        &mut self,
        m: &Machine,
        mergeable_only: bool,
    ) -> (Vec<(Pid, VirtAddr)>, bool) {
        let epoch = m.layout_epoch();
        let rebuilt = self.epoch != Some(epoch);
        if rebuilt {
            self.pages = mapping::candidate_pages(m, mergeable_only);
            self.epoch = Some(epoch);
        }
        (std::mem::take(&mut self.pages), rebuilt)
    }

    /// Restores the list taken by [`CandidateCache::take`].
    pub(crate) fn put_back(&mut self, pages: Vec<(Pid, VirtAddr)>) {
        self.pages = pages;
    }

    /// Drops the cached list and its epoch stamp (reclaim-ladder shrink):
    /// the next take rebuilds from machine state, so nothing is lost but
    /// the memory. Returns the number of entries shed.
    pub(crate) fn shed(&mut self) -> u64 {
        let n = self.pages.len() as u64;
        self.pages = Vec::new();
        self.epoch = None;
        n
    }

    /// Serializes the cached list and its epoch stamp.
    pub(crate) fn save(&self, w: &mut vusion_snapshot::Writer) {
        match self.epoch {
            Some((procs, layout_gen)) => {
                w.bool(true);
                w.usize(procs);
                w.u64(layout_gen);
            }
            None => w.bool(false),
        }
        w.usize(self.pages.len());
        for &(pid, va) in &self.pages {
            w.usize(pid.0);
            w.u64(va.0);
        }
    }

    /// Rebuilds a cache written by [`Self::save`].
    pub(crate) fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        let epoch = if r.bool()? {
            Some((r.usize()?, r.u64()?))
        } else {
            None
        };
        // A page is a pid and an address: 16 bytes.
        let count = r.len_prefix(16)?;
        let mut pages = Vec::with_capacity(count);
        for _ in 0..count {
            pages.push((Pid(r.pid()?), VirtAddr(r.u64()?)));
        }
        Ok(Self { pages, epoch })
    }
}

/// Dirty-driven pass list: remembers, per scanned `(pid, va)`, the frame
/// that backed the page and the frame's write generation at the moment
/// the engine finished deciding about it. On the next pass the engine
/// walks the leaf (mapping changes — CoW, remap, merge — surface as a
/// different frame) and asks [`DirtyTracker::is_clean`]; a hit means
/// neither the mapping nor the content moved, so re-running the decision
/// is guaranteed to reproduce last pass's outcome and the page can be
/// skipped, counted in `scan.pages_skipped_clean`.
///
/// Engines only call [`DirtyTracker::mark_seen`] from *terminal* decision
/// states — a state the pass would re-reach verbatim if nothing changed.
/// Probabilistic or progress-making states (KSM's checksum-mismatch
/// volatility filter, structural guards) are never marked, so those pages
/// keep being revisited.
#[derive(Default)]
pub(crate) struct DirtyTracker {
    seen: BTreeMap<(Pid, VirtAddr), (FrameId, u64)>,
}

impl DirtyTracker {
    /// Whether the page at `(pid, va)` — currently backed by `frame` — is
    /// unchanged since [`DirtyTracker::mark_seen`]: same backing frame
    /// *and* same frame write generation.
    pub(crate) fn is_clean(
        &self,
        mem: &PhysMemory,
        pid: Pid,
        va: VirtAddr,
        frame: FrameId,
    ) -> bool {
        self.seen.get(&(pid, va)) == Some(&(frame, mem.write_gen(frame)))
    }

    /// Records the page's decision point: skip it while `frame` still
    /// backs it and its write generation holds.
    pub(crate) fn mark_seen(&mut self, mem: &PhysMemory, pid: Pid, va: VirtAddr, frame: FrameId) {
        self.seen.insert((pid, va), (frame, mem.write_gen(frame)));
    }

    /// Forgets one page (it will be re-examined next pass).
    pub(crate) fn forget(&mut self, pid: Pid, va: VirtAddr) {
        self.seen.remove(&(pid, va));
    }

    /// Forgets everything (candidate list rebuilt).
    pub(crate) fn clear(&mut self) {
        self.seen.clear();
    }

    /// Drops all tracked pages and reports how many were shed
    /// (reclaim-ladder shrink): every page is simply re-examined.
    pub(crate) fn shed(&mut self) -> u64 {
        let n = self.seen.len() as u64;
        self.seen = BTreeMap::new();
        n
    }

    /// Number of tracked pages.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.seen.len()
    }

    /// Serializes the tracked pages (BTreeMap order, deterministic).
    pub(crate) fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.usize(self.seen.len());
        for (&(pid, va), &(frame, gen)) in &self.seen {
            w.usize(pid.0);
            w.u64(va.0);
            w.u64(frame.0);
            w.u64(gen);
        }
    }

    /// Rebuilds a tracker written by [`Self::save`].
    pub(crate) fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        let count = r.usize()?;
        let mut seen = BTreeMap::new();
        for _ in 0..count {
            let pid = Pid(r.pid()?);
            let va = VirtAddr(r.u64()?);
            let frame = FrameId(r.frame()?);
            let gen = r.u64()?;
            seen.insert((pid, va), (frame, gen));
        }
        Ok(Self { seen })
    }
}

/// Pre-hashes `frames` for an imminent scan pass: every frame whose
/// memoized hash is stale is hashed now (four at a time, by
/// [`PhysMemory::hash_stale`]), so the pass's decide phase hits the memo
/// on every `hash_page`/`observed_hash`. Hash values are pure functions
/// of content, so this moves host work, not behavior. A frame listed
/// twice is hashed once.
///
/// The modeled cost of the hashing is charged through
/// [`Machine::scan_cost_hashed`]. Returns the number of frames hashed.
pub(crate) fn prehash_frames(m: &mut Machine, frames: &[FrameId]) -> usize {
    let hashed = m.mem().hash_stale(frames);
    m.scan_cost_hashed(hashed);
    hashed
}

#[cfg(test)]
mod tests {
    use super::*;
    use vusion_kernel::MachineConfig;
    use vusion_mem::{content_hash, PhysAddr, PAGE_SIZE};
    use vusion_mmu::{Protection, Vma};

    #[test]
    fn dirty_tracker_detects_writes_and_remaps() {
        let mut mem = PhysMemory::new(3);
        mem.write_byte(PhysAddr(0), 1);
        let (pid, va) = (Pid(0), VirtAddr(0x4000));
        let mut dt = DirtyTracker::default();
        assert!(!dt.is_clean(&mem, pid, va, FrameId(0)), "unseen is dirty");
        dt.mark_seen(&mem, pid, va, FrameId(0));
        assert!(dt.is_clean(&mem, pid, va, FrameId(0)));
        // A write to the frame bumps its generation: dirty again.
        mem.write_byte(PhysAddr(7), 9);
        assert!(!dt.is_clean(&mem, pid, va, FrameId(0)));
        dt.mark_seen(&mem, pid, va, FrameId(0));
        // A remap (CoW, merge) surfaces as a different backing frame.
        assert!(!dt.is_clean(&mem, pid, va, FrameId(1)));
        dt.forget(pid, va);
        assert!(!dt.is_clean(&mem, pid, va, FrameId(0)));
    }

    #[test]
    fn dirty_tracker_round_trips_through_snapshot() {
        let mut mem = PhysMemory::new(2);
        mem.write_byte(PhysAddr(0), 3);
        mem.write_byte(PhysAddr(4096), 4);
        let mut dt = DirtyTracker::default();
        dt.mark_seen(&mem, Pid(1), VirtAddr(0x1000), FrameId(0));
        dt.mark_seen(&mem, Pid(2), VirtAddr(0x2000), FrameId(1));
        let mut w = vusion_snapshot::Writer::new();
        dt.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = vusion_snapshot::Reader::new(&bytes);
        let loaded = DirtyTracker::load(&mut r).expect("load");
        r.finish().expect("load reads every byte");
        let mut w = vusion_snapshot::Writer::new();
        loaded.save(&mut w);
        assert_eq!(w.into_bytes(), bytes, "save→load→save is byte-identical");
        assert_eq!(loaded.len(), 2);
        assert!(loaded.is_clean(&mem, Pid(1), VirtAddr(0x1000), FrameId(0)));
        assert!(loaded.is_clean(&mem, Pid(2), VirtAddr(0x2000), FrameId(1)));
        assert!(!loaded.is_clean(&mem, Pid(1), VirtAddr(0x1000), FrameId(1)));
    }

    #[test]
    fn prehash_seeds_exactly_the_stale_frames() {
        let mut m = Machine::new(MachineConfig::test_small());
        let pid = m.spawn("p").expect("spawn");
        m.mmap(pid, Vma::anon(VirtAddr(0x10000), 8, Protection::rw()));
        let mut frames = Vec::new();
        for pg in 0..8u64 {
            let va = VirtAddr(0x10000 + pg * PAGE_SIZE);
            while let Err(fault) = m.write(pid, va, (pg as u8) + 1) {
                assert!(m.default_fault(&fault), "demand-paging must resolve");
            }
            frames.push(m.leaf(pid, va).expect("leaf").pte.frame());
        }
        // Warm two frames through the normal memoized path.
        let _ = m.mem().hash_page(frames[0]);
        let _ = m.mem().hash_page(frames[1]);
        // Duplicates in the input must not double-count.
        let mut input = frames.clone();
        input.push(frames[2]);
        // First pass: all but the two warmed frames. Second pass: only
        // the frame invalidated after the first.
        for expected in [6, 1] {
            assert_eq!(prehash_frames(&mut m, &input), expected);
            assert_eq!(m.mem().hash_stale(&frames), 0, "every frame is warm");
            for &f in &frames {
                assert_eq!(m.mem().hash_page(f), content_hash(m.mem().page(f)));
            }
            // Invalidate one frame; the next prehash rehashes only it.
            m.mem_mut()
                .write_byte(PhysAddr(frames[2].0 * PAGE_SIZE + 7), 0x55);
        }
        assert_eq!(prehash_frames(&mut m, &frames), 1);
    }
}
