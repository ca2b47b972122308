//! A Linux-style binary buddy allocator.
//!
//! This is the system-wide page allocator of the simulation. Two properties
//! matter for the paper:
//!
//! * **Order-9 allocations** back transparent huge pages (512 contiguous
//!   frames), which `khugepaged` requests.
//! * **LIFO free lists**: like Linux, a freed block is pushed on the head of
//!   its free list and the next allocation pops it right back. This
//!   *predictable reuse* is the memory-massaging primitive Flip Feng Shui
//!   exploits (§4.2) and the reason VUsion draws backing frames from a
//!   [`crate::RandomPool`] instead (§6.2: randomizing the system-wide
//!   allocator "has non-trivial performance and usability implications", so
//!   RA is enforced at the fusion system).
//!
//! Exhaustion and misuse are reported as [`MmError`], never as panics: the
//! chaos suite drives this allocator straight into OOM (optionally via an
//! attached [`FaultInjector`]) and the engines must degrade gracefully.

use std::collections::{BTreeMap, BTreeSet};

use crate::addr::FrameId;
use crate::error::MmError;
use crate::fault::{FaultInjector, InjectionStats};
use crate::FrameAllocator;

/// Largest supported order: blocks of `2^10 = 1024` frames (4 MiB).
pub const MAX_ORDER: u8 = 10;

/// Allocation statistics, exposed for benches and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuddyStats {
    /// Successful allocations (any order).
    pub allocs: u64,
    /// Frees (any order).
    pub frees: u64,
    /// Block splits performed.
    pub splits: u64,
    /// Buddy coalesces performed.
    pub merges: u64,
}

/// Binary buddy allocator over the frame range `[base, base + frames)`.
pub struct BuddyAllocator {
    base: u64,
    frames: u64,
    /// Per-order LIFO stacks of block starts (relative to `base`). Entries
    /// may be stale (consumed by coalescing); `free_set` is authoritative.
    free_stacks: Vec<Vec<u64>>,
    /// Per-order set of genuinely free block starts.
    free_sets: Vec<BTreeSet<u64>>,
    /// Order of each outstanding allocation, for free-time validation.
    allocated: BTreeMap<u64, u8>,
    free_frames: u64,
    stats: BuddyStats,
    /// Optional deterministic failure source (chaos runs).
    injector: Option<FaultInjector>,
}

impl BuddyAllocator {
    /// Creates an allocator managing `frames` frames starting at `base`.
    ///
    /// The region need not be a power of two; it is carved greedily into
    /// maximal aligned blocks.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0` (a configuration error, not a runtime
    /// condition).
    pub fn new(base: FrameId, frames: u64) -> Self {
        assert!(frames > 0, "buddy region must be non-empty");
        let mut a = Self {
            base: base.0,
            frames,
            free_stacks: vec![Vec::new(); usize::from(MAX_ORDER) + 1],
            free_sets: vec![BTreeSet::new(); usize::from(MAX_ORDER) + 1],
            allocated: BTreeMap::new(),
            free_frames: frames,
            stats: BuddyStats::default(),
            injector: None,
        };
        // Carve the region into maximal aligned blocks, from high addresses
        // down, so the LIFO stack pops low addresses first.
        let mut carved: Vec<(u64, u8)> = Vec::new();
        let mut start = 0u64;
        while start < frames {
            let align_order = if start == 0 {
                MAX_ORDER
            } else {
                start.trailing_zeros().min(u32::from(MAX_ORDER)) as u8
            };
            let mut order = align_order;
            while (1u64 << order) > frames - start {
                order -= 1;
            }
            carved.push((start, order));
            start += 1 << order;
        }
        for &(s, o) in carved.iter().rev() {
            a.push_free(s, o);
        }
        a
    }

    /// First frame managed by this allocator.
    pub fn base(&self) -> FrameId {
        FrameId(self.base)
    }

    /// Allocation statistics.
    pub fn stats(&self) -> BuddyStats {
        self.stats
    }

    /// Attaches a deterministic fault injector: every subsequent
    /// allocation consults it and may fail with
    /// [`MmError::OutOfFrames`] even while frames remain.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Counters of faults injected into this allocator so far.
    pub fn injection_stats(&self) -> InjectionStats {
        self.injector
            .as_ref()
            .map(FaultInjector::stats)
            .unwrap_or_default()
    }

    fn push_free(&mut self, rel: u64, order: u8) {
        self.free_sets[usize::from(order)].insert(rel);
        self.free_stacks[usize::from(order)].push(rel);
    }

    /// Pops the most recently freed genuinely-free block of `order`.
    fn pop_free(&mut self, order: u8) -> Option<u64> {
        let o = usize::from(order);
        while let Some(rel) = self.free_stacks[o].pop() {
            if self.free_sets[o].remove(&rel) {
                return Some(rel);
            }
            // Stale entry: the block was coalesced away. Skip it.
        }
        None
    }

    fn check_managed(&self, frame: FrameId) -> Result<(), MmError> {
        if frame.0 >= self.base && frame.0 < self.base + self.frames {
            Ok(())
        } else {
            Err(MmError::ForeignFrame(frame))
        }
    }

    /// Allocates a block of `2^order` frames; returns its first frame.
    ///
    /// Fails with [`MmError::OutOfFrames`] on exhaustion (or injected
    /// failure) and on `order > MAX_ORDER`.
    pub fn alloc_order(&mut self, order: u8) -> Result<FrameId, MmError> {
        if order > MAX_ORDER {
            return Err(MmError::OutOfFrames);
        }
        if let Some(inj) = &mut self.injector {
            if inj.should_fail_alloc() {
                return Err(MmError::OutOfFrames);
            }
        }
        // Find the smallest order with a free block.
        let mut have = None;
        for o in order..=MAX_ORDER {
            if !self.free_sets[usize::from(o)].is_empty() {
                have = Some(o);
                break;
            }
        }
        let mut o = have.ok_or(MmError::OutOfFrames)?;
        let rel = self.pop_free(o).ok_or(MmError::OutOfFrames)?;
        // Split down to the requested order, keeping the upper halves free.
        while o > order {
            o -= 1;
            let upper = rel + (1 << o);
            self.push_free(upper, o);
            self.stats.splits += 1;
        }
        self.allocated.insert(rel, order);
        self.free_frames -= 1 << order;
        self.stats.allocs += 1;
        Ok(FrameId(self.base + rel))
    }

    /// Frees a block previously returned by [`Self::alloc_order`].
    ///
    /// Reports (instead of aborting on) misuse: [`MmError::DoubleFree`],
    /// [`MmError::ForeignFrame`], [`MmError::OrderMismatch`]. A failed
    /// free leaves the allocator state unchanged.
    pub fn free_order(&mut self, frame: FrameId, order: u8) -> Result<(), MmError> {
        self.check_managed(frame)?;
        let mut rel = frame.0 - self.base;
        let recorded = self
            .allocated
            .remove(&rel)
            .ok_or(MmError::DoubleFree(frame))?;
        if recorded != order {
            // Restore the record: a rejected free must not alter state.
            self.allocated.insert(rel, recorded);
            return Err(MmError::OrderMismatch {
                frame,
                recorded,
                claimed: order,
            });
        }
        self.free_frames += 1 << order;
        self.stats.frees += 1;
        // Coalesce with the buddy while it is free.
        let mut o = order;
        while o < MAX_ORDER {
            let buddy = rel ^ (1u64 << o);
            if buddy + (1 << o) > self.frames || !self.free_sets[usize::from(o)].remove(&buddy) {
                break;
            }
            self.stats.merges += 1;
            rel = rel.min(buddy);
            o += 1;
        }
        self.push_free(rel, o);
        Ok(())
    }

    /// Converts one recorded allocation of `2^order` frames into `2^order`
    /// independent order-0 allocations, so the frames can be freed
    /// individually. Used when a transparent huge page is broken up into
    /// base pages (KSM and VUsion both do this before fusing, §8.1).
    pub fn split_allocated(&mut self, frame: FrameId, order: u8) -> Result<(), MmError> {
        self.check_managed(frame)?;
        let rel = frame.0 - self.base;
        let recorded = self
            .allocated
            .remove(&rel)
            .ok_or(MmError::DoubleFree(frame))?;
        if recorded != order {
            self.allocated.insert(rel, recorded);
            return Err(MmError::OrderMismatch {
                frame,
                recorded,
                claimed: order,
            });
        }
        for i in 0..(1u64 << order) {
            self.allocated.insert(rel + i, 0);
        }
        Ok(())
    }

    /// Whether a specific frame is currently inside any free block.
    pub fn is_frame_free(&self, frame: FrameId) -> bool {
        if frame.0 < self.base || frame.0 >= self.base + self.frames {
            return false;
        }
        let rel = frame.0 - self.base;
        for o in 0..=MAX_ORDER {
            let block = rel & !((1u64 << o) - 1);
            if self.free_sets[usize::from(o)].contains(&block) {
                return true;
            }
        }
        false
    }
}

impl vusion_snapshot::Snapshot for BuddyAllocator {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.base);
        w.u64(self.frames);
        // Free stacks travel verbatim, stale entries included: the LIFO pop
        // order (and thus predictable reuse) must survive restore exactly.
        w.usize(self.free_stacks.len());
        for stack in &self.free_stacks {
            w.u64s(stack);
        }
        for set in &self.free_sets {
            w.usize(set.len());
            for &rel in set {
                w.u64(rel);
            }
        }
        w.usize(self.allocated.len());
        let mut allocs: Vec<(u64, u8)> = self.allocated.iter().map(|(&k, &v)| (k, v)).collect();
        allocs.sort_unstable();
        for (rel, order) in allocs {
            w.u64(rel);
            w.u8(order);
        }
        w.u64(self.free_frames);
        w.u64(self.stats.allocs);
        w.u64(self.stats.frees);
        w.u64(self.stats.splits);
        w.u64(self.stats.merges);
        match &self.injector {
            None => w.bool(false),
            Some(inj) => {
                w.bool(true);
                inj.save(w);
            }
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let Self {
            base,
            frames,
            free_stacks,
            free_sets,
            allocated,
            free_frames,
            stats,
            injector,
        } = self;
        if r.u64()? != *base || r.u64()? != *frames {
            return Err(SnapshotError::Corrupt("buddy geometry mismatch"));
        }
        let orders = r.usize()?;
        if orders != free_stacks.len() {
            return Err(SnapshotError::Corrupt("buddy order count mismatch"));
        }
        for stack in free_stacks.iter_mut() {
            *stack = r.u64s()?;
        }
        for set in free_sets.iter_mut() {
            set.clear();
            let n = r.usize()?;
            for _ in 0..n {
                set.insert(r.u64()?);
            }
        }
        allocated.clear();
        let n = r.usize()?;
        for _ in 0..n {
            let rel = r.u64()?;
            let order = r.u8()?;
            allocated.insert(rel, order);
        }
        *free_frames = r.u64()?;
        *stats = BuddyStats {
            allocs: r.u64()?,
            frees: r.u64()?,
            splits: r.u64()?,
            merges: r.u64()?,
        };
        *injector = if r.bool()? {
            let mut inj = FaultInjector::new(crate::fault::FaultPlan::NONE, 0);
            inj.load(r)?;
            Some(inj)
        } else {
            None
        };
        Ok(())
    }
}

impl FrameAllocator for BuddyAllocator {
    fn alloc(&mut self) -> Result<FrameId, MmError> {
        self.alloc_order(0)
    }

    fn free(&mut self, frame: FrameId) -> Result<(), MmError> {
        self.free_order(frame, 0)
    }

    fn free_frames(&self) -> usize {
        self.free_frames as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn snapshot_round_trips_every_field() {
        let mut src = BuddyAllocator::new(FrameId(0), 64);
        src.set_fault_injector(FaultInjector::new(FaultPlan::every_nth_alloc(5), 3));
        let frames: Vec<FrameId> = (0..6).filter_map(|_| src.alloc().ok()).collect();
        src.free(frames[1]).expect("free");
        src.stats = BuddyStats {
            allocs: 21,
            frees: 22,
            splits: 23,
            merges: 24,
        };
        let mut dst = BuddyAllocator::new(FrameId(0), 64);
        let (a, b) = vusion_snapshot::resave(&src, &mut dst).expect("resave");
        assert_eq!(a, b);
    }

    #[test]
    fn allocates_distinct_frames() {
        let mut b = BuddyAllocator::new(FrameId(0), 64);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let f = b.alloc().expect("in range");
            assert!(seen.insert(f));
        }
        assert_eq!(b.alloc(), Err(MmError::OutOfFrames));
        assert_eq!(b.free_frames(), 0);
    }

    #[test]
    fn lifo_reuse_is_predictable() {
        // The property Flip Feng Shui relies on: free then realloc returns
        // the same frame.
        let mut b = BuddyAllocator::new(FrameId(0), 1024);
        let f = b.alloc().expect("frame");
        let _g = b.alloc().expect("frame");
        b.free(f).expect("free");
        let h = b.alloc().expect("frame");
        assert_eq!(f, h, "buddy must exhibit LIFO reuse");
    }

    #[test]
    fn coalescing_restores_full_blocks() {
        let mut b = BuddyAllocator::new(FrameId(0), 1024);
        let frames: Vec<_> = (0..1024).map(|_| b.alloc().expect("frame")).collect();
        for f in frames {
            b.free(f).expect("free");
        }
        assert_eq!(b.free_frames(), 1024);
        // After everything is freed and coalesced we can allocate MAX_ORDER.
        assert!(b.alloc_order(MAX_ORDER).is_ok());
    }

    #[test]
    fn order9_supports_huge_pages() {
        let mut b = BuddyAllocator::new(FrameId(0), 2048);
        let f = b.alloc_order(9).expect("huge block");
        assert_eq!(f.0 % 512, 0, "order-9 blocks are 2 MiB aligned");
        assert_eq!(b.free_frames(), 2048 - 512);
        b.free_order(f, 9).expect("free");
        assert_eq!(b.free_frames(), 2048);
    }

    #[test]
    fn non_power_of_two_region() {
        let mut b = BuddyAllocator::new(FrameId(0), 1000);
        let mut n = 0;
        while b.alloc().is_ok() {
            n += 1;
        }
        assert_eq!(n, 1000);
    }

    #[test]
    fn base_offset_respected() {
        let mut b = BuddyAllocator::new(FrameId(4096), 16);
        let f = b.alloc().expect("frame");
        assert!(f.0 >= 4096 && f.0 < 4096 + 16);
    }

    #[test]
    fn is_frame_free_tracks_state() {
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        assert!(b.is_frame_free(FrameId(3)));
        let f = b.alloc().expect("frame");
        assert!(!b.is_frame_free(f));
        b.free(f).expect("free");
        assert!(b.is_frame_free(f));
        assert!(!b.is_frame_free(FrameId(99)));
    }

    #[test]
    fn split_and_merge_stats() {
        let mut b = BuddyAllocator::new(FrameId(0), 1024);
        let f = b.alloc().expect("frame");
        assert_eq!(b.stats().splits, u64::from(MAX_ORDER));
        b.free(f).expect("free");
        assert_eq!(b.stats().merges, u64::from(MAX_ORDER));
    }

    #[test]
    fn split_allocated_allows_individual_frees() {
        let mut b = BuddyAllocator::new(FrameId(0), 2048);
        let huge = b.alloc_order(9).expect("huge block");
        b.split_allocated(huge, 9).expect("split");
        // Free every frame individually; coalescing restores the block.
        for i in 0..512u64 {
            b.free(FrameId(huge.0 + i)).expect("free");
        }
        assert_eq!(b.free_frames(), 2048);
        assert!(b.alloc_order(MAX_ORDER).is_ok());
    }

    #[test]
    fn split_wrong_order_is_reported() {
        let mut b = BuddyAllocator::new(FrameId(0), 2048);
        let huge = b.alloc_order(9).expect("huge block");
        assert_eq!(
            b.split_allocated(huge, 8),
            Err(MmError::OrderMismatch {
                frame: huge,
                recorded: 9,
                claimed: 8
            })
        );
        // The rejected split must not have consumed the record.
        b.free_order(huge, 9).expect("block still freeable");
        assert_eq!(b.free_frames(), 2048);
    }

    #[test]
    fn double_free_is_reported_not_fatal() {
        // Regression test for the former double-free panic: the error is
        // reported and the allocator stays fully usable.
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        let f = b.alloc().expect("frame");
        b.free(f).expect("first free");
        assert_eq!(b.free(f), Err(MmError::DoubleFree(f)));
        assert_eq!(b.free_frames(), 16, "double free must not corrupt counts");
        // Allocator still works after the rejected free.
        let g = b.alloc().expect("frame after double free");
        b.free(g).expect("free");
    }

    #[test]
    fn wrong_order_free_is_reported() {
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        let f = b.alloc_order(1).expect("block");
        assert_eq!(
            b.free_order(f, 0),
            Err(MmError::OrderMismatch {
                frame: f,
                recorded: 1,
                claimed: 0
            })
        );
        // The correct-order free still succeeds.
        b.free_order(f, 1).expect("free at recorded order");
        assert_eq!(b.free_frames(), 16);
    }

    #[test]
    fn foreign_frame_free_is_reported() {
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        assert_eq!(
            b.free(FrameId(100)),
            Err(MmError::ForeignFrame(FrameId(100)))
        );
        assert_eq!(b.free_frames(), 16);
    }

    #[test]
    fn injected_failures_look_like_oom() {
        let mut b = BuddyAllocator::new(FrameId(0), 64);
        b.set_fault_injector(FaultInjector::new(FaultPlan::every_nth_alloc(3), 7));
        let results: Vec<bool> = (0..9).map(|_| b.alloc().is_ok()).collect();
        assert_eq!(
            results,
            vec![true, true, false, true, true, false, true, true, false]
        );
        assert_eq!(b.injection_stats().injected_allocs, 3);
        // Injected failures must not consume frames.
        assert_eq!(b.free_frames(), 64 - 6);
    }
}
