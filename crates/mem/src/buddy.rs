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

use crate::addr::FrameId;
use crate::error::MmError;
use crate::fault::{FaultInjector, InjectionStats};
use crate::FrameAllocator;

/// Largest supported order: blocks of `2^10 = 1024` frames (4 MiB).
pub const MAX_ORDER: u8 = 10;

/// The orders `0..=MAX_ORDER`.
const ORDERS: usize = MAX_ORDER as usize + 1;

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
///
/// Its bookkeeping is one byte per frame for free blocks and one for
/// allocations, so, as with Linux's PageBuddy flag and order in a page's
/// own `struct page`, finding a buddy or an allocation record is an array
/// read.
pub struct BuddyAllocator {
    base: u64,
    frames: u64,
    /// Per-order LIFO stacks of block starts (relative to `base`). Entries
    /// may be stale (consumed by coalescing); `free_at` is authoritative.
    free_stacks: Vec<Vec<u64>>,
    /// Per relative frame: order + 1 of the genuinely free block that
    /// starts there, or 0.
    free_at: Vec<u8>,
    /// Genuinely free blocks of each order: the free frames are
    /// `free_blocks[o] << o` summed over the orders.
    free_blocks: [usize; ORDERS],
    /// Per relative frame: order + 1 of the outstanding allocation that
    /// starts there, or 0, for free-time validation.
    alloc_at: Vec<u8>,
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
            free_stacks: vec![Vec::new(); ORDERS],
            free_at: vec![0; frames as usize],
            free_blocks: [0; ORDERS],
            alloc_at: vec![0; frames as usize],
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
        self.free_at[rel as usize] = order + 1;
        self.free_blocks[usize::from(order)] += 1;
        self.free_stacks[usize::from(order)].push(rel);
    }

    /// Takes the free block of `order` starting at `rel`, if there is one.
    fn take_free(&mut self, rel: u64, order: u8) -> bool {
        let at = &mut self.free_at[rel as usize];
        if *at != order + 1 {
            return false;
        }
        *at = 0;
        self.free_blocks[usize::from(order)] -= 1;
        true
    }

    /// Pops the most recently freed genuinely-free block of `order`.
    fn pop_free(&mut self, order: u8) -> Option<u64> {
        while let Some(rel) = self.free_stacks[usize::from(order)].pop() {
            if self.take_free(rel, order) {
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

    /// The relative start of the outstanding allocation of `order` at
    /// `frame`, or the misuse that names it otherwise.
    fn allocation(&self, frame: FrameId, order: u8) -> Result<usize, MmError> {
        self.check_managed(frame)?;
        let rel = (frame.0 - self.base) as usize;
        match self.alloc_at[rel] {
            0 => Err(MmError::DoubleFree(frame)),
            at if at - 1 == order => Ok(rel),
            at => Err(MmError::OrderMismatch {
                frame,
                recorded: at - 1,
                claimed: order,
            }),
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
        let mut o = (order..=MAX_ORDER)
            .find(|&o| self.free_blocks[usize::from(o)] > 0)
            .ok_or(MmError::OutOfFrames)?;
        let rel = self.pop_free(o).ok_or(MmError::OutOfFrames)?;
        // Split down to the requested order, keeping the upper halves free.
        while o > order {
            o -= 1;
            let upper = rel + (1 << o);
            self.push_free(upper, o);
            self.stats.splits += 1;
        }
        self.alloc_at[rel as usize] = order + 1;
        self.stats.allocs += 1;
        Ok(FrameId(self.base + rel))
    }

    /// Frees a block previously returned by [`Self::alloc_order`].
    ///
    /// Reports (instead of aborting on) misuse: [`MmError::DoubleFree`],
    /// [`MmError::ForeignFrame`], [`MmError::OrderMismatch`]. A failed
    /// free leaves the allocator state unchanged.
    pub fn free_order(&mut self, frame: FrameId, order: u8) -> Result<(), MmError> {
        let start = self.allocation(frame, order)?;
        self.alloc_at[start] = 0;
        self.stats.frees += 1;
        // Coalesce with the buddy while it is free.
        let mut rel = start as u64;
        let mut o = order;
        while o < MAX_ORDER {
            let buddy = rel ^ (1u64 << o);
            if buddy + (1 << o) > self.frames || !self.take_free(buddy, o) {
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
        let start = self.allocation(frame, order)?;
        self.alloc_at[start..start + (1 << order)].fill(1);
        Ok(())
    }

    /// Whether a specific frame is currently inside any free block.
    pub fn is_frame_free(&self, frame: FrameId) -> bool {
        if self.check_managed(frame).is_err() {
            return false;
        }
        let rel = frame.0 - self.base;
        (0..=MAX_ORDER).any(|o| self.free_at[(rel & !((1u64 << o) - 1)) as usize] == o + 1)
    }
}

/// Marks the block of `order` at `rel` in `starts` and its frames in
/// `covered`, for [`BuddyAllocator`]'s `load`: a block that is misaligned,
/// runs past the region or covers a frame another block covers is corrupt.
fn claim(
    covered: &mut [bool],
    starts: &mut [u8],
    rel: u64,
    order: u8,
) -> Result<(), vusion_snapshot::SnapshotError> {
    use vusion_snapshot::SnapshotError;
    if order > MAX_ORDER {
        return Err(SnapshotError::Corrupt("buddy block order above MAX_ORDER"));
    }
    let size = 1u64 << order;
    if !rel.is_multiple_of(size) || rel >= covered.len() as u64 || size > covered.len() as u64 - rel
    {
        return Err(SnapshotError::Corrupt(
            "buddy block misaligned or past the region",
        ));
    }
    let frames = &mut covered[rel as usize..(rel + size) as usize];
    if frames.contains(&true) {
        return Err(SnapshotError::Corrupt("buddy blocks overlap"));
    }
    frames.fill(true);
    starts[rel as usize] = order + 1;
    Ok(())
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
        // Each order's free blocks, then the allocations, in frame order.
        for order in 0..=MAX_ORDER {
            w.usize(self.free_blocks[usize::from(order)]);
            for rel in (0..self.frames).step_by(1 << order) {
                if self.free_at[rel as usize] == order + 1 {
                    w.u64(rel);
                }
            }
        }
        w.usize(self.alloc_at.iter().filter(|&&at| at != 0).count());
        for (rel, &at) in self.alloc_at.iter().enumerate() {
            if at != 0 {
                w.u64(rel as u64);
                w.u8(at - 1);
            }
        }
        w.u64(self.free_frames() as u64);
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

    /// Restores a state written by `save`. The image must describe a
    /// buddy state of this region: stack entries inside it, every block
    /// aligned to its order, inside the region and listed once, no frame
    /// in two blocks, free or allocated, and a free-frame count equal to
    /// the frames the free blocks hold. Anything else is
    /// [`vusion_snapshot::SnapshotError::Corrupt`], and the allocator is
    /// left as it was.
    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::SnapshotError;
        let Self {
            base,
            frames,
            free_stacks,
            free_at,
            free_blocks,
            alloc_at,
            stats,
            injector,
        } = self;
        if r.u64()? != *base || r.u64()? != *frames {
            return Err(SnapshotError::Corrupt("buddy geometry mismatch"));
        }
        if r.usize()? != ORDERS {
            return Err(SnapshotError::Corrupt("buddy order count mismatch"));
        }
        let stacks = (0..ORDERS)
            .map(|_| r.u64s())
            .collect::<Result<Vec<_>, _>>()?;
        if stacks.iter().flatten().any(|&rel| rel >= *frames) {
            return Err(SnapshotError::Corrupt("buddy stack entry past the region"));
        }
        let mut covered = vec![false; *frames as usize];
        let mut free_starts = vec![0; *frames as usize];
        let mut blocks = [0; ORDERS];
        let mut held = 0u64;
        for (order, count) in (0..=MAX_ORDER).zip(&mut blocks) {
            *count = r.usize()?;
            for _ in 0..*count {
                claim(&mut covered, &mut free_starts, r.u64()?, order)?;
            }
            held += (*count as u64) << order;
        }
        let mut alloc_starts = vec![0; *frames as usize];
        for _ in 0..r.usize()? {
            let rel = r.u64()?;
            claim(&mut covered, &mut alloc_starts, rel, r.u8()?)?;
        }
        if r.u64()? != held {
            return Err(SnapshotError::Corrupt(
                "buddy free-frame count differs from its free blocks",
            ));
        }
        let loaded_stats = BuddyStats {
            allocs: r.u64()?,
            frees: r.u64()?,
            splits: r.u64()?,
            merges: r.u64()?,
        };
        let loaded_injector = if r.bool()? {
            let mut inj = FaultInjector::new(crate::fault::FaultPlan::NONE, 0);
            inj.load(r)?;
            Some(inj)
        } else {
            None
        };
        *free_stacks = stacks;
        *free_at = free_starts;
        *free_blocks = blocks;
        *alloc_at = alloc_starts;
        *stats = loaded_stats;
        *injector = loaded_injector;
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
        (0..ORDERS).map(|o| self.free_blocks[o] << o).sum()
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

    /// An image of an 8-frame region at frame 0 in `save`'s layout, with
    /// zeroed stats and no injector.
    #[derive(Clone)]
    struct Image {
        /// `(order, rel)` stack entries, each stack bottom first.
        stacks: Vec<(u8, u64)>,
        /// `(order, rel)` free-set entries.
        free: Vec<(u8, u64)>,
        /// `(rel, order)` allocation records.
        allocs: Vec<(u64, u8)>,
        free_frames: u64,
    }

    impl Image {
        fn bytes(&self) -> Vec<u8> {
            let of = |entries: &[(u8, u64)], order| -> Vec<u64> {
                entries
                    .iter()
                    .filter(|&&(o, _)| o == order)
                    .map(|&(_, rel)| rel)
                    .collect()
            };
            let mut w = vusion_snapshot::Writer::new();
            w.u64(0);
            w.u64(8);
            w.usize(ORDERS);
            for order in 0..=MAX_ORDER {
                w.u64s(&of(&self.stacks, order));
            }
            for order in 0..=MAX_ORDER {
                let set = of(&self.free, order);
                w.usize(set.len());
                for rel in set {
                    w.u64(rel);
                }
            }
            w.usize(self.allocs.len());
            for &(rel, order) in &self.allocs {
                w.u64(rel);
                w.u8(order);
            }
            w.u64(self.free_frames);
            for _ in 0..4 {
                w.u64(0);
            }
            w.bool(false);
            w.into_bytes()
        }
    }

    fn load(b: &mut BuddyAllocator, image: &Image) -> Result<(), vusion_snapshot::SnapshotError> {
        use vusion_snapshot::Snapshot;
        b.load(&mut vusion_snapshot::Reader::new(&image.bytes()))
    }

    fn save(b: &BuddyAllocator) -> Vec<u8> {
        use vusion_snapshot::Snapshot;
        let mut w = vusion_snapshot::Writer::new();
        b.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn load_rejects_blocks_outside_the_region() {
        use vusion_snapshot::SnapshotError;
        // One frame allocated: frame 0, with blocks 1 (order 0), 2 (order
        // 1) and 4 (order 2) free.
        let good = Image {
            stacks: vec![(2, 4), (1, 2), (0, 1)],
            free: vec![(0, 1), (1, 2), (2, 4)],
            allocs: vec![(0, 0)],
            free_frames: 7,
        };
        let mut b = BuddyAllocator::new(FrameId(0), 8);
        load(&mut b, &good).expect("a well-formed image loads");
        assert_eq!(save(&b), good.bytes(), "the image is in save's layout");
        let loaded = save(&b);
        // A fresh region's image with its order-3 block moved to rel 64:
        // the next allocation would hand out a frame the region lacks.
        let fresh = Image {
            stacks: vec![(3, 64)],
            free: vec![(3, 64)],
            allocs: vec![],
            free_frames: 8,
        };
        let edit = |f: fn(&mut Image)| {
            let mut image = good.clone();
            f(&mut image);
            image
        };
        for (image, why) in [
            (fresh, "buddy stack entry past the region"),
            (
                edit(|i| i.stacks.push((0, 8))),
                "buddy stack entry past the region",
            ),
            (
                edit(|i| i.free[1] = (1, 3)),
                "buddy block misaligned or past the region",
            ),
            (
                edit(|i| i.free[2] = (2, 8)),
                "buddy block misaligned or past the region",
            ),
            (
                edit(|i| i.allocs[0] = (1, 1)),
                "buddy block misaligned or past the region",
            ),
            (
                edit(|i| i.allocs.push((0, 4))),
                "buddy block misaligned or past the region",
            ),
            (
                edit(|i| i.allocs[0] = (0, MAX_ORDER + 1)),
                "buddy block order above MAX_ORDER",
            ),
            (edit(|i| i.free.push((0, 1))), "buddy blocks overlap"),
            (edit(|i| i.allocs.push((0, 0))), "buddy blocks overlap"),
            (edit(|i| i.allocs.push((5, 0))), "buddy blocks overlap"),
            (edit(|i| i.free.push((1, 0))), "buddy blocks overlap"),
            (
                edit(|i| i.free_frames = 0),
                "buddy free-frame count differs from its free blocks",
            ),
        ] {
            assert_eq!(load(&mut b, &image), Err(SnapshotError::Corrupt(why)));
            assert_eq!(save(&b), loaded, "{why}: a refused load changes nothing");
        }
        assert_eq!(b.alloc(), Ok(FrameId(1)));
    }
}
