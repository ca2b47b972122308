//! Windows-style linear end-of-memory allocator.
//!
//! §2.2 of the paper: WPF backs fused pages with *new* allocations obtained
//! from `MiAllocatePagesForMdl`, "a specialized linear allocator [...] that
//! scans the physical address space from the end and tries to reserve as
//! many pages as necessary", allowing holes where pages cannot be reclaimed.
//!
//! The crucial (and insecure) property is that every fusion pass re-scans
//! from the end of memory, so frames released after a previous pass are
//! reused near-perfectly by the next pass — Figure 3 and the reuse-based
//! Flip Feng Shui attack of §5.2 are built on exactly this behaviour.

use std::collections::BTreeSet;

use crate::addr::FrameId;
use crate::error::MmError;
use crate::FrameAllocator;

/// Linear allocator over `[base, base + frames)`, allocating from the top.
pub struct LinearAllocator {
    base: u64,
    frames: u64,
    /// Relative indices currently handed out.
    taken: BTreeSet<u64>,
}

impl LinearAllocator {
    /// Creates an allocator over `frames` frames starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`.
    pub fn new(base: FrameId, frames: u64) -> Self {
        assert!(frames > 0, "linear region must be non-empty");
        Self {
            base: base.0,
            frames,
            taken: BTreeSet::new(),
        }
    }

    /// Reserves up to `n` frames, scanning **from the end of memory
    /// downwards** and skipping frames for which `occupied` returns `true`
    /// (the "holes" of `MiAllocatePagesForMdl`). Returns the reserved frames
    /// in scan order (descending physical address).
    pub fn reserve_batch(
        &mut self,
        n: usize,
        mut occupied: impl FnMut(FrameId) -> bool,
    ) -> Vec<FrameId> {
        let mut out = Vec::with_capacity(n);
        let mut rel = self.frames;
        while rel > 0 && out.len() < n {
            rel -= 1;
            if self.taken.contains(&rel) {
                continue;
            }
            let frame = FrameId(self.base + rel);
            if occupied(frame) {
                continue;
            }
            self.taken.insert(rel);
            out.push(frame);
        }
        out
    }
}

impl vusion_snapshot::Snapshot for LinearAllocator {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        w.u64(self.base);
        w.u64(self.frames);
        w.usize(self.taken.len());
        for &rel in &self.taken {
            w.u64(rel);
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        let Self {
            base,
            frames,
            taken,
        } = self;
        if r.u64()? != *base || r.u64()? != *frames {
            return Err(vusion_snapshot::SnapshotError::Corrupt(
                "linear geometry mismatch",
            ));
        }
        taken.clear();
        let n = r.usize()?;
        for _ in 0..n {
            let rel = r.u64()?;
            if rel >= *frames {
                return Err(vusion_snapshot::SnapshotError::Corrupt(
                    "linear frame outside its region",
                ));
            }
            taken.insert(rel);
        }
        Ok(())
    }
}

impl FrameAllocator for LinearAllocator {
    fn alloc(&mut self) -> Result<FrameId, MmError> {
        self.reserve_batch(1, |_| false)
            .into_iter()
            .next()
            .ok_or(MmError::OutOfFrames)
    }

    fn free(&mut self, frame: FrameId) -> Result<(), MmError> {
        if frame.0 < self.base || frame.0 >= self.base + self.frames {
            return Err(MmError::ForeignFrame(frame));
        }
        let rel = frame.0 - self.base;
        if self.taken.remove(&rel) {
            Ok(())
        } else {
            Err(MmError::DoubleFree(frame))
        }
    }

    fn free_frames(&self) -> usize {
        (self.frames as usize) - self.taken.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trips_every_field() {
        let mut src = LinearAllocator::new(FrameId(100), 16);
        src.reserve_batch(3, |f| f.0 == 114);
        let mut dst = LinearAllocator::new(FrameId(100), 16);
        let (a, b) = vusion_snapshot::resave(&src, &mut dst).expect("resave");
        assert_eq!(a, b);
    }

    #[test]
    fn allocates_from_the_end() {
        let mut a = LinearAllocator::new(FrameId(0), 100);
        let batch = a.reserve_batch(3, |_| false);
        assert_eq!(batch, vec![FrameId(99), FrameId(98), FrameId(97)]);
    }

    #[test]
    fn holes_where_occupied() {
        let mut a = LinearAllocator::new(FrameId(0), 100);
        let batch = a.reserve_batch(3, |f| f.0 == 98);
        assert_eq!(batch, vec![FrameId(99), FrameId(97), FrameId(96)]);
    }

    #[test]
    fn near_perfect_reuse_across_passes() {
        // The Figure 3 property: frames freed after pass 1 are reused by
        // pass 2 in the same physical locations.
        let mut a = LinearAllocator::new(FrameId(0), 1000);
        let pass1 = a.reserve_batch(50, |_| false);
        for &f in &pass1 {
            a.free(f).expect("free");
        }
        let pass2 = a.reserve_batch(50, |_| false);
        assert_eq!(
            pass1, pass2,
            "linear allocator must exhibit deterministic reuse"
        );
    }

    #[test]
    fn batches_do_not_overlap() {
        let mut a = LinearAllocator::new(FrameId(0), 100);
        let b1 = a.reserve_batch(10, |_| false);
        let b2 = a.reserve_batch(10, |_| false);
        assert!(b1.iter().all(|f| !b2.contains(f)));
        assert_eq!(b2[0], FrameId(89));
    }

    #[test]
    fn exhaustion_returns_short_batch() {
        let mut a = LinearAllocator::new(FrameId(0), 5);
        let b = a.reserve_batch(10, |_| false);
        assert_eq!(b.len(), 5);
        assert_eq!(a.alloc(), Err(MmError::OutOfFrames));
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn free_frames_accounting() {
        let mut a = LinearAllocator::new(FrameId(10), 20);
        assert_eq!(a.free_frames(), 20);
        let f = a.alloc().expect("frame");
        assert_eq!(f, FrameId(29));
        assert_eq!(a.free_frames(), 19);
        a.free(f).expect("free");
        assert_eq!(a.free_frames(), 20);
    }

    #[test]
    fn double_free_is_reported() {
        let mut a = LinearAllocator::new(FrameId(0), 5);
        let f = a.alloc().expect("frame");
        a.free(f).expect("first free");
        assert_eq!(a.free(f), Err(MmError::DoubleFree(f)));
        assert_eq!(
            a.free(FrameId(999)),
            Err(MmError::ForeignFrame(FrameId(999)))
        );
        assert_eq!(a.free_frames(), 5);
    }
}
