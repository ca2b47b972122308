//! VUsion's Randomized Allocation (RA) pool.
//!
//! §7.1: "We reserve 128 MB of physical memory in a cache to add 15 bits of
//! entropy to physical memory allocations performed by VUsion during both
//! merging and unmerging." With a pool of 2¹⁵ = 32,768 frames, a specific
//! vulnerable frame released by the attacker is controllably reused with
//! probability only 2⁻¹⁵, defeating Flip Feng Shui templating.
//!
//! The pool sits in front of a backing allocator (the system buddy
//! allocator): every allocation draws a uniformly random pool slot and
//! refills it from the backing allocator; every free inserts the frame at a
//! random slot and evicts a random resident back to the backing allocator,
//! so recently freed frames enjoy no reuse preference whatsoever.

use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

use crate::addr::FrameId;
use crate::error::MmError;
use crate::FrameAllocator;

/// Default pool capacity: 128 MiB of 4 KiB frames = 2¹⁵ frames.
pub const DEFAULT_POOL_FRAMES: usize = 32 * 1024;

/// Randomized frame pool in front of a backing allocator.
pub struct RandomPool {
    pool: Vec<FrameId>,
    capacity: usize,
    rng: StdRng,
}

impl RandomPool {
    /// Creates a pool of `capacity` frames, pre-filled from `backing`.
    ///
    /// If the backing allocator cannot supply `capacity` frames the pool is
    /// smaller (entropy degrades gracefully; tests use small pools). An
    /// empty pool is permitted — allocations then fall through to the
    /// backing allocator directly.
    pub fn new(capacity: usize, backing: &mut dyn FrameAllocator, seed: u64) -> Self {
        let mut pool = Vec::with_capacity(capacity);
        for _ in 0..capacity {
            match backing.alloc() {
                Ok(f) => pool.push(f),
                Err(_) => break,
            }
        }
        Self {
            pool,
            capacity,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Current number of frames resident in the pool.
    pub fn resident(&self) -> usize {
        self.pool.len()
    }

    /// Draws a uniformly random frame, refilling the slot from `backing`.
    /// While the backing allocator fails the pool shrinks; once it is
    /// empty the draw falls through to `backing`, and fails with
    /// [`MmError::PoolExhausted`] when that has nothing either.
    pub fn alloc_random(&mut self, backing: &mut dyn FrameAllocator) -> Result<FrameId, MmError> {
        if self.pool.is_empty() {
            return backing.alloc().map_err(|_| MmError::PoolExhausted);
        }
        let idx = self.rng.random_range(0..self.pool.len());
        match backing.alloc() {
            Ok(refill) => Ok(std::mem::replace(&mut self.pool[idx], refill)),
            Err(_) => Ok(self.pool.swap_remove(idx)),
        }
    }

    /// Returns a frame: it is inserted at a random pool slot; if the pool is
    /// over capacity a random resident is evicted to `backing` instead.
    pub fn free_random(
        &mut self,
        frame: FrameId,
        backing: &mut dyn FrameAllocator,
    ) -> Result<(), MmError> {
        if self.pool.len() < self.capacity {
            // Insert at a random position to avoid positional bias.
            let idx = self.rng.random_range(0..=self.pool.len());
            self.pool.push(frame);
            let last = self.pool.len() - 1;
            self.pool.swap(idx, last);
            Ok(())
        } else {
            let idx = self.rng.random_range(0..self.pool.len());
            let evicted = std::mem::replace(&mut self.pool[idx], frame);
            backing.free(evicted)
        }
    }
}

impl vusion_snapshot::Snapshot for RandomPool {
    fn save(&self, w: &mut vusion_snapshot::Writer) {
        // Pool slots travel in order: draws index into the vector, so slot
        // order is load-bearing for determinism.
        w.usize(self.pool.len());
        for f in &self.pool {
            w.u64(f.0);
        }
        w.usize(self.capacity);
        for x in self.rng.state() {
            w.u64(x);
        }
    }

    fn load(
        &mut self,
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<(), vusion_snapshot::SnapshotError> {
        let Self {
            pool,
            capacity,
            rng,
        } = self;
        let n = r.usize()?;
        pool.clear();
        for _ in 0..n {
            pool.push(FrameId(r.frame()?));
        }
        *capacity = r.usize()?;
        *rng = StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buddy::BuddyAllocator;

    #[test]
    fn snapshot_round_trips_every_field() {
        let (mut src, mut b) = setup(8, 1024);
        for _ in 0..5 {
            src.alloc_random(&mut b).expect("frame");
        }
        let (mut dst, _) = setup(4, 64);
        let (a, b) = vusion_snapshot::resave(&src, &mut dst).expect("resave");
        assert_eq!(a, b);
    }

    fn setup(pool_size: usize, frames: u64) -> (RandomPool, BuddyAllocator) {
        let mut b = BuddyAllocator::new(FrameId(0), frames);
        let p = RandomPool::new(pool_size, &mut b, 42);
        (p, b)
    }

    #[test]
    fn prefills_to_capacity() {
        let (p, b) = setup(64, 1024);
        assert_eq!(p.resident(), 64);
        assert_eq!(b.free_frames(), 1024 - 64);
    }

    #[test]
    fn alloc_returns_distinct_frames() {
        let (mut p, mut b) = setup(64, 1024);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let f = p.alloc_random(&mut b).expect("frame");
            assert!(seen.insert(f), "pool handed out a frame twice");
        }
    }

    #[test]
    fn freed_frame_rarely_reused_immediately() {
        // The anti-Flip-Feng-Shui property: free a frame, then allocate; the
        // probability of getting the same frame back must be ~1/capacity,
        // not ~1 as with the LIFO buddy allocator.
        let (mut p, mut b) = setup(256, 4096);
        let mut immediate_reuse = 0;
        for _ in 0..400 {
            let f = p.alloc_random(&mut b).expect("frame");
            p.free_random(f, &mut b).expect("free");
            let g = p.alloc_random(&mut b).expect("frame");
            if f == g {
                immediate_reuse += 1;
            }
            p.free_random(g, &mut b).expect("free");
        }
        // Expected ≈ 400/256 ≈ 1.6; allow generous slack but far below LIFO's 400.
        assert!(immediate_reuse <= 10, "reused {immediate_reuse}/400 times");
    }

    #[test]
    fn draws_are_roughly_uniform() {
        // Chi-square-free sanity check: draw many frames from a small pool
        // backed by an exhausted allocator and check each slot is hit.
        let mut b = BuddyAllocator::new(FrameId(0), 16);
        let mut p = RandomPool::new(16, &mut b, 7);
        assert_eq!(b.free_frames(), 0);
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..2000 {
            let f = p.alloc_random(&mut b).expect("frame");
            *counts.entry(f).or_insert(0u32) += 1;
            p.free_random(f, &mut b).expect("free");
        }
        assert_eq!(counts.len(), 16, "every pool slot must be drawable");
        for (_, c) in counts {
            assert!(c > 50, "draws badly non-uniform: {c}");
        }
    }

    #[test]
    fn degrades_to_backing_when_empty() {
        let mut b = BuddyAllocator::new(FrameId(0), 8);
        let mut p = RandomPool::new(4, &mut b, 1);
        // Drain the pool and the backing allocator.
        let mut got = 0;
        while p.alloc_random(&mut b).is_ok() {
            got += 1;
        }
        assert_eq!(got, 8);
        assert_eq!(
            p.alloc_random(&mut b),
            Err(MmError::PoolExhausted),
            "exhaustion must be a clean typed error"
        );
    }

    #[test]
    fn over_capacity_free_evicts_to_backing() {
        let mut b = BuddyAllocator::new(FrameId(0), 32);
        let mut p = RandomPool::new(8, &mut b, 3);
        let extra = b.alloc().expect("frame");
        let before = b.free_frames();
        p.free_random(extra, &mut b).expect("free");
        assert_eq!(p.resident(), 8, "pool stays at capacity");
        assert_eq!(b.free_frames(), before + 1, "one frame evicted to backing");
    }
}
