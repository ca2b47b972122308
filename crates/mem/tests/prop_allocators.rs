//! Property-style tests for the allocator substrate, driven by the in-repo
//! seeded PRNG: each test sweeps many seeds and generates its inputs from
//! the seed, so failures reproduce exactly by seed.

// Tests assert setup preconditions with expect("why"); the crate-level
// expect_used deny targets simulation code, not its test harness.
#![allow(clippy::expect_used)]

use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

use vusion_mem::{
    BuddyAllocator, FrameAllocator, FrameId, LinearAllocator, PhysMemory, RandomPool,
};

const SEEDS: u64 = 48;

/// Any interleaving of allocs and frees never hands out a frame twice
/// and never loses frames: at the end, freeing everything restores the
/// full capacity.
#[test]
fn buddy_never_double_allocates() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_ops = rng.random_range(1..200usize);
        let mut b = BuddyAllocator::new(FrameId(0), 256);
        let mut live: Vec<FrameId> = Vec::new();
        for _ in 0..n_ops {
            match rng.random_range(0..4u8) {
                0 | 1 => {
                    if let Ok(f) = b.alloc() {
                        assert!(
                            !live.contains(&f),
                            "seed {seed}: frame {f:?} double-allocated"
                        );
                        live.push(f);
                    }
                }
                2 => {
                    if let Some(f) = live.pop() {
                        b.free(f).expect("free of live frame");
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let f = live.remove(0);
                        b.free(f).expect("free of live frame");
                    }
                }
            }
            assert_eq!(b.free_frames(), 256 - live.len(), "seed {seed}");
        }
        for f in live {
            b.free(f).expect("free of live frame");
        }
        assert_eq!(b.free_frames(), 256, "seed {seed}");
    }
}

/// Mixed-order allocations stay within the managed range and aligned.
#[test]
fn buddy_orders_are_aligned() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa11c);
        let n = rng.random_range(1..40usize);
        let mut b = BuddyAllocator::new(FrameId(0), 1024);
        let mut live = Vec::new();
        for _ in 0..n {
            let o = rng.random_range(0..5u8);
            if let Ok(f) = b.alloc_order(o) {
                assert_eq!(f.0 % (1 << o), 0, "seed {seed}: order-{o} block misaligned");
                assert!(f.0 + (1 << o) <= 1024, "seed {seed}");
                live.push((f, o));
            }
        }
        for (f, o) in live {
            b.free_order(f, o).expect("free");
        }
        assert_eq!(b.free_frames(), 1024, "seed {seed}");
    }
}

/// The linear allocator's reservations never overlap and never exceed
/// the managed range.
#[test]
fn linear_batches_disjoint() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11ea);
        let batches = rng.random_range(1..10usize);
        let mut a = LinearAllocator::new(FrameId(0), 128);
        let mut all = std::collections::BTreeSet::new();
        for _ in 0..batches {
            let n = rng.random_range(1..30usize);
            for f in a.reserve_batch(n, |_| false) {
                assert!(f.0 < 128, "seed {seed}");
                assert!(all.insert(f), "seed {seed}: frame {f:?} reserved twice");
            }
        }
    }
}

/// The random pool conserves frames: alloc/free sequences never lose or
/// duplicate a frame.
#[test]
fn random_pool_conserves_frames() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9001);
        let n_ops = rng.random_range(1..100usize);
        let mut b = BuddyAllocator::new(FrameId(0), 128);
        let mut p = RandomPool::new(32, &mut b, seed);
        let mut live = Vec::new();
        for _ in 0..n_ops {
            if rng.random_range(0..2u8) == 0 {
                if let Ok(f) = p.alloc_random(&mut b) {
                    assert!(!live.contains(&f), "seed {seed}: pool duplicated {f:?}");
                    live.push(f);
                }
            } else if let Some(f) = live.pop() {
                p.free_random(f, &mut b).expect("free");
            }
        }
        // Total frames = backing free + pool resident + live must equal 128.
        assert_eq!(
            b.free_frames() + p.resident() + live.len(),
            128,
            "seed {seed}"
        );
    }
}

/// The RA exclusion guarantee survives injected backing failures: even
/// while the backing allocator fails deterministically underneath it, the
/// pool never hands back the caller-templated frame, and exhaustion is a
/// clean typed error (never a panic, never a frame leak).
#[test]
fn random_pool_exclusion_under_injected_backing_failures() {
    use vusion_mem::{FaultInjector, FaultPlan, MmError};
    let plans = [
        FaultPlan::every_nth_alloc(2),
        FaultPlan::every_nth_alloc(3),
        FaultPlan::every_nth_alloc(7),
        FaultPlan::alloc_prob(0.5).expect("valid"),
        FaultPlan::alloc_prob(0.9).expect("valid"),
        FaultPlan::alloc_prob(1.0).expect("valid"),
    ];
    for (pi, plan) in plans.into_iter().enumerate() {
        for seed in 0..SEEDS {
            let mut b = BuddyAllocator::new(FrameId(0), 64);
            let mut p = RandomPool::new(16, &mut b, seed);
            b.set_fault_injector(FaultInjector::new(plan, seed ^ 0xfa17));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xdeed);
            // The attacker-templated frame: drawn, then released.
            let marked = p.alloc_random(&mut b).expect("pool is pre-filled");
            p.free_random(marked, &mut b).expect("free");
            let mut held: Vec<FrameId> = Vec::new();
            for _ in 0..300 {
                if rng.random_range(0..3u8) < 2 {
                    match p.alloc_random_excluding(&mut b, Some(marked)) {
                        Ok(f) => {
                            assert_ne!(
                                f, marked,
                                "plan {pi} seed {seed}: templated frame reused under failure"
                            );
                            assert!(!held.contains(&f), "plan {pi} seed {seed}: duplicate");
                            held.push(f);
                        }
                        Err(e) => assert_eq!(
                            e,
                            MmError::PoolExhausted,
                            "plan {pi} seed {seed}: unexpected error"
                        ),
                    }
                } else if let Some(f) = held.pop() {
                    p.free_random(f, &mut b).expect("free");
                }
            }
            // No frame leaked or duplicated across the whole run. The
            // templated frame is still somewhere in the system.
            assert_eq!(
                b.free_frames() + p.resident() + held.len(),
                64,
                "plan {pi} seed {seed}: frames leaked"
            );
        }
    }
}

/// Page content survives arbitrary byte writes (memory is sound).
#[test]
fn phys_memory_bytes_roundtrip() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb17e);
        let writes = rng.random_range(1..100usize);
        let mut m = PhysMemory::new(8);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..writes {
            let frame = rng.random_range(0..8u64);
            let off = rng.random_range(0..4096u64);
            let val = rng.random_range(0..=255u64) as u8;
            let addr = FrameId(frame).addr(off);
            m.write_byte(addr, val);
            model.insert((frame, off), val);
        }
        for ((frame, off), val) in model {
            assert_eq!(m.read_byte(FrameId(frame).addr(off)), val, "seed {seed}");
        }
    }
}

/// `pages_equal` agrees with byte-wise comparison, including lazy zeros.
#[test]
fn pages_equal_matches_bytes() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe4a1);
        let writes = rng.random_range(0..40usize);
        let mut m = PhysMemory::new(2);
        for _ in 0..writes {
            let frame = rng.random_range(0..2u64);
            let off = rng.random_range(0..64u64);
            let val = rng.random_range(0..3u8);
            m.write_byte(FrameId(frame).addr(off), val);
        }
        let eq = m.page(FrameId(0)).as_slice() == m.page(FrameId(1)).as_slice();
        assert_eq!(m.pages_equal(FrameId(0), FrameId(1)), eq, "seed {seed}");
        if eq {
            assert_eq!(
                m.hash_page(FrameId(0)),
                m.hash_page(FrameId(1)),
                "seed {seed}"
            );
        }
    }
}

/// The buddy allocator as it was kept with B-trees: per-order free sets
/// and a map of allocation records beside the same LIFO stacks. The
/// reference for [`buddy_matches_btree_reference`].
mod btree_buddy {
    use std::collections::{BTreeMap, BTreeSet};

    use vusion_mem::buddy::MAX_ORDER;
    use vusion_mem::{BuddyStats, FaultInjector, FrameId, MmError};
    use vusion_snapshot::{Snapshot, Writer};

    pub struct BTreeBuddy {
        base: u64,
        frames: u64,
        free_stacks: Vec<Vec<u64>>,
        free_sets: Vec<BTreeSet<u64>>,
        allocated: BTreeMap<u64, u8>,
        free_frames: u64,
        stats: BuddyStats,
        injector: Option<FaultInjector>,
    }

    impl BTreeBuddy {
        pub fn new(base: FrameId, frames: u64) -> Self {
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

        pub fn stats(&self) -> BuddyStats {
            self.stats
        }

        pub fn free_frames(&self) -> usize {
            self.free_frames as usize
        }

        pub fn set_fault_injector(&mut self, injector: FaultInjector) {
            self.injector = Some(injector);
        }

        fn push_free(&mut self, rel: u64, order: u8) {
            self.free_sets[usize::from(order)].insert(rel);
            self.free_stacks[usize::from(order)].push(rel);
        }

        fn pop_free(&mut self, order: u8) -> Option<u64> {
            let o = usize::from(order);
            while let Some(rel) = self.free_stacks[o].pop() {
                if self.free_sets[o].remove(&rel) {
                    return Some(rel);
                }
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

        pub fn alloc_order(&mut self, order: u8) -> Result<FrameId, MmError> {
            if order > MAX_ORDER {
                return Err(MmError::OutOfFrames);
            }
            if let Some(inj) = &mut self.injector {
                if inj.should_fail_alloc() {
                    return Err(MmError::OutOfFrames);
                }
            }
            let mut have = None;
            for o in order..=MAX_ORDER {
                if !self.free_sets[usize::from(o)].is_empty() {
                    have = Some(o);
                    break;
                }
            }
            let mut o = have.ok_or(MmError::OutOfFrames)?;
            let rel = self.pop_free(o).ok_or(MmError::OutOfFrames)?;
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

        pub fn free_order(&mut self, frame: FrameId, order: u8) -> Result<(), MmError> {
            self.check_managed(frame)?;
            let mut rel = frame.0 - self.base;
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
            self.free_frames += 1 << order;
            self.stats.frees += 1;
            let mut o = order;
            while o < MAX_ORDER {
                let buddy = rel ^ (1u64 << o);
                if buddy + (1 << o) > self.frames || !self.free_sets[usize::from(o)].remove(&buddy)
                {
                    break;
                }
                self.stats.merges += 1;
                rel = rel.min(buddy);
                o += 1;
            }
            self.push_free(rel, o);
            Ok(())
        }

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

        /// `is_frame_free` of every frame below `end`, in one walk of the
        /// free sets: a frame is free when a free block covers it.
        pub fn free_map(&self, end: u64) -> Vec<bool> {
            let mut free = vec![false; end as usize];
            for (o, set) in self.free_sets.iter().enumerate() {
                for &rel in set {
                    let start = (self.base + rel) as usize;
                    free[start..start + (1 << o)].fill(true);
                }
            }
            free
        }

        pub fn save(&self, w: &mut Writer) {
            w.u64(self.base);
            w.u64(self.frames);
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
    }
}

/// The per-frame-array buddy allocator against [`btree_buddy`], the
/// B-tree allocator it replaced, on a 1,000-frame region (not a power of
/// two): seeded steps of `alloc_order` at every order, `free_order` (of
/// live blocks, at wrong orders, twice, and of frames inside a block or
/// outside the region) and `split_allocated`, with a failure injector on
/// half the seeds. After every step both return the same value and agree
/// on `free_frames`, `stats`, `is_frame_free` of every frame and the
/// `save` bytes, so the frame the LIFO stacks hand out next is the same.
#[test]
fn buddy_matches_btree_reference() {
    use btree_buddy::BTreeBuddy;
    use vusion_mem::buddy::MAX_ORDER;
    use vusion_mem::{FaultInjector, FaultPlan};
    use vusion_snapshot::{Snapshot, Writer};

    const FRAMES: u64 = 1000;
    // How often each kind of step ran, over all seeds: successful and
    // failed allocations, good frees, misused frees, good splits and
    // misused splits.
    let mut met = [0usize; 6];
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb7ee);
        let mut b = BuddyAllocator::new(FrameId(0), FRAMES);
        let mut reference = BTreeBuddy::new(FrameId(0), FRAMES);
        if seed % 2 == 1 {
            let nth = rng.random_range(2..9u64);
            b.set_fault_injector(FaultInjector::new(FaultPlan::every_nth_alloc(nth), seed));
            reference.set_fault_injector(FaultInjector::new(FaultPlan::every_nth_alloc(nth), seed));
        }
        // Outstanding blocks, and frames freed since (for double frees).
        let mut live: Vec<(FrameId, u8)> = Vec::new();
        let mut freed: Vec<FrameId> = Vec::new();
        for step in 0..400 {
            let (got, want, kind) = match rng.random_range(0..10u8) {
                0..=3 => {
                    // Low orders most of the time, so the region fills.
                    let order = if rng.random_bool(0.8) {
                        rng.random_range(0..3u8)
                    } else {
                        rng.random_range(0..=MAX_ORDER)
                    };
                    let got = b.alloc_order(order);
                    let want = reference.alloc_order(order);
                    if let Ok(f) = want {
                        live.push((f, order));
                    }
                    let kind = usize::from(want.is_err());
                    (got.map(|f| f.0), want.map(|f| f.0), kind)
                }
                4..=6 => {
                    let (frame, order, good) = match rng.random_range(0..6u8) {
                        0..=2 if !live.is_empty() => {
                            let (f, o) = live.swap_remove(rng.random_range(0..live.len()));
                            freed.push(f);
                            (f, o, true)
                        }
                        3 if !live.is_empty() => {
                            let (f, o) = live[rng.random_range(0..live.len())];
                            (
                                f,
                                (o + rng.random_range(1..=MAX_ORDER)) % (MAX_ORDER + 1),
                                false,
                            )
                        }
                        4 if !freed.is_empty() => {
                            (freed[rng.random_range(0..freed.len())], 0, false)
                        }
                        _ => (FrameId(rng.random_range(0..FRAMES + 40)), 0, false),
                    };
                    let got = b.free_order(frame, order);
                    let want = reference.free_order(frame, order);
                    if !good && want.is_ok() {
                        // A frame drawn at random was a live order-0 block.
                        live.retain(|&(f, _)| f != frame);
                    }
                    (got.map(|()| 0), want.map(|()| 0), if good { 2 } else { 3 })
                }
                _ => {
                    let (frame, order, good) = if !live.is_empty() && rng.random_bool(0.7) {
                        let i = rng.random_range(0..live.len());
                        let (f, o) = live[i];
                        if rng.random_bool(0.8) {
                            live.swap_remove(i);
                            (f, o, true)
                        } else {
                            (f, (o + 1) % (MAX_ORDER + 1), false)
                        }
                    } else {
                        (FrameId(rng.random_range(0..FRAMES + 40)), 0, false)
                    };
                    let got = b.split_allocated(frame, order);
                    let want = reference.split_allocated(frame, order);
                    if good {
                        live.extend((0..1u64 << order).map(|i| (FrameId(frame.0 + i), 0)));
                    }
                    (got.map(|()| 0), want.map(|()| 0), if good { 4 } else { 5 })
                }
            };
            met[kind] += 1;
            assert_eq!(got, want, "seed {seed} step {step}");
            assert_eq!(
                b.free_frames(),
                reference.free_frames(),
                "seed {seed} step {step}"
            );
            assert_eq!(b.stats(), reference.stats(), "seed {seed} step {step}");
            let free: Vec<bool> = (0..FRAMES + 8)
                .map(|f| b.is_frame_free(FrameId(f)))
                .collect();
            assert!(
                free == reference.free_map(FRAMES + 8),
                "seed {seed} step {step}: free frames differ"
            );
            let mut w = Writer::new();
            b.save(&mut w);
            let mut expect = Writer::new();
            reference.save(&mut expect);
            assert!(
                w.into_bytes() == expect.into_bytes(),
                "seed {seed} step {step}: save bytes differ"
            );
        }
    }
    assert!(
        met.iter().all(|&n| n > 0),
        "every kind of step ran: {met:?}"
    );
}
