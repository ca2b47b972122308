//! Property-style tests for the LLC model, driven by the in-repo seeded
//! PRNG: each test sweeps many seeds so failures reproduce exactly by seed.

use vusion_cache::{CacheOutcome, Llc, LlcConfig, LINE_SIZE};
use vusion_mem::{FrameId, PhysAddr};
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

const SEEDS: u64 = 64;

/// Inclusion: immediately re-accessing any address hits.
#[test]
fn reaccess_always_hits() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11c0);
        let n = rng.random_range(1..200usize);
        let mut c = Llc::new(LlcConfig::tiny());
        for _ in 0..n {
            let a = rng.random_range(0u64..(1 << 24));
            c.access(PhysAddr(a));
            assert_eq!(c.access(PhysAddr(a)), CacheOutcome::Hit, "seed {seed}");
        }
    }
}

/// Capacity: a set never holds more than `ways` distinct lines — the
/// (ways+1)-th distinct line of one set always evicts something.
#[test]
fn set_capacity_is_respected() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x22c0);
        let extra = rng.random_range(1u64..8);
        let cfg = LlcConfig::tiny();
        let mut c = Llc::new(cfg);
        let stride = cfg.sets as u64 * LINE_SIZE;
        let n = cfg.ways as u64 + extra;
        for i in 0..n {
            c.access(PhysAddr(i * stride));
        }
        // Only the last `ways` lines can still be present.
        let mut present = 0;
        for i in 0..n {
            if c.contains(PhysAddr(i * stride)) {
                present += 1;
            }
        }
        assert_eq!(present, cfg.ways, "seed {seed}");
        // And the oldest is gone.
        assert!(!c.contains(PhysAddr(0)), "seed {seed}");
    }
}

/// Flush removes exactly the requested line, nothing else in the set.
#[test]
fn flush_is_precise() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x33c0);
        let keep = rng.random_range(1u64..4);
        let cfg = LlcConfig::tiny();
        let mut c = Llc::new(cfg);
        let stride = cfg.sets as u64 * LINE_SIZE;
        for i in 0..=keep {
            c.access(PhysAddr(i * stride));
        }
        c.flush(PhysAddr(0));
        assert!(!c.contains(PhysAddr(0)), "seed {seed}");
        for i in 1..=keep {
            assert!(
                c.contains(PhysAddr(i * stride)),
                "seed {seed}: line {i} unexpectedly flushed"
            );
        }
    }
}

/// Page color is a pure function of the frame number with the
/// documented period, and all lines of a page share the color's sets.
#[test]
fn color_structure() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x44c0);
        let frame = rng.random_range(0u64..100_000);
        let c = Llc::new(LlcConfig::xeon_e3_1240_v5());
        let colors = c.config().colors() as u64;
        assert_eq!(
            c.color_of(FrameId(frame)),
            c.color_of(FrameId(frame + colors)),
            "seed {seed}"
        );
        let base_set = c.set_index(FrameId(frame).base());
        assert_eq!(base_set % c.config().sets_per_page(), 0, "seed {seed}");
        for line in 0..64u64 {
            assert_eq!(
                c.set_index(FrameId(frame).base() + line * 64),
                base_set + line as usize,
                "seed {seed}"
            );
        }
    }
}

/// Stats never lie: hits + misses equals the number of accesses.
#[test]
fn stats_balance() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55c0);
        let n = rng.random_range(1..300usize);
        let mut c = Llc::new(LlcConfig::tiny());
        for _ in 0..n {
            c.access(PhysAddr(rng.random_range(0u64..(1 << 20))));
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, n as u64, "seed {seed}");
    }
}
