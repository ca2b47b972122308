//! Property-style tests for the DRAM and Rowhammer models, driven by the
//! in-repo seeded PRNG: each test sweeps many seeds so failures reproduce
//! exactly by seed.

use vusion_dram::{
    DramConfig, DramLocation, RowBufferOutcome, RowBuffers, RowhammerModel, ROW_SIZE,
};
use vusion_mem::PhysAddr;
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngCore, RngExt, SeedableRng};

const SEEDS: u64 = 64;

/// Address mapping is a bijection on the covered range.
#[test]
fn locate_is_invertible() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11d4);
        let addr = rng.random_range(0u64..(1 << 32));
        for cfg in [DramConfig::ddr4(), DramConfig::single_bank()] {
            let loc = cfg.locate(PhysAddr(addr));
            assert_eq!(cfg.address_of(loc), PhysAddr(addr), "seed {seed}");
            assert!(loc.bank < cfg.banks, "seed {seed}");
            assert!(loc.col < ROW_SIZE, "seed {seed}");
        }
    }
}

/// Row-buffer behavior: accesses within one row hit after the first;
/// switching rows in a bank conflicts.
#[test]
fn row_buffer_semantics() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x22d4);
        let row_a = rng.random_range(0u64..1000);
        let row_b = rng.random_range(0u64..1000);
        if row_a == row_b {
            continue;
        }
        let cfg = DramConfig::single_bank();
        let mut rb = RowBuffers::new(cfg);
        let a = cfg.address_of(DramLocation {
            bank: 0,
            row: row_a,
            col: 0,
        });
        let b = cfg.address_of(DramLocation {
            bank: 0,
            row: row_b,
            col: 128,
        });
        assert_eq!(rb.access(a), RowBufferOutcome::Empty, "seed {seed}");
        assert_eq!(
            rb.access(PhysAddr(a.0 + 64)),
            RowBufferOutcome::Hit,
            "seed {seed}"
        );
        assert_eq!(rb.access(b), RowBufferOutcome::Conflict, "seed {seed}");
        assert_eq!(rb.access(a), RowBufferOutcome::Conflict, "seed {seed}");
    }
}

/// Rowhammer determinism: identical hammering produces identical flips,
/// and flips only land in rows adjacent to an aggressor.
#[test]
fn hammer_is_deterministic_and_local() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x33d4);
        let module_seed = rng.next_u64();
        let r1 = rng.random_range(2u64..500);
        let gap = rng.random_range(2u64..6);
        let cfg = DramConfig::single_bank();
        let m = RowhammerModel::new(cfg, module_seed);
        let a1 = cfg.address_of(DramLocation {
            bank: 0,
            row: r1,
            col: 0,
        });
        let a2 = cfg.address_of(DramLocation {
            bank: 0,
            row: r1 + gap,
            col: 0,
        });
        let o1 = m.hammer(a1, a2, 2_000_000);
        let o2 = m.hammer(a1, a2, 2_000_000);
        assert_eq!(&o1.flips, &o2.flips, "seed {seed}");
        let victims = [r1 - 1, r1 + 1, r1 + gap - 1, r1 + gap + 1];
        for f in &o1.flips {
            let row = cfg.locate(f.addr).row;
            assert!(
                victims.contains(&row),
                "seed {seed}: flip in non-victim row {row}"
            );
        }
    }
}

/// Monotonicity: more iterations can only produce a superset of flips.
#[test]
fn more_hammering_flips_more() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x44d4);
        let module_seed = rng.next_u64();
        let row = rng.random_range(2u64..300);
        let cfg = DramConfig::single_bank();
        let m = RowhammerModel::new(cfg, module_seed);
        let victim = cfg.address_of(DramLocation {
            bank: 0,
            row,
            col: 0,
        });
        let small = m.hammer_double_sided(victim, 300_000);
        let large = m.hammer_double_sided(victim, 2_500_000);
        for f in &small.flips {
            assert!(
                large.flips.contains(f),
                "seed {seed}: flip lost at higher iteration count"
            );
        }
    }
}

/// Weak-cell positions are always inside the row.
#[test]
fn weak_cells_in_bounds() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x55d4);
        let module_seed = rng.next_u64();
        let row = rng.random_range(0u64..2000);
        let cfg = DramConfig::ddr4();
        let m = RowhammerModel::new(cfg, module_seed);
        for bank in 0..cfg.banks {
            for (col, bit, threshold) in m.weak_cells(bank, row) {
                assert!(col < ROW_SIZE, "seed {seed}");
                assert!(bit < 8, "seed {seed}");
                assert!(threshold > 0, "seed {seed}");
            }
        }
    }
}
