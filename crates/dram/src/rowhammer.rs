//! The Rowhammer fault model: seeded weak cells with flip thresholds.
//!
//! Real DRAM modules have a fixed population of cells that are susceptible
//! to disturbance errors; which cells flip is a property of the chip and is
//! highly reproducible — that reproducibility is what makes Flip Feng Shui's
//! *templating* phase (find a flip in your own memory, then steer victim
//! data onto it) possible. We model this with a per-module seed: the weak
//! cells of a row and their activation thresholds are a deterministic
//! function of `(seed, bank, row)`.

use vusion_mem::PhysAddr;
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

use crate::geometry::{DramConfig, DramLocation, ROW_SIZE};

/// Fraction of rows holding at least one weak cell: generous enough that
/// templating over a few hundred rows finds flips, as on the vulnerable
/// DDR3/DDR4 modules studied by the Rowhammer literature.
const WEAK_ROW_FRACTION: f64 = 0.35;

/// Flip thresholds of weak cells, in per-side hammer iterations.
const THRESHOLDS: std::ops::Range<u64> = 200_000..1_200_000;

/// A bit flip produced by hammering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlipEvent {
    /// Physical address of the affected byte.
    pub addr: PhysAddr,
    /// Bit index within the byte (0 = LSB).
    pub bit: u8,
}

/// Result of one hammering burst.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HammerOutcome {
    /// Bits that flipped during this burst (deduplicated; a cell flips at
    /// most once per burst).
    pub flips: Vec<FlipEvent>,
    /// Total row activations performed.
    pub activations: u64,
}

/// The fault model for one memory module.
pub struct RowhammerModel {
    cfg: DramConfig,
    seed: u64,
}

/// SplitMix64, used to derive per-row randomness deterministically.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RowhammerModel {
    /// Creates a fault model for a module with the given geometry and seed.
    pub fn new(cfg: DramConfig, seed: u64) -> Self {
        Self { cfg, seed }
    }

    /// The geometry.
    pub fn config(&self) -> DramConfig {
        self.cfg
    }

    /// The weak cells of a row: `(column, bit, threshold)` triples.
    ///
    /// Deterministic in `(seed, bank, row)`.
    pub fn weak_cells(&self, bank: u64, row: u64) -> Vec<(u64, u8, u64)> {
        let h =
            splitmix64(self.seed ^ bank.wrapping_mul(0x9e37_79b9) ^ row.wrapping_mul(0x85eb_ca6b));
        // Decide whether the row is weak at all.
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        if frac >= WEAK_ROW_FRACTION {
            return Vec::new();
        }
        let mut rng = StdRng::seed_from_u64(h);
        let count = rng.random_range(1..=3usize);
        (0..count)
            .map(|_| {
                let col = rng.random_range(0..ROW_SIZE);
                let bit = rng.random_range(0..8u8);
                let threshold = rng.random_range(THRESHOLDS);
                (col, bit, threshold)
            })
            .collect()
    }

    /// Hammers the rows containing `aggr1` and `aggr2` for `iterations`
    /// alternating activations, returning the flips induced in adjacent
    /// victim rows.
    ///
    /// Victim rows adjacent to **both** aggressors receive double
    /// disturbance (double-sided Rowhammer, §4.2: "known to trigger more
    /// bit flips reliably"); rows adjacent to one aggressor receive single
    /// disturbance. Aggressors in different banks hammer independently.
    pub fn hammer(&self, aggr1: PhysAddr, aggr2: PhysAddr, iterations: u64) -> HammerOutcome {
        let l1 = self.cfg.locate(aggr1);
        let l2 = self.cfg.locate(aggr2);
        if l1.bank == l2.bank && l1.row == l2.row {
            // Not an alternation: the row buffer stays open, the row is
            // activated once, and nothing is disturbed.
            return HammerOutcome {
                flips: Vec::new(),
                activations: 1,
            };
        }
        let mut outcome = HammerOutcome {
            flips: Vec::new(),
            activations: iterations * 2,
        };
        // Disturbance per victim row: map (bank, row) -> multiplier.
        let mut victims: Vec<(u64, u64, u64)> = Vec::new(); // (bank, row, disturbance)
        let mut add = |bank: u64, row: i64, amount: u64| {
            if row < 0 {
                return;
            }
            let row = row as u64;
            match victims.iter_mut().find(|(b, r, _)| *b == bank && *r == row) {
                Some((_, _, d)) => *d += amount,
                None => victims.push((bank, row, amount)),
            }
        };
        for l in [l1, l2] {
            add(l.bank, l.row as i64 - 1, iterations);
            add(l.bank, l.row as i64 + 1, iterations);
        }
        for (bank, row, disturbance) in victims {
            // Aggressor rows themselves never flip (they are being rewritten
            // constantly by the attacker).
            if (bank == l1.bank && row == l1.row) || (bank == l2.bank && row == l2.row) {
                continue;
            }
            for (col, bit, threshold) in self.weak_cells(bank, row) {
                if disturbance >= threshold {
                    let addr = self.cfg.address_of(DramLocation { bank, row, col });
                    outcome.flips.push(FlipEvent { addr, bit });
                }
            }
        }
        outcome
    }

    /// Convenience: double-sided hammer around a victim row. `victim` is any
    /// address in the victim row; the aggressors are the rows above and
    /// below in the same bank.
    pub fn hammer_double_sided(&self, victim: PhysAddr, iterations: u64) -> HammerOutcome {
        let v = self.cfg.locate(victim);
        if v.row == 0 {
            return HammerOutcome::default();
        }
        let above = self.cfg.address_of(DramLocation {
            bank: v.bank,
            row: v.row - 1,
            col: 0,
        });
        let below = self.cfg.address_of(DramLocation {
            bank: v.bank,
            row: v.row + 1,
            col: 0,
        });
        self.hammer(above, below, iterations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RowhammerModel {
        RowhammerModel::new(DramConfig::single_bank(), 1234)
    }

    #[test]
    fn weak_cells_are_deterministic() {
        let m = model();
        assert_eq!(m.weak_cells(0, 17), m.weak_cells(0, 17));
    }

    #[test]
    fn weak_cells_vary_by_row_and_seed() {
        let m1 = model();
        let m2 = RowhammerModel::new(DramConfig::single_bank(), 9999);
        let rows_with_cells_1: Vec<u64> = (0..200)
            .filter(|&r| !m1.weak_cells(0, r).is_empty())
            .collect();
        let rows_with_cells_2: Vec<u64> = (0..200)
            .filter(|&r| !m2.weak_cells(0, r).is_empty())
            .collect();
        assert!(!rows_with_cells_1.is_empty(), "some rows must be weak");
        assert!(rows_with_cells_1.len() < 200, "not all rows are weak");
        assert_ne!(
            rows_with_cells_1, rows_with_cells_2,
            "seed changes the module"
        );
    }

    #[test]
    fn hammering_weak_row_flips_reproducibly() {
        let m = model();
        // Find a weak victim row.
        let row = (1..500)
            .find(|&r| !m.weak_cells(0, r).is_empty())
            .expect("weak row exists");
        let victim = m.config().address_of(DramLocation {
            bank: 0,
            row,
            col: 0,
        });
        let o1 = m.hammer_double_sided(victim, 2_000_000);
        let o2 = m.hammer_double_sided(victim, 2_000_000);
        assert!(
            !o1.flips.is_empty(),
            "enough iterations must flip weak cells"
        );
        assert_eq!(o1.flips, o2.flips, "templating requires reproducibility");
        // All flips land in rows adjacent to an aggressor (the aggressors
        // are row-1 and row+1, so victims are row-2, row, row+2).
        for f in &o1.flips {
            let r = m.config().locate(f.addr).row;
            assert!(
                [row - 2, row, row + 2].contains(&r),
                "row {r} is not a victim of {row}±1"
            );
        }
        // And the doubly disturbed middle row flips whenever it is weak.
        if !m.weak_cells(0, row).is_empty() {
            assert!(o1
                .flips
                .iter()
                .any(|f| m.config().locate(f.addr).row == row));
        }
    }

    #[test]
    fn too_few_iterations_flip_nothing() {
        let m = model();
        let row = (1..500)
            .find(|&r| !m.weak_cells(0, r).is_empty())
            .expect("weak row exists");
        let victim = m.config().address_of(DramLocation {
            bank: 0,
            row,
            col: 0,
        });
        let o = m.hammer_double_sided(victim, 10);
        assert!(o.flips.is_empty());
    }

    #[test]
    fn double_sided_beats_single_sided() {
        let m = model();
        // Count flips across many rows at an iteration count where only the
        // doubled disturbance passes low thresholds.
        let iters = 300_000;
        let mut ds = 0usize;
        let mut ss = 0usize;
        for row in 1..300u64 {
            let victim = m.config().address_of(DramLocation {
                bank: 0,
                row,
                col: 0,
            });
            ds += m
                .hammer_double_sided(victim, iters)
                .flips
                .iter()
                .filter(|f| m.config().locate(f.addr).row == row)
                .count();
            // Single-sided: alternate the row above with a far-away row, so
            // the victim is disturbed from one side only.
            let above = m.config().address_of(DramLocation {
                bank: 0,
                row: row - 1,
                col: 0,
            });
            let far = m.config().address_of(DramLocation {
                bank: 0,
                row: row + 1000,
                col: 0,
            });
            ss += m
                .hammer(above, far, iters)
                .flips
                .iter()
                .filter(|f| m.config().locate(f.addr).row == row)
                .count();
        }
        assert!(
            ds > ss,
            "double-sided ({ds}) must out-flip single-sided ({ss})"
        );
    }

    #[test]
    fn row_zero_cannot_be_double_sided() {
        let m = model();
        assert_eq!(
            m.hammer_double_sided(PhysAddr(0), 1_000_000),
            HammerOutcome::default()
        );
    }

    #[test]
    fn flips_target_adjacent_rows_only() {
        let m = model();
        let a1 = m.config().address_of(DramLocation {
            bank: 0,
            row: 10,
            col: 0,
        });
        let a2 = m.config().address_of(DramLocation {
            bank: 0,
            row: 12,
            col: 0,
        });
        let o = m.hammer(a1, a2, 5_000_000);
        for f in &o.flips {
            let r = m.config().locate(f.addr).row;
            assert!(
                (9..=13).contains(&r) && r != 10 && r != 12,
                "row {r} is not a victim"
            );
        }
    }
}
