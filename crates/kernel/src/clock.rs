//! Simulated time and the cost model that advances it.

use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

/// Nanosecond-resolution simulated clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SimClock {
    now_ns: u64,
}

impl SimClock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Current time in (fractional) milliseconds.
    pub fn now_ms(&self) -> f64 {
        self.now_ns as f64 / 1e6
    }

    /// Advances the clock.
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }
}

/// Latency parameters of the simulated machine, in nanoseconds.
///
/// The defaults are calibrated to commodity hardware orders of magnitude
/// (LLC hit ≈ 12 ns, DRAM ≈ 60–100 ns, minor fault ≈ 1–2 µs on the paper's
/// 3.5 GHz Xeon E3-1240 v5). Absolute values do not need to match the
/// testbed — the attacks and benchmarks depend on the *separation* between
/// path costs, which these preserve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// A register-only CPU operation.
    pub cpu_op: u64,
    /// LLC hit.
    pub llc_hit: u64,
    /// DRAM access with the row already open.
    pub dram_row_hit: u64,
    /// DRAM access opening a row in an idle bank.
    pub dram_row_empty: u64,
    /// DRAM access that must close another row first.
    pub dram_row_conflict: u64,
    /// Fixed cost of entering the page-fault handler.
    pub fault_base: u64,
    /// Copying one 4 KiB page.
    pub copy_page: u64,
    /// Zero-filling one 4 KiB page.
    pub zero_page: u64,
    /// Updating a PTE (incl. TLB shootdown of one entry).
    pub pte_update: u64,
    /// Synchronous interaction with the buddy allocator on the fault path —
    /// the cost VUsion hides with deferred free (§7.1, decision ii).
    pub buddy_interaction: u64,
    /// Pushing an entry onto the deferred-free queue (cheap, same for the
    /// merged and fake-merged paths).
    pub deferred_queue_push: u64,
    /// Multiplicative jitter applied to every charge (0.03 = ±3%).
    pub jitter: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            cpu_op: 1,
            llc_hit: 12,
            dram_row_hit: 60,
            dram_row_empty: 75,
            dram_row_conflict: 100,
            fault_base: 1200,
            copy_page: 900,
            zero_page: 500,
            pte_update: 80,
            buddy_interaction: 400,
            deferred_queue_push: 30,
            jitter: 0.03,
        }
    }
}

/// Applies seeded jitter to a base cost.
#[derive(Debug)]
pub struct Jitter {
    rng: StdRng,
    frac: f64,
}

impl Jitter {
    /// Creates a jitter source.
    pub fn new(seed: u64, frac: f64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            frac,
        }
    }

    /// Serializes the jitter stream (RNG position and band width).
    pub fn save(&self, w: &mut vusion_snapshot::Writer) {
        for s in self.rng.state() {
            w.u64(s);
        }
        w.f64(self.frac);
    }

    /// Restores a jitter stream saved by [`Self::save`].
    pub fn load(
        r: &mut vusion_snapshot::Reader<'_>,
    ) -> Result<Self, vusion_snapshot::SnapshotError> {
        let mut s = [0u64; 4];
        for x in &mut s {
            *x = r.u64()?;
        }
        Ok(Self {
            rng: StdRng::from_state(s),
            frac: r.f64()?,
        })
    }

    /// Returns `base` perturbed by up to ±`frac`.
    pub fn apply(&mut self, base: u64) -> u64 {
        if base == 0 || self.frac <= 0.0 {
            return base;
        }
        let f = self.rng.random_range(-self.frac..self.frac);
        let jittered = base as f64 * (1.0 + f);
        jittered.round().max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let mut c = SimClock::new();
        c.advance(1500);
        c.advance(500);
        assert_eq!(c.now_ns(), 2000);
        assert!((c.now_ms() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut j = Jitter::new(7, 0.03);
        for _ in 0..1000 {
            let v = j.apply(1000);
            assert!((970..=1030).contains(&v), "jittered value {v} outside ±3%");
        }
    }

    #[test]
    fn jitter_varies() {
        let mut j = Jitter::new(7, 0.03);
        let vals: std::collections::BTreeSet<u64> = (0..100).map(|_| j.apply(10_000)).collect();
        assert!(vals.len() > 10, "jitter should actually vary");
    }

    #[test]
    fn zero_jitter_is_identity() {
        let mut j = Jitter::new(7, 0.0);
        assert_eq!(j.apply(1234), 1234);
    }

    #[test]
    fn default_costs_separate_paths() {
        let c = CostModel::default();
        // The separations the side channels depend on.
        assert!(c.llc_hit < c.dram_row_hit, "cache hit must beat DRAM");
        assert!(
            c.dram_row_hit < c.dram_row_conflict,
            "row hit must beat conflict"
        );
        assert!(
            c.fault_base > 5 * c.dram_row_conflict,
            "faults must dominate plain accesses"
        );
    }
}
