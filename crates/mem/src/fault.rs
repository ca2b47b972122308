//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes *which* faults to inject; a [`FaultInjector`]
//! (plan + seeded RNG + counters) decides *when*. Everything is driven by
//! the machine's master seed, so a chaos run is exactly reproducible: the
//! same seed and plan produce the same injected failures at the same
//! points, which is what lets `tests/chaos.rs` assert engine behavior
//! under failure rather than merely observing crashes.
//!
//! Injected allocation failures are deliberately indistinguishable from
//! genuine OOM ([`crate::MmError::OutOfFrames`]): the paper's Same
//! Behavior principle demands that callers take the same degradation path
//! either way, and the tests verify exactly that.

use std::fmt;

use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};
use vusion_snapshot::{Reader, Snapshot, SnapshotError, Writer};

/// A [`FaultPlan`] field was given a value that cannot describe a real
/// injection plan (a probability outside `[0, 1]`, or NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A probability field is not a finite value in `[0, 1]`.
    InvalidProbability {
        /// Which field was rejected.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidProbability { field, value } => {
                write!(f, "fault plan: {field} = {value} is not in [0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Whether `p` is a usable probability: finite and in `[0, 1]`.
fn valid_prob(p: f64) -> bool {
    p.is_finite() && (0.0..=1.0).contains(&p)
}

/// Which faults to inject, and how often. The default plan injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Fail every Nth allocation (0 disables the counter-based injector).
    pub alloc_every_nth: u64,
    /// Fail each allocation independently with this probability.
    pub alloc_fail_prob: f64,
    /// Corrupt each scan-time checksum read with this probability
    /// (modeling a guest racing the scanner mid-checksum).
    pub checksum_corrupt_prob: f64,
    /// Perturb each scan-time content comparison with this probability
    /// (modeling a bit flip observed mid-scan).
    pub scan_bitflip_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::NONE
    }
}

impl FaultPlan {
    /// The no-injection plan.
    pub const NONE: FaultPlan = FaultPlan {
        alloc_every_nth: 0,
        alloc_fail_prob: 0.0,
        checksum_corrupt_prob: 0.0,
        scan_bitflip_prob: 0.0,
    };

    /// Fail every `n`th allocation.
    pub fn every_nth_alloc(n: u64) -> Self {
        FaultPlan {
            alloc_every_nth: n,
            ..Self::NONE
        }
    }

    /// Fail each allocation with probability `p`. Rejects `p` outside
    /// `[0, 1]` (and NaN) with a typed error rather than silently
    /// producing a degenerate plan that clamps at injection time.
    pub fn alloc_prob(p: f64) -> Result<Self, FaultPlanError> {
        if !valid_prob(p) {
            return Err(FaultPlanError::InvalidProbability {
                field: "alloc_fail_prob",
                value: p,
            });
        }
        Ok(FaultPlan {
            alloc_fail_prob: p,
            ..Self::NONE
        })
    }

    /// Checks every probability field: finite and in `[0, 1]`. Plans
    /// built by struct literal should be validated before arming; the
    /// constructors ([`Self::alloc_prob`]) already are.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for (field, value) in [
            ("alloc_fail_prob", self.alloc_fail_prob),
            ("checksum_corrupt_prob", self.checksum_corrupt_prob),
            ("scan_bitflip_prob", self.scan_bitflip_prob),
        ] {
            if !valid_prob(value) {
                return Err(FaultPlanError::InvalidProbability { field, value });
            }
        }
        Ok(())
    }

    /// Whether this plan injects anything at all.
    pub fn is_active(&self) -> bool {
        self.alloc_every_nth > 0
            || self.alloc_fail_prob > 0.0
            || self.checksum_corrupt_prob > 0.0
            || self.scan_bitflip_prob > 0.0
    }

    /// The canonical campaign plan ladder: each injector alone and in
    /// combination, light and heavy — the enumeration DST campaigns sweep
    /// against every engine, crash site and seed. Every plan validates.
    pub fn campaign_ladder() -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("none", FaultPlan::NONE),
            ("every_5th_alloc", FaultPlan::every_nth_alloc(5)),
            (
                "alloc_p15",
                FaultPlan {
                    alloc_fail_prob: 0.15,
                    ..FaultPlan::NONE
                },
            ),
            (
                "scan_side_p20",
                FaultPlan {
                    checksum_corrupt_prob: 0.20,
                    scan_bitflip_prob: 0.20,
                    ..FaultPlan::NONE
                },
            ),
            (
                "mixed_heavy",
                FaultPlan {
                    alloc_every_nth: 7,
                    alloc_fail_prob: 0.10,
                    checksum_corrupt_prob: 0.10,
                    scan_bitflip_prob: 0.10,
                },
            ),
        ]
    }

    /// OOM-burst plans for pressure-governor sweeps: escalating allocation
    /// failure intensity, from an occasional miss to a sustained storm.
    /// Paired with real allocation pressure (a workload that eats frames),
    /// these drive the governor through its whole escalation ladder while
    /// the chaos suite checks that every rung degrades gracefully.
    pub fn pressure_ladder() -> Vec<(&'static str, FaultPlan)> {
        vec![
            ("calm", FaultPlan::NONE),
            ("oom_trickle", FaultPlan::every_nth_alloc(16)),
            (
                "oom_burst",
                FaultPlan {
                    alloc_every_nth: 3,
                    alloc_fail_prob: 0.25,
                    ..FaultPlan::NONE
                },
            ),
            (
                "oom_storm",
                FaultPlan {
                    alloc_every_nth: 2,
                    alloc_fail_prob: 0.50,
                    ..FaultPlan::NONE
                },
            ),
        ]
    }

    /// Deterministic plan mutation: perturbs one field, drawn from `rng`,
    /// into a new *valid* plan. Campaigns use this to grow the plan space
    /// beyond the hand-written ladder while staying exactly reproducible
    /// from the seed that drove the mutation.
    pub fn mutated(self, rng: &mut StdRng) -> FaultPlan {
        let mut plan = self;
        // Probabilities are drawn on a coarse lattice (multiples of 0.05)
        // so mutated plans have short, printable descriptions and two
        // mutations can collide back to a previously seen plan.
        let lattice = |rng: &mut StdRng| f64::from(rng.random_range(0..=10u32)) * 0.05;
        match rng.random_range(0..4u32) {
            0 => plan.alloc_every_nth = rng.random_range(0..12u64),
            1 => plan.alloc_fail_prob = lattice(rng),
            2 => plan.checksum_corrupt_prob = lattice(rng),
            _ => plan.scan_bitflip_prob = lattice(rng),
        }
        plan
    }

    /// Serializes the plan into a snapshot payload.
    pub fn save(&self, w: &mut Writer) {
        w.u64(self.alloc_every_nth);
        w.f64(self.alloc_fail_prob);
        w.f64(self.checksum_corrupt_prob);
        w.f64(self.scan_bitflip_prob);
    }

    /// Reads a plan previously written by [`Self::save`].
    pub fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            alloc_every_nth: r.u64()?,
            alloc_fail_prob: r.f64()?,
            checksum_corrupt_prob: r.f64()?,
            scan_bitflip_prob: r.f64()?,
        })
    }
}

/// A point in engine code where a crash can be injected. Mirrors the
/// interruption points a host reboot could hit under real KSM load: the
/// scanner loop itself, and the three state transitions that move frames
/// between shared and exclusive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// Top of a scan pass, between pages.
    MidScan,
    /// Inside a merge, after the target frame has been chosen.
    MidMerge,
    /// Inside a copy-on-write break-away, after the private frame was
    /// allocated but before the mapping moved.
    MidUnmerge,
    /// Inside VUsion's per-round backing-frame re-randomization.
    MidRerandomization,
}

impl CrashSite {
    /// All injectable sites, for sweep tests.
    pub const ALL: [CrashSite; 4] = [
        CrashSite::MidScan,
        CrashSite::MidMerge,
        CrashSite::MidUnmerge,
        CrashSite::MidRerandomization,
    ];

    /// Stable lowercase label (coverage keys, report rows).
    pub fn label(self) -> &'static str {
        match self {
            CrashSite::MidScan => "mid_scan",
            CrashSite::MidMerge => "mid_merge",
            CrashSite::MidUnmerge => "mid_unmerge",
            CrashSite::MidRerandomization => "mid_rerandomization",
        }
    }

    /// Snapshot wire tag. Public so the exhaustiveness test (and any
    /// external tooling) can assert that every variant round-trips: a new
    /// crash site cannot ship without wire support.
    pub fn tag(self) -> u8 {
        match self {
            CrashSite::MidScan => 0,
            CrashSite::MidMerge => 1,
            CrashSite::MidUnmerge => 2,
            CrashSite::MidRerandomization => 3,
        }
    }

    /// Inverse of [`Self::tag`]; rejects unknown tags.
    pub fn from_tag(t: u8) -> Result<Self, SnapshotError> {
        Ok(match t {
            0 => CrashSite::MidScan,
            1 => CrashSite::MidMerge,
            2 => CrashSite::MidUnmerge,
            3 => CrashSite::MidRerandomization,
            _ => return Err(SnapshotError::Corrupt("unknown crash site")),
        })
    }
}

/// Which crash to inject, mirroring [`FaultPlan`]: the `after`-th time the
/// engine polls the configured site, the operation is killed mid-flight.
/// Counter-based (no RNG), so a crash point is a stable coordinate across
/// runs with the same seed. The default plan crashes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CrashPlan {
    /// Site to crash at; `None` disables injection.
    pub site: Option<CrashSite>,
    /// Crash on the `after`-th poll of `site` (1-based).
    pub after: u64,
}

impl CrashPlan {
    /// The no-crash plan.
    pub const NONE: CrashPlan = CrashPlan {
        site: None,
        after: 0,
    };

    /// Crash the `after`-th time `site` is reached.
    pub fn at(site: CrashSite, after: u64) -> Self {
        CrashPlan {
            site: Some(site),
            after: after.max(1),
        }
    }

    /// Whether this plan can fire at all.
    pub fn is_active(&self) -> bool {
        self.site.is_some()
    }

    /// Serializes the plan into a snapshot payload.
    pub fn save(&self, w: &mut Writer) {
        match self.site {
            None => w.u8(0xff),
            Some(s) => w.u8(s.tag()),
        }
        w.u64(self.after);
    }

    /// Reads a plan previously written by [`Self::save`].
    pub fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let tag = r.u8()?;
        let site = if tag == 0xff {
            None
        } else {
            Some(CrashSite::from_tag(tag)?)
        };
        Ok(Self {
            site,
            after: r.u64()?,
        })
    }
}

/// One-shot crash trigger: counts polls of the configured site and fires
/// exactly once. Inert (zero-cost, no RNG) when the plan is `NONE`, so
/// leaving the polls compiled into engine hot paths never perturbs a
/// normal run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CrashInjector {
    plan: CrashPlan,
    polls: u64,
    fired: u64,
}

impl CrashInjector {
    /// Creates an injector following `plan`.
    pub fn new(plan: CrashPlan) -> Self {
        Self {
            plan,
            polls: 0,
            fired: 0,
        }
    }

    /// The plan this injector follows.
    pub fn plan(&self) -> CrashPlan {
        self.plan
    }

    /// How many crashes have fired (0 or 1).
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Polls the injector at `site`. Returns `true` exactly once: on the
    /// `after`-th poll of the configured site. Polls at other sites do not
    /// advance the counter, so a plan's coordinate is independent of how
    /// many unrelated sites execute.
    pub fn should_crash(&mut self, site: CrashSite) -> bool {
        if self.plan.site != Some(site) || self.fired > 0 {
            return false;
        }
        self.polls += 1;
        if self.polls >= self.plan.after {
            self.fired = 1;
            true
        } else {
            false
        }
    }
}

impl Snapshot for CrashInjector {
    fn save(&self, w: &mut Writer) {
        self.plan.save(w);
        w.u64(self.polls);
        w.u64(self.fired);
    }

    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let Self { plan, polls, fired } = self;
        *plan = CrashPlan::load(r)?;
        *polls = r.u64()?;
        *fired = r.u64()?;
        Ok(())
    }
}

/// Counts of faults actually injected so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Allocations forced to fail.
    pub injected_allocs: u64,
    /// Checksum reads corrupted.
    pub injected_checksums: u64,
    /// Scan-time comparisons perturbed.
    pub injected_bitflips: u64,
}

impl InjectionStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.injected_allocs + self.injected_checksums + self.injected_bitflips
    }
}

/// A seeded fault source: deterministic for a given `(plan, seed)` pair.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    alloc_calls: u64,
    stats: InjectionStats,
}

impl FaultInjector {
    /// Creates an injector. Callers derive `seed` from the machine's
    /// master seed (xor'ed with a per-site salt so the buddy injector and
    /// the scan injector draw independent streams).
    pub fn new(plan: FaultPlan, seed: u64) -> Self {
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed),
            alloc_calls: 0,
            stats: InjectionStats::default(),
        }
    }

    /// The plan this injector follows.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Counters of injected faults.
    pub fn stats(&self) -> InjectionStats {
        self.stats
    }

    /// Decides whether the current allocation should fail.
    pub fn should_fail_alloc(&mut self) -> bool {
        if !self.plan.is_active() {
            return false;
        }
        self.alloc_calls += 1;
        let nth = self.plan.alloc_every_nth > 0
            && self.alloc_calls.is_multiple_of(self.plan.alloc_every_nth);
        let prob =
            self.plan.alloc_fail_prob > 0.0 && self.rng.random_bool(self.plan.alloc_fail_prob);
        if nth || prob {
            self.stats.injected_allocs += 1;
            true
        } else {
            false
        }
    }

    /// Possibly corrupts a checksum read during a scan. Returns the value
    /// the scanner should see.
    pub fn corrupt_checksum(&mut self, sum: u64) -> u64 {
        if self.plan.checksum_corrupt_prob > 0.0
            && self.rng.random_bool(self.plan.checksum_corrupt_prob)
        {
            self.stats.injected_checksums += 1;
            // Flip one pseudo-random bit of the checksum.
            sum ^ (1u64 << self.rng.random_range(0..64u64))
        } else {
            sum
        }
    }

    /// Decides whether the scanner observes a transient bit flip on the
    /// page it is currently examining (making its content comparison
    /// unreliable this round).
    pub fn scan_bitflip(&mut self) -> bool {
        if self.plan.scan_bitflip_prob > 0.0 && self.rng.random_bool(self.plan.scan_bitflip_prob) {
            self.stats.injected_bitflips += 1;
            true
        } else {
            false
        }
    }
}

impl Snapshot for FaultInjector {
    fn save(&self, w: &mut Writer) {
        self.plan.save(w);
        let s = self.rng.state();
        for x in s {
            w.u64(x);
        }
        w.u64(self.alloc_calls);
        w.u64(self.stats.injected_allocs);
        w.u64(self.stats.injected_checksums);
        w.u64(self.stats.injected_bitflips);
    }

    fn load(&mut self, r: &mut Reader<'_>) -> Result<(), SnapshotError> {
        let Self {
            plan,
            rng,
            alloc_calls,
            stats,
        } = self;
        *plan = FaultPlan::load(r)?;
        *rng = StdRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]);
        *alloc_calls = r.u64()?;
        *stats = InjectionStats {
            injected_allocs: r.u64()?,
            injected_checksums: r.u64()?,
            injected_bitflips: r.u64()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plan_injects_nothing() {
        let mut inj = FaultInjector::new(FaultPlan::NONE, 1);
        for _ in 0..1000 {
            assert!(!inj.should_fail_alloc());
            assert_eq!(inj.corrupt_checksum(42), 42);
            assert!(!inj.scan_bitflip());
        }
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn every_nth_is_exact() {
        let mut inj = FaultInjector::new(FaultPlan::every_nth_alloc(5), 1);
        let fails: Vec<bool> = (0..20).map(|_| inj.should_fail_alloc()).collect();
        let expect: Vec<bool> = (1..=20).map(|i| i % 5 == 0).collect();
        assert_eq!(fails, expect);
        assert_eq!(inj.stats().injected_allocs, 4);
    }

    #[test]
    fn alloc_prob_rejects_degenerate_probabilities() {
        // Regression: out-of-range probabilities used to be accepted and
        // only clamped (or not) deep inside the RNG at injection time.
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = FaultPlan::alloc_prob(bad).expect_err("must reject");
            assert!(
                matches!(
                    err,
                    FaultPlanError::InvalidProbability {
                        field: "alloc_fail_prob",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("alloc_fail_prob"), "{err}");
        }
        for ok in [0.0, 0.5, 1.0] {
            let plan = FaultPlan::alloc_prob(ok).expect("in-range probability");
            assert_eq!(plan.alloc_fail_prob, ok);
            plan.validate().expect("constructed plans validate");
        }
    }

    #[test]
    fn validate_checks_every_probability_field() {
        FaultPlan::NONE.validate().expect("NONE is valid");
        for (field, plan) in [
            (
                "checksum_corrupt_prob",
                FaultPlan {
                    checksum_corrupt_prob: 2.0,
                    ..FaultPlan::NONE
                },
            ),
            (
                "scan_bitflip_prob",
                FaultPlan {
                    scan_bitflip_prob: -1.0,
                    ..FaultPlan::NONE
                },
            ),
        ] {
            let err = plan.validate().expect_err("must reject");
            assert_eq!(
                err,
                match err {
                    FaultPlanError::InvalidProbability { value, .. } =>
                        FaultPlanError::InvalidProbability { field, value },
                }
            );
        }
    }

    #[test]
    fn crash_site_tags_round_trip_exhaustively() {
        // Compile-time exhaustiveness: adding a CrashSite variant breaks
        // this match, forcing ALL (and the wire tags) to be extended.
        fn counted(site: CrashSite) -> usize {
            match site {
                CrashSite::MidScan
                | CrashSite::MidMerge
                | CrashSite::MidUnmerge
                | CrashSite::MidRerandomization => 1,
            }
        }
        assert_eq!(
            CrashSite::ALL.iter().map(|&s| counted(s)).sum::<usize>(),
            CrashSite::ALL.len()
        );
        // Every variant survives tag()/from_tag(), tags are dense and
        // unique, and labels are distinct (coverage keys rely on this).
        let mut tags = Vec::new();
        let mut labels = Vec::new();
        for site in CrashSite::ALL {
            assert_eq!(CrashSite::from_tag(site.tag()).expect("round trip"), site);
            tags.push(site.tag());
            labels.push(site.label());
        }
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), CrashSite::ALL.len(), "duplicate wire tags");
        assert_eq!(*sorted.last().expect("nonempty") as usize + 1, sorted.len());
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CrashSite::ALL.len(), "duplicate labels");
        // Tags beyond the dense range are rejected, never mapped.
        assert!(CrashSite::from_tag(CrashSite::ALL.len() as u8).is_err());
        assert!(CrashSite::from_tag(0xfe).is_err());
    }

    #[test]
    fn campaign_ladder_plans_all_validate() {
        let ladder = FaultPlan::campaign_ladder();
        assert!(ladder.len() >= 4, "campaigns need at least 4 plans");
        let mut names: Vec<&str> = ladder.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ladder.len(), "duplicate plan names");
        for (name, plan) in &ladder {
            plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        }
        // The ladder is not all-inert: at least one plan per injector.
        assert!(ladder.iter().any(|(_, p)| p.alloc_every_nth > 0));
        assert!(ladder.iter().any(|(_, p)| p.alloc_fail_prob > 0.0));
        assert!(ladder.iter().any(|(_, p)| p.checksum_corrupt_prob > 0.0));
        assert!(ladder.iter().any(|(_, p)| p.scan_bitflip_prob > 0.0));
    }

    #[test]
    fn pressure_ladder_plans_validate_and_escalate() {
        let ladder = FaultPlan::pressure_ladder();
        assert!(ladder.len() >= 3, "need calm plus escalating burst plans");
        let mut names: Vec<&str> = ladder.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ladder.len(), "duplicate plan names");
        for (name, plan) in &ladder {
            plan.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            // Pressure plans exercise the allocator only: scan-side
            // injectors would conflate merge misbehavior with OOM.
            assert_eq!(plan.checksum_corrupt_prob, 0.0, "{name}");
            assert_eq!(plan.scan_bitflip_prob, 0.0, "{name}");
        }
        assert_eq!(ladder[0].1, FaultPlan::NONE, "ladder starts calm");
        assert!(ladder.last().expect("nonempty").1.alloc_fail_prob >= 0.5);
    }

    #[test]
    fn mutation_is_deterministic_and_stays_valid() {
        let mut a = StdRng::seed_from_u64(0x917a);
        let mut b = StdRng::seed_from_u64(0x917a);
        let mut pa = FaultPlan::NONE;
        let mut pb = FaultPlan::NONE;
        let mut changed = 0;
        for _ in 0..64 {
            let next_a = pa.mutated(&mut a);
            let next_b = pb.mutated(&mut b);
            assert_eq!(next_a, next_b, "same seed must mutate identically");
            next_a.validate().expect("mutations stay valid");
            if next_a != pa {
                changed += 1;
            }
            pa = next_a;
            pb = next_b;
        }
        assert!(changed > 16, "mutation almost never changes the plan");
    }

    #[test]
    fn probability_injection_is_deterministic_per_seed() {
        let plan = FaultPlan::alloc_prob(0.3).expect("valid probability");
        let mut a = FaultInjector::new(plan, 9);
        let mut b = FaultInjector::new(plan, 9);
        let fa: Vec<bool> = (0..200).map(|_| a.should_fail_alloc()).collect();
        let fb: Vec<bool> = (0..200).map(|_| b.should_fail_alloc()).collect();
        assert_eq!(fa, fb);
        let hits = fa.iter().filter(|&&x| x).count();
        assert!((30..90).contains(&hits), "p=0.3 injected {hits}/200");
    }

    #[test]
    fn checksum_corruption_changes_value() {
        let plan = FaultPlan {
            checksum_corrupt_prob: 1.0,
            ..FaultPlan::NONE
        };
        let mut inj = FaultInjector::new(plan, 3);
        let corrupted = inj.corrupt_checksum(0xdead_beef);
        assert_ne!(corrupted, 0xdead_beef);
        assert_eq!(inj.stats().injected_checksums, 1);
    }

    #[test]
    fn crash_injector_fires_once_at_coordinate() {
        let mut inj = CrashInjector::new(CrashPlan::at(CrashSite::MidMerge, 3));
        // Polls at other sites never advance the counter.
        assert!(!inj.should_crash(CrashSite::MidScan));
        assert!(!inj.should_crash(CrashSite::MidMerge));
        assert!(!inj.should_crash(CrashSite::MidUnmerge));
        assert!(!inj.should_crash(CrashSite::MidMerge));
        assert!(inj.should_crash(CrashSite::MidMerge));
        assert_eq!(inj.fired(), 1);
        // One-shot: never fires again.
        for _ in 0..10 {
            assert!(!inj.should_crash(CrashSite::MidMerge));
        }
    }

    #[test]
    fn inert_crash_injector_never_fires() {
        let mut inj = CrashInjector::new(CrashPlan::NONE);
        for site in CrashSite::ALL {
            for _ in 0..100 {
                assert!(!inj.should_crash(site));
            }
        }
        assert_eq!(inj.fired(), 0);
    }

    #[test]
    fn injector_state_round_trips() {
        let plan = FaultPlan {
            alloc_every_nth: 3,
            alloc_fail_prob: 0.4,
            checksum_corrupt_prob: 0.25,
            scan_bitflip_prob: 0.15,
        };
        let mut inj = FaultInjector::new(plan, 11);
        for _ in 0..37 {
            let _ = inj.should_fail_alloc();
            let _ = inj.corrupt_checksum(0);
            let _ = inj.scan_bitflip();
        }
        // Distinct counters: a swapped pair of reads changes the image.
        inj.stats = InjectionStats {
            injected_allocs: 21,
            injected_checksums: 22,
            injected_bitflips: 23,
        };
        let mut copy = FaultInjector::new(FaultPlan::NONE, 0);
        let (a, b) = vusion_snapshot::resave(&inj, &mut copy).expect("resave");
        assert_eq!(a, b);
        // The restored injector must continue the exact same stream.
        let a: Vec<bool> = (0..50).map(|_| inj.should_fail_alloc()).collect();
        let b: Vec<bool> = (0..50).map(|_| copy.should_fail_alloc()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn crash_injector_state_round_trips() {
        let src = CrashInjector {
            plan: CrashPlan::at(CrashSite::MidMerge, 7),
            polls: 6,
            fired: 1,
        };
        let (a, b) = vusion_snapshot::resave(&src, &mut CrashInjector::default()).expect("resave");
        assert_eq!(a, b);
    }

    #[test]
    fn crash_plans_round_trip() {
        for plan in [
            CrashPlan::NONE,
            CrashPlan::at(CrashSite::MidScan, 1),
            CrashPlan::at(CrashSite::MidRerandomization, 42),
        ] {
            let mut w = Writer::new();
            plan.save(&mut w);
            let bytes = w.into_bytes();
            assert_eq!(
                CrashPlan::load(&mut Reader::new(&bytes)).expect("load"),
                plan
            );
        }
    }

    #[test]
    fn bitflip_counting() {
        let plan = FaultPlan {
            scan_bitflip_prob: 1.0,
            ..FaultPlan::NONE
        };
        let mut inj = FaultInjector::new(plan, 3);
        assert!(inj.scan_bitflip());
        assert_eq!(inj.stats().injected_bitflips, 1);
    }
}
