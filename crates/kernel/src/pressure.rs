//! The deterministic memory-pressure governor.
//!
//! Real `ksmd` adapts `pages_to_scan` to memory pressure; VUsion's whole
//! premise is that a fusion daemon must stay safe *and* useful in exactly
//! the degraded regimes where real systems break. This module is the
//! control plane for that: a pressure signal derived from free memory and
//! absorbed allocation failures, smoothed through hysteresis bands, an
//! AIMD scan-budget law, and a reclaim escalation ladder the [`crate::System`]
//! walks through the [`crate::FusionPolicy`] relief hooks.
//!
//! Everything here is a pure function of simulated machine state and the
//! governor's own serialized state: no RNG, no wall clock, no host reads.
//! A sample taken before a scan wakeup in a live run is re-taken with the
//! same inputs when the journal replays that wakeup, so traces, metrics,
//! and snapshots stay byte-identical across restore + replay.
//!
//! The ladder (DESIGN.md §14) has three rungs, entered in order as the
//! band escalates and unwound on de-escalation:
//!
//! 1. **Drain** — flush engine deferred-free queues back to the allocator.
//! 2. **Shrink** — drop transient engine caches (candidate lists, dirty
//!    trackers, checksum/unstable-tree state, in-flight pass state).
//! 3. **Defer** — while the band is Critical, every wake's
//!    [`crate::ScanGrant`] sets `defer_alloc`: optional frame-allocating
//!    scan work (VUsion's merge decisions, KSM's THP breaks, WPF's new
//!    tree frames) waits until pressure clears.

use vusion_mem::FrameAllocator;
use vusion_snapshot::{Reader, SnapshotError, Writer};

use crate::machine::Machine;

/// Hysteresis band of the pressure signal. Ordered: comparisons use the
/// derived `Ord`, so `Critical > Elevated > Nominal`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum PressureBand {
    /// Memory is plentiful; budgets grow additively.
    #[default]
    Nominal,
    /// Free memory is low or allocations are failing; budgets shrink
    /// multiplicatively and the drain rung has fired.
    Elevated,
    /// Memory is nearly exhausted or failures are clustered; all three
    /// ladder rungs are active.
    Critical,
}

impl PressureBand {
    /// Stable wire/trace code (0/1/2).
    pub fn code(self) -> u8 {
        match self {
            PressureBand::Nominal => 0,
            PressureBand::Elevated => 1,
            PressureBand::Critical => 2,
        }
    }

    fn from_code(code: u8) -> Result<Self, SnapshotError> {
        Ok(match code {
            0 => PressureBand::Nominal,
            1 => PressureBand::Elevated,
            2 => PressureBand::Critical,
            _ => return Err(SnapshotError::Corrupt("unknown pressure band code")),
        })
    }

    /// Stable lowercase label (metrics gauge, reports).
    pub fn label(self) -> &'static str {
        match self {
            PressureBand::Nominal => "nominal",
            PressureBand::Elevated => "elevated",
            PressureBand::Critical => "critical",
        }
    }

    /// One band lower (saturating).
    fn lower(self) -> Self {
        match self {
            PressureBand::Critical => PressureBand::Elevated,
            _ => PressureBand::Nominal,
        }
    }
}

/// Free per-mille (of the buddy-managed frames) below which the band
/// enters Elevated.
const ELEVATED_ENTER_PM: u32 = 250;
/// Free per-mille the signal must recover to before Elevated can exit.
const ELEVATED_EXIT_PM: u32 = 350;
/// Free per-mille below which the band enters Critical.
const CRITICAL_ENTER_PM: u32 = 100;
/// Free per-mille the signal must recover to before Critical can exit.
const CRITICAL_EXIT_PM: u32 = 200;
/// OOM events absorbed since the previous sample that alone force at
/// least Elevated.
const OOM_ELEVATED: u64 = 1;
/// OOM events since the previous sample that alone force Critical.
const OOM_CRITICAL: u64 = 4;
/// Consecutive calm samples (signal above the exit threshold) required
/// before the band steps down one level.
const COOLDOWN_SAMPLES: u32 = 2;
/// Multiplicative decrease: the budget is right-shifted by this many bits
/// on every elevated/critical sample (1 = halve).
const BUDGET_SHIFT: u32 = 1;

/// Governor tuning: the switch and the AIMD budget range. The bands'
/// thresholds, the cooldown and the decrease are fixed (the constants
/// above), so the control law is exactly reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureConfig {
    /// Master switch. A disabled governor samples nothing, grants no
    /// budgets, traces nothing, and folds no `pressure.*` metrics.
    pub enabled: bool,
    /// Floor of the per-wake scan budget.
    pub budget_min: u64,
    /// Ceiling of the per-wake scan budget (also the starting budget).
    pub budget_max: u64,
    /// Additive increase applied per nominal sample (ksmd-style ramp-up).
    pub budget_add: u64,
}

impl PressureConfig {
    /// Disabled governor (the default: zero cost, zero events).
    pub const OFF: PressureConfig = PressureConfig {
        enabled: false,
        ..PressureConfig::DEFAULT
    };

    const DEFAULT: PressureConfig = PressureConfig {
        enabled: true,
        budget_min: 8,
        budget_max: 256,
        budget_add: 16,
    };

    /// Enabled governor with the default control law.
    pub fn standard() -> Self {
        Self::DEFAULT
    }

    /// Checks the budget range is non-empty and the increase increases.
    /// Returns a static description of the first violation.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.budget_min == 0 || self.budget_min > self.budget_max {
            return Err("budget range must satisfy 0 < budget_min <= budget_max");
        }
        if self.budget_add == 0 {
            return Err("budget_add must be positive");
        }
        Ok(())
    }

    /// Serializes the config (journal events and snapshots share this).
    pub fn save(&self, w: &mut Writer) {
        w.bool(self.enabled);
        w.u64(self.budget_min);
        w.u64(self.budget_max);
        w.u64(self.budget_add);
    }

    /// Deserializes a config written by [`Self::save`].
    pub fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            enabled: r.bool()?,
            budget_min: r.u64()?,
            budget_max: r.u64()?,
            budget_add: r.u64()?,
        })
    }
}

impl Default for PressureConfig {
    fn default() -> Self {
        Self::OFF
    }
}

/// Counters the governor maintains; folded into the metrics snapshot as
/// `pressure.*` only while the governor is enabled (zero-cost-when-off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PressureStats {
    /// Samples taken (one per scan wakeup).
    pub samples: u64,
    /// Band raises (one per sample that escalated, regardless of distance).
    pub escalations: u64,
    /// Band drops (always single steps, after the cooldown dwell).
    pub de_escalations: u64,
    /// Drain rungs entered (rung 1).
    pub drain_rungs: u64,
    /// Drain rungs that actually released work (`drained_ops > 0`).
    pub drain_rungs_effective: u64,
    /// Shrink rungs entered (rung 2).
    pub shrink_rungs: u64,
    /// Defer rungs entered (rung 3: allocation deferral on).
    pub defer_rungs: u64,
    /// Defer rung exits (deferral switched back off).
    pub defer_exits: u64,
    /// Total operations released by drain rungs (frames/dummies drained).
    pub drained_ops: u64,
    /// Total cache entries dropped by shrink rungs.
    pub shrunk_entries: u64,
    /// Scan-budget pages granted across all wakeups.
    pub budget_granted: u64,
    /// Budget pages actually consumed by engine passes.
    pub budget_used: u64,
    /// Budget pages carried to the next wakeup by a suspended cursor
    /// (`granted - used`; `tests/accounting.rs` holds the identity).
    pub budget_carried: u64,
}

/// What one sample decided; the [`crate::System`] turns this into trace
/// events and ladder-rung executions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureDecision {
    /// The band after this sample.
    pub band: PressureBand,
    /// Set when the band rose this sample (the previous band).
    pub escalated_from: Option<PressureBand>,
    /// Set when the band stepped down this sample (the previous band).
    pub de_escalated_from: Option<PressureBand>,
    /// The per-wake scan budget after the AIMD update.
    pub budget: u64,
}

/// The governor: band state machine + AIMD budget + ladder accounting.
#[derive(Debug, Clone, Default)]
pub struct PressureGovernor {
    cfg: PressureConfig,
    band: PressureBand,
    budget: u64,
    /// Consecutive calm samples toward the cooldown dwell.
    calm_streak: u32,
    /// `oom_events` at the previous sample (delta source).
    last_oom: u64,
    stats: PressureStats,
}

impl PressureGovernor {
    /// A governor with the given config; the budget starts at the ceiling.
    pub fn new(cfg: PressureConfig) -> Self {
        Self {
            cfg,
            band: PressureBand::Nominal,
            budget: cfg.budget_max,
            calm_streak: 0,
            last_oom: 0,
            stats: PressureStats::default(),
        }
    }

    /// Whether the governor is active.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// The configuration.
    pub fn config(&self) -> &PressureConfig {
        &self.cfg
    }

    /// The current band.
    pub fn band(&self) -> PressureBand {
        self.band
    }

    /// The current per-wake scan budget.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// The counters.
    pub fn stats(&self) -> PressureStats {
        self.stats
    }

    /// Takes one sample of the pressure signal from machine state and runs
    /// the band transition + AIMD budget update. Pure: reads only the
    /// buddy free-frame count, the configured frame total, and the
    /// absorbed-OOM counter — all simulated state, so a replayed wakeup
    /// re-derives the identical decision.
    pub fn sample(&mut self, m: &Machine) -> PressureDecision {
        let cfg = self.cfg;
        let total = m.config().frames - m.config().reserved_top_frames;
        let free = m.buddy().free_frames() as u64;
        let free_pm = (free.saturating_mul(1000) / total.max(1)) as u32;
        let oom_now = m.stats().oom_events;
        let oom_delta = oom_now.saturating_sub(self.last_oom);
        self.last_oom = oom_now;
        self.stats.samples += 1;

        // The raw (un-hysteresed) band the signal asks for.
        let raw = if free_pm < CRITICAL_ENTER_PM || oom_delta >= OOM_CRITICAL {
            PressureBand::Critical
        } else if free_pm < ELEVATED_ENTER_PM || oom_delta >= OOM_ELEVATED {
            PressureBand::Elevated
        } else {
            PressureBand::Nominal
        };

        let before = self.band;
        let mut escalated_from = None;
        let mut de_escalated_from = None;
        if raw > self.band {
            // Escalate immediately — pressure is not a thing to dwell on.
            self.band = raw;
            self.calm_streak = 0;
            self.stats.escalations += 1;
            escalated_from = Some(before);
        } else if raw < self.band {
            // De-escalate only through the hysteresis gap: the signal must
            // clear the *exit* threshold of the current band for
            // `COOLDOWN_SAMPLES` consecutive samples, then step down once.
            let (exit_pm, exit_oom) = match self.band {
                PressureBand::Critical => (CRITICAL_EXIT_PM, OOM_CRITICAL),
                _ => (ELEVATED_EXIT_PM, OOM_ELEVATED),
            };
            if free_pm >= exit_pm && oom_delta < exit_oom {
                self.calm_streak += 1;
                if self.calm_streak >= COOLDOWN_SAMPLES {
                    self.band = self.band.lower();
                    self.calm_streak = 0;
                    self.stats.de_escalations += 1;
                    de_escalated_from = Some(before);
                }
            } else {
                self.calm_streak = 0;
            }
        } else {
            self.calm_streak = 0;
        }

        // AIMD: additive increase while nominal, multiplicative decrease
        // under pressure — integer arithmetic, clamped to the configured
        // range (the ksmd `pages_to_scan` adaptation, made deterministic).
        self.budget = if self.band == PressureBand::Nominal {
            (self.budget + cfg.budget_add).min(cfg.budget_max)
        } else {
            (self.budget >> BUDGET_SHIFT).max(cfg.budget_min)
        };

        PressureDecision {
            band: self.band,
            escalated_from,
            de_escalated_from,
            budget: self.budget,
        }
    }

    /// Accounts one wakeup's budget flow: `granted` pages were offered,
    /// the engine consumed `used`, the remainder was carried by a cursor.
    pub fn account_budget(&mut self, granted: u64, used: u64) {
        let used = used.min(granted);
        self.stats.budget_granted += granted;
        self.stats.budget_used += used;
        self.stats.budget_carried += granted - used;
    }

    /// Accounts a drain-rung execution (rung 1) that released `ops` items.
    pub fn note_drain(&mut self, ops: u64) {
        self.stats.drain_rungs += 1;
        if ops > 0 {
            self.stats.drain_rungs_effective += 1;
        }
        self.stats.drained_ops += ops;
    }

    /// Accounts a shrink-rung execution (rung 2) dropping `entries`.
    pub fn note_shrink(&mut self, entries: u64) {
        self.stats.shrink_rungs += 1;
        self.stats.shrunk_entries += entries;
    }

    /// Accounts a defer-rung entry (rung 3 switched on).
    pub fn note_defer_entry(&mut self) {
        self.stats.defer_rungs += 1;
    }

    /// Accounts a defer-rung exit (rung 3 switched off).
    pub fn note_defer_exit(&mut self) {
        self.stats.defer_exits += 1;
    }

    /// Serializes the complete governor state (config included, so a
    /// restored system governs exactly like the snapshotted one).
    pub fn save(&self, w: &mut Writer) {
        self.cfg.save(w);
        w.u8(self.band.code());
        w.u64(self.budget);
        w.u32(self.calm_streak);
        w.u64(self.last_oom);
        let s = self.stats;
        for v in [
            s.samples,
            s.escalations,
            s.de_escalations,
            s.drain_rungs,
            s.drain_rungs_effective,
            s.shrink_rungs,
            s.defer_rungs,
            s.defer_exits,
            s.drained_ops,
            s.shrunk_entries,
            s.budget_granted,
            s.budget_used,
            s.budget_carried,
        ] {
            w.u64(v);
        }
    }

    /// Restores state written by [`Self::save`].
    pub fn load(r: &mut Reader<'_>) -> Result<Self, SnapshotError> {
        let cfg = PressureConfig::load(r)?;
        let band = PressureBand::from_code(r.u8()?)?;
        let budget = r.u64()?;
        let calm_streak = r.u32()?;
        let last_oom = r.u64()?;
        let stats = PressureStats {
            samples: r.u64()?,
            escalations: r.u64()?,
            de_escalations: r.u64()?,
            drain_rungs: r.u64()?,
            drain_rungs_effective: r.u64()?,
            shrink_rungs: r.u64()?,
            defer_rungs: r.u64()?,
            defer_exits: r.u64()?,
            drained_ops: r.u64()?,
            shrunk_entries: r.u64()?,
            budget_granted: r.u64()?,
            budget_used: r.u64()?,
            budget_carried: r.u64()?,
        };
        Ok(Self {
            cfg,
            band,
            budget,
            calm_streak,
            last_oom,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use vusion_mem::PageType;

    #[test]
    fn fixed_control_law_is_well_formed() {
        // The hysteresis gaps open the right way and Critical sits below
        // Elevated.
        for (lo, hi) in [
            (ELEVATED_ENTER_PM, ELEVATED_EXIT_PM),
            (CRITICAL_ENTER_PM, CRITICAL_EXIT_PM),
            (CRITICAL_ENTER_PM, ELEVATED_ENTER_PM),
        ] {
            assert!(lo < hi, "{lo} < {hi}");
        }
        for (lo, hi) in [(1, OOM_ELEVATED), (OOM_ELEVATED, OOM_CRITICAL)] {
            assert!(lo <= hi, "{lo} <= {hi}");
        }
        // The cooldown dwells and the decrease decreases.
        for (lo, v, hi) in [(1, COOLDOWN_SAMPLES, u32::MAX), (1, BUDGET_SHIFT, 63)] {
            assert!((lo..=hi).contains(&v), "{v} in {lo}..={hi}");
        }
    }

    #[test]
    fn default_config_is_off_and_standard_validates() {
        assert!(!PressureConfig::default().enabled);
        assert!(PressureConfig::OFF.validate().is_ok());
        assert!(PressureConfig::standard().validate().is_ok());
        for bad in [
            PressureConfig {
                budget_min: 0,
                ..PressureConfig::standard()
            },
            PressureConfig {
                budget_min: 300,
                ..PressureConfig::standard()
            },
            PressureConfig {
                budget_add: 0,
                ..PressureConfig::standard()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn oom_bursts_escalate_and_calm_samples_de_escalate() {
        let mut m = Machine::new(MachineConfig::test_small());
        let mut gov = PressureGovernor::new(PressureConfig::standard());
        let d = gov.sample(&m);
        assert_eq!(d.band, PressureBand::Nominal);
        // A clustered failure burst forces Critical in one sample.
        for _ in 0..5 {
            m.note_oom();
        }
        let d = gov.sample(&m);
        assert_eq!(d.band, PressureBand::Critical);
        assert_eq!(d.escalated_from, Some(PressureBand::Nominal));
        // Budgets shrink multiplicatively under pressure.
        assert!(d.budget < gov.config().budget_max);
        // Two calm samples step down one band; two more reach Nominal.
        let mut bands = Vec::new();
        for _ in 0..4 {
            bands.push(gov.sample(&m).band);
        }
        assert_eq!(
            bands,
            vec![
                PressureBand::Critical,
                PressureBand::Elevated,
                PressureBand::Elevated,
                PressureBand::Nominal
            ]
        );
        assert_eq!(gov.stats().escalations, 1);
        assert_eq!(gov.stats().de_escalations, 2);
    }

    #[test]
    fn free_memory_exhaustion_escalates_without_oom_events() {
        let mut m = Machine::new(MachineConfig::test_small());
        let mut gov = PressureGovernor::new(PressureConfig::standard());
        // Allocate until under the elevated threshold (25% free).
        while m.buddy().free_frames() * 1000 / 4096 >= 250 {
            m.alloc_frame(PageType::Anon).expect("plenty left");
        }
        let d = gov.sample(&m);
        assert_eq!(d.band, PressureBand::Elevated);
    }

    #[test]
    fn budget_recovers_additively_after_pressure() {
        let m = Machine::new(MachineConfig::test_small());
        let mut gov = PressureGovernor::new(PressureConfig::standard());
        gov.budget = gov.cfg.budget_min;
        gov.band = PressureBand::Nominal;
        let first = gov.sample(&m).budget;
        let second = gov.sample(&m).budget;
        assert_eq!(first, gov.cfg.budget_min + gov.cfg.budget_add);
        assert_eq!(second, first + gov.cfg.budget_add);
    }

    #[test]
    fn budget_accounting_identity_holds() {
        let mut gov = PressureGovernor::new(PressureConfig::standard());
        gov.account_budget(100, 64);
        gov.account_budget(50, 50);
        let s = gov.stats();
        assert_eq!(s.budget_granted, s.budget_used + s.budget_carried);
        assert_eq!(s.budget_carried, 36);
    }

    #[test]
    fn governor_state_round_trips() {
        let mut m = Machine::new(MachineConfig::test_small());
        let mut gov = PressureGovernor::new(PressureConfig::standard());
        for _ in 0..3 {
            m.note_oom();
        }
        gov.sample(&m);
        gov.account_budget(32, 12);
        gov.note_drain(5);
        gov.note_shrink(7);
        gov.note_defer_entry();
        let mut w = Writer::new();
        gov.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = PressureGovernor::load(&mut r).expect("load");
        assert!(r.is_empty());
        assert_eq!(back.band, gov.band);
        assert_eq!(back.budget, gov.budget);
        assert_eq!(back.calm_streak, gov.calm_streak);
        assert_eq!(back.last_oom, gov.last_oom);
        assert_eq!(back.stats, gov.stats);
        assert_eq!(back.cfg, gov.cfg);
    }
}
