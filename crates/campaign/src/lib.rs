//! # vusion-campaign — deterministic multi-seed DST campaigns
//!
//! The chaos suite (`tests/chaos.rs`) proves the engines survive *one*
//! adversarial schedule at a time. A **campaign** sweeps the whole grid —
//! hundreds of seeds × fault-plan ladder × crash-site axis × every engine
//! — on real worker threads, and still produces **byte-identical**
//! results no matter how many threads run it:
//!
//! * work is pre-partitioned by enumeration index (`index % threads`),
//!   never pulled from a shared queue, so the item→thread mapping is a
//!   pure function of the config;
//! * every run's churn RNG derives from its [`RunSpec`] alone;
//! * results merge in enumeration order, and the report's canonical JSON
//!   carries no timing or thread-count fields.
//!
//! Failing runs are captured as [`Bundle`](vusion::repro::Bundle) repro
//! artifacts and then delta-debugged ([`vusion::repro::Bundle::shrink`])
//! down to the smallest journal suffix still reproducing the same failure
//! signature. The final [`CampaignReport`] pairs the failure ledger with
//! a fault-coverage map: which crash sites actually fired, which fault
//! kinds actually injected, which tracer spans the sweep exercised — and,
//! crucially, which expected points stayed *uncovered*.
//!
//! ```
//! use vusion_campaign::{Campaign, CampaignConfig};
//!
//! let cfg = CampaignConfig::standard(4); // 4 seeds per cell, small demo
//! let report = Campaign::new(cfg).expect("valid config").run().expect("campaign");
//! assert!(!report.has_failures());
//! assert!(report.coverage.get("engine.ksm.runs") > 0);
//! ```

pub mod report;
pub mod run;

use std::fmt;

use vusion::prelude::*;
use vusion_snapshot::SnapshotError;

pub use report::{CampaignReport, FailureReport};
pub use run::{
    default_invariants, poison_invariant, Invariant, InvariantFn, RunSpec, ScenarioShape,
};

use report::FailureReport as Failure;
use run::{execute, RunOutput};
use vusion_obs::Coverage;

/// Everything that parameterizes a campaign. The report is a pure
/// function of this struct (plus the armed invariants) — `threads` only
/// changes wall-clock time, never output bytes.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// First machine seed; run `i` of a cell uses `seed_base + i`.
    pub seed_base: u64,
    /// Seeds per (engine, plan, crash) cell.
    pub seeds: u64,
    /// Engines under test.
    pub engines: Vec<EngineKind>,
    /// Fault-plan axis, as `(name, plan)` pairs.
    pub plans: Vec<(String, FaultPlan)>,
    /// Crash-plan axis, as `(name, plan)` pairs (include
    /// [`CrashPlan::NONE`] for the uncrashed variant).
    pub crashes: Vec<(String, CrashPlan)>,
    /// Churn rounds per run.
    pub rounds: u32,
    /// Random writes per round.
    pub writes_per_round: u32,
    /// Memory layout of every run.
    pub shape: ScenarioShape,
    /// Worker threads. Any value ≥ 1 yields identical output.
    pub threads: usize,
    /// Replay budget per failure for the shrinker.
    pub shrink_budget: u64,
    /// Pressure governor armed on every run (`None` sweeps ungoverned).
    pub governor: Option<PressureConfig>,
}

impl CampaignConfig {
    /// The standard sweep: KSM, WPF and VUsion over the full fault-plan
    /// ladder and every crash site (plus the uncrashed variant), `seeds`
    /// seeds per cell.
    pub fn standard(seeds: u64) -> Self {
        let plans = FaultPlan::campaign_ladder()
            .into_iter()
            .map(|(n, p)| (n.to_string(), p))
            .collect();
        let mut crashes = vec![("none".to_string(), CrashPlan::NONE)];
        for site in CrashSite::ALL {
            crashes.push((site.label().to_string(), CrashPlan::at(site, 2)));
        }
        Self {
            seed_base: 0x5eed_0000,
            seeds,
            engines: vec![EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion],
            plans,
            crashes,
            rounds: 3,
            writes_per_round: 48,
            shape: ScenarioShape::small(),
            threads: 1,
            shrink_budget: 512,
            governor: None,
        }
    }

    /// The pressure-churn sweep: every engine over the OOM-burst
    /// [`FaultPlan::pressure_ladder`] with the governor armed on a tight
    /// budget band, uncrashed. This is the cell grid that proves graceful
    /// degradation at campaign scale: the `pressure.*` coverage keys must
    /// move, and the default invariants (frame audit, CoW soundness) must
    /// hold at every ladder rung.
    pub fn pressure_churn(seeds: u64) -> Self {
        let plans = FaultPlan::pressure_ladder()
            .into_iter()
            .map(|(n, p)| (n.to_string(), p))
            .collect();
        let governor = PressureConfig {
            budget_min: 4,
            budget_max: 32,
            budget_add: 8,
            ..PressureConfig::standard()
        };
        Self {
            seed_base: 0x9e55_0000,
            seeds,
            engines: vec![EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion],
            plans,
            crashes: vec![("none".to_string(), CrashPlan::NONE)],
            // A larger working set than `standard()`: merge/unmerge churn
            // must allocate often enough that clustered injected failures
            // actually reach the governor's OOM-delta signal.
            rounds: 4,
            writes_per_round: 96,
            shape: ScenarioShape {
                procs: 3,
                pages: 24,
                base: VirtAddr(0x10000),
            },
            threads: 1,
            shrink_budget: 512,
            governor: Some(governor),
        }
    }

    /// Total work items this config enumerates.
    pub fn total_runs(&self) -> usize {
        self.engines.len() * self.plans.len() * self.crashes.len() * self.seeds as usize
    }
}

/// Why a campaign could not be constructed or executed.
#[derive(Debug)]
pub enum CampaignError {
    /// A config axis is empty (nothing to sweep).
    EmptyAxis(&'static str),
    /// A fault plan on the axis is degenerate.
    Plan(FaultPlanError),
    /// Snapshot restore/replay failed while shrinking a failure — the
    /// bundle machinery itself is broken, which outranks any test result.
    Snapshot(SnapshotError),
    /// A worker thread panicked (a bug in an invariant or the harness).
    WorkerPanicked,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyAxis(axis) => write!(f, "campaign config: empty {axis} axis"),
            Self::Plan(e) => write!(f, "campaign config: {e}"),
            Self::Snapshot(e) => write!(f, "campaign shrink: {e}"),
            Self::WorkerPanicked => write!(f, "campaign worker thread panicked"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<FaultPlanError> for CampaignError {
    fn from(e: FaultPlanError) -> Self {
        Self::Plan(e)
    }
}

impl From<SnapshotError> for CampaignError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// A validated, ready-to-run campaign.
pub struct Campaign {
    cfg: CampaignConfig,
    invariants: Vec<Invariant>,
}

impl Campaign {
    /// Validates the config: non-empty axes, at least one seed, every
    /// fault plan well-formed.
    ///
    /// # Errors
    ///
    /// [`CampaignError::EmptyAxis`] or [`CampaignError::Plan`].
    pub fn new(cfg: CampaignConfig) -> Result<Self, CampaignError> {
        if cfg.engines.is_empty() {
            return Err(CampaignError::EmptyAxis("engine"));
        }
        if cfg.plans.is_empty() {
            return Err(CampaignError::EmptyAxis("fault-plan"));
        }
        if cfg.crashes.is_empty() {
            return Err(CampaignError::EmptyAxis("crash-plan"));
        }
        if cfg.seeds == 0 {
            return Err(CampaignError::EmptyAxis("seed"));
        }
        for (_, plan) in &cfg.plans {
            plan.validate()?;
        }
        Ok(Self {
            cfg,
            invariants: default_invariants(),
        })
    }

    /// Arms an extra invariant on top of the defaults (tests use this to
    /// plant [`poison_invariant`] and watch the pipeline catch it).
    #[must_use]
    pub fn with_invariant(mut self, inv: Invariant) -> Self {
        self.invariants.push(inv);
        self
    }

    /// The campaign's canonical work-item enumeration. Index order is the
    /// merge order; the item→thread mapping is `index % threads`.
    pub fn specs(&self) -> Vec<RunSpec> {
        let cfg = &self.cfg;
        let mut specs = Vec::with_capacity(cfg.total_runs());
        for engine in &cfg.engines {
            for (plan_name, plan) in &cfg.plans {
                for (crash_name, crash) in &cfg.crashes {
                    for s in 0..cfg.seeds {
                        specs.push(RunSpec {
                            index: specs.len(),
                            engine: *engine,
                            plan_name: plan_name.clone(),
                            plan: *plan,
                            crash_name: crash_name.clone(),
                            crash: *crash,
                            seed: cfg.seed_base + s,
                            rounds: cfg.rounds,
                            writes_per_round: cfg.writes_per_round,
                            shape: cfg.shape,
                            governor: cfg.governor,
                        });
                    }
                }
            }
        }
        specs
    }

    /// Coverage keys this config promises to exercise; anything on this
    /// list that no run hits lands in [`CampaignReport::uncovered`].
    fn expected_coverage(&self) -> Vec<String> {
        let mut expected = Vec::new();
        for engine in &self.cfg.engines {
            expected.push(format!("engine.{}.runs", engine.slug()));
        }
        for (name, _) in &self.cfg.plans {
            expected.push(format!("plan.{name}.runs"));
        }
        for (_, crash) in &self.cfg.crashes {
            if let Some(site) = crash.site {
                expected.push(format!("site.{}.fired", site.label()));
            }
        }
        let any = |f: fn(&FaultPlan) -> bool| self.cfg.plans.iter().any(|(_, p)| f(p));
        if any(|p| p.alloc_every_nth > 0 || p.alloc_fail_prob > 0.0) {
            expected.push("fault.alloc.injected".to_string());
        }
        if any(|p| p.checksum_corrupt_prob > 0.0) {
            expected.push("fault.checksum.injected".to_string());
        }
        if any(|p| p.scan_bitflip_prob > 0.0) {
            expected.push("fault.bitflip.injected".to_string());
        }
        for inv in &self.invariants {
            expected.push(format!("invariant.{}.checks", inv.name));
        }
        // Spans every fusion engine's scan loop must enter on this
        // scenario; the engine-specific spans (fake_merge, rerandomize)
        // stay out so KSM-only sweeps do not report false gaps.
        expected.push("span.scan_pass".to_string());
        expected.push("span.merge".to_string());
        if self.cfg.governor.is_some() {
            // An armed governor samples on every wakeup; with any
            // OOM-injecting plan on the axis it must also escalate.
            expected.push("pressure.samples".to_string());
            if any(|p| p.alloc_every_nth > 0 || p.alloc_fail_prob > 0.0) {
                expected.push("pressure.escalations".to_string());
            }
        }
        expected.sort();
        expected.dedup();
        expected
    }

    /// Runs the sweep on `cfg.threads` workers, merges in enumeration
    /// order, shrinks every captured failure, and reports.
    ///
    /// # Errors
    ///
    /// [`CampaignError::WorkerPanicked`] if an invariant or the harness
    /// panicked on a worker; [`CampaignError::Snapshot`] if a failure's
    /// bundle would not restore/replay while shrinking.
    pub fn run(&self) -> Result<CampaignReport, CampaignError> {
        let specs = self.specs();
        let threads = self.cfg.threads.max(1).min(specs.len().max(1));
        let invariants = &self.invariants;

        // Pre-partitioned fan-out: worker t owns indices ≡ t (mod
        // threads), in ascending order. No shared queue, no stealing —
        // the schedule is a pure function of the config.
        let mut outputs: Vec<Option<RunOutput>> = Vec::new();
        outputs.resize_with(specs.len(), || None);
        #[expect(
            clippy::disallowed_methods,
            reason = "whole-run fan-out: each worker owns complete deterministic simulations and reports merge in seed order"
        )]
        let shards: Vec<Result<Vec<RunOutput>, CampaignError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let specs = &specs;
                    scope.spawn(move || {
                        specs
                            .iter()
                            .skip(t)
                            .step_by(threads)
                            .map(|spec| execute(spec, invariants))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| CampaignError::WorkerPanicked))
                .collect()
        });
        for shard in shards {
            for out in shard? {
                let slot = out.index;
                outputs[slot] = Some(out);
            }
        }

        // Deterministic reduction: merge coverage and collect failures in
        // enumeration order, then shrink each failure sequentially.
        let mut coverage = Coverage::new();
        let mut failures = Vec::new();
        for out in outputs.into_iter().flatten() {
            coverage.merge(&out.coverage);
            if let Some(fail) = out.failure {
                let inv = fail.invariant;
                let shape = self.cfg.shape;
                let checker = move |sys: &System<Box<dyn FusionPolicy>>| {
                    (inv.check)(sys, &shape).map(|_| inv.signature())
                };
                let outcome = fail.bundle.shrink(checker, self.cfg.shrink_budget)?;
                let report = match outcome {
                    Some(sh) => Failure {
                        index: out.index,
                        label: out.label,
                        invariant: inv.name.to_string(),
                        signature: sh.signature,
                        detail: fail.detail,
                        original_events: sh.original_len,
                        shrunk_events: sh.shrunk_len(),
                        replays: sh.replays,
                        reproducible: true,
                        bundle: sh.shrunk,
                    },
                    // The full journal did not reproduce the violation:
                    // keep the raw bundle and flag it non-reproducible.
                    None => Failure {
                        index: out.index,
                        label: out.label,
                        invariant: inv.name.to_string(),
                        signature: inv.signature(),
                        detail: fail.detail,
                        original_events: fail.bundle.journal.len(),
                        shrunk_events: fail.bundle.journal.len(),
                        replays: 1,
                        reproducible: false,
                        bundle: fail.bundle,
                    },
                };
                failures.push(report);
            }
        }

        let uncovered = coverage.missing(self.expected_coverage());
        Ok(CampaignReport {
            runs: specs.len(),
            coverage,
            uncovered,
            failures,
        })
    }
}
