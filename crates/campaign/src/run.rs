//! One campaign work item: build a seeded system, churn it under the
//! item's fault/crash plans, check invariants after every round, and
//! account everything the run exercised into a [`Coverage`] map.
//!
//! Execution is a pure function of the [`RunSpec`]: the churn RNG is
//! derived from the spec alone (never from which worker thread picked the
//! item up), so the orchestrator can schedule items on any number of
//! threads and still merge byte-identical results.

use vusion::prelude::*;
use vusion::repro::Bundle;
use vusion_mem::PageType;
use vusion_obs::Coverage;
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};
use vusion_snapshot::fnv1a64;

/// The memory layout every campaign run uses: `procs` processes, each
/// with `pages` mergeable pages at `base`. Invariant checkers walk this
/// shape instead of rediscovering the layout from page tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioShape {
    /// Processes spawned (pids `0..procs`).
    pub procs: usize,
    /// Mergeable pages mapped per process.
    pub pages: u64,
    /// First virtual address of the region (page aligned).
    pub base: VirtAddr,
}

impl ScenarioShape {
    /// The default small scenario (mirrors the chaos suite's, scaled for
    /// thousands of runs per campaign).
    pub fn small() -> Self {
        Self {
            procs: 2,
            pages: 6,
            base: VirtAddr(0x10000),
        }
    }
}

/// The predicate shape of an [`Invariant`]: inspects a replayed system
/// and returns `None` when the invariant holds, or a human-readable
/// violation otherwise.
pub type InvariantFn = fn(&System<Box<dyn FusionPolicy>>, &ScenarioShape) -> Option<String>;

/// A named check over a replayable system state. Plain function pointers
/// (not closures) so invariants are trivially shareable across worker
/// threads and printable by name in reports.
#[derive(Clone, Copy)]
pub struct Invariant {
    /// Stable name: coverage keys (`invariant.<name>.checks`) and failure
    /// signatures derive from it.
    pub name: &'static str,
    /// The predicate.
    pub check: InvariantFn,
}

impl Invariant {
    /// The failure signature this invariant stamps on bundles: a stable
    /// hash of its name. Shrinking preserves the signature, so a shrunk
    /// journal provably reproduces the *same* failure, not just *a*
    /// failure.
    pub fn signature(&self) -> u64 {
        fnv1a64(self.name.as_bytes())
    }
}

/// Frame accounting stays sound: [`Machine::audit_frames`] comes back
/// empty (no mapped-but-free frames, no refcount drift).
fn frame_audit(sys: &System<Box<dyn FusionPolicy>>, _shape: &ScenarioShape) -> Option<String> {
    let violations = sys.machine.audit_frames();
    if violations.is_empty() {
        None
    } else {
        Some(violations.join("; "))
    }
}

/// No merged (Fused, refcount ≥ 2) frame is ever mapped writable — the
/// CoW-soundness half of the paper's security argument.
fn merged_page_writable(
    sys: &System<Box<dyn FusionPolicy>>,
    shape: &ScenarioShape,
) -> Option<String> {
    for p in 0..shape.procs {
        let pid = Pid(p);
        for pg in 0..shape.pages {
            let va = VirtAddr(shape.base.0 + pg * PAGE_SIZE);
            let Some(leaf) = sys.machine.leaf(pid, va) else {
                continue;
            };
            if !leaf.pte.is_present() {
                continue;
            }
            let frame = leaf.pte.frame();
            let info = sys.machine.mem().info(frame);
            if info.page_type == PageType::Fused
                && info.refcount >= 2
                && leaf.pte.has(PteFlags::WRITABLE)
            {
                return Some(format!(
                    "merged frame {frame:?} mapped writable at p{p} page {pg}"
                ));
            }
        }
    }
    None
}

/// A deliberately failing invariant for validating the campaign pipeline
/// end to end: it fires as soon as any scenario page contains the byte
/// `7` — which the churn script writes with probability 1/8 per store —
/// so a campaign armed with it reliably produces a failure whose minimal
/// repro is a single journaled write. Tests and the CI self-test use it
/// to prove that failure capture, shrinking, and signature-stable replay
/// actually work; it is never part of [`default_invariants`].
pub fn poison_invariant() -> Invariant {
    Invariant {
        name: "poison-byte",
        check: poison_byte,
    }
}

fn poison_byte(sys: &System<Box<dyn FusionPolicy>>, shape: &ScenarioShape) -> Option<String> {
    for p in 0..shape.procs {
        let pid = Pid(p);
        for pg in 0..shape.pages {
            let va = VirtAddr(shape.base.0 + pg * PAGE_SIZE);
            let Some(pa) = sys.machine.translate_quiet(pid, va) else {
                continue;
            };
            let page = sys.machine.mem().page(pa.frame());
            if let Some(off) = page.iter().position(|&b| b == 7) {
                return Some(format!("poison byte 7 at p{p} page {pg} offset {off}"));
            }
        }
    }
    None
}

/// The invariants every campaign checks after every churn round.
pub fn default_invariants() -> Vec<Invariant> {
    vec![
        Invariant {
            name: "frame-audit",
            check: frame_audit,
        },
        Invariant {
            name: "merged-page-writable",
            check: merged_page_writable,
        },
    ]
}

/// One fully specified work item. Everything a worker needs — and
/// everything determinism needs — lives here.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Position in the campaign's canonical enumeration; results merge in
    /// this order regardless of which thread ran the item.
    pub index: usize,
    /// Engine under test.
    pub engine: EngineKind,
    /// Fault-plan axis label.
    pub plan_name: String,
    /// Fault plan injected after setup.
    pub plan: FaultPlan,
    /// Crash-plan axis label (`"none"` for the uncrashed variant).
    pub crash_name: String,
    /// Crash plan armed after the base snapshot.
    pub crash: CrashPlan,
    /// Machine master seed.
    pub seed: u64,
    /// Churn rounds (invariants are checked after each).
    pub rounds: u32,
    /// Random single-byte writes per round.
    pub writes_per_round: u32,
    /// Memory layout of the run.
    pub shape: ScenarioShape,
    /// Pressure governor installed before the base snapshot (`None` runs
    /// ungoverned, the pre-governor campaign exactly).
    pub governor: Option<PressureConfig>,
}

impl RunSpec {
    /// Human-readable identity, stable across runs.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/seed {:#x}",
            self.engine.slug(),
            self.plan_name,
            self.crash_name,
            self.seed
        )
    }

    /// The churn RNG seed: a pure function of the spec (never of the
    /// worker thread), folding in every axis so two items sharing a
    /// machine seed still draw decorrelated scripts.
    pub fn churn_seed(&self) -> u64 {
        fnv1a64(self.label().as_bytes()) ^ self.seed
    }

    /// Rebuilds the machine config this spec runs under.
    pub fn config(&self) -> MachineConfig {
        MachineConfig::test_small()
            .with_seed(self.seed)
            .with_fault_plan(self.plan)
            .with_crash_plan(self.crash)
    }
}

/// A violated invariant, packaged for shrinking.
pub struct RunFailure {
    /// Which invariant fired.
    pub invariant: Invariant,
    /// The violation message.
    pub detail: String,
    /// Unshrunk repro bundle captured at failure time.
    pub bundle: Bundle,
}

/// Everything one work item produced.
pub struct RunOutput {
    /// The spec's enumeration index.
    pub index: usize,
    /// The spec's label (for failure reports).
    pub label: String,
    /// Coverage points this run hit.
    pub coverage: Coverage,
    /// The first invariant violation, if any (the run stops at it).
    pub failure: Option<RunFailure>,
}

/// Executes one work item start to finish. Deterministic per spec.
pub fn execute(spec: &RunSpec, invariants: &[Invariant]) -> RunOutput {
    let shape = spec.shape;
    let cfg = spec.config();
    let mut sys = spec.engine.build_system(cfg);
    let mut coverage = Coverage::new();
    let label = spec.label();

    // Setup (never subject to injection): spawn, map, populate with
    // duplicate-prone fills so the scanner has merge bait.
    let pids: Vec<Pid> = (0..shape.procs)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(shape.base, shape.pages, Protection::rw()));
        sys.machine.madvise_mergeable(pid, shape.base, shape.pages);
    }
    for &pid in &pids {
        for pg in 0..shape.pages {
            let fill = (pg % 4) as u8 + 1;
            sys.write_page(
                pid,
                VirtAddr(shape.base.0 + pg * PAGE_SIZE),
                &[fill; PAGE_SIZE as usize],
            );
        }
    }

    // Install the governor (if armed) while still in setup: it travels
    // in the base snapshot, so every shrink/replay of a failure runs
    // under the same control law.
    if let Some(gcfg) = spec.governor {
        sys.set_pressure_governor(gcfg)
            .expect("valid governor config");
    }

    // Arm everything, then snapshot: any later failure bundles as "this
    // state, then these journaled calls".
    sys.machine.arm_faults();
    sys.machine.enable_tracing();
    sys.machine.enable_surface();
    sys.machine.enable_journal();
    sys.machine.clear_journal();
    let base_snapshot = sys.snapshot();
    let crashes_armed = spec.crash.is_active();
    if crashes_armed {
        sys.machine.arm_crashes();
    }

    // Churn: random single-byte stores plus forced scan passes, with the
    // armed invariants checked after every round.
    let mut rng = StdRng::seed_from_u64(spec.churn_seed());
    let mut failure = None;
    'rounds: for _ in 0..spec.rounds {
        for _ in 0..spec.writes_per_round {
            let p = rng.random_range(0..shape.procs);
            let pg = rng.random_range(0..shape.pages);
            let off = rng.random_range(0..PAGE_SIZE);
            let v = rng.random_range(0..8u8);
            let _ = sys.try_write(pids[p], VirtAddr(shape.base.0 + pg * PAGE_SIZE + off), v);
        }
        sys.force_scans(rng.random_range(1..4usize));
        for inv in invariants {
            coverage.mark(&format!("invariant.{}.checks", inv.name));
            if let Some(detail) = (inv.check)(&sys, &shape) {
                coverage.mark(&format!("failure.{}", inv.name));
                let bundle = Bundle::capture(
                    spec.engine,
                    &cfg,
                    base_snapshot.clone(),
                    &sys,
                    crashes_armed,
                    &label,
                    &detail,
                );
                failure = Some(RunFailure {
                    invariant: *inv,
                    detail,
                    bundle,
                });
                break 'rounds;
            }
        }
    }

    // Account what the run exercised.
    coverage.mark(&format!("engine.{}.runs", spec.engine.slug()));
    coverage.mark(&format!("plan.{}.runs", spec.plan_name));
    if let Some(site) = spec.crash.site {
        coverage.mark(&format!("site.{}.armed", site.label()));
        // add(.., 0) declares the key even when the site never fired, so
        // the report can show the miss instead of omitting the row.
        coverage.add(
            &format!("site.{}.fired", site.label()),
            sys.machine.crashes_fired(),
        );
    }
    if spec.governor.is_some() {
        let g = sys.pressure_governor().stats();
        coverage.add("pressure.samples", g.samples);
        coverage.add("pressure.escalations", g.escalations);
        coverage.add("pressure.de_escalations", g.de_escalations);
        coverage.add("pressure.drain_rungs", g.drain_rungs);
        coverage.add("pressure.shrink_rungs", g.shrink_rungs);
        coverage.add("pressure.defer_rungs", g.defer_rungs);
        coverage.add("pressure.budget_used", g.budget_used);
    }
    let inj = sys.machine.injection_breakdown();
    coverage.add("fault.alloc.injected", inj.injected_allocs);
    coverage.add("fault.checksum.injected", inj.injected_checksums);
    coverage.add("fault.bitflip.injected", inj.injected_bitflips);
    // Which side channels each engine actually exercised: declared even
    // at zero so the report shows an unobserved channel as a miss.
    let [faults, llc, dram, tlb] = sys.machine.obs().surface().channel_event_totals();
    let slug = spec.engine.slug();
    coverage.add(&format!("surface.{slug}.fault_events"), faults);
    coverage.add(&format!("surface.{slug}.llc_events"), llc);
    coverage.add(&format!("surface.{slug}.dram_events"), dram);
    coverage.add(&format!("surface.{slug}.tlb_events"), tlb);
    for (_cat, kind, stat) in sys.machine.obs().tracer().profile().iter() {
        coverage.add(&format!("span.{}", kind.name()), stat.count);
    }
    for ev in sys.machine.journal() {
        coverage.mark(&format!("journal.{}", ev.label()));
    }

    RunOutput {
        index: spec.index,
        label,
        coverage,
        failure,
    }
}
