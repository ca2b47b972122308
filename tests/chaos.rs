//! Chaos testing: deterministic fault injection across every fusion
//! engine.
//!
//! Each run arms a seeded [`FaultPlan`] (allocation failures, checksum
//! corruption, mid-scan bit flips) *after* setup, then churns merge bait
//! and divergent writes through the engine while asserting, after every
//! round:
//!
//! * no panics anywhere (the run completing is itself the assertion);
//! * frame accounting stays sound ([`Machine::audit_frames`]: no mapped
//!   frame is free, no refcount underflow);
//! * no silent corruption: every page still translates, and its content
//!   matches a byte-exact oracle. A *failed* write is observable (the
//!   `try_write` error) and leaves the old content in place — it must
//!   never half-apply;
//! * memory does not leak across identical churn rounds;
//! * the security invariants survive injected failures: merged (Fused)
//!   pages stay trapped under VUsion and stay read-only under KSM/WPF.
//!
//! Every plan is driven by the machine's master seed, so any failure here
//! reproduces exactly from the printed plan name and seed.

use std::collections::BTreeMap;
use vusion::mem::PageType;
use vusion::prelude::*;
use vusion::repro::{assert_frames_sound, Bundle, KEEP_BUNDLES};
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};

const BASE: u64 = 0x10000;
const PAGES: u64 = 24;
const PROCS: usize = 3;
const ROUNDS: u32 = 4;

const ENGINES: [EngineKind; 5] = [
    EngineKind::Ksm,
    EngineKind::KsmCoa,
    EngineKind::Wpf,
    EngineKind::VUsion,
    EngineKind::VUsionThp,
];

/// The seeded fault plans the sweep runs. At least eight, covering each
/// injector alone and in combination, light and heavy.
fn plans() -> [(&'static str, FaultPlan); 9] {
    [
        ("none", FaultPlan::NONE),
        ("every_3rd_alloc", FaultPlan::every_nth_alloc(3)),
        ("every_7th_alloc", FaultPlan::every_nth_alloc(7)),
        ("alloc_p10", FaultPlan::alloc_prob(0.10).expect("valid")),
        ("alloc_p35", FaultPlan::alloc_prob(0.35).expect("valid")),
        (
            "checksum_p25",
            FaultPlan {
                checksum_corrupt_prob: 0.25,
                ..FaultPlan::NONE
            },
        ),
        (
            "bitflip_p25",
            FaultPlan {
                scan_bitflip_prob: 0.25,
                ..FaultPlan::NONE
            },
        ),
        (
            "mixed_light",
            FaultPlan {
                alloc_fail_prob: 0.05,
                checksum_corrupt_prob: 0.05,
                scan_bitflip_prob: 0.05,
                ..FaultPlan::NONE
            },
        ),
        (
            "mixed_heavy",
            FaultPlan {
                alloc_every_nth: 5,
                alloc_fail_prob: 0.15,
                checksum_corrupt_prob: 0.15,
                scan_bitflip_prob: 0.15,
            },
        ),
    ]
}

/// Byte-exact oracle of what each (process, page) should contain.
type Oracle = BTreeMap<(usize, u64), [u8; PAGE_SIZE as usize]>;

struct ChaosRun {
    sys: System<Box<dyn FusionPolicy>>,
    pids: Vec<Pid>,
    oracle: Oracle,
    label: String,
    kind: EngineKind,
    cfg: MachineConfig,
    base_snapshot: Vec<u8>,
    crashes_armed: bool,
}

impl ChaosRun {
    /// Builds a system, populates every page with known content, and only
    /// then arms the fault plan — setup is never subject to injection.
    fn start(kind: EngineKind, plan_name: &str, plan: FaultPlan, seed: u64) -> Self {
        let cfg = MachineConfig::test_small()
            .with_seed(seed)
            .with_fault_plan(plan);
        Self::setup(kind.build_system(cfg), kind, cfg, plan_name, seed)
    }

    /// Spawns processes, populates pages, and arms the machine's fault
    /// plan on an already-built system. `cfg` is the config the system
    /// was built from; it travels into any failure bundle so a replay can
    /// rebuild the identical machine.
    fn setup(
        mut sys: System<Box<dyn FusionPolicy>>,
        kind: EngineKind,
        cfg: MachineConfig,
        plan_name: &str,
        seed: u64,
    ) -> Self {
        let pids: Vec<Pid> = (0..PROCS)
            .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
            .collect();
        for &pid in &pids {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
        }
        let mut oracle = Oracle::new();
        for (i, &pid) in pids.iter().enumerate() {
            for pg in 0..PAGES {
                // Duplicate-prone: only a handful of distinct fills.
                let fill = (pg % 4) as u8 + 1;
                let page = [fill; PAGE_SIZE as usize];
                sys.write_page(pid, VirtAddr(BASE + pg * PAGE_SIZE), &page);
                oracle.insert((i, pg), page);
            }
        }
        sys.machine.arm_faults();
        // Trace from here on: failure bundles attach the ring buffer's
        // tail as a Chrome trace, so a red chaos run ships its own
        // "what was the kernel doing" evidence.
        sys.machine.enable_tracing();
        // Journal from here on; the snapshot pairs with an empty journal,
        // so any later failure bundles as "this state, then these calls".
        sys.machine.enable_journal();
        sys.machine.clear_journal();
        let base_snapshot = sys.snapshot();
        Self {
            sys,
            pids,
            oracle,
            label: format!("{kind:?}/{plan_name}/seed {seed}"),
            kind,
            cfg,
            base_snapshot,
            crashes_armed: false,
        }
    }

    /// Arms the config's crash plan (post-setup, like the fault plan) and
    /// marks the fact so failure bundles re-arm it on replay.
    fn arm_crashes(&mut self) {
        self.sys.machine.arm_crashes();
        self.crashes_armed = true;
    }

    /// Packages the run's base snapshot + journal + current digest.
    fn bundle(&self, failing_step: &str) -> Bundle {
        Bundle::capture(
            self.kind,
            &self.cfg,
            self.base_snapshot.clone(),
            &self.sys,
            self.crashes_armed,
            &self.label,
            failing_step,
        )
    }

    /// Dumps a failure bundle into `bench_logs/repro/` and panics with the
    /// assertion message — every invariant failure in this suite leaves a
    /// replayable artifact behind.
    fn fail(&self, step: &str) -> ! {
        match self.bundle(step).dump() {
            Ok(path) => panic!("{step}\n  repro bundle: {}", path.display()),
            Err(e) => panic!("{step}\n  (repro bundle could not be written: {e})"),
        }
    }

    /// One churn round: random single-byte writes (tracked in the oracle
    /// only when they succeed), full-page rewrites of merge bait, scans.
    fn churn(&mut self, rng: &mut StdRng) {
        for _ in 0..96 {
            let p = rng.random_range(0..PROCS);
            let pg = rng.random_range(0..PAGES);
            let off = rng.random_range(0..PAGE_SIZE);
            let v = rng.random_range(0..8u8);
            let va = VirtAddr(BASE + pg * PAGE_SIZE + off);
            if self.sys.try_write(self.pids[p], va, v).is_ok() {
                self.oracle.get_mut(&(p, pg)).expect("tracked")[off as usize] = v;
            }
        }
        self.sys.force_scans(rng.random_range(2..8usize));
    }

    /// Asserts every invariant the run guarantees. Any failure dumps a
    /// replayable bundle before panicking.
    fn check(&mut self) {
        // Frame accounting is sound.
        let violations = self.sys.machine.audit_frames();
        if !violations.is_empty() {
            self.fail(&format!("{}: {violations:?}", self.label));
        }
        // No silent corruption: every page still translates and matches
        // the oracle byte for byte (failed writes must not half-apply).
        for (i, &pid) in self.pids.iter().enumerate() {
            for pg in 0..PAGES {
                let va = VirtAddr(BASE + pg * PAGE_SIZE);
                let Some(pa) = self.sys.machine.translate_quiet(pid, va) else {
                    self.fail(&format!("{}: p{i} page {pg} lost its mapping", self.label));
                };
                let got = self.sys.machine.mem().page(pa.frame());
                let want = &self.oracle[&(i, pg)];
                if got != want {
                    self.fail(&format!(
                        "{}: p{i} page {pg} diverged from the oracle",
                        self.label
                    ));
                }
            }
        }
        // Security invariants hold for whatever is merged right now:
        // shared Fused frames are trapped under VUsion (Same Behavior) and
        // never writable under any engine (CoW soundness).
        for pi in 0..self.pids.len() {
            let pid = self.pids[pi];
            for pg in 0..PAGES {
                let va = VirtAddr(BASE + pg * PAGE_SIZE);
                let Some(leaf) = self.sys.machine.leaf(pid, va) else {
                    continue;
                };
                if !leaf.pte.is_present() {
                    continue;
                }
                let frame = leaf.pte.frame();
                let info = self.sys.machine.mem().info(frame);
                if info.page_type != PageType::Fused || info.refcount < 2 {
                    continue;
                }
                if leaf.pte.has(PteFlags::WRITABLE) {
                    self.fail(&format!(
                        "{}: merged frame {frame:?} is writable",
                        self.label
                    ));
                }
            }
        }
    }
}

impl Drop for ChaosRun {
    /// Every chaos test ends with a frame-accounting audit, whether or
    /// not its body called [`ChaosRun::check`] on the final state.
    /// Skipped while unwinding so a failing assertion's own message (and
    /// repro bundle) is not masked by a double panic.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            assert_frames_sound(&self.sys.machine, &self.label);
        }
    }
}

/// The main sweep: every plan over every engine. No run may panic, leak,
/// corrupt contents, or violate the merge security invariants —
/// regardless of which allocations fail or which scans get corrupted.
#[test]
fn engines_survive_seeded_fault_plans() {
    for (pi, (plan_name, plan)) in plans().into_iter().enumerate() {
        for (ki, kind) in ENGINES.into_iter().enumerate() {
            let seed = 0xc0de_0000 + (pi * 16 + ki) as u64;
            let mut run = ChaosRun::start(kind, plan_name, plan, seed);
            // Everything is populated and nothing merged yet: sharing can
            // only reduce this, so any round exceeding it leaked frames.
            let full = run.sys.machine.allocated_frames();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0);
            let mut allocated = Vec::new();
            for _ in 0..ROUNDS {
                run.churn(&mut rng);
                run.check();
                allocated.push(run.sys.machine.allocated_frames());
            }
            // Bounded memory: divergent writes may unshare back up to the
            // fully-populated level, but never past it (modulo transient
            // engine-held frames), even with injection forcing retry
            // paths.
            let last = *allocated.last().expect("rounds");
            assert!(
                last <= full + 16,
                "{}: allocated frames leaked past full population {full}: {allocated:?}",
                run.label
            );
        }
    }
}

/// The injectors actually fire, and the machine counts them: a chaos
/// sweep that never injects anything would be vacuous.
#[test]
fn fault_plans_inject_and_are_counted() {
    let mut checksum_or_flip_total = 0;
    for (plan_name, plan) in plans() {
        if !plan.is_active() {
            continue;
        }
        let alloc_plan = plan.alloc_every_nth > 0 || plan.alloc_fail_prob > 0.0;
        let mut injected_total = 0;
        for kind in ENGINES {
            let mut run = ChaosRun::start(kind, plan_name, plan, 0xab5e);
            let mut rng = StdRng::seed_from_u64(0xab5e);
            for _ in 0..ROUNDS {
                run.churn(&mut rng);
            }
            run.check();
            let stats = run.sys.machine.stats();
            injected_total += stats.injected_faults;
            if !alloc_plan {
                checksum_or_flip_total += stats.injected_faults;
            }
            if alloc_plan {
                assert!(
                    stats.injected_faults > 0,
                    "{}: alloc plan never fired",
                    run.label
                );
            }
        }
        assert!(
            injected_total > 0,
            "plan {plan_name} injected nothing across all engines"
        );
    }
    // The scan-side injectors (checksum corruption, bit flips) fired
    // somewhere in the sweep, not just the allocator one.
    assert!(
        checksum_or_flip_total > 0,
        "scan-side injection never fired"
    );
}

/// Graceful degradation is visible in the counters: under heavy
/// allocation failure VUsion drains its deferred-free queue to refill
/// the pool, and skips-and-retries the scan when even that runs dry —
/// instead of crashing. The pool buffers allocation failure by design
/// (a failed refill just shrinks it), so the test builds the engine with
/// a deliberately tiny pool; the default 256-frame pool would absorb the
/// whole plan without ever exposing the exhaustion path.
#[test]
fn degradation_counters_move_under_alloc_pressure() {
    let plan = FaultPlan {
        alloc_every_nth: 2,
        alloc_fail_prob: 0.8,
        ..FaultPlan::NONE
    };
    let mut scan_retries = 0;
    let mut deferred_drains = 0;
    for kind in [EngineKind::VUsion, EngineKind::VUsionThp] {
        for seed in 0..4u64 {
            let cfg = kind.adapt_machine(
                MachineConfig::test_small()
                    .with_seed(0xd15c ^ seed)
                    .with_fault_plan(plan),
            );
            let mut m = Machine::new(cfg);
            // An 8-frame pool, so pool exhaustion and the deferred-queue
            // drain happen under churn.
            let policy: Box<dyn FusionPolicy> = Box::new(VUsion::new(
                &mut m,
                VUsionConfig {
                    pool_frames: 8,
                    thp_enhancements: kind == EngineKind::VUsionThp,
                    ..Default::default()
                },
            ));
            let mut run = ChaosRun::setup(
                System::new(m, policy),
                kind,
                cfg,
                "alloc_heavy",
                0xd15c ^ seed,
            );
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..2 * ROUNDS {
                run.churn(&mut rng);
            }
            run.check();
            let stats = run.sys.machine.stats();
            scan_retries += stats.scan_retries;
            deferred_drains += stats.deferred_drains;
        }
    }
    assert!(
        scan_retries > 0,
        "no engine ever took the skip-and-retry path"
    );
    assert!(
        deferred_drains > 0,
        "VUsion never refilled its pool from the deferred-free queue"
    );
}

/// Satellite: the pressure governor under the OOM-burst ladder. Every
/// engine runs every [`FaultPlan::pressure_ladder`] plan with the
/// governor armed; after every round the full chaos invariant set
/// (`audit_frames`, content oracle, merge security) must still hold —
/// rung executions may drop caches and defer work, never soundness.
/// Across the sweep the governor must actually move: escalations and
/// de-escalations fire, budgets shrink under pressure and recover on a
/// calm tail, rungs fire in ladder order, and the budget-flow identity
/// holds on every single run.
#[test]
fn governor_degrades_gracefully_under_pressure_ladder() {
    let ladder = FaultPlan::pressure_ladder();
    let mut escalations_by_plan: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut total_de_escalations = 0;
    let mut total_shrinks = 0;
    let mut budget_shrank = false;
    let mut budget_recovered = false;
    for (pi, &(plan_name, plan)) in ladder.iter().enumerate() {
        for (ki, kind) in ENGINES.into_iter().enumerate() {
            let seed = 0x90e0_0000 + (pi * 16 + ki) as u64;
            let mut run = ChaosRun::start(kind, plan_name, plan, seed);
            run.sys
                .set_pressure_governor(PressureConfig::standard())
                .expect("standard governor config validates");
            let mut rng = StdRng::seed_from_u64(seed ^ 0x60);
            let mut min_budget = u64::MAX;
            for _ in 0..ROUNDS {
                run.churn(&mut rng);
                run.check();
                min_budget = min_budget.min(run.sys.pressure_governor().budget());
            }
            if min_budget < PressureConfig::standard().budget_max {
                budget_shrank = true;
            }
            // Calm tail: no writes, so no CoW allocations and (almost) no
            // injected failures — the band must cool down and the AIMD
            // budget must climb back from wherever pressure pushed it.
            run.sys.force_scans(24);
            run.check();
            let gov = run.sys.pressure_governor();
            let stats = gov.stats();
            if gov.budget() > min_budget {
                budget_recovered = true;
            }
            // Budget-flow identity, per run: every granted page was either
            // consumed by an engine pass or carried by a parked cursor.
            assert_eq!(
                stats.budget_granted,
                stats.budget_used + stats.budget_carried,
                "{}: budget flow identity broken",
                run.label
            );
            // Ladder order: rung 2 (shrink) and rung 3 (defer) always fire
            // together on a Critical entry, and deferral can only be
            // lifted as often as it was imposed.
            assert_eq!(
                stats.shrink_rungs, stats.defer_rungs,
                "{}: shrink and defer rungs must enter together",
                run.label
            );
            assert!(
                stats.defer_exits <= stats.defer_rungs,
                "{}: more defer exits than entries",
                run.label
            );
            // Drains count consistently: a drain rung that released work
            // is visible in the machine's deferred-drain counter too.
            assert!(
                run.sys.machine.stats().deferred_drains >= stats.drain_rungs_effective,
                "{}: effective drain rungs exceed machine deferred_drains",
                run.label
            );
            *escalations_by_plan.entry(plan_name).or_insert(0) += stats.escalations;
            total_de_escalations += stats.de_escalations;
            total_shrinks += stats.shrink_rungs;
        }
    }
    // The calm plan never escalates; every burst plan escalates somewhere.
    assert_eq!(escalations_by_plan["calm"], 0, "calm plan escalated");
    for &(plan_name, plan) in &ladder {
        if plan.is_active() {
            assert!(
                escalations_by_plan[plan_name] > 0,
                "plan {plan_name} never escalated the governor"
            );
        }
    }
    assert!(total_de_escalations > 0, "the band never cooled back down");
    assert!(total_shrinks > 0, "no run ever reached the shrink rung");
    assert!(budget_shrank, "budgets never shrank under pressure");
    assert!(budget_recovered, "budgets never recovered on the calm tail");
}

/// Hash-cache coherence, raw memory level: after any seeded interleaving
/// of content mutators — `write_byte`, `write_u64`, `write_page`,
/// `copy_page`, `zero_page`, and Rowhammer's `flip_bit` — the memoized
/// `hash_page` / `is_zero` answers always equal a fresh recomputation
/// over the frame's actual bytes. The cache is deliberately populated
/// *before* each mutation so a missed invalidation (a mutator that
/// forgets to bump the write generation) fails loudly rather than being
/// masked by a cold cache. Every other step populates it through the
/// scan pre-hash's batched `hash_stale` instead of `hash_page`.
#[test]
fn hash_cache_stays_coherent_under_raw_mutation() {
    use vusion::mem::{content_hash, FrameId, PhysAddr, PhysMemory};
    const FRAMES: u64 = 32;
    let check = |mem: &PhysMemory, f: FrameId, op: &str, step: u32| {
        let fresh = content_hash(mem.page(f));
        assert_eq!(
            mem.hash_page(f),
            fresh,
            "step {step} ({op}): frame {f:?} served a stale cached hash"
        );
        let zero = mem.page(f).iter().all(|&b| b == 0);
        assert_eq!(
            mem.is_zero(f),
            zero,
            "step {step} ({op}): frame {f:?} served a stale zero bit"
        );
    };
    let mut mem = PhysMemory::new(FRAMES as usize);
    let mut rng = StdRng::seed_from_u64(0x4a5b_c0de);
    for step in 0..2000u32 {
        let f = FrameId(rng.random_range(0..FRAMES));
        // Warm the cache for the victim frame so the assertion below
        // exercises invalidation, not recomputation. The phase flips every
        // six steps, so each mutator meets both warm-up paths.
        if (step + step / 6) % 2 == 0 {
            let _ = mem.hash_page(f);
        } else {
            // 1 to 9 frames, the victim among them. Every frame is warm
            // between steps (each check re-hashes its victim), so the
            // batch is dirtied first; otherwise `hash_stale` would find
            // nothing stale and its four-page lanes would go unexercised.
            let n = rng.random_range(1..=9usize);
            let mut batch: Vec<FrameId> = (0..n)
                .map(|_| FrameId(rng.random_range(0..FRAMES)))
                .collect();
            batch[rng.random_range(0..n)] = f;
            for &g in &batch {
                let at = PhysAddr(g.0 * PAGE_SIZE + rng.random_range(0..PAGE_SIZE));
                mem.write_byte(at, rng.random_range(0..=255u8));
            }
            let mut distinct = batch.clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(
                mem.hash_stale(&batch),
                distinct.len(),
                "step {step}: hash_stale must hash each dirtied frame once"
            );
            for &g in &distinct {
                check(&mem, g, "hash_stale", step);
            }
        }
        let _ = mem.is_zero(f);
        let off = rng.random_range(0..PAGE_SIZE);
        match step % 6 {
            0 => {
                mem.write_byte(PhysAddr(f.0 * PAGE_SIZE + off), rng.random_range(0..=255u8));
                check(&mem, f, "write_byte", step);
            }
            1 => {
                let aligned = off & !7;
                mem.write_u64(
                    PhysAddr(f.0 * PAGE_SIZE + aligned),
                    rng.random_range(0..u64::MAX),
                );
                check(&mem, f, "write_u64", step);
            }
            2 => {
                let mut page = [0u8; PAGE_SIZE as usize];
                for b in page.iter_mut() {
                    *b = rng.random_range(0..4u8);
                }
                mem.write_page(f, &page);
                check(&mem, f, "write_page", step);
            }
            3 => {
                let src = FrameId(rng.random_range(0..FRAMES));
                let _ = mem.hash_page(src);
                mem.copy_page(src, f);
                check(&mem, f, "copy_page dst", step);
                check(&mem, src, "copy_page src", step);
            }
            4 => {
                mem.zero_page(f);
                check(&mem, f, "zero_page", step);
            }
            _ => {
                mem.flip_bit(PhysAddr(f.0 * PAGE_SIZE + off), rng.random_range(0..8u8));
                check(&mem, f, "flip_bit", step);
            }
        }
    }
    // Final full sweep: every frame, not just the last victims.
    for f in 0..FRAMES {
        check(&mem, FrameId(f), "final sweep", 2000);
    }
}

/// Hash-cache coherence, machine level: engines scan (and so populate
/// and consult the per-frame hash cache) while an armed fault plan
/// injects scan corruption and Rowhammer flips bits straight into mapped
/// DRAM between rounds. After every round, every frame's cached hash and
/// zero bit must equal a fresh recomputation — injected flips provably
/// invalidate cached hashes.
#[test]
fn hash_cache_stays_coherent_across_engines_and_injection() {
    use vusion::mem::{content_hash, PhysAddr};
    let plan = FaultPlan {
        alloc_fail_prob: 0.10,
        checksum_corrupt_prob: 0.25,
        scan_bitflip_prob: 0.25,
        ..FaultPlan::NONE
    };
    for (ki, kind) in ENGINES.into_iter().enumerate() {
        let seed = 0x4a5e_0000 + ki as u64;
        let mut run = ChaosRun::start(kind, "hash_coherence", plan, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..ROUNDS {
            run.churn(&mut rng);
            // Rowhammer between scans: flip bits in mapped data frames
            // (templated flips land in page contents, not page tables).
            for _ in 0..8 {
                let p = rng.random_range(0..PROCS);
                let pg = rng.random_range(0..PAGES);
                let va = VirtAddr(BASE + pg * PAGE_SIZE);
                let Some(pa) = run.sys.machine.translate_quiet(run.pids[p], va) else {
                    continue;
                };
                let addr = PhysAddr(pa.frame().0 * PAGE_SIZE + rng.random_range(0..PAGE_SIZE));
                let bit = rng.random_range(0..8u8);
                run.sys.machine.mem_mut().flip_bit(addr, bit);
            }
            // Scans walk the hammered memory through the cached paths.
            run.sys.force_scans(2);
            let mem = run.sys.machine.mem();
            for f in 0..mem.frame_count() as u64 {
                let f = vusion::mem::FrameId(f);
                assert_eq!(
                    mem.hash_page(f),
                    content_hash(mem.page(f)),
                    "{}: frame {f:?} served a stale hash after injection",
                    run.label
                );
                assert_eq!(
                    mem.is_zero(f),
                    mem.page(f).iter().all(|&b| b == 0),
                    "{}: frame {f:?} served a stale zero bit after injection",
                    run.label
                );
            }
        }
    }
}

/// Determinism: the same plan and seed produce the exact same injection
/// counts and the exact same final memory image — chaos failures are
/// reproducible by construction.
#[test]
fn chaos_runs_are_deterministic() {
    let plan = FaultPlan {
        alloc_fail_prob: 0.2,
        checksum_corrupt_prob: 0.2,
        scan_bitflip_prob: 0.2,
        ..FaultPlan::NONE
    };
    for kind in [EngineKind::Ksm, EngineKind::VUsion] {
        let image = || {
            let mut run = ChaosRun::start(kind, "repro", plan, 0x5eed);
            let mut rng = StdRng::seed_from_u64(0x5eed);
            for _ in 0..ROUNDS {
                run.churn(&mut rng);
            }
            let stats = run.sys.machine.stats();
            let mut bytes = Vec::new();
            for (i, &pid) in run.pids.iter().enumerate() {
                for pg in 0..PAGES {
                    let va = VirtAddr(BASE + pg * PAGE_SIZE);
                    let pa = run
                        .sys
                        .machine
                        .translate_quiet(pid, va)
                        .unwrap_or_else(|| panic!("p{i} page {pg} unmapped"));
                    bytes.extend_from_slice(run.sys.machine.mem().page(pa.frame()));
                }
            }
            (stats.injected_faults, stats.oom_events, bytes)
        };
        let a = image();
        let b = image();
        assert_eq!(a.0, b.0, "{kind:?}: injection counts diverged");
        assert_eq!(a.1, b.1, "{kind:?}: OOM counts diverged");
        assert_eq!(a.2, b.2, "{kind:?}: final memory images diverged");
    }
}

/// The oracle-free churn script used by the snapshot/replay tests: same
/// access pattern as [`ChaosRun::churn`], driven purely by the RNG so two
/// systems fed the same seed execute the identical call sequence.
fn churn_script(sys: &mut System<Box<dyn FusionPolicy>>, pids: &[Pid], rng: &mut StdRng) {
    for _ in 0..96 {
        let p = rng.random_range(0..PROCS);
        let pg = rng.random_range(0..PAGES);
        let off = rng.random_range(0..PAGE_SIZE);
        let v = rng.random_range(0..8u8);
        let _ = sys.try_write(pids[p], VirtAddr(BASE + pg * PAGE_SIZE + off), v);
    }
    sys.force_scans(rng.random_range(2..8usize));
}

/// Byte-identical convergence: equal stats, equal frame contents, and —
/// the strongest form — equal serialized system state (clock, RNG
/// streams, engine internals, daemon deadlines included).
fn assert_identical(
    a: &System<Box<dyn FusionPolicy>>,
    b: &System<Box<dyn FusionPolicy>>,
    label: &str,
) {
    assert_eq!(
        a.machine.stats(),
        b.machine.stats(),
        "{label}: machine stats diverge"
    );
    let (ma, mb) = (a.machine.mem(), b.machine.mem());
    assert_eq!(ma.frame_count(), mb.frame_count(), "{label}: frame counts");
    for f in 0..ma.frame_count() {
        let f = FrameId(f as u64);
        assert!(
            ma.page(f) == mb.page(f),
            "{label}: frame {f:?} contents diverge"
        );
    }
    assert_eq!(
        a.snapshot(),
        b.snapshot(),
        "{label}: serialized system state diverges"
    );
}

/// Satellite: snapshot determinism per engine. Freeze a mid-chaos run
/// (fault plan armed and firing), restore the snapshot into a freshly
/// built system, then drive both with the identical script: every
/// subsequent tick must match byte for byte, including the injector RNG
/// streams.
#[test]
fn snapshot_restore_resumes_identically() {
    let plan = FaultPlan {
        alloc_fail_prob: 0.10,
        checksum_corrupt_prob: 0.10,
        scan_bitflip_prob: 0.10,
        ..FaultPlan::NONE
    };
    for (ki, kind) in ENGINES.into_iter().enumerate() {
        let seed = 0x5a40_0000 + ki as u64;
        let mut run = ChaosRun::start(kind, "snapshot", plan, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        run.churn(&mut rng);
        run.churn(&mut rng);
        let frozen = run.sys.snapshot();
        let mut twin = run.kind.build_system(run.cfg);
        twin.restore(&frozen).expect("restore into a fresh system");
        let pids = run.pids.clone();
        let mut ra = StdRng::seed_from_u64(seed ^ 2);
        let mut rb = StdRng::seed_from_u64(seed ^ 2);
        for _ in 0..2 {
            churn_script(&mut run.sys, &pids, &mut ra);
            churn_script(&mut twin, &pids, &mut rb);
        }
        assert_identical(&run.sys, &twin, &run.label);
    }
}

/// The tentpole acceptance sweep: every engine crashes at every site
/// (scan loop, merge, unmerge, re-randomization) at two depths — eight
/// seeded crash points per engine. Three runs per point:
///
/// * **X** (crashed): snapshot, arm the crash plan, churn. Crash branches
///   abandon work mid-flight; X must still pass `audit_frames` and the
///   content oracle — a crash may lose progress, never soundness.
/// * **Z** (control): the identical call script, crash plan never armed.
/// * **Y** (recovered): fresh system + `restore(X's snapshot)` +
///   `replay(X's journal)`. The journal records calls, not outcomes, and
///   crash arming is deliberately not journaled — so Y must converge to
///   **Z** byte-identically: same memory image, same stats, same
///   serialized state.
#[test]
fn crash_recovery_restores_byte_identical_state() {
    let mut fired_by_engine: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (ki, kind) in ENGINES.into_iter().enumerate() {
        for (si, site) in CrashSite::ALL.into_iter().enumerate() {
            for (ai, after) in [0u64, 3].into_iter().enumerate() {
                let seed = 0xc4a5_0000 + (ki * 16 + si * 2 + ai) as u64;
                let cfg = MachineConfig::test_small()
                    .with_seed(seed)
                    .with_crash_plan(CrashPlan::at(site, after));
                let label = format!("{kind:?}/{site:?}+{after}/seed {seed}");

                // X: the crashed run.
                let mut x = ChaosRun::setup(kind.build_system(cfg), kind, cfg, "crash", seed);
                x.arm_crashes();
                let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
                for _ in 0..2 {
                    x.churn(&mut rng);
                }
                *fired_by_engine.entry(kind.label()).or_insert(0) += x.sys.machine.crashes_fired();
                // A crash may abandon a scan's progress but never
                // soundness: accounting and contents must still hold.
                x.check();

                // Z: the identical script, never crashed.
                let mut z = ChaosRun::setup(kind.build_system(cfg), kind, cfg, "control", seed);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
                for _ in 0..2 {
                    z.churn(&mut rng);
                }

                // Y: restore X's base snapshot, replay X's journal,
                // judged against the never-crashed control.
                let mut y = kind.build_system(cfg);
                y.restore(&x.base_snapshot).expect("restore base snapshot");
                y.replay(x.sys.machine.journal());
                assert!(
                    y.machine.audit_frames().is_empty(),
                    "{label}: replayed system fails the frame audit"
                );
                assert_identical(&y, &z.sys, &label);
            }
        }
    }
    // The sweep is not vacuous: every engine actually crashed somewhere
    // (the re-randomization site is VUsion-only, hence the aggregation
    // across sites).
    for kind in ENGINES {
        assert!(
            fired_by_engine.get(kind.label()).copied().unwrap_or(0) > 0,
            "{}: no crash site ever fired",
            kind.label()
        );
    }
}

/// Failure bundles round-trip through disk and reproduce the failing
/// state — including a mid-merge crash, the hardest case: the replay must
/// re-arm the crash plan and re-fire it at the same poll so the replayed
/// digest matches the digest recorded at "failure" time.
#[test]
fn failure_bundles_reproduce_crashed_runs() {
    let dir = std::path::PathBuf::from(format!("bench_logs/repro-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let seed = 0xb0bb;
    let plan = FaultPlan {
        alloc_fail_prob: 0.10,
        checksum_corrupt_prob: 0.10,
        scan_bitflip_prob: 0.10,
        ..FaultPlan::NONE
    };
    let cfg = MachineConfig::test_small()
        .with_seed(seed)
        .with_fault_plan(plan)
        .with_crash_plan(CrashPlan::at(CrashSite::MidMerge, 1));
    let mut run = ChaosRun::setup(
        EngineKind::VUsion.build_system(cfg),
        EngineKind::VUsion,
        cfg,
        "bundle",
        seed,
    );
    run.arm_crashes();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2 {
        run.churn(&mut rng);
    }
    let fired = run.sys.machine.crashes_fired();
    assert!(fired > 0, "the crash plan must fire for this test to bite");

    // Dump as if an assertion had just failed, then reload and replay.
    let bundle = run.bundle("intentional failure (bundle round-trip test)");
    let path = bundle.dump_to(&dir).expect("dump bundle");
    let back = Bundle::load(&path).expect("load bundle");
    assert_eq!(back.seed, bundle.seed);
    assert_eq!(back.journal, bundle.journal, "journal must survive disk");
    assert_eq!(back.digest, bundle.digest);
    assert!(back.crashes_armed);
    let outcome = back.replay().expect("replay bundle");
    assert_eq!(
        outcome.crashes_fired, fired,
        "replay must re-fire the crash at the same poll"
    );
    assert!(
        outcome.reproduced(),
        "replayed digest {:#018x} != recorded {:#018x}",
        outcome.digest_replayed,
        outcome.digest_expected
    );
    assert!(outcome.audit_violations.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bundle directory rotates: a flaky suite cannot fill the disk.
#[test]
fn bundle_rotation_caps_the_repro_directory() {
    let dir = std::path::PathBuf::from(format!("bench_logs/repro-rotate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = MachineConfig::test_small().with_seed(0x0e11);
    let run = ChaosRun::setup(
        EngineKind::Ksm.build_system(cfg),
        EngineKind::Ksm,
        cfg,
        "rotate",
        0x0e11,
    );
    let bundle = run.bundle("rotation test");
    for _ in 0..KEEP_BUNDLES + 3 {
        bundle.dump_to(&dir).expect("dump");
    }
    // Each bundle may ship a `.trace.json` sidecar; rotation removes the
    // pair together, so the directory holds at most KEEP pairs.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("read dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    let bundles = entries
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "vbun"))
        .count();
    assert!(
        bundles <= KEEP_BUNDLES,
        "rotation kept {bundles} bundles, cap is {KEEP_BUNDLES}"
    );
    assert!(
        entries.len() <= 2 * KEEP_BUNDLES,
        "rotation left {} files (cap {} bundle+sidecar pairs)",
        entries.len(),
        KEEP_BUNDLES
    );
    let _ = std::fs::remove_dir_all(&dir);
}
