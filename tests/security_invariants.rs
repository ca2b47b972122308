//! End-to-end security invariants: the Same Behavior and Randomized
//! Allocation principles, checked at the PTE and allocator level (the
//! attack-level checks live in `vusion-attacks`).

use vusion::core::{EngineKind, VUsion, VUsionConfig};
use vusion::obs::latency_bucket;
use vusion::prelude::*;
use vusion::repro::Bundle;
use vusion::stats::ks_test_uniform;

const BASE: u64 = 0x10000;
/// The attacker's memory hog in the Critical-pressure probe: unregistered,
/// so only its frames matter, never its contents.
const HOG_BASE: u64 = 0x4000_0000;
/// Hog pages the probe faults in: enough to take the free-frame signal of
/// a `test_small` machine below the Critical threshold.
const HOG_PAGES: u64 = 3_500;
/// Victim pages in the probe; the attacker guesses the first half right.
const VICTIM_PAGES: u64 = 8;

/// Journal + base snapshot for a test system: any invariant failure dumps
/// a replayable bundle into `bench_logs/repro/` before panicking.
struct Guard {
    kind: EngineKind,
    cfg: MachineConfig,
    base: Vec<u8>,
}

impl Guard {
    fn arm<P: FusionPolicy>(sys: &mut System<P>, kind: EngineKind, cfg: MachineConfig) -> Self {
        sys.machine.enable_journal();
        sys.machine.clear_journal();
        Self {
            kind,
            cfg,
            base: sys.snapshot(),
        }
    }

    fn fail<P: FusionPolicy>(&self, sys: &System<P>, step: &str) -> ! {
        let bundle = Bundle::capture(
            self.kind,
            &self.cfg,
            self.base.clone(),
            sys,
            false,
            "security_invariants",
            step,
        );
        match bundle.dump() {
            Ok(path) => panic!("{step}\n  repro bundle: {}", path.display()),
            Err(e) => panic!("{step}\n  (repro bundle could not be written: {e})"),
        }
    }

    /// `assert!` that leaves a bundle behind on failure.
    fn check<P: FusionPolicy>(&self, sys: &System<P>, cond: bool, step: &str) {
        if !cond {
            self.fail(sys, step);
        }
    }
}

fn vusion_system(pool: usize) -> (System<VUsion>, Pid, Pid, Guard) {
    let cfg = MachineConfig::test_small();
    let mut m = Machine::new(cfg);
    let a = m.spawn("a").expect("spawn");
    let b = m.spawn("b").expect("spawn");
    for pid in [a, b] {
        m.mmap(pid, Vma::anon(VirtAddr(BASE), 64, Protection::rw()));
        m.madvise_mergeable(pid, VirtAddr(BASE), 64);
    }
    let policy = VUsion::new(
        &mut m,
        VUsionConfig {
            pool_frames: pool,
            ..Default::default()
        },
    );
    let mut sys = System::new(m, policy);
    let guard = Guard::arm(&mut sys, EngineKind::VUsion, cfg);
    (sys, a, b, guard)
}

fn page(fill: u8) -> [u8; PAGE_SIZE as usize] {
    let mut p = [fill; PAGE_SIZE as usize];
    p[0] = fill.wrapping_add(1);
    p
}

/// SB at the PTE level: after a scan pass, *every* page that was considered
/// carries byte-identical flag bits — there is no PTE-visible difference
/// between really-merged and fake-merged pages.
#[test]
fn sb_ptes_are_flagwise_identical() {
    let (mut sys, a, b, guard) = vusion_system(256);
    // Pages 0..8: duplicates (will merge). Pages 8..16: unique (fake merge).
    for i in 0..8u64 {
        sys.write_page(a, VirtAddr(BASE + i * PAGE_SIZE), &page(i as u8 + 1));
        sys.write_page(b, VirtAddr(BASE + i * PAGE_SIZE), &page(i as u8 + 1));
    }
    for i in 8..16u64 {
        sys.write_page(a, VirtAddr(BASE + i * PAGE_SIZE), &page(i as u8 + 100));
    }
    sys.force_scans(16);
    let flags: Vec<PteFlags> = (0..16u64)
        .map(|i| {
            sys.machine
                .leaf(a, VirtAddr(BASE + i * PAGE_SIZE))
                .expect("mapped")
                .pte
                .flags()
        })
        .collect();
    guard.check(
        &sys,
        flags.windows(2).all(|w| w[0] == w[1]),
        &format!("PTE flags must be indistinguishable across merged/fake-merged pages: {flags:?}"),
    );
    // And they are all trapped + uncacheable.
    let leaf = sys.machine.leaf(a, VirtAddr(BASE)).expect("mapped");
    guard.check(
        &sys,
        leaf.pte.is_trapped(),
        "considered page is not trapped",
    );
    guard.check(
        &sys,
        leaf.pte.has(PteFlags::NO_CACHE),
        "considered page is cacheable despite PCD",
    );
}

/// SB: prefetch must not load any considered page into the cache (the PCD
/// bit), merged or not.
#[test]
fn sb_prefetch_is_inert_on_considered_pages() {
    let (mut sys, a, b, guard) = vusion_system(256);
    sys.write_page(a, VirtAddr(BASE), &page(1));
    sys.write_page(b, VirtAddr(BASE), &page(1)); // Merged.
    sys.write_page(a, VirtAddr(BASE + PAGE_SIZE), &page(2)); // Fake merged.
    sys.force_scans(16);
    for i in 0..2u64 {
        let va = VirtAddr(BASE + i * PAGE_SIZE);
        let pa = sys.machine.translate_quiet(a, va).expect("mapped");
        sys.machine.llc_mut().flush_frame(pa.frame());
        assert!(!sys.machine.llc().contains(pa));
        sys.prefetch(a, va);
        guard.check(
            &sys,
            !sys.machine.llc().contains(pa),
            &format!("prefetch leaked page {i} into the cache despite PCD"),
        );
    }
}

/// RA: the frames backing (fake-)merged pages never coincide with either
/// party's original frame, and the choices pass a uniformity test.
#[test]
fn ra_backing_frames_are_random_and_foreign() {
    let (mut sys, a, b, guard) = vusion_system(512);
    let mut originals = Vec::new();
    for i in 0..48u64 {
        let va = VirtAddr(BASE + i * PAGE_SIZE);
        sys.write_page(a, va, &page(i as u8));
        sys.write_page(b, va, &page(i as u8));
        originals.push((
            sys.machine.translate_quiet(a, va).expect("mapped").frame(),
            sys.machine.translate_quiet(b, va).expect("mapped").frame(),
        ));
    }
    sys.force_scans(30);
    // The invariant Flip Feng Shui cares about: the fused copy of page `i`
    // is never backed by either of page `i`'s own parties' frames (KSM
    // merges in place; VUsion never does). Released originals may re-enter
    // the random pool and back *unrelated* pages — that reuse is uniform
    // at probability 1/pool, which the KS test below checks.
    for (i, &(fa, fb)) in originals.iter().enumerate() {
        let va = VirtAddr(BASE + i as u64 * PAGE_SIZE);
        let f = sys.machine.translate_quiet(a, va).expect("mapped").frame();
        guard.check(
            &sys,
            f != fa,
            &format!("page {i} merged in place onto a's frame"),
        );
        guard.check(
            &sys,
            f != fb,
            &format!("page {i} merged in place onto b's frame"),
        );
    }
    // Uniformity of the RA trace.
    let trace: Vec<f64> = sys.policy.ra_trace().iter().map(|&f| f as f64).collect();
    assert!(trace.len() >= 48);
    let lo = trace.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = trace.iter().copied().fold(f64::NEG_INFINITY, f64::max) + 1.0;
    let ks = ks_test_uniform(&trace, lo, hi);
    guard.check(
        &sys,
        ks.same_distribution(0.01),
        &format!("RA trace not uniform: p = {}", ks.p_value),
    );
}

/// The contrast that motivates RA: KSM's unmerge allocations are instantly
/// predictable (LIFO buddy reuse).
#[test]
fn ksm_unmerge_allocation_is_predictable() {
    let cfg = MachineConfig::test_small();
    let mut sys = EngineKind::Ksm.build_system(cfg);
    // Armed before setup: the journal covers spawn/mmap/madvise too.
    let guard = Guard::arm(&mut sys, EngineKind::Ksm, cfg);
    let a = sys.machine.spawn("a").expect("spawn");
    let b = sys.machine.spawn("b").expect("spawn");
    for pid in [a, b] {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), 8, Protection::rw()));
        sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 8);
    }
    sys.write_page(a, VirtAddr(BASE), &page(3));
    sys.write_page(b, VirtAddr(BASE), &page(3));
    let frame_b = sys
        .machine
        .translate_quiet(b, VirtAddr(BASE))
        .expect("mapped")
        .frame();
    sys.force_scans(16);
    // b's duplicate frame went back to the buddy allocator; the very next
    // allocation (b's own CoW) gets it straight back — LIFO predictability.
    sys.write(b, VirtAddr(BASE), 9);
    let frame_after = sys
        .machine
        .translate_quiet(b, VirtAddr(BASE))
        .expect("mapped")
        .frame();
    guard.check(
        &sys,
        frame_after == frame_b,
        "buddy LIFO reuse is the predictable behavior RA fixes",
    );
}

/// SB timing, end to end: merged and fake-merged pages fault with the same
/// distribution even when measured through the public API.
#[test]
fn sb_fault_timing_indistinguishable() {
    let (mut sys, a, b, guard) = vusion_system(512);
    const N: u64 = 60;
    for i in 0..N {
        let va = VirtAddr(BASE + i * PAGE_SIZE);
        sys.write_page(a, va, &page(i as u8));
        if i % 2 == 0 {
            sys.write_page(b, va, &page(i as u8)); // Even pages merge.
        }
    }
    sys.force_scans(24);
    let mut merged = Vec::new();
    let mut fake = Vec::new();
    for i in 0..N {
        let va = VirtAddr(BASE + i * PAGE_SIZE);
        let t0 = sys.machine.now_ns();
        sys.read(a, va);
        let dt = (sys.machine.now_ns() - t0) as f64;
        if i % 2 == 0 {
            merged.push(dt);
        } else {
            fake.push(dt);
        }
    }
    let ks = vusion::stats::ks_two_sample(&merged, &fake);
    guard.check(
        &sys,
        ks.same_distribution(0.05),
        &format!("SB violated end-to-end: p = {}", ks.p_value),
    );
}

/// The Critical-pressure probe, up to the scans that decide its guesses.
/// At Nominal, a victim's pages enter VUsion's content tree as fake
/// merges; then an attacker faults in a memory hog that drives the
/// governor to Critical, and writes four right and four wrong guesses of
/// the victim's pages into a mergeable VMA of its own. Returns the system
/// (band Critical), the attacker, the guess addresses (right ones first)
/// and the guard.
fn critical_probe() -> (System<VUsion>, Pid, Vec<VirtAddr>, Guard) {
    let cfg = MachineConfig::test_small();
    let mut m = Machine::new(cfg);
    let victim = m.spawn("victim").expect("spawn");
    let attacker = m.spawn("attacker").expect("spawn");
    for pid in [victim, attacker] {
        m.mmap(
            pid,
            Vma::anon(VirtAddr(BASE), VICTIM_PAGES, Protection::rw()),
        );
        m.madvise_mergeable(pid, VirtAddr(BASE), VICTIM_PAGES);
    }
    m.mmap(
        attacker,
        Vma::anon(VirtAddr(HOG_BASE), HOG_PAGES, Protection::rw()),
    );
    let policy = VUsion::new(
        &mut m,
        VUsionConfig {
            pool_frames: 256,
            ..Default::default()
        },
    );
    let mut sys = System::new(m, policy);
    sys.set_pressure_governor(PressureConfig::standard())
        .expect("standard governor config validates");
    let guard = Guard::arm(&mut sys, EngineKind::VUsion, cfg);
    let victim_page = |i: u64| page(i as u8 + 10);
    for i in 0..VICTIM_PAGES {
        sys.write_page(victim, VirtAddr(BASE + i * PAGE_SIZE), &victim_page(i));
    }
    sys.force_scans(4);
    guard.check(
        &sys,
        sys.pressure_governor().band() == PressureBand::Nominal,
        "the victim's pages must be fused at Nominal",
    );
    guard.check(
        &sys,
        (0..VICTIM_PAGES).all(|i| {
            sys.policy
                .is_managed(&sys.machine, victim, VirtAddr(BASE + i * PAGE_SIZE))
        }),
        "every victim page must be in the content tree before the hog",
    );
    for i in 0..HOG_PAGES {
        sys.write(attacker, VirtAddr(HOG_BASE + i * PAGE_SIZE), 1);
    }
    let guesses: Vec<VirtAddr> = (0..VICTIM_PAGES)
        .map(|i| VirtAddr(BASE + i * PAGE_SIZE))
        .collect();
    for (i, &va) in guesses.iter().enumerate() {
        let i = i as u64;
        let content = if i < VICTIM_PAGES / 2 {
            victim_page(i)
        } else {
            page(i as u8 + 200)
        };
        sys.write_page(attacker, va, &content);
    }
    sys.force_scans(1);
    guard.check(
        &sys,
        sys.pressure_governor().band() == PressureBand::Critical,
        &format!(
            "the hog must drive the governor to Critical, got {:?}",
            sys.pressure_governor().band()
        ),
    );
    (sys, attacker, guesses, guard)
}

/// SB under memory pressure: at Critical, rung 3 defers VUsion's merge
/// decision before the content-tree lookup, so a right guess of a victim
/// page and a wrong one end up in the same state and read in the same
/// time. Fused frames keep being rerandomized at Critical (RA).
#[test]
fn sb_holds_at_critical_pressure() {
    let (mut sys, attacker, guesses, guard) = critical_probe();
    let rerandomized = sys.policy.stats().rerandomized;
    sys.force_scans(400);
    guard.check(
        &sys,
        sys.pressure_governor().band() == PressureBand::Critical,
        "the probe must stay at Critical while its guesses are scanned",
    );
    let managed: Vec<bool> = guesses
        .iter()
        .map(|&va| sys.policy.is_managed(&sys.machine, attacker, va))
        .collect();
    guard.check(
        &sys,
        managed.windows(2).all(|w| w[0] == w[1]),
        &format!("right and wrong guesses differ in management at Critical: {managed:?}"),
    );
    let mut first_reads = Vec::new();
    for &va in &guesses {
        let t0 = sys.machine.now_ns();
        sys.read(attacker, va);
        first_reads.push(sys.machine.now_ns() - t0);
    }
    guard.check(
        &sys,
        first_reads
            .windows(2)
            .all(|w| latency_bucket(w[0]) == latency_bucket(w[1])),
        &format!("right and wrong guesses read in different times at Critical: {first_reads:?} ns"),
    );
    guard.check(
        &sys,
        sys.policy.stats().rerandomized > rerandomized,
        "fused frames must keep being rerandomized at Critical",
    );
}

/// A snapshot taken at Critical restores into a fresh system that scans
/// on exactly like the original: the rung-3 state travels as the
/// governor's band, the only copy there is.
#[test]
fn restore_at_critical_resumes_identically() {
    let (mut sys, _, _, guard) = critical_probe();
    let snapshot = sys.snapshot();
    let cfg = MachineConfig::test_small();
    let mut m = Machine::new(cfg);
    let policy = VUsion::new(&mut m, VUsionConfig::default());
    let mut restored = System::new(m, policy);
    restored.restore(&snapshot).expect("restore");
    guard.check(
        &restored,
        restored.pressure_governor().band() == PressureBand::Critical,
        "the restored governor must be at Critical",
    );
    sys.force_scans(50);
    restored.force_scans(50);
    guard.check(
        &restored,
        restored.machine.stats().scan == sys.machine.stats().scan,
        "scan totals diverged after restoring at Critical",
    );
    guard.check(
        &restored,
        restored.snapshot() == sys.snapshot(),
        "system state diverged after restoring at Critical",
    );
}
