//! Resource accounting across the whole stack: no engine may leak or
//! double-free physical frames, whatever churn it goes through.

use vusion::kernel::{ScanGrant, COSTS};
use vusion::prelude::*;

const BASE: u64 = 0x10000;

/// Total frames accounted for: allocated + free in the buddy + resident in
/// engine pools must equal the machine size. We verify the weaker but
/// sufficient invariant that repeated churn does not monotonically consume
/// memory (a leak) and never double-frees (which would panic).
fn churn(kind: EngineKind) -> Vec<usize> {
    let mut sys = kind.build_system(MachineConfig::test_small());
    let pids: Vec<Pid> = (0..2)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), 32, Protection::rw()));
        sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 32);
    }
    let mut allocated_after_round = Vec::new();
    for round in 0..8u8 {
        // Write identical content (merge bait), scan, then unmerge all by
        // touching everything.
        for &pid in &pids {
            for pg in 0..32u64 {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[round.wrapping_add(1); PAGE_SIZE as usize],
                );
            }
        }
        sys.force_scans(12);
        for &pid in &pids {
            for pg in 0..32u64 {
                sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), round ^ 0x55);
            }
        }
        sys.force_scans(12); // Drain deferred queues etc.
        allocated_after_round.push(sys.machine.allocated_frames());
    }
    allocated_after_round
}

#[test]
fn no_engine_leaks_frames_under_churn() {
    for kind in [
        EngineKind::NoFusion,
        EngineKind::Ksm,
        EngineKind::KsmCoa,
        EngineKind::Wpf,
        EngineKind::VUsion,
        EngineKind::VUsionThp,
    ] {
        let series = churn(kind);
        let first = series[1]; // Round 0 includes warm-up allocations.
        let last = *series.last().expect("rounds");
        assert!(
            last <= first + 8,
            "{kind:?}: allocated frames grew {first} -> {last} across identical churn rounds: {series:?}"
        );
    }
}

#[test]
fn saved_pages_never_exceed_total_duplicates() {
    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let mut sys = kind.build_system(MachineConfig::test_small());
        let a = sys.machine.spawn("a").expect("spawn");
        let b = sys.machine.spawn("b").expect("spawn");
        for pid in [a, b] {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), 16, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 16);
        }
        for pid in [a, b] {
            for pg in 0..16u64 {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[9u8; PAGE_SIZE as usize],
                );
            }
        }
        sys.force_scans(20);
        // 32 identical pages can save at most 31 frames.
        let saved = sys.policy.pages_saved();
        assert!(
            saved <= 31,
            "{kind:?} claims {saved} saved frames from 32 duplicates"
        );
        assert!(saved >= 20, "{kind:?} merged suspiciously little: {saved}");
    }
}

/// Drives a mixed workload (demand faults, merges, unmerges, scans) and
/// returns the system for counter inspection. With `surface` the
/// side-channel recorder is armed from construction, so it observes every
/// fault the machine counts.
fn churn_system(kind: EngineKind, surface: bool) -> System<Box<dyn FusionPolicy>> {
    let mut sys = kind.build_system(MachineConfig::test_small());
    if surface {
        sys.machine.enable_surface();
    }
    let pids: Vec<Pid> = (0..2)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), 48, Protection::rw()));
        sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 48);
    }
    for round in 0..4u8 {
        for &pid in &pids {
            for pg in 0..48u64 {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[round.wrapping_add(1); PAGE_SIZE as usize],
                );
            }
        }
        sys.force_scans(10);
        // Reads and writes: CoA engines trap reads too, CoW only writes.
        for &pid in &pids {
            for pg in 0..48u64 {
                sys.read(pid, VirtAddr(BASE + pg * PAGE_SIZE));
            }
            for pg in 0..24u64 {
                sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), round ^ 0x3c);
            }
        }
        sys.force_scans(10);
    }
    sys
}

/// The fault identities: every hardware fault the machine observes is
/// resolved by exactly one handler (policy, kernel, or none), and every
/// kernel-handled fault performs exactly one fill or copy. A degraded
/// path that forgets a counter (or bumps two) breaks them.
fn check_fault_identities<P: FusionPolicy>(sys: &System<P>, what: &str) {
    let m = sys.machine.stats();
    let s = sys.stats();
    let hw_faults = m.faults_not_mapped + m.faults_trapped + m.faults_write_protected;
    let resolved = s.policy_faults + s.kernel_faults + s.unresolved_faults;
    assert_eq!(
        hw_faults, resolved,
        "{what}: machine saw {hw_faults} faults but handlers accounted {resolved}"
    );
    let kernel_work = m.demand_zero + m.demand_huge + m.demand_file + m.cow_copies;
    assert_eq!(
        s.kernel_faults, kernel_work,
        "{what}: {} kernel-handled faults vs {} fills/copies",
        s.kernel_faults, kernel_work
    );
}

#[test]
fn fault_counter_identities() {
    for kind in [
        EngineKind::NoFusion,
        EngineKind::Ksm,
        EngineKind::KsmCoa,
        EngineKind::KsmZeroOnly,
        EngineKind::Wpf,
        EngineKind::VUsion,
        EngineKind::VUsionThp,
    ] {
        let sys = churn_system(kind, false);
        check_fault_identities(&sys, &format!("{kind:?}"));
        let m = sys.machine.stats();
        let hw_faults = m.faults_not_mapped + m.faults_trapped + m.faults_write_protected;
        assert!(hw_faults > 0, "{kind:?}: workload must fault");
        assert_eq!(
            sys.stats().unresolved_faults,
            0,
            "{kind:?}: workload must resolve"
        );
    }
}

/// The side-channel surface recorder is an accounting mirror of the
/// machine's own fault counters: with the recorder armed from
/// construction, each fault kind's event total equals the corresponding
/// `MachineStats` counter, and the grand total equals what the fault
/// handlers resolved. A hook that misses a path (or records one twice)
/// breaks these identities.
#[test]
fn surface_fault_counts_match_machine_stats() {
    use vusion::kernel::FaultKind;
    for kind in [
        EngineKind::NoFusion,
        EngineKind::Ksm,
        EngineKind::KsmCoa,
        EngineKind::Wpf,
        EngineKind::VUsion,
        EngineKind::VUsionThp,
    ] {
        let sys = churn_system(kind, true);
        let m = sys.machine.stats();
        let s = sys.stats();
        let surf = sys.machine.obs().surface();
        assert_eq!(
            surf.fault_kind_total(FaultKind::Minor),
            m.faults_not_mapped,
            "{kind:?}: minor-fault surface events vs machine counter"
        );
        assert_eq!(
            surf.fault_kind_total(FaultKind::Trap),
            m.faults_trapped,
            "{kind:?}: trap-fault surface events vs machine counter"
        );
        assert_eq!(
            surf.fault_kind_total(FaultKind::CowBreak),
            m.faults_write_protected,
            "{kind:?}: CoW-break surface events vs machine counter"
        );
        assert_eq!(
            surf.fault_event_total(),
            s.policy_faults + s.kernel_faults + s.unresolved_faults,
            "{kind:?}: total surface fault events vs resolved faults"
        );
        assert!(
            surf.fault_event_total() > 0,
            "{kind:?}: surfaced workload must fault"
        );
    }
}

/// The machine's scan counts, as `metrics_snapshot` must report them:
/// every `scan.*` key but the per-shard costs, each with its value.
fn check_scan_keys<P: FusionPolicy>(sys: &System<P>, what: &str) {
    let c = sys.machine.stats().scan;
    let want = [
        ("scan.budget_used", c.pages_scanned),
        ("scan.huge_pages_broken", c.huge_pages_broken),
        ("scan.pages_fake_merged", c.pages_fake_merged),
        ("scan.pages_merged", c.pages_merged),
        ("scan.pages_scanned", c.pages_scanned),
        ("scan.pages_skipped_active", c.pages_skipped_active),
        ("scan.pages_skipped_clean", c.pages_skipped_clean),
        ("scan.pages_unmerged", 0),
    ];
    let snap = sys.metrics_snapshot();
    let got: Vec<(&str, u64)> = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("scan.") && !k.starts_with("scan.shard_cost_ns."))
        .map(|(k, &v)| (k.as_str(), v))
        .collect();
    assert_eq!(got, want, "{what}: metrics vs machine scan counts");
}

/// Every scan entry path counts on the machine alike: timed wakes
/// (`idle`), `force_scans`, direct `FusionPolicy::scan` calls, and a
/// snapshot restored into a fresh system and replayed from its journal.
/// After each path the metrics document reports exactly the machine's
/// counts and the fault identities hold; a direct scan adds exactly the
/// visits it returns; and a restored, replayed run ends with the
/// recorded run's counts.
#[test]
fn scan_counts_hold_on_every_entry_path() {
    const PAGES: u64 = 32;
    /// Two processes whose pages pair up by content, rewritten with a
    /// fresh fill per `round` so every path finds work.
    fn dirty<P: FusionPolicy>(sys: &mut System<P>, round: u8) {
        for pid in [Pid(0), Pid(1)] {
            for pg in 0..PAGES / 2 {
                let fill = [(pg % 7) as u8 + 1 + round * 8; PAGE_SIZE as usize];
                sys.write_page(pid, VirtAddr(BASE + pg * PAGE_SIZE), &fill);
            }
        }
    }
    fn entry_paths<P: FusionPolicy>(
        label: &str,
        build: fn() -> System<P>,
        identity: fn(&System<P>, &str),
    ) {
        let mut sys = build();
        for name in ["a", "b"] {
            let pid = sys.machine.spawn(name).expect("spawn");
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
        }
        let scanned = |sys: &System<P>| sys.machine.stats().scan.pages_scanned;

        // 1. Timed wakes.
        dirty(&mut sys, 0);
        let before = scanned(&sys);
        sys.idle(4 * sys.policy.scan_period_ns());
        assert_eq!(sys.stats().scan_wakeups, 4, "{label}: timed wakes");
        assert!(
            scanned(&sys) > before,
            "{label}: timed wakes scanned nothing"
        );
        check_scan_keys(&sys, &format!("{label} idle"));
        check_fault_identities(&sys, &format!("{label} idle"));
        identity(&sys, label);

        // 2. Forced scans.
        dirty(&mut sys, 1);
        let before = scanned(&sys);
        sys.force_scans(6);
        assert!(
            scanned(&sys) > before,
            "{label}: forced scans scanned nothing"
        );
        check_scan_keys(&sys, &format!("{label} force_scans"));
        check_fault_identities(&sys, &format!("{label} force_scans"));
        identity(&sys, label);

        // 3. Direct calls, which no driver accounts.
        dirty(&mut sys, 2);
        let mut total = 0;
        for _ in 0..4 {
            let before = scanned(&sys);
            let visited = sys.policy.scan(&mut sys.machine, ScanGrant::default());
            assert_eq!(
                scanned(&sys) - before,
                visited,
                "{label}: a direct scan's visits must count"
            );
            total += visited;
        }
        assert!(total > 0, "{label}: direct scans visited nothing");
        check_scan_keys(&sys, &format!("{label} direct scan"));
        check_fault_identities(&sys, &format!("{label} direct scan"));
        identity(&sys, label);

        // 4. Snapshot, restore into a fresh system, replay the journal.
        sys.machine.enable_journal();
        sys.machine.clear_journal();
        let base = sys.snapshot();
        let at_base = sys.machine.stats().scan;
        dirty(&mut sys, 3);
        sys.idle(2 * sys.policy.scan_period_ns());
        sys.force_scans(4);
        let journal = sys.machine.journal().to_vec();
        let mut fresh = build();
        fresh.restore(&base).expect("restore");
        assert_eq!(
            fresh.machine.stats().scan,
            at_base,
            "{label}: the snapshot carries the scan counts"
        );
        fresh.replay(&journal);
        assert_eq!(
            fresh.machine.stats().scan,
            sys.machine.stats().scan,
            "{label}: replayed counts differ from the recorded run's"
        );
        check_scan_keys(&fresh, &format!("{label} restore + replay"));
        check_fault_identities(&fresh, &format!("{label} restore + replay"));
        identity(&fresh, label);

        let c = sys.machine.stats().scan;
        assert!(c.pages_merged > 0, "{label} must merge duplicates: {c:?}");
    }
    entry_paths(
        "KSM",
        || {
            System::new(
                Machine::new(MachineConfig::test_small()),
                Ksm::default_engine(),
            )
        },
        |sys, label| {
            // A promotion fuses the promoted candidate's mapping as well.
            let ks = sys.policy.stats();
            assert_eq!(
                sys.machine.stats().scan.pages_merged,
                ks.merged + ks.promotions,
                "{label}: scan counts vs engine stats {ks:?}"
            );
        },
    );
    entry_paths(
        "WPF",
        || {
            let m = Machine::new(MachineConfig::test_small().with_reserved_top(256));
            let wpf = Wpf::new(&m, WpfConfig::default()).expect("reserved region");
            System::new(m, wpf)
        },
        |_, _| {},
    );
    entry_paths(
        "VUsion",
        || {
            let mut m = Machine::new(MachineConfig::test_small());
            let policy = VUsion::new(
                &mut m,
                VUsionConfig {
                    pool_frames: 1024,
                    ..Default::default()
                },
            );
            System::new(m, policy)
        },
        |sys, label| {
            let c = sys.machine.stats().scan;
            assert!(c.pages_fake_merged > 0, "{label} must fake-merge: {c:?}");
        },
    );
}

/// Governor budget flow: every page the governor grants is either
/// consumed by an engine pass (and then shows up, page for page, in the
/// machine's scan counts) or carried to the next wakeup by a parked
/// cursor — and drain-rung executions that released work are visible in
/// the machine's own deferred-drain counter.
#[test]
fn governor_budget_flow_identities() {
    let plan = FaultPlan {
        alloc_every_nth: 3,
        alloc_fail_prob: 0.25,
        ..FaultPlan::NONE
    };
    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let cfg = MachineConfig::test_small()
            .with_seed(0xacc7)
            .with_fault_plan(plan);
        let mut sys = kind.build_system(cfg);
        // A tight ceiling so passes genuinely run out of budget: WPF's
        // 96-candidate hashing stage must suspend and resume.
        let throttled = PressureConfig {
            budget_min: 4,
            budget_max: 24,
            budget_add: 4,
            ..PressureConfig::standard()
        };
        sys.set_pressure_governor(throttled)
            .expect("throttled governor config validates");
        let pids: Vec<Pid> = (0..2)
            .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
            .collect();
        for &pid in &pids {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), 48, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 48);
        }
        for &pid in &pids {
            for pg in 0..48u64 {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[(pg % 5) as u8 + 1; PAGE_SIZE as usize],
                );
            }
        }
        sys.machine.arm_faults();
        for round in 0..4u8 {
            for &pid in &pids {
                for pg in 0..24u64 {
                    sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), round ^ 0x11);
                }
            }
            sys.force_scans(8);
        }
        let g = sys.pressure_governor().stats();
        let t = sys.machine.stats().scan;
        assert!(g.budget_granted > 0, "{kind:?}: governor granted nothing");
        assert_eq!(
            g.budget_granted,
            g.budget_used + g.budget_carried,
            "{kind:?}: granted != used + carried: {g:?}"
        );
        assert_eq!(
            g.budget_used, t.pages_scanned,
            "{kind:?}: governor-accounted usage diverges from the scan counts"
        );
        if matches!(kind, EngineKind::Wpf) {
            assert!(
                g.budget_carried > 0,
                "WPF's staged pass never suspended under a 24-page ceiling"
            );
        }
        assert!(
            sys.machine.stats().deferred_drains >= g.drain_rungs_effective,
            "{kind:?}: effective drain rungs exceed machine deferred_drains"
        );
    }
}

#[test]
fn memory_returns_after_total_unmerge() {
    for kind in [EngineKind::Ksm, EngineKind::VUsion] {
        let mut sys = kind.build_system(MachineConfig::test_small());
        let a = sys.machine.spawn("a").expect("spawn");
        let b = sys.machine.spawn("b").expect("spawn");
        for pid in [a, b] {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), 16, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 16);
        }
        for pid in [a, b] {
            for pg in 0..16u64 {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[4u8; PAGE_SIZE as usize],
                );
            }
        }
        let full = sys.machine.allocated_frames();
        sys.force_scans(20);
        assert!(
            sys.machine.allocated_frames() < full,
            "{kind:?} reclaimed nothing"
        );
        // Unique writes everywhere unmerge everything.
        for (k, pid) in [a, b].into_iter().enumerate() {
            for pg in 0..16u64 {
                sys.write(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    (k as u8 + 1) * 16 + pg as u8,
                );
            }
        }
        sys.force_scans(20); // Drain deferred frees.
        let back = sys.machine.allocated_frames();
        assert!(
            (back as i64 - full as i64).abs() <= 4,
            "{kind:?}: expected full repopulation, {full} -> {back}"
        );
        assert_eq!(
            sys.policy.pages_saved(),
            0,
            "{kind:?} still counts saved pages"
        );
    }
}

/// Sums of the `scan.shard_cost_ns.{0..7}` counters, one per logical
/// shard, as the metrics snapshot reports them.
fn shard_costs(sys: &System<Ksm>) -> [u64; 8] {
    let snap = sys.metrics_snapshot();
    std::array::from_fn(|l| snap.counters[&format!("scan.shard_cost_ns.{l}")])
}

/// The scan pre-hash charges `64 × llc_hit` for every frame it hashes,
/// split over eight logical shards by hash order (shard `l` owns the
/// frames at positions ≡ l mod 8), and charges nothing when every
/// visited frame's hash is already memoized.
#[test]
fn prehash_charges_each_hashed_frame_once() {
    const N: u64 = 37; // not a multiple of 8: the shard split is uneven
    let mut m = Machine::new(MachineConfig::test_small());
    let pid = m.spawn("p").expect("spawn");
    m.mmap(pid, Vma::anon(VirtAddr(BASE), N, Protection::rw()));
    m.madvise_mergeable(pid, VirtAddr(BASE), N);
    let ksm = Ksm::new(KsmConfig {
        pages_per_scan: 64,
        ..Default::default()
    });
    let mut sys = System::new(m, ksm);
    for pg in 0..N {
        // Unique, non-zero content: every page is a cold, distinct frame.
        sys.write_page(
            pid,
            VirtAddr(BASE + pg * PAGE_SIZE),
            &[pg as u8 + 1; PAGE_SIZE as usize],
        );
    }
    let per_page = 64 * COSTS.llc_hit;
    let before = shard_costs(&sys);
    sys.force_scans(1);
    let after = shard_costs(&sys);
    let added: Vec<u64> = (0..8).map(|l| after[l] - before[l]).collect();
    assert_eq!(added.iter().sum::<u64>(), N * per_page, "one wake's total");
    for (l, &ns) in added.iter().enumerate() {
        let owned = (N - l as u64).div_ceil(8);
        assert_eq!(ns, owned * per_page, "logical shard {l}");
    }
    sys.force_scans(1);
    assert_eq!(shard_costs(&sys), after, "a warm wake must charge nothing");
}
