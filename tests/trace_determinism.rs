//! Determinism of the observability layer: with a fixed seed and
//! workload, the trace ring buffer and the metrics snapshot must be
//! byte-identical across independent runs, and across a
//! snapshot/restore + journal-replay boundary. Timestamps come from the
//! simulated clock and ordering from the tracer's sequence counter, so
//! any wall-clock or iteration-order leak shows up here as a byte diff.

use vusion::mem::FrameAllocator;
use vusion::prelude::*;
use vusion::repro::Bundle;
use vusion_rng::rngs::StdRng;
use vusion_rng::{RngExt, SeedableRng};
use vusion_snapshot::fnv1a64;

const BASE: u64 = 0x40000;
const PAGES: u64 = 32;

/// Builds a traced system and drives the standard mixed workload:
/// duplicate writes, scans, then reads and partial writes (CoW + CoA
/// unmerges), then more scans.
fn traced_run(kind: EngineKind, seed: u64) -> (Vec<u8>, String, String, Vec<u8>) {
    let mut sys = kind.build_system(MachineConfig::test_small().with_seed(seed));
    sys.machine.enable_tracing();
    let pids: Vec<Pid> = (0..2)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
        sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
    }
    for &pid in &pids {
        for pg in 0..PAGES {
            sys.write_page(
                pid,
                VirtAddr(BASE + pg * PAGE_SIZE),
                &[(pg % 5) as u8 + 1; PAGE_SIZE as usize],
            );
        }
    }
    sys.force_scans(12);
    for &pid in &pids {
        for pg in 0..PAGES {
            sys.read(pid, VirtAddr(BASE + pg * PAGE_SIZE));
        }
        for pg in 0..PAGES / 2 {
            sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), 0x5a);
        }
    }
    sys.force_scans(12);
    let trace = sys.machine.obs().tracer().export_bytes();
    let chrome = sys.machine.obs().tracer().chrome_trace_json();
    let metrics = sys.metrics_snapshot().to_json();
    let snapshot = sys.snapshot();
    (trace, chrome, metrics, snapshot)
}

/// Same seed + workload ⇒ byte-identical trace buffer, Chrome JSON and
/// metrics snapshot, for every engine.
#[test]
fn identical_runs_produce_identical_artifacts() {
    for kind in [
        EngineKind::NoFusion,
        EngineKind::Ksm,
        EngineKind::Wpf,
        EngineKind::VUsion,
        EngineKind::VUsionThp,
    ] {
        let a = traced_run(kind, 0xfeed);
        let b = traced_run(kind, 0xfeed);
        assert!(!a.0.is_empty(), "{kind:?}: trace must record events");
        assert_eq!(a.0, b.0, "{kind:?}: trace buffers diverged");
        assert_eq!(a.1, b.1, "{kind:?}: Chrome trace JSON diverged");
        assert_eq!(a.2, b.2, "{kind:?}: metrics snapshots diverged");
        assert_eq!(a.3, b.3, "{kind:?}: snapshots diverged");
    }
}

/// A different seed must actually change something (guards against the
/// artifacts being trivially constant).
#[test]
fn different_seed_changes_the_trace() {
    let a = traced_run(EngineKind::VUsion, 1);
    let b = traced_run(EngineKind::VUsion, 2);
    assert_ne!(
        a.0, b.0,
        "VUsion trace must depend on the seed (rerandomization)"
    );
}

/// Drives the post-snapshot phase of the restore/replay test. Everything
/// here is journaled in the live run and re-executed by `System::replay`.
fn phase2<P: FusionPolicy>(sys: &mut System<P>, pids: &[Pid]) {
    for &pid in pids {
        for pg in 0..PAGES {
            sys.write_page(
                pid,
                VirtAddr(BASE + pg * PAGE_SIZE),
                &[7u8; PAGE_SIZE as usize],
            );
        }
    }
    sys.force_scans(10);
    for &pid in pids {
        for pg in 0..PAGES {
            sys.read(pid, VirtAddr(BASE + pg * PAGE_SIZE));
        }
    }
    sys.force_scans(5);
}

/// The trace of the live post-snapshot phase must equal the trace of the
/// same phase re-executed via restore + journal replay: observability is
/// part of the replay contract, not a bystander.
#[test]
fn trace_survives_snapshot_restore_replay() {
    for kind in [EngineKind::Ksm, EngineKind::VUsion] {
        // Live run: set up, snapshot, then a traced phase 2.
        let cfg = MachineConfig::test_small().with_seed(0xabcd);
        let mut sys = kind.build_system(cfg);
        let pids: Vec<Pid> = (0..2)
            .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
            .collect();
        for &pid in &pids {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
        }
        for &pid in &pids {
            for pg in 0..PAGES {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[3u8; PAGE_SIZE as usize],
                );
            }
        }
        sys.force_scans(8);
        sys.machine.enable_journal();
        sys.machine.clear_journal();
        let snapshot = sys.snapshot();
        // Trace exactly the delta after the snapshot.
        sys.machine.enable_tracing();
        phase2(&mut sys, &pids);
        let live_trace = sys.machine.obs().tracer().export_bytes();
        let live_metrics = sys.machine.obs().metrics().snapshot().to_json();
        let journal = sys.machine.journal().to_vec();
        assert!(!live_trace.is_empty(), "{kind:?}: phase 2 must trace");

        // Replayed run: fresh system, restore, trace, replay the journal.
        let mut replayed = kind.build_system(cfg);
        replayed.restore(&snapshot).expect("restore");
        replayed.machine.enable_tracing();
        replayed.replay(&journal);
        let replay_trace = replayed.machine.obs().tracer().export_bytes();
        let replay_metrics = replayed.machine.obs().metrics().snapshot().to_json();
        assert_eq!(
            live_trace, replay_trace,
            "{kind:?}: trace diverged across snapshot/restore + replay"
        );
        assert_eq!(
            live_metrics, replay_metrics,
            "{kind:?}: registry metrics diverged across snapshot/restore + replay"
        );
    }
}

/// A tight governor for determinism runs: small budgets so passes
/// genuinely suspend, standard thresholds otherwise.
fn tight_governor() -> PressureConfig {
    PressureConfig {
        budget_min: 4,
        budget_max: 16,
        budget_add: 4,
        ..PressureConfig::standard()
    }
}

/// Eats frames with a dedicated hog process until free memory sits just
/// under the governor's Elevated threshold, so the free-memory signal
/// (not only injected OOMs) drives escalation. Deterministic: the loop
/// is a pure function of machine state.
fn hog_memory<P: FusionPolicy>(sys: &mut System<P>) {
    let hog = sys.machine.spawn("hog").expect("spawn hog");
    sys.machine
        .mmap(hog, Vma::anon(VirtAddr(BASE), 3500, Protection::rw()));
    let total = sys.machine.config().frames - sys.machine.config().reserved_top_frames;
    let mut pg = 0u64;
    while sys.machine.buddy().free_frames() as u64 * 1000 / total >= 220 {
        sys.write_page(
            hog,
            VirtAddr(BASE + pg * PAGE_SIZE),
            &[0xaa; PAGE_SIZE as usize],
        );
        pg += 1;
    }
}

/// Like [`traced_run`], with the pressure governor armed over an
/// OOM-burst fault plan: escalations, rung executions, throttled budgets
/// and suspended cursors are all part of the run.
fn governed_run(kind: EngineKind, seed: u64) -> (Vec<u8>, String, String, Vec<u8>) {
    let plan = FaultPlan {
        alloc_every_nth: 3,
        alloc_fail_prob: 0.25,
        ..FaultPlan::NONE
    };
    let mut sys = kind.build_system(
        MachineConfig::test_small()
            .with_seed(seed)
            .with_fault_plan(plan),
    );
    sys.set_pressure_governor(tight_governor())
        .expect("tight governor config validates");
    sys.machine.enable_tracing();
    let pids: Vec<Pid> = (0..2)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
        sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
    }
    for &pid in &pids {
        for pg in 0..PAGES {
            sys.write_page(
                pid,
                VirtAddr(BASE + pg * PAGE_SIZE),
                &[(pg % 5) as u8 + 1; PAGE_SIZE as usize],
            );
        }
    }
    hog_memory(&mut sys);
    sys.machine.arm_faults();
    sys.force_scans(9);
    for &pid in &pids {
        for pg in 0..PAGES {
            sys.read(pid, VirtAddr(BASE + pg * PAGE_SIZE));
        }
        for pg in 0..PAGES / 2 {
            sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), 0x5a);
        }
    }
    sys.force_scans(9);
    let trace = sys.machine.obs().tracer().export_bytes();
    let chrome = sys.machine.obs().tracer().chrome_trace_json();
    let metrics = sys.metrics_snapshot().to_json();
    let snapshot = sys.snapshot();
    (trace, chrome, metrics, snapshot)
}

/// Governor-active determinism: escalations, rung spans, throttled scan
/// budgets and parked cursors must all be byte-identical across repeat
/// runs.
#[test]
fn governed_artifacts_identical_across_runs() {
    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let one = governed_run(kind, 0x6e55);
        assert!(!one.0.is_empty(), "{kind:?}: governed run must trace");
        assert!(
            one.1.contains("pressure_escalation"),
            "{kind:?}: governed run never escalated — the sweep is vacuous"
        );
        assert!(
            one.2.contains("\"pressure.samples\""),
            "{kind:?}: enabled governor must fold pressure.* metrics"
        );
        let again = governed_run(kind, 0x6e55);
        assert_eq!(one, again, "{kind:?}: repeat governed runs diverged");
    }
}

/// A disabled governor is invisible: no `pressure.*` metric keys, no
/// pressure trace events, and byte-identical artifacts to a build that
/// never heard of the governor (zero-cost-when-off).
#[test]
fn disabled_governor_records_no_pressure_artifacts() {
    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let (trace, chrome, metrics, _) = traced_run(kind, 0x0ff0);
        assert!(!trace.is_empty(), "{kind:?}: run must trace");
        assert!(
            !chrome.contains("pressure"),
            "{kind:?}: disabled governor leaked trace events"
        );
        assert!(
            !metrics.contains("pressure."),
            "{kind:?}: disabled governor leaked pressure.* metrics"
        );
    }
}

/// Restore + replay across a snapshot taken mid-escalation, with a scan
/// pass suspended on a parked cursor: the governor band, the AIMD budget,
/// and the engine's in-flight pass state all travel through the snapshot,
/// so the replayed delta must trace and meter byte-identically.
#[test]
fn governed_trace_survives_restore_replay_mid_escalation() {
    let plan = FaultPlan {
        alloc_every_nth: 3,
        alloc_fail_prob: 0.25,
        ..FaultPlan::NONE
    };
    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let cfg = MachineConfig::test_small()
            .with_seed(0x6e5d)
            .with_fault_plan(plan);
        let mut sys = kind.build_system(cfg);
        sys.set_pressure_governor(tight_governor())
            .expect("tight governor config validates");
        let pids: Vec<Pid> = (0..2)
            .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
            .collect();
        for &pid in &pids {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
        }
        for &pid in &pids {
            for pg in 0..PAGES {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[3u8; PAGE_SIZE as usize],
                );
            }
        }
        hog_memory(&mut sys);
        sys.machine.arm_faults();
        // Push the band up and suspend a pass: budgets of at most 16
        // against the full candidate set cannot finish a staged pass in
        // one wake.
        for &pid in &pids {
            for pg in 0..PAGES {
                sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), 0x11);
            }
        }
        sys.force_scans(3);
        assert_ne!(
            sys.pressure_governor().band(),
            PressureBand::Nominal,
            "{kind:?}: snapshot must be taken mid-escalation"
        );
        if matches!(kind, EngineKind::Wpf) {
            // The staged pass is provably mid-flight: pages were hashed
            // under budget, but the merge stage (which only runs once the
            // whole candidate set is hashed) has not executed — the
            // snapshot below therefore carries a parked cursor, and the
            // byte-identical replay proves it traveled.
            let t = sys.machine.stats().scan;
            assert!(t.pages_scanned > 0, "WPF hashed nothing before snapshot");
            assert_eq!(
                t.pages_merged, 0,
                "WPF completed a pass early; snapshot is not mid-pass"
            );
        }
        sys.machine.enable_journal();
        sys.machine.clear_journal();
        let snapshot = sys.snapshot();
        sys.machine.enable_tracing();
        phase2(&mut sys, &pids);
        let live_trace = sys.machine.obs().tracer().export_bytes();
        let live_metrics = sys.machine.obs().metrics().snapshot().to_json();
        let journal = sys.machine.journal().to_vec();
        assert!(!live_trace.is_empty(), "{kind:?}: phase 2 must trace");

        let mut replayed = kind.build_system(cfg);
        replayed.restore(&snapshot).expect("restore");
        replayed.machine.enable_tracing();
        replayed.replay(&journal);
        let replay_trace = replayed.machine.obs().tracer().export_bytes();
        let replay_metrics = replayed.machine.obs().metrics().snapshot().to_json();
        assert_eq!(
            live_trace, replay_trace,
            "{kind:?}: governed trace diverged across restore + replay"
        );
        assert_eq!(
            live_metrics, replay_metrics,
            "{kind:?}: governed metrics diverged across restore + replay"
        );
    }
}

/// Like [`traced_run`], with the side-channel surface recorder armed:
/// returns the canonical surface JSON artifact and the metrics snapshot.
fn surfaced_run(kind: EngineKind, seed: u64) -> (String, String) {
    let mut sys = kind.build_system(MachineConfig::test_small().with_seed(seed));
    sys.machine.enable_tracing();
    sys.machine.enable_surface();
    let pids: Vec<Pid> = (0..2)
        .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
        .collect();
    for &pid in &pids {
        sys.machine
            .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
        sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
    }
    for &pid in &pids {
        for pg in 0..PAGES {
            sys.write_page(
                pid,
                VirtAddr(BASE + pg * PAGE_SIZE),
                &[(pg % 5) as u8 + 1; PAGE_SIZE as usize],
            );
        }
    }
    sys.force_scans(12);
    for &pid in &pids {
        for pg in 0..PAGES {
            sys.read(pid, VirtAddr(BASE + pg * PAGE_SIZE));
        }
        for pg in 0..PAGES / 2 {
            sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), 0x5a);
        }
    }
    sys.force_scans(12);
    (sys.surface_json(), sys.metrics_snapshot().to_json())
}

/// The surface artifact is a canonical byte string: identical across
/// repeat runs for every engine, and it actually records
/// fault/transition activity.
#[test]
fn surface_artifact_identical_across_runs() {
    for kind in [
        EngineKind::NoFusion,
        EngineKind::Ksm,
        EngineKind::Wpf,
        EngineKind::VUsion,
        EngineKind::VUsionThp,
    ] {
        let (surface, metrics) = surfaced_run(kind, 0xfeed);
        assert!(
            surface.starts_with("{\"schema\":\"vusion-surface/v1\""),
            "{kind:?}: surface JSON missing schema header"
        );
        assert!(
            metrics.contains("surface.fault."),
            "{kind:?}: surfaced run must fold surface.* metrics"
        );
        let again = surfaced_run(kind, 0xfeed);
        assert_eq!(surface, again.0, "{kind:?}: repeat surface runs diverged");
        assert_eq!(
            metrics, again.1,
            "{kind:?}: repeat surface metrics diverged"
        );
    }
}

/// A run that never enables the surface recorder must leave no trace of
/// it in any artifact: no `surface.*` metrics keys even with tracing on.
#[test]
fn disabled_surface_records_no_artifacts() {
    for kind in [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion] {
        let (trace, _, metrics, _) = traced_run(kind, 0x0ff0);
        assert!(!trace.is_empty(), "{kind:?}: run must trace");
        assert!(
            !metrics.contains("surface."),
            "{kind:?}: disabled surface recorder leaked surface.* metrics"
        );
    }
}

/// The surface of the live post-snapshot phase must equal the surface of
/// the same phase re-executed via restore + journal replay — the
/// recorder observes only replayed machine events, so it is part of the
/// replay contract too.
#[test]
fn surface_survives_snapshot_restore_replay() {
    for kind in [EngineKind::Ksm, EngineKind::VUsion] {
        let cfg = MachineConfig::test_small().with_seed(0xabcd);
        let mut sys = kind.build_system(cfg);
        let pids: Vec<Pid> = (0..2)
            .map(|i| sys.machine.spawn(&format!("p{i}")).expect("spawn"))
            .collect();
        for &pid in &pids {
            sys.machine
                .mmap(pid, Vma::anon(VirtAddr(BASE), PAGES, Protection::rw()));
            sys.machine.madvise_mergeable(pid, VirtAddr(BASE), PAGES);
        }
        for &pid in &pids {
            for pg in 0..PAGES {
                sys.write_page(
                    pid,
                    VirtAddr(BASE + pg * PAGE_SIZE),
                    &[3u8; PAGE_SIZE as usize],
                );
            }
        }
        sys.force_scans(8);
        sys.machine.enable_journal();
        sys.machine.clear_journal();
        let snapshot = sys.snapshot();
        // Record exactly the delta after the snapshot.
        sys.machine.enable_surface();
        phase2(&mut sys, &pids);
        let live_surface = sys.surface_json();
        let journal = sys.machine.journal().to_vec();

        let mut replayed = kind.build_system(cfg);
        replayed.restore(&snapshot).expect("restore");
        replayed.machine.enable_surface();
        replayed.replay(&journal);
        let replay_surface = replayed.surface_json();
        assert_eq!(
            live_surface, replay_surface,
            "{kind:?}: surface diverged across snapshot/restore + replay"
        );
    }
}

/// A failure bundle captured from a traced run carries the Chrome trace
/// tail, and it survives the sealed byte roundtrip.
#[test]
fn bundle_attaches_trace_tail() {
    let kind = EngineKind::VUsion;
    let cfg = MachineConfig::test_small().with_seed(0x7777);
    let mut sys = kind.build_system(cfg);
    sys.machine.enable_tracing();
    let pid = sys.machine.spawn("p0").expect("spawn");
    sys.machine
        .mmap(pid, Vma::anon(VirtAddr(BASE), 8, Protection::rw()));
    sys.machine.madvise_mergeable(pid, VirtAddr(BASE), 8);
    sys.machine.enable_journal();
    sys.machine.clear_journal();
    let base = sys.snapshot();
    for pg in 0..8u64 {
        sys.write_page(
            pid,
            VirtAddr(BASE + pg * PAGE_SIZE),
            &[1u8; PAGE_SIZE as usize],
        );
    }
    sys.force_scans(6);
    let bundle = Bundle::capture(kind, &cfg, base, &sys, false, "test", "assert");
    assert!(
        bundle.trace_tail.starts_with("{\"displayTimeUnit\"")
            && bundle.trace_tail.contains("\"traceEvents\":["),
        "bundle must embed Chrome trace JSON, got: {:.60}…",
        bundle.trace_tail
    );
    let roundtrip = Bundle::from_bytes(&bundle.to_bytes()).expect("roundtrip");
    assert_eq!(roundtrip.trace_tail, bundle.trace_tail);
    assert_eq!(roundtrip.digest, bundle.digest);
    // An untraced run attaches nothing.
    let mut quiet = kind.build_system(cfg);
    quiet.machine.enable_journal();
    quiet.machine.clear_journal();
    let qbase = quiet.snapshot();
    let qb = Bundle::capture(kind, &cfg, qbase, &quiet, false, "t", "a");
    assert!(qb.trace_tail.is_empty());
}

/// Pages the access-heavy run touches: more than the 1,536 entries of a
/// process's 4 KiB TLB, so fills evict and the FIFO order is exercised.
const HEAVY_PAGES: u64 = 1792;

/// Touches [`HEAVY_PAGES`] pages of one process (four distinct contents,
/// so the scanner merges), runs a seeded stream of reads and writes with
/// scans before and after it, and seals the system.
fn access_heavy_snapshot(kind: EngineKind) -> Vec<u8> {
    let mut sys = kind.build_system(MachineConfig::test_small().with_seed(0x51de));
    let pid = sys.machine.spawn("heavy").expect("spawn");
    sys.machine.mmap(
        pid,
        Vma::anon(VirtAddr(BASE), HEAVY_PAGES, Protection::rw()),
    );
    sys.machine
        .madvise_mergeable(pid, VirtAddr(BASE), HEAVY_PAGES);
    for pg in 0..HEAVY_PAGES {
        sys.write(pid, VirtAddr(BASE + pg * PAGE_SIZE), (pg % 4) as u8 + 1);
    }
    sys.force_scans(40);
    let mut rng = StdRng::seed_from_u64(0xacce55);
    for _ in 0..20_000 {
        let pg = rng.random_range(0..HEAVY_PAGES);
        let va = VirtAddr(BASE + pg * PAGE_SIZE + rng.random_range(0..64u64) * 64);
        if rng.random_bool(0.25) {
            sys.write(pid, va, rng.random_range(1..5u8));
        } else {
            sys.read(pid, va);
        }
    }
    sys.force_scans(8);
    sys.snapshot()
}

/// The snapshot payload of an access-heavy run is pinned. It carries what
/// the simbench digests do not: each TLB's FIFO order, the LLC's LRU
/// order and the page-table frames' write generations. A change to the
/// host structures of the access path must leave all three as they are.
/// The digest covers the payload inside the seal, so a version bump alone
/// moves nothing. All three values were re-pinned when the content
/// trees became hash-bucket content indexes, which changed only how each
/// engine blob stores its indexes (and dropped KSM's unread stable-node
/// counter, its unstable entries' copy of the node frame and VUsion's two
/// fixed settings): every payload byte before the engine blob, and every
/// blob byte after the indexes, stayed as it was. They were re-pinned
/// again when the scan counts moved onto the machine (`FORMAT_VERSION` 9):
/// decoded field by field, the payloads differ only in the fields its
/// `v9:` line lists, and the moved counts kept their values. And again
/// when fixed settings became constants (`FORMAT_VERSION` 10): each old
/// payload is the new one plus the removed words at their old offsets
/// (the LLC line size, the DRAM row size, the jitter band, KSM's scan
/// period, VUsion's pages per wake and scan period) and an engine-blob
/// length grown by them.
/// Only a deliberate change of simulated behaviour or of the payload
/// layout may re-pin them, and it says why.
#[test]
fn access_heavy_snapshot_bytes_are_pinned() {
    for (kind, pinned) in [
        (EngineKind::Ksm, 0xfba5_3423_49f0_c8dc),
        (EngineKind::Wpf, 0x7034_9993_4600_a43d),
        (EngineKind::VUsion, 0xb192_acfe_b492_9af2),
    ] {
        let snap = access_heavy_snapshot(kind);
        let payload = vusion_snapshot::unseal(&snap).expect("a fresh snapshot unseals");
        let digest = fnv1a64(payload);
        assert_eq!(
            digest, pinned,
            "{kind:?}: payload digest {digest:#018x} differs from the pinned value"
        );
    }
}
