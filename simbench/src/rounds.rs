//! One round of each workload: set up the systems, run the measured phase,
//! then check the simulated outputs.
//!
//! The benchmark generates every input from its seed up front
//! ([`Inputs::new`]); the simulator receives only those inputs. In a traced
//! round the benchmark wraps a host-time span around each call it makes
//! into a layer's public function; nothing inside the simulator is timed.

use std::collections::BTreeMap;
use std::time::Instant;

use vusion::kernel::{JournalEvent, MachineStats};
use vusion::prelude::*;
use vusion::workloads::cpu_suites::{setup_profile, spec_cpu2006, CpuProfile};
use vusion::workloads::VmHandle;
use vusion_rng::splitmix64;
use vusion_snapshot::fnv1a64;

use crate::spans::{NameId, Spans};
use crate::Workload;

/// A system under any engine.
pub type Sys = System<Box<dyn FusionPolicy>>;

/// Deterministic per-layer counts of a round's measured phase, by name.
pub type Counts = BTreeMap<String, u64>;

/// Engines of `idle_fusion` (the Figure 10/11 shape).
const IDLE_ENGINES: [EngineKind; 3] = [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion];
/// VMs booted per `idle_fusion` system.
const IDLE_VMS: usize = 16;
/// Simulated idle span per engine: covers the cold first passes and the
/// steady state after fusion settles.
const IDLE_SPAN_NS: u64 = 20_000_000_000;

/// Engines of `guest_churn` (the Figure 7 shape, on one THP host).
const CHURN_ENGINES: [EngineKind; 4] = [
    EngineKind::NoFusion,
    EngineKind::Ksm,
    EngineKind::VUsion,
    EngineKind::VUsionThp,
];
const CHURN_VMS: usize = 4;
/// Simulated idle time in set-up during which fusion settles.
const CHURN_SETTLE_NS: u64 = 6_000_000_000;
/// Foreground accesses per engine in the measured phase.
const CHURN_ACCESSES: usize = 400_000;
/// Accesses between scanner wakes: keeps scanner visits per access far
/// below one, as the paper's scan rate does (see `fig07_spec`), and scan
/// wakes a small share of the host time.
const CHURN_CHUNK: usize = 10_000;
/// Where `cpu_suites::setup_profile` maps the benchmark's footprint.
const PROFILE_BASE: u64 = 0xc000_0000;

/// Engines of `traced_replay` (the differential-surface set).
const REPLAY_ENGINES: [EngineKind; 3] = [EngineKind::Ksm, EngineKind::Wpf, EngineKind::VUsion];
const REPLAY_VMS: usize = 3;
/// Recorded accesses per engine.
const REPLAY_ACCESSES: usize = 24_000;
/// Accesses between idle bursts in the recorded phase.
const REPLAY_CHUNK: usize = 3_000;
/// Scanner periods idled after each chunk of recorded accesses.
const REPLAY_IDLE_WAKES: usize = 10;

/// Foreground accesses per lap of the measured phase.
const ACCESS_LAP: usize = 2_000;
/// `idle_fusion` scanner wakes per lap.
const WAKE_LAP: u64 = 10;
/// Replayed journal events per lap.
const REPLAY_LAP: usize = 1_000;

/// The region of a VM an access targets.
#[derive(Debug, Clone, Copy)]
enum Region {
    /// The benchmark profile's footprint (`guest_churn`).
    Profile,
    /// The image's application data.
    App,
    /// The image's guest-buddy pages.
    Buddy,
}

/// One foreground access, resolved against a VM's layout at run time.
#[derive(Debug, Clone, Copy)]
struct Access {
    vm: u8,
    region: Region,
    /// Page index into the region.
    page: u32,
    line: u8,
    write: bool,
    value: u8,
}

/// The benchmark's own input generator: a SplitMix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        splitmix64(&mut self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, p: f64) -> bool {
        ((self.next() >> 11) as f64) < p * (1u64 << 53) as f64
    }
}

/// Everything a run feeds the simulator, generated from the seed.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    images: Vec<ImageSpec>,
    accesses: Vec<Access>,
    profile: CpuProfile,
}

impl Inputs {
    /// Generates a workload's inputs from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng(seed ^ 0x513b_e7c4);
        let profile = spec_cpu2006()
            .into_iter()
            .find(|p| p.name == "mcf")
            .expect("the SPEC profile set has mcf");
        let (images, accesses) = match workload {
            Workload::IdleFusion => {
                // The catalog's images come in a few sizes. Slot i takes an
                // image of the (i mod classes)-th size, chosen by seed, so
                // the seed varies families and contents but never the
                // amount of memory, and a run's work does not depend on it.
                let catalog = ImageCatalog::das4(0xda54);
                let mut classes: BTreeMap<u64, Vec<ImageSpec>> = BTreeMap::new();
                for i in 0..catalog.len() {
                    let spec = catalog.get(i);
                    classes.entry(spec.total_pages()).or_default().push(spec);
                }
                let classes: Vec<Vec<ImageSpec>> = classes.into_values().collect();
                let images = (0..IDLE_VMS)
                    .map(|i| {
                        let class = &classes[i % classes.len()];
                        class[rng.below(class.len() as u64) as usize].scaled(1, 2)
                    })
                    .collect();
                (images, Vec::new())
            }
            Workload::GuestChurn => {
                let family = rng.below(6);
                let images: Vec<ImageSpec> = (0..CHURN_VMS)
                    .map(|_| ImageSpec::small(family, rng.next()))
                    .collect();
                // The stream of `cpu_suites::run_profile` (the Figure 7
                // shape), drawn from the benchmark's seed.
                let accesses = (0..CHURN_ACCESSES)
                    .map(|_| {
                        let span = if rng.chance(profile.cold_frac) {
                            profile.footprint_pages
                        } else {
                            profile.working_set_pages.min(profile.footprint_pages)
                        };
                        let page = rng.below(span);
                        Access {
                            vm: 0,
                            region: Region::Profile,
                            page: page as u32,
                            line: rng.below(PAGE_SIZE / 64) as u8,
                            write: rng.chance(profile.write_frac),
                            value: (page % 251) as u8,
                        }
                    })
                    .collect();
                (images, accesses)
            }
            Workload::TracedReplay => {
                // Distinct families, so every seed fuses the same kinds of
                // pages and only their contents vary.
                let family = rng.below(6);
                let images: Vec<ImageSpec> = (0..REPLAY_VMS as u64)
                    .map(|i| ImageSpec::small((family + i) % 6, rng.next()))
                    .collect();
                let accesses = (0..REPLAY_ACCESSES)
                    .map(|_| {
                        let vm = rng.below(REPLAY_VMS as u64) as usize;
                        let spec = images[vm];
                        let page = rng.below(spec.app_pages + spec.buddy_pages);
                        let (region, page) = if page < spec.app_pages {
                            (Region::App, page)
                        } else {
                            (Region::Buddy, page - spec.app_pages)
                        };
                        Access {
                            vm: vm as u8,
                            region,
                            page: page as u32,
                            line: rng.below(PAGE_SIZE / 64) as u8,
                            write: rng.chance(0.3),
                            value: rng.next() as u8,
                        }
                    })
                    .collect();
                (images, accesses)
            }
        };
        Self {
            workload,
            images,
            accesses,
            profile,
        }
    }

    /// Mean pages one VM boot touches.
    pub fn mean_boot_pages(&self) -> f64 {
        let pages: u64 = self.images.iter().map(|s| s.total_pages()).sum();
        pages as f64 / self.images.len().max(1) as f64
    }
}

/// The virtual address an access targets.
fn target_va(vm: &VmHandle, a: Access) -> VirtAddr {
    let base = match a.region {
        Region::Profile => PROFILE_BASE,
        Region::App => vm.app_base.0,
        Region::Buddy => vm.buddy_base.0,
    };
    VirtAddr(base + u64::from(a.page) * PAGE_SIZE + u64::from(a.line) * 64)
}

/// What a lap of the measured phase timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lap {
    /// Foreground accesses, and the scanner wakes between their chunks.
    Drive,
    /// Replayed journal events.
    Replay,
    /// Anything else: idle scanner wakes, snapshots, restores, exports.
    Other,
}

/// Host time of a round's measured phase, cut into consecutive laps at
/// fixed points of the simulated work. Every round of a run cuts at the
/// same points, so lap `i` of one round times exactly the work of lap `i`
/// of any other.
#[derive(Debug)]
struct Laps {
    last: Instant,
    laps: Vec<(Lap, f64)>,
}

impl Laps {
    fn start() -> Self {
        Self {
            last: Instant::now(),
            laps: Vec::new(),
        }
    }

    /// Ends the current lap, filing it as `kind`, and starts the next.
    fn lap(&mut self, kind: Lap) {
        let now = Instant::now();
        self.laps.push((kind, (now - self.last).as_secs_f64()));
        self.last = now;
    }

    /// Summed host seconds of the laps `keep` accepts.
    fn total(&self, keep: impl Fn(Lap) -> bool) -> f64 {
        self.laps.iter().filter(|l| keep(l.0)).map(|l| l.1).sum()
    }
}

/// What one round measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host seconds of set-up.
    pub setup_s: f64,
    /// Host seconds of the measured phase: the sum of `laps`.
    pub wall_s: f64,
    /// The measured phase's laps, in order: what each timed, host seconds.
    pub laps: Vec<(Lap, f64)>,
    /// Simulated nanoseconds all systems advanced in the measured phase.
    pub sim_ns: u64,
    /// Foreground `System::read`/`write` calls in the measured phase.
    pub accesses: u64,
    /// Journal events replayed.
    pub replay_events: u64,
    /// Scanner wakes the benchmark drove in the measured phase.
    pub wakes: u64,
    /// Output checks made.
    pub checks: u64,
    /// Unresolved faults and fault livelocks in the measured phase.
    pub failed_ops: u64,
    /// Output checks that failed, by description.
    pub failed_checks: Vec<String>,
    /// Digest of every system's simulated statistics at the end.
    pub digest: u64,
    /// Deterministic per-layer counts of the measured phase.
    pub counts: Counts,
    /// `traced_replay` probe: host seconds of the recorded phase with the
    /// simulator's tracer and surface on, and with both off.
    pub record_hooks_s: Option<(f64, f64)>,
}

impl Round {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed_checks.push(what());
        }
    }
}

/// The pinned digest of a workload's simulated statistics at
/// [`crate::DEFAULT_SEED`]. A change that only makes the simulator faster
/// must leave these unchanged.
pub fn pinned_digest(w: Workload) -> u64 {
    match w {
        Workload::IdleFusion => 0x63fc_4106_919d_2cae,
        Workload::GuestChurn => 0x93c4_a13e_ed15_f894,
        Workload::TracedReplay => 0x4692_bbd4_346c_f52e,
    }
}

fn fault_total(s: &MachineStats) -> u64 {
    s.faults_not_mapped + s.faults_trapped + s.faults_write_protected
}

/// Span names of one engine, interned once per round.
struct EngineSpans {
    wake: NameId,
    settle: NameId,
    access: NameId,
    fault_access: NameId,
}

impl EngineSpans {
    fn new(spans: &mut Spans, kind: EngineKind) -> Self {
        let e = kind.slug();
        Self {
            wake: spans.name(&format!("core.{e}.wake")),
            settle: spans.name(&format!("core.{e}.settle")),
            access: spans.name(&format!("kernel.{e}.access")),
            fault_access: spans.name(&format!("kernel.{e}.fault_access")),
        }
    }
}

/// Span names shared by every engine.
struct Names {
    setup: NameId,
    measure: NameId,
    build: NameId,
    build_replay: NameId,
    boot: NameId,
    setup_profile: NameId,
    snapshot_save: NameId,
    snapshot_restore: NameId,
    replay_event: NameId,
    metrics_snapshot: NameId,
    surface_json: NameId,
    trace_export: NameId,
}

impl Names {
    fn new(spans: &mut Spans) -> Self {
        Self {
            setup: spans.name("round.setup"),
            measure: spans.name("round.measure"),
            build: spans.name("kernel.build_system"),
            build_replay: spans.name("kernel.build_system.replay"),
            boot: spans.name("workloads.boot"),
            setup_profile: spans.name("workloads.setup_profile"),
            snapshot_save: spans.name("snapshot.save"),
            snapshot_restore: spans.name("snapshot.restore"),
            replay_event: spans.name("kernel.replay_event"),
            metrics_snapshot: spans.name("obs.metrics_snapshot"),
            surface_json: spans.name("obs.surface_json"),
            trace_export: spans.name("obs.trace_export"),
        }
    }
}

/// One system of a round with its VMs.
struct Engine {
    kind: EngineKind,
    sys: Sys,
    vms: Vec<VmHandle>,
    names: EngineSpans,
}

/// The machine configuration of a workload's systems.
fn machine_config(w: Workload) -> MachineConfig {
    match w {
        Workload::GuestChurn => MachineConfig::guest_2g_scaled().with_thp(),
        _ => MachineConfig::guest_2g_scaled(),
    }
}

/// The engines a workload runs, one system each.
pub fn engines_of(w: Workload) -> &'static [EngineKind] {
    match w {
        Workload::IdleFusion => &IDLE_ENGINES,
        Workload::GuestChurn => &CHURN_ENGINES,
        Workload::TracedReplay => &REPLAY_ENGINES,
    }
}

fn build(w: Workload, kind: EngineKind, spans: &mut Spans, name: NameId, hooks: bool) -> Sys {
    spans.begin(name);
    let mut sys = kind.build_system(machine_config(w));
    if hooks {
        sys.machine.enable_tracing();
        sys.machine.enable_surface();
    }
    spans.end();
    sys
}

/// Builds a system and boots the workload's VMs on it (plus, for
/// `guest_churn`, the profile's footprint and the settling idle time).
fn set_up(inputs: &Inputs, kind: EngineKind, spans: &mut Spans, n: &Names, hooks: bool) -> Engine {
    let w = inputs.workload;
    let names = EngineSpans::new(spans, kind);
    let mut sys = build(w, kind, spans, n.build, hooks);
    let vms: Vec<VmHandle> = inputs
        .images
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            spans.begin(n.boot);
            let vm = spec.boot(&mut sys, &format!("vm{i}"));
            spans.end();
            vm
        })
        .collect();
    if w == Workload::GuestChurn {
        spans.begin(n.setup_profile);
        setup_profile(&mut sys, &vms[0], &inputs.profile);
        spans.end();
        spans.begin(names.settle);
        sys.idle(CHURN_SETTLE_NS);
        spans.end();
    }
    Engine {
        kind,
        sys,
        vms,
        names,
    }
}

/// One scanner wake: idling one scan period runs exactly one wake.
fn wake(e: &mut Engine, spans: &mut Spans) {
    spans.begin(e.names.wake);
    let period = e.sys.policy.scan_period_ns();
    e.sys.idle(period);
    spans.end();
}

/// One foreground access. A traced access is filed as a fault access when
/// a machine fault counter moved during the call.
fn access(e: &mut Engine, a: Access, spans: &mut Spans, fault_accesses: &mut u64) {
    let vm = &e.vms[a.vm as usize];
    let (pid, va) = (vm.pid, target_va(vm, a));
    let traced = spans.enabled();
    let before = if traced {
        fault_total(&e.sys.machine.stats())
    } else {
        0
    };
    spans.begin(e.names.access);
    if a.write {
        e.sys.write(pid, va, a.value);
    } else {
        e.sys.read(pid, va);
    }
    if traced {
        let faulted = fault_total(&e.sys.machine.stats()) != before;
        spans.end_as(if faulted {
            e.names.fault_access
        } else {
            e.names.access
        });
        *fault_accesses += u64::from(faulted);
    }
}

/// The foreground phase of `guest_churn` and the recorded phase of
/// `traced_replay`: accesses in chunks, each chunk followed by scanner
/// wakes, all filed as `Drive` laps. Returns the faulting-access count
/// (traced rounds only).
fn drive(
    w: Workload,
    e: &mut Engine,
    inputs: &Inputs,
    spans: &mut Spans,
    laps: &mut Laps,
) -> u64 {
    let (chunk, wakes) = match w {
        Workload::GuestChurn => (CHURN_CHUNK, 1),
        _ => (REPLAY_CHUNK, REPLAY_IDLE_WAKES),
    };
    let mut fault_accesses = 0;
    for c in inputs.accesses.chunks(chunk) {
        for part in c.chunks(ACCESS_LAP) {
            for &a in part {
                access(e, a, spans, &mut fault_accesses);
            }
            laps.lap(Lap::Drive);
        }
        for _ in 0..wakes {
            if w == Workload::GuestChurn {
                // The wake fires on the access clock, not after idle time.
                spans.begin(e.names.wake);
                e.sys.force_scans(1);
                spans.end();
            } else {
                wake(e, spans);
            }
        }
        laps.lap(Lap::Drive);
    }
    fault_accesses
}

fn wakes_per_engine(w: Workload, e: &Engine) -> u64 {
    match w {
        Workload::IdleFusion => IDLE_SPAN_NS / e.sys.policy.scan_period_ns(),
        Workload::GuestChurn => CHURN_ACCESSES.div_ceil(CHURN_CHUNK) as u64,
        Workload::TracedReplay => {
            (REPLAY_ACCESSES.div_ceil(REPLAY_CHUNK) * REPLAY_IDLE_WAKES) as u64
        }
    }
}

/// Appends a system's end state to the digested bytes: its full metrics
/// snapshot, pages saved and simulated clock.
fn digest_system(d: &mut Vec<u8>, kind: EngineKind, sys: &Sys) {
    d.extend_from_slice(kind.slug().as_bytes());
    d.extend_from_slice(sys.metrics_snapshot().to_json().as_bytes());
    d.extend_from_slice(&sys.policy.pages_saved().to_le_bytes());
    d.extend_from_slice(&sys.machine.now_ns().to_le_bytes());
}

/// Per-layer counts of one system's measured phase.
fn layer_counts(
    c: &mut Counts,
    kind: EngineKind,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
) {
    let e = kind.slug();
    let diff = after.diff(before);
    let delta = |k: &str| diff.counters.get(k).copied().unwrap_or(0);
    let gauge = |k: &str| after.gauges.get(k).copied().unwrap_or(0).max(0) as u64;
    for (layer, what, v) in [
        ("core", "pages_scanned", delta("scan.pages_scanned")),
        (
            "core",
            "pages_skipped_clean",
            delta("scan.pages_skipped_clean"),
        ),
        ("core", "pages_merged", delta("scan.pages_merged")),
        ("core", "pages_fake_merged", delta("scan.pages_fake_merged")),
        ("core", "pages_unmerged", delta("scan.pages_unmerged")),
        ("core", "pages_saved", gauge("engine.pages_saved")),
        (
            "kernel",
            "faults_not_mapped",
            delta("machine.faults_not_mapped"),
        ),
        ("kernel", "faults_trapped", delta("machine.faults_trapped")),
        (
            "kernel",
            "faults_write_protected",
            delta("machine.faults_write_protected"),
        ),
        ("kernel", "demand_zero", delta("machine.demand_zero")),
        ("kernel", "cow_copies", delta("machine.cow_copies")),
        ("mmu", "tlb_hits", delta("tlb.hits")),
        ("mmu", "tlb_misses", delta("tlb.misses")),
        ("mmu", "tlb_shootdowns", delta("tlb.shootdowns")),
        ("cache", "llc_hits", delta("llc.hits")),
        ("cache", "llc_misses", delta("llc.misses")),
        ("cache", "llc_evictions", delta("llc.evictions")),
        ("mem", "buddy_allocs", delta("buddy.allocs")),
        ("mem", "buddy_frees", delta("buddy.frees")),
        ("mem", "buddy_splits", delta("buddy.splits")),
        ("mem", "allocated_frames", gauge("mem.allocated_frames")),
    ] {
        *c.entry(format!("{layer}.{e}.{what}")).or_default() += v;
    }
    if after.counters.contains_key("khugepaged.collapsed") {
        *c.entry(format!("kernel.{e}.khugepaged.collapsed"))
            .or_default() += delta("khugepaged.collapsed");
    }
    if after.counters.contains_key("surface.dram.hits_other") {
        *c.entry(format!("dram.{e}.row_hits")).or_default() +=
            delta("surface.dram.hits_other") + delta("surface.dram.hits_fused");
        *c.entry(format!("dram.{e}.row_conflicts")).or_default() +=
            delta("surface.dram.conflicts_other") + delta("surface.dram.conflicts_fused");
    }
}

/// Output checks every system must pass at the end of a round: no frame
/// accounting violation, and the fault-counter identities of
/// `tests/accounting.rs`.
fn check_system(r: &mut Round, label: &str, sys: &Sys) {
    let violations = sys.machine.audit_frames();
    r.check(violations.is_empty(), || {
        format!("{label}: audit_frames: {}", violations.join("; "))
    });
    let m = sys.machine.stats();
    let s = sys.stats();
    let resolved = s.policy_faults + s.kernel_faults + s.unresolved_faults;
    r.check(fault_total(&m) == resolved, || {
        format!(
            "{label}: {} hardware faults but {resolved} resolved",
            fault_total(&m)
        )
    });
    let fills = m.demand_zero + m.demand_huge + m.demand_file + m.cow_copies;
    r.check(s.kernel_faults == fills, || {
        format!(
            "{label}: {} kernel faults but {fills} fills/copies",
            s.kernel_faults
        )
    });
}

fn failed_ops(sys: &Sys) -> u64 {
    let s = sys.stats();
    s.unresolved_faults + s.fault_livelocks
}

/// Runs one round. `probe_hooks` adds, for `traced_replay`, a timed rerun
/// of each recorded phase on a twin system with the simulator's tracer and
/// surface off (outside the measured phase). Returns the round and its
/// systems (for cost-model calibration).
pub fn round(inputs: &Inputs, spans: &mut Spans, probe_hooks: bool) -> (Round, Vec<Sys>) {
    let w = inputs.workload;
    let n = Names::new(spans);
    let hooks = w == Workload::TracedReplay;
    let mut r = Round {
        traced: spans.enabled(),
        ..Round::default()
    };

    let t = Instant::now();
    spans.begin(n.setup);
    let mut engines: Vec<Engine> = engines_of(w)
        .iter()
        .map(|&k| set_up(inputs, k, spans, &n, hooks))
        .collect();
    spans.end();
    r.setup_s = t.elapsed().as_secs_f64();

    let mut twins: Vec<Engine> = if probe_hooks && hooks {
        engines_of(w)
            .iter()
            .map(|&k| set_up(inputs, k, spans, &n, false))
            .collect()
    } else {
        Vec::new()
    };
    if hooks {
        // The exported artifacts describe exactly the measured phase.
        for e in &mut engines {
            e.sys.machine.obs_mut().clear();
        }
    }
    let befores: Vec<MetricsSnapshot> = engines.iter().map(|e| e.sys.metrics_snapshot()).collect();
    let clocks: Vec<u64> = engines.iter().map(|e| e.sys.machine.now_ns()).collect();
    let failed_before: Vec<u64> = engines.iter().map(|e| failed_ops(&e.sys)).collect();

    // Measured phase.
    let mut fault_accesses = vec![0u64; engines.len()];
    let mut replays: Vec<(Sys, Vec<u8>, Vec<u8>, u64)> = Vec::new();
    let mut laps = Laps::start();
    spans.begin(n.measure);
    for (i, e) in engines.iter_mut().enumerate() {
        match w {
            Workload::IdleFusion => {
                let wakes = IDLE_SPAN_NS / e.sys.policy.scan_period_ns();
                for k in 1..=wakes {
                    wake(e, spans);
                    if k % WAKE_LAP == 0 || k == wakes {
                        laps.lap(Lap::Other);
                    }
                }
            }
            Workload::GuestChurn => {
                fault_accesses[i] = drive(w, e, inputs, spans, &mut laps);
            }
            Workload::TracedReplay => {
                spans.begin(n.snapshot_save);
                let base = e.sys.snapshot();
                spans.end();
                e.sys.machine.clear_journal();
                e.sys.machine.enable_journal();
                laps.lap(Lap::Other);
                fault_accesses[i] = drive(w, e, inputs, spans, &mut laps);
                spans.begin(n.snapshot_save);
                let recorded = e.sys.snapshot();
                spans.end();

                let mut fresh = build(w, e.kind, spans, n.build_replay, true);
                spans.begin(n.snapshot_restore);
                let restored = fresh.restore(&base);
                spans.end();
                let clock0 = fresh.machine.now_ns();
                let journal: Vec<JournalEvent> = e.sys.machine.journal().to_vec();
                laps.lap(Lap::Other);
                for events in journal.chunks(REPLAY_LAP) {
                    for ev in events {
                        spans.begin(n.replay_event);
                        fresh.replay_event(ev);
                        spans.end();
                    }
                    laps.lap(Lap::Replay);
                }
                spans.begin(n.snapshot_save);
                let replayed = fresh.snapshot();
                spans.end();

                spans.begin(n.metrics_snapshot);
                let metrics = e.sys.metrics_snapshot().to_json();
                spans.end();
                spans.begin(n.surface_json);
                let surface = e.sys.surface_json();
                spans.end();
                spans.begin(n.trace_export);
                let trace = e.sys.machine.obs().tracer().chrome_trace_json();
                spans.end();
                std::hint::black_box((metrics, surface, trace));
                laps.lap(Lap::Other);

                r.replay_events += journal.len() as u64;
                r.check(restored.is_ok(), || {
                    format!("{}: restore failed: {restored:?}", e.kind.slug())
                });
                let sim = fresh.machine.now_ns() - clock0;
                *r.counts.entry("snapshot.bytes".into()).or_default() += base.len() as u64;
                replays.push((fresh, recorded, replayed, sim));
            }
        }
    }
    spans.end();
    r.wall_s = laps.total(|_| true);
    let drive_s = laps.total(|k| k == Lap::Drive);
    r.laps = laps.laps;

    // Checks and counts, outside the measured phase.
    let mut d = Vec::new();
    for (i, e) in engines.iter().enumerate() {
        let after = e.sys.metrics_snapshot();
        layer_counts(&mut r.counts, e.kind, &befores[i], &after);
        let slug = e.kind.slug();
        if w != Workload::IdleFusion {
            *r.counts
                .entry(format!("kernel.{slug}.accesses"))
                .or_default() += inputs.accesses.len() as u64;
            r.accesses += inputs.accesses.len() as u64;
        }
        let wakes = wakes_per_engine(w, e);
        *r.counts.entry(format!("core.{slug}.wakes")).or_default() += wakes;
        r.wakes += wakes;
        if r.traced && w != Workload::IdleFusion {
            *r.counts
                .entry(format!("kernel.{slug}.fault_accesses"))
                .or_default() += fault_accesses[i];
        }
        r.sim_ns += e.sys.machine.now_ns() - clocks[i];
        r.failed_ops += failed_ops(&e.sys) - failed_before[i];
        check_system(&mut r, slug, &e.sys);
        digest_system(&mut d, e.kind, &e.sys);
    }
    for (i, (fresh, recorded, replayed, sim)) in replays.iter().enumerate() {
        let slug = engines[i].kind.slug();
        r.sim_ns += sim;
        r.check(recorded == replayed, || {
            format!("{slug}: replayed snapshot differs from the recorded run")
        });
        check_system(&mut r, &format!("{slug} replay"), fresh);
    }
    if w == Workload::TracedReplay {
        *r.counts.entry("kernel.replay_events".into()).or_default() += r.replay_events;
    }
    r.digest = fnv1a64(&d);

    if !twins.is_empty() {
        spans.set_enabled(false);
        let mut off_s = 0.0;
        for (twin, (_, recorded, _, _)) in twins.iter_mut().zip(&replays) {
            twin.sys.machine.clear_journal();
            twin.sys.machine.enable_journal();
            let t = Instant::now();
            drive(w, twin, inputs, spans, &mut Laps::start());
            off_s += t.elapsed().as_secs_f64();
            let same = twin.sys.snapshot() == *recorded;
            r.check(same, || {
                format!("{}: hooks-off run diverged from hooks-on", twin.kind.slug())
            });
        }
        spans.set_enabled(r.traced);
        r.record_hooks_s = Some((drive_s, off_s));
    }

    let mut systems: Vec<Sys> = engines.into_iter().map(|e| e.sys).collect();
    systems.extend(replays.into_iter().map(|(s, ..)| s));
    (r, systems)
}
